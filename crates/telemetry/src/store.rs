//! Span storage: a symbol table, fixed-size rows and one attribute arena.
//!
//! A run records hundreds of thousands of spans that repeat the same few
//! hundred words (`"host"`, `"ctx17"`, `"launch"`, `"block"`, ...), so
//! every string a span carries — process, lane, name, attribute keys and
//! string attribute values — is interned once into `Symbols` and the
//! span itself is a plain-old-data `SpanRow` pointing at a run of
//! `AttrRow`s in a shared arena. Recording a span on tracks that were
//! seen before allocates nothing beyond amortised `Vec` growth, and a
//! snapshot (`SpanStore::table`) copies no row: it shares the rows, the
//! arena and the strings, and keeps the rows' chronological order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::span::{AttrValue, Span};

/// Index of an interned string.
pub(crate) type Sym = u32;

/// A multiply-rotate hash over 8-byte words, in the style of rustc's
/// `FxHasher`. Every span pays for five or so symbol lookups, and on
/// keys this short SipHash is most of a lookup. What it buys — resistance
/// to keys crafted to collide — protects nothing here: the keys are the
/// instrumented program's own track, span and attribute names.
#[derive(Default)]
pub(crate) struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, mut bytes: &[u8]) {
        // Fixed-size reads only: a variable-length copy into a word
        // buffer costs more than the rest of the lookup.
        while let Some((word, rest)) = bytes.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*word));
            bytes = rest;
        }
        if let Some((word, rest)) = bytes.split_first_chunk::<4>() {
            self.add(u64::from(u32::from_le_bytes(*word)));
            bytes = rest;
        }
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    fn finish(&self) -> u64 {
        // The multiply mixes upwards; the table indexes with the low bits.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed by symbols or symbol-table strings.
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// The interned strings, in first-seen order.
#[derive(Debug, Default)]
struct Symbols {
    /// Shared with every snapshot; copied on the next *new* symbol only
    /// while a snapshot still holds it.
    names: Arc<Vec<Arc<str>>>,
    index: FastMap<Arc<str>, Sym>,
}

impl Symbols {
    fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.index.get(s) {
            return sym;
        }
        // 2^32 distinct strings do not fit in memory before this wraps.
        let sym = self.names.len() as Sym;
        let name: Arc<str> = Arc::from(s);
        Arc::make_mut(&mut self.names).push(Arc::clone(&name));
        self.index.insert(name, sym);
        sym
    }
}

/// One span: 56 bytes, no pointers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanRow {
    /// Emit-order id, starting at 1.
    pub id: u64,
    /// Id of the enclosing span; ids start at 1, so 0 encodes "none".
    pub parent: u64,
    pub start_s: f64,
    pub end_s: f64,
    /// This span's attributes are `attrs[attr_start..][..attr_len]`.
    pub attr_start: usize,
    pub attr_len: u32,
    pub name: Sym,
    pub process: Sym,
    pub lane: Sym,
}

impl SpanRow {
    /// Span duration in simulated seconds (never negative).
    pub fn duration_s(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }
}

/// One `key: value` attribute in the arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AttrRow {
    pub key: Sym,
    pub value: Stored,
}

/// An attribute value as stored: numbers stay numbers (formatted when
/// exported, not when recorded), strings are symbols.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stored {
    U64(u64),
    I64(i64),
    F64(f64),
    Sym(Sym),
}

/// What a [`SpanBuilder`](crate::SpanBuilder) hands over at `emit`.
pub(crate) struct PendingSpan<'a> {
    pub process: &'a str,
    pub lane: &'a str,
    pub name: &'a str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<u64>,
}

/// An append-only column that snapshots share instead of copy. What the
/// last snapshot took stays frozen behind an `Arc`, and pushes go to a
/// plain `Vec` after it, so recording pays nothing for the sharing. The
/// next snapshot joins the two: it appends the pushes to the frozen part
/// itself once no snapshot holds it, to a copy while one still does.
#[derive(Debug)]
struct Column<T> {
    frozen: Arc<Vec<T>>,
    /// `frozen.len()`, where a push reads it without following the `Arc`.
    frozen_len: usize,
    pushed: Vec<T>,
}

impl<T> Default for Column<T> {
    fn default() -> Self {
        Column {
            frozen: Arc::default(),
            frozen_len: 0,
            pushed: Vec::new(),
        }
    }
}

impl<T: Clone> Column<T> {
    fn len(&self) -> usize {
        self.frozen_len + self.pushed.len()
    }

    fn push(&mut self, value: T) {
        self.pushed.push(value);
    }

    fn share(&mut self) -> Arc<Vec<T>> {
        if !self.pushed.is_empty() {
            let mut pushed = std::mem::take(&mut self.pushed);
            if !self.frozen.is_empty() {
                let frozen = std::mem::take(&mut self.frozen);
                let mut all = Arc::try_unwrap(frozen).unwrap_or_else(|frozen| Vec::clone(&frozen));
                all.append(&mut pushed);
                pushed = all;
            }
            self.frozen_len = pushed.len();
            self.frozen = Arc::new(pushed);
        }
        Arc::clone(&self.frozen)
    }
}

/// The collector side: append-only, ids in emit order.
#[derive(Debug, Default)]
pub(crate) struct SpanStore {
    symbols: Symbols,
    rows: Column<SpanRow>,
    attrs: Column<AttrRow>,
}

impl SpanStore {
    /// Appends one span and returns its id.
    pub fn push<'a>(
        &mut self,
        span: &PendingSpan<'_>,
        attrs: impl Iterator<Item = &'a (&'a str, AttrValue<'a>)>,
    ) -> u64 {
        let attr_start = self.attrs.len();
        for (key, value) in attrs {
            let row = AttrRow {
                key: self.symbols.intern(key),
                value: match value {
                    AttrValue::U64(v) => Stored::U64(*v),
                    AttrValue::I64(v) => Stored::I64(*v),
                    AttrValue::F64(v) => Stored::F64(*v),
                    AttrValue::Str(s) => Stored::Sym(self.symbols.intern(s)),
                },
            };
            self.attrs.push(row);
        }
        let id = self.rows.len() as u64 + 1;
        self.rows.push(SpanRow {
            id,
            parent: span.parent.unwrap_or(0),
            start_s: span.start_s,
            end_s: span.end_s,
            attr_start,
            attr_len: (self.attrs.len() - attr_start) as u32,
            name: self.symbols.intern(span.name),
            process: self.symbols.intern(span.process),
            lane: self.symbols.intern(span.lane),
        });
        id
    }

    /// Shares the rows, the arena and the strings with a table that reads
    /// them in chronological order (start time, then id — concurrent
    /// emitters interleave arbitrarily, exporters want time order): the
    /// table keeps the row indices in that order.
    pub fn table(&mut self) -> SpanTable {
        let rows = self.rows.share();
        SpanTable {
            order: chronological(&rows),
            rows,
            attrs: self.attrs.share(),
            symbols: Arc::clone(&self.symbols.names),
        }
    }
}

/// The row indices in chronological order: by start, then by index —
/// the rows sit in id order, so spans that start together keep it.
/// Consecutive rows that start together are already in that order, so
/// what is ordered is one `(start key, first row, rows)` entry per such
/// run. The runs that start no earlier than every run before them are
/// in order too; only the rest are sorted, then merged in.
fn chronological(rows: &[SpanRow]) -> Vec<u32> {
    let mut runs: Vec<(u64, u32, u32)> = Vec::with_capacity(rows.len());
    for (row, at) in rows.iter().zip(0..) {
        let key = start_key(row.start_s);
        match runs.last_mut() {
            Some((last, _, len)) if *last == key => *len += 1,
            _ => runs.push((key, at, 1)),
        }
    }
    let mut late = Vec::with_capacity(runs.len());
    let mut latest = 0;
    runs.retain(|&run| {
        let in_order = run.0 >= latest;
        if in_order {
            latest = run.0;
        } else {
            late.push(run);
        }
        in_order
    });
    late.sort_unstable();

    let mut order = Vec::with_capacity(rows.len());
    let mut expand = |(_, first, len): (u64, u32, u32)| order.extend(first..first + len);
    let mut late = late.into_iter().peekable();
    for run in runs {
        while let Some(earlier) = late.next_if(|&l| l < run) {
            expand(earlier);
        }
        expand(run);
    }
    late.for_each(&mut expand);
    order
}

/// Maps a start time onto a `u64` that sorts as `f64::total_cmp` does —
/// a total order even when a start is NaN, which `partial_cmp` is not
/// (and `sort_by` panics on a comparator that is not). Adding `0.0`
/// first folds `-0.0` onto `0.0`, so every pair of ordinary starts
/// still compares as `<` would.
fn start_key(start_s: f64) -> u64 {
    let bits = (start_s + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The spans of a [`TelemetrySnapshot`](crate::TelemetrySnapshot), sorted
/// by simulated start time (ties by id).
///
/// A table shares the rows, the attribute arena and the interned strings
/// with the sink it came from, in emit order, and reads them through its
/// own chronological permutation; read it through [`SpanTable::iter`] /
/// [`SpanTable::get`], which hand out [`Span`] views.
#[derive(Clone, Default)]
pub struct SpanTable {
    rows: Arc<Vec<SpanRow>>,
    attrs: Arc<Vec<AttrRow>>,
    symbols: Arc<Vec<Arc<str>>>,
    /// `rows[order[i]]` is the `i`-th span in chronological order.
    order: Vec<u32>,
}

impl SpanTable {
    /// Number of spans.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The `i`-th span in chronological order.
    pub fn get(&self, i: usize) -> Option<Span<'_>> {
        let at = *self.order.get(i)?;
        Some(self.view(&self.rows[at as usize]))
    }

    /// All spans in chronological order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = Span<'_>> + ExactSizeIterator {
        self.rows().map(|row| self.view(row))
    }

    fn view<'a>(&'a self, row: &SpanRow) -> Span<'a> {
        Span::new(row, self.attrs_of(row), &self.symbols)
    }

    /// The rows in chronological order.
    pub(crate) fn rows(&self) -> impl DoubleEndedIterator<Item = &SpanRow> + ExactSizeIterator {
        self.order.iter().map(|&at| &self.rows[at as usize])
    }

    /// Every span's attributes, in emit order.
    pub(crate) fn attrs(&self) -> &[AttrRow] {
        &self.attrs
    }

    pub(crate) fn attrs_of(&self, row: &SpanRow) -> &[AttrRow] {
        &self.attrs[row.attr_start..][..row.attr_len as usize]
    }

    pub(crate) fn symbols(&self) -> &[Arc<str>] {
        &self.symbols
    }
}

impl std::fmt::Debug for SpanTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(starts: &[f64]) -> Vec<SpanRow> {
        starts
            .iter()
            .zip(1..)
            .map(|(&start_s, id)| SpanRow {
                id,
                parent: 0,
                start_s,
                end_s: start_s,
                attr_start: 0,
                attr_len: 0,
                name: 0,
                process: 0,
                lane: 0,
            })
            .collect()
    }

    #[test]
    fn chronological_is_the_sort_by_start_key_then_row() {
        let mut state = 0x9e37_79b9_u64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) % n
        };
        let odd = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
        ];
        let mut cases: Vec<Vec<f64>> = vec![
            vec![],
            vec![1.0],
            (0..500).map(f64::from).collect(),
            (0..500).rev().map(f64::from).collect(),
            vec![3.0; 500],
            odd.repeat(40),
        ];
        for _ in 0..20 {
            // Runs of equal starts, arriving up to 64 places late.
            let mut starts = Vec::new();
            let mut t = 0.0;
            while starts.len() < 2_000 {
                t += next(3) as f64 * 0.25;
                let late = next(64) as f64 * 0.25;
                let run = 1 + next(8) as usize;
                starts.extend(std::iter::repeat_n(t - late, run));
                if next(50) == 0 {
                    starts.push(odd[next(odd.len() as u64) as usize]);
                }
            }
            cases.push(starts);
        }
        for starts in cases {
            let rows = rows(&starts);
            let mut want: Vec<(u64, u32)> = rows
                .iter()
                .zip(0..)
                .map(|(row, at)| (start_key(row.start_s), at))
                .collect();
            want.sort_unstable();
            let want: Vec<u32> = want.into_iter().map(|(_, at)| at).collect();
            assert_eq!(chronological(&rows), want, "starts {starts:?}");
        }
    }
}
