//! Span storage: a symbol table, fixed-size rows and one attribute arena.
//!
//! A run records hundreds of thousands of spans that repeat the same few
//! hundred words (`"host"`, `"ctx17"`, `"launch"`, `"block"`, ...), so
//! every string a span carries — process, lane, name, attribute keys and
//! string attribute values — is interned once into [`Symbols`] and the
//! span itself is a plain-old-data [`SpanRow`] pointing at a run of
//! [`AttrRow`]s in a shared arena. Recording a span on tracks that were
//! seen before allocates nothing beyond amortised `Vec` growth, and a
//! snapshot ([`SpanStore::table`]) is two `memcpy`s, one reference-count
//! increment and a sort of the copied rows.

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

/// The collector side: append-only, ids in emit order.
#[derive(Debug, Default)]
pub(crate) struct SpanStore {
    symbols: Symbols,
    rows: Vec<SpanRow>,
    attrs: Vec<AttrRow>,
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

    /// Copies the rows out in chronological order (start time, then id —
    /// concurrent emitters interleave arbitrarily, exporters want time
    /// order). What is sorted is one `(start, row index)` key per span,
    /// and the rows are copied once, in key order.
    pub fn table(&self) -> SpanTable {
        let mut order: Vec<(u64, u32)> = self
            .rows
            .iter()
            .zip(0..)
            .map(|(row, at)| (start_key(row.start_s), at))
            .collect();
        // Rows sit in id order, so ties on the start fall back to the id.
        order.sort_unstable();
        SpanTable {
            rows: order
                .iter()
                .map(|&(_, at)| self.rows[at as usize])
                .collect(),
            attrs: self.attrs.clone(),
            symbols: Arc::clone(&self.symbols.names),
        }
    }
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
/// A table owns a copy of the rows and shares the interned strings with
/// the sink it came from; read it through [`SpanTable::iter`] /
/// [`SpanTable::get`], which hand out [`Span`] views.
#[derive(Clone, Default)]
pub struct SpanTable {
    rows: Vec<SpanRow>,
    attrs: Vec<AttrRow>,
    symbols: Arc<Vec<Arc<str>>>,
}

impl SpanTable {
    /// Number of spans.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `i`-th span in chronological order.
    pub fn get(&self, i: usize) -> Option<Span<'_>> {
        self.rows.get(i).map(|row| self.view(row))
    }

    /// All spans in chronological order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = Span<'_>> + ExactSizeIterator {
        self.rows.iter().map(|row| self.view(row))
    }

    fn view<'a>(&'a self, row: &SpanRow) -> Span<'a> {
        Span::new(row, self.attrs_of(row), &self.symbols)
    }

    pub(crate) fn rows(&self) -> &[SpanRow] {
        &self.rows
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
