//! Exporters for a [`TelemetrySnapshot`].
//!
//! * [`chrome`] — Chrome trace-event JSON; open the file at
//!   <https://ui.perfetto.dev> or `chrome://tracing`.
//! * [`jsonl`] — one self-describing JSON object per line, for ad-hoc
//!   processing with `jq`/`grep`.
//! * [`summary`] — a plain-text table for terminals and logs.
//!
//! Each renderer makes one pass over the snapshot and writes into one
//! buffer sized up front and checked for UTF-8 once, at the end; the
//! bytes depend only on the snapshot, so a run that replays identically
//! exports identically. What repeats is rendered once: every symbol as a
//! JSON literal and as an object key, and every span's text that depends
//! only on its `(name, process, lane)` as one template per distinct
//! triple.

use std::sync::Arc;

use crate::audit::DecisionRecord;
use crate::json::{write_f64, write_i64, write_json_number, write_literal, write_u64, Out, Text};
use crate::sink::TelemetrySnapshot;
use crate::store::{AttrRow, FastMap, SpanRow, SpanTable, Stored, Sym};

pub mod chrome;
pub mod jsonl;
pub mod summary;

// Size estimates for `Escaped::capacity_for`, each for one event or line
// of either format without its template and the strings it carries, and
// for `Templates::new`, one template with its strings.
const SPAN_BYTES: usize = 160;
const TEMPLATE_BYTES: usize = 128;
const NUMBER_ATTR_BYTES: usize = 22;
const SAMPLE_BYTES: usize = 128;
const VERDICT_BYTES: usize = 256;
const REASON_BYTES: usize = 128;
const METRIC_BYTES: usize = 256;

/// Remembers how recent non-integer numbers print: a remembered one is a
/// copy, a new one a shortest-digits search and a layout, several times
/// that. A trace repeats its times: the requests of a group share a
/// start and a duration, the blocks of a wave a start and an end (seven
/// in ten timestamps of `fleet_policy_burst` hit). The text is whatever
/// [`write_json_number`] wrote the first time, so the bytes cannot
/// differ; a slot is simply overwritten when another value maps to it.
struct FloatMemo {
    slots: Box<[FloatSlot]>,
}

#[derive(Clone, Copy)]
struct FloatSlot {
    /// Bit pattern of the remembered value; 0 (an integer, never
    /// remembered) marks an empty slot.
    bits: u64,
    len: u8,
    text: [u8; FloatSlot::TEXT_BYTES],
}

impl FloatSlot {
    /// `0.00031710051282051284` is 22 bytes; longer prints are rare and
    /// just not remembered.
    const TEXT_BYTES: usize = 31;
}

impl FloatMemo {
    const SLOT_BITS: u32 = 12;

    fn new() -> Self {
        let empty = FloatSlot {
            bits: 0,
            len: 0,
            text: [0; FloatSlot::TEXT_BYTES],
        };
        FloatMemo {
            slots: vec![empty; 1 << Self::SLOT_BITS].into_boxed_slice(),
        }
    }

    /// Appends `v` exactly as [`write_json_number`] does.
    fn write(&mut self, out: &mut Text, v: f64) {
        if !v.is_finite() || v == v.trunc() {
            return write_json_number(out, v);
        }
        let bits = v.to_bits();
        let hash = bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (u64::BITS - Self::SLOT_BITS);
        let slot = &mut self.slots[hash as usize];
        if slot.bits == bits {
            return out.push_ascii_head(&slot.text, usize::from(slot.len));
        }
        let start = out.len();
        write_json_number(out, v);
        let text = out.tail(start);
        if let Some(kept) = slot.text.get_mut(..text.len()) {
            kept.copy_from_slice(text);
            slot.len = text.len() as u8;
            slot.bits = bits;
        }
    }
}

/// Strings rendered once and copied per use, in one buffer:
/// `text[ends[i - 1]..ends[i]]` is piece `i`.
struct Pieces {
    text: String,
    ends: Vec<usize>,
}

impl Pieces {
    fn with_capacity(pieces: usize, bytes: usize) -> Self {
        Pieces {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(pieces),
        }
    }

    /// Renders one more piece and returns its index.
    fn push(&mut self, render: impl FnOnce(&mut String)) -> u32 {
        render(&mut self.text);
        self.ends.push(self.text.len());
        (self.ends.len() - 1) as u32
    }

    fn get(&self, i: u32) -> &str {
        &self.text[self.start(i)..self.ends[i as usize]]
    }

    fn len(&self, i: u32) -> usize {
        self.ends[i as usize] - self.start(i)
    }

    fn start(&self, i: u32) -> usize {
        match i {
            0 => 0,
            i => self.ends[i as usize - 1],
        }
    }
}

/// Every symbol of a span table as a JSON object key, `"symbol":`,
/// escaped once per render; the literal is the key without its colon.
struct Escaped(Pieces);

impl Escaped {
    fn new(symbols: &[Arc<str>]) -> Self {
        let raw: usize = symbols.iter().map(|s| s.len() + 3).sum();
        let mut pieces = Pieces::with_capacity(symbols.len(), raw + raw / 8);
        for symbol in symbols {
            pieces.push(|text| {
                write_literal(text, symbol);
                text.push(':');
            });
        }
        Escaped(pieces)
    }

    /// `sym` as a JSON string literal, quotes included.
    fn get(&self, sym: Sym) -> &str {
        let key = self.0.get(sym);
        &key[..key.len() - 1]
    }

    /// Appends `"key":"value"`; every value is exported as a string, the
    /// numbers formatted as `to_string()` formats them.
    fn write_attr(&self, out: &mut Text, attr: &AttrRow) {
        out.push_str(self.0.get(attr.key));
        match attr.value {
            Stored::Sym(sym) => out.push_str(self.get(sym)),
            Stored::U64(v) => {
                out.push('"');
                write_u64(out, v);
                out.push('"');
            }
            Stored::I64(v) => {
                out.push('"');
                write_i64(out, v);
                out.push('"');
            }
            Stored::F64(v) => {
                out.push('"');
                write_f64(out, v);
                out.push('"');
            }
        }
    }

    /// Estimated size of a render of `snap` whose span events start
    /// with `templates` and whose audit records carry `reasons`. An
    /// estimate on the generous side, not a bound: the output grows if
    /// it falls short.
    fn capacity_for(
        &self,
        snap: &TelemetrySnapshot,
        templates: &Templates,
        reasons: &Reasons,
    ) -> usize {
        let spans = &snap.spans;
        // A symbol's literal is its key without the colon.
        let len = |sym| self.0.len(sym) - 1;
        let attr_text: usize = spans
            .attrs()
            .iter()
            .map(|attr| {
                2 + len(attr.key)
                    + match attr.value {
                        Stored::Sym(sym) => len(sym),
                        _ => NUMBER_ATTR_BYTES,
                    }
            })
            .sum();
        let samples: usize = snap.series.values().map(Vec::len).sum();
        let audit_text: usize = snap
            .audit
            .iter()
            .map(|rec| rec.kernels.iter().map(|k| k.len() + 3).sum::<usize>())
            .sum::<usize>()
            + reasons.0.text.len();
        let metrics = &snap.metrics;
        let metric_lines =
            metrics.counters().count() + metrics.gauges().count() + metrics.histograms().count();
        spans.len() * SPAN_BYTES
            + templates.text_bytes
            + attr_text
            + samples * SAMPLE_BYTES
            + snap.audit.len() * VERDICT_BYTES
            + audit_text
            + metric_lines * METRIC_BYTES
            + 4096
    }
}

/// Every audit record's reason as a JSON string literal, quotes
/// included, rendered once per export by
/// [`DecisionRecord::write_reason`]: piece `i` is record `i`'s.
struct Reasons(Pieces);

impl Reasons {
    fn new(audit: &[DecisionRecord]) -> Self {
        let mut pieces = Pieces::with_capacity(audit.len(), audit.len() * REASON_BYTES);
        let mut raw = String::new();
        for rec in audit {
            raw.clear();
            let _ = rec.write_reason(&mut raw);
            pieces.push(|text| write_literal(text, &raw));
        }
        Reasons(pieces)
    }

    fn get(&self, i: usize) -> &str {
        self.0.get(i as u32)
    }
}

/// The text of a span's event that depends only on its `(name, process,
/// lane)`, rendered once per distinct triple, when the chronological
/// pass first meets it.
struct Templates {
    pieces: Pieces,
    /// The template of each span, in chronological order.
    of_span: Vec<u32>,
    /// Bytes of template text over all spans.
    text_bytes: usize,
}

impl Templates {
    /// `render` writes the template of the triple whose first span is
    /// the row it is handed.
    fn new(spans: &SpanTable, mut render: impl FnMut(&mut String, &SpanRow)) -> Self {
        // As many templates as symbols, as a first guess.
        let guess = spans.symbols().len();
        let mut pieces = Pieces::with_capacity(guess, guess * TEMPLATE_BYTES);
        let mut ids: FastMap<(Sym, Sym, Sym), u32> =
            FastMap::with_capacity_and_hasher(guess, Default::default());
        let mut text_bytes = 0;
        let of_span = spans
            .rows()
            .map(|row| {
                let id = *ids
                    .entry((row.name, row.process, row.lane))
                    .or_insert_with(|| pieces.push(|text| render(text, row)));
                text_bytes += pieces.len(id);
                id
            })
            .collect();
        Templates {
            pieces,
            of_span,
            text_bytes,
        }
    }

    /// Each span's template, in chronological order.
    fn iter(&self) -> impl Iterator<Item = &str> {
        self.of_span.iter().map(|&t| self.pieces.get(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_memo_writes_what_write_number_writes() {
        // Far more distinct values than slots, each seen again later, so
        // hits, misses and overwritten slots all occur; plus the prints
        // too long to remember and everything that is not a plain float.
        let mut values: Vec<f64> = (0..20_000u32)
            .map(|i| f64::from(i % 9_000) * 0.000_123_456_789 + 1e-5)
            .collect();
        values.extend([
            0.0,
            -0.0,
            42.0,
            -7.0,
            1e300,
            1.5e-300,
            1.5e-300,
            f64::from_bits(1),
            f64::from_bits(1),
            -0.000_317_100_512_820_512_84,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]);
        let mut memo = FloatMemo::new();
        let (mut got, mut want) = (Text::with_capacity(0), String::new());
        for &v in &values {
            memo.write(&mut got, v);
            got.push(',');
            crate::json::write_number(&mut want, v);
            want.push(',');
        }
        assert_eq!(got.into_string(), want);
    }
}
