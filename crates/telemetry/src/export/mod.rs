//! Exporters for a [`TelemetrySnapshot`](crate::TelemetrySnapshot).
//!
//! * [`chrome`] — Chrome trace-event JSON; open the file at
//!   <https://ui.perfetto.dev> or `chrome://tracing`.
//! * [`jsonl`] — one self-describing JSON object per line, for ad-hoc
//!   processing with `jq`/`grep`.
//! * [`summary`] — a plain-text table for terminals and logs.
//!
//! Each renderer makes one pass over the snapshot and writes into one
//! `String` sized up front; the bytes depend only on the snapshot, so a
//! run that replays identically exports identically.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::json::{write_i64, write_number, write_string, write_u64};
use crate::sink::TelemetrySnapshot;
use crate::store::{AttrRow, Stored, Sym};

pub mod chrome;
pub mod jsonl;
pub mod summary;

// Size estimates for `Escaped::capacity_for`, each for one event or line
// of either format without the strings it carries.
const SPAN_BYTES: usize = 160;
const NUMBER_ATTR_BYTES: usize = 22;
const SAMPLE_BYTES: usize = 128;
const VERDICT_BYTES: usize = 256;
const METRIC_BYTES: usize = 256;

/// Remembers how recent non-integer numbers print. Shortest round-trip
/// digits through `fmt` cost several times everything else in an event,
/// and a trace repeats its times: the requests of a group share a start
/// and a duration, the blocks of a wave a start and an end (two thirds
/// of the floats in the pinned traces repeat a recent one). The text is
/// whatever [`write_number`] wrote the first time, so the bytes cannot
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

    /// Appends `v` exactly as [`write_number`] does.
    fn write(&mut self, out: &mut String, v: f64) {
        if !v.is_finite() || v == v.trunc() {
            return write_number(out, v);
        }
        let bits = v.to_bits();
        let hash = bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (u64::BITS - Self::SLOT_BITS);
        let slot = &mut self.slots[hash as usize];
        if slot.bits == bits {
            if let Ok(text) = std::str::from_utf8(&slot.text[..usize::from(slot.len)]) {
                return out.push_str(text);
            }
        }
        let start = out.len();
        write_number(out, v);
        let text = &out.as_bytes()[start..];
        if let Some(kept) = slot.text.get_mut(..text.len()) {
            kept.copy_from_slice(text);
            slot.len = text.len() as u8;
            slot.bits = bits;
        }
    }
}

/// Every symbol of a span table as a JSON string literal (quotes
/// included): escaped once per render, copied once per use.
struct Escaped {
    text: String,
    /// `text[ends[sym - 1]..ends[sym]]` is symbol `sym`.
    ends: Vec<usize>,
}

impl Escaped {
    fn new(symbols: &[Arc<str>]) -> Self {
        let raw: usize = symbols.iter().map(|s| s.len() + 2).sum();
        let mut text = String::with_capacity(raw + raw / 8);
        let mut ends = Vec::with_capacity(symbols.len());
        for symbol in symbols {
            write_string(&mut text, symbol);
            ends.push(text.len());
        }
        Escaped { text, ends }
    }

    fn get(&self, sym: Sym) -> &str {
        let sym = sym as usize;
        let start = if sym == 0 { 0 } else { self.ends[sym - 1] };
        &self.text[start..self.ends[sym]]
    }

    /// Appends `"key":"value"`; every value is exported as a string, the
    /// numbers formatted as `to_string()` formats them.
    fn write_attr(&self, out: &mut String, attr: &AttrRow) {
        out.push_str(self.get(attr.key));
        out.push(':');
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
                let _ = write!(out, "\"{v}\"");
            }
        }
    }

    /// Estimated size of a render of `snap` in either format. An
    /// estimate on the generous side, not a bound: the output grows if
    /// it falls short.
    fn capacity_for(&self, snap: &TelemetrySnapshot) -> usize {
        let spans = &snap.spans;
        let len = |sym| self.get(sym).len();
        let span_text: usize = spans
            .rows()
            .iter()
            .map(|row| {
                let attrs: usize = spans
                    .attrs_of(row)
                    .iter()
                    .map(|attr| {
                        2 + len(attr.key)
                            + match attr.value {
                                Stored::Sym(sym) => len(sym),
                                _ => NUMBER_ATTR_BYTES,
                            }
                    })
                    .sum();
                len(row.name) + len(row.process) + len(row.lane) + attrs
            })
            .sum();
        let samples: usize = snap.series.values().map(Vec::len).sum();
        let audit_text: usize = snap
            .audit
            .iter()
            .map(|rec| rec.reason.len() + rec.kernels.iter().map(|k| k.len() + 3).sum::<usize>())
            .sum();
        let metrics = &snap.metrics;
        let metric_lines =
            metrics.counters().count() + metrics.gauges().count() + metrics.histograms().count();
        spans.len() * SPAN_BYTES
            + span_text
            + samples * SAMPLE_BYTES
            + snap.audit.len() * VERDICT_BYTES
            + audit_text
            + metric_lines * METRIC_BYTES
            + 4096
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
        let (mut got, mut want) = (String::new(), String::new());
        for &v in &values {
            got.clear();
            want.clear();
            memo.write(&mut got, v);
            write_number(&mut want, v);
            assert_eq!(got, want, "value {v:e}");
        }
    }
}
