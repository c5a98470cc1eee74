//! Structured spans over simulated time.
//!
//! A span is a named interval `[start_s, end_s]` on some *track*.  Tracks
//! are identified by a `(process, lane)` pair — e.g. `("host", "backend")`
//! or `("gpu0", "sm3")` — and map onto Chrome trace-event pid/tid rows at
//! export time.  Spans nest through explicit parent ids: the simulator
//! knows the full lifetime of each phase when it records it (simulated
//! clocks only move when the code advances them), so spans are recorded
//! complete rather than via enter/exit guards.
//!
//! Recording borrows: a [`SpanBuilder`] holds the caller's `&str`s and
//! typed attribute values on the stack and copies nothing until `emit`
//! hands them to the store, so building a span on a disabled sink costs
//! no allocation at all.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::sink::{lock, Collector};
use crate::store::{AttrRow, PendingSpan, SpanRow, Stored};

/// A span attribute value. Numbers are kept as numbers and formatted
/// when exported (as `to_string()` would have), not when recorded;
/// strings are borrowed until `emit` interns them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue<'a> {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(&'a str),
}

impl fmt::Display for AttrValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(v) => v.fmt(f),
            AttrValue::I64(v) => v.fmt(f),
            AttrValue::F64(v) => v.fmt(f),
            AttrValue::Str(s) => f.write_str(s),
        }
    }
}

macro_rules! attr_from_int {
    ($variant:ident as $wide:ty: $($t:ty),*) => {$(
        impl From<$t> for AttrValue<'_> {
            #[inline]
            fn from(v: $t) -> Self {
                AttrValue::$variant(v as $wide)
            }
        }
    )*};
}
attr_from_int!(U64 as u64: u8, u16, u32, u64, usize);
attr_from_int!(I64 as i64: i8, i16, i32, i64, isize);

impl From<f64> for AttrValue<'_> {
    #[inline]
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<bool> for AttrValue<'_> {
    #[inline]
    fn from(v: bool) -> Self {
        AttrValue::Str(if v { "true" } else { "false" })
    }
}

impl<'a> From<&'a str> for AttrValue<'a> {
    #[inline]
    fn from(v: &'a str) -> Self {
        AttrValue::Str(v)
    }
}

impl<'a> From<&'a String> for AttrValue<'a> {
    #[inline]
    fn from(v: &'a String) -> Self {
        AttrValue::Str(v)
    }
}

impl<'a> From<&'a Arc<str>> for AttrValue<'a> {
    #[inline]
    fn from(v: &'a Arc<str>) -> Self {
        AttrValue::Str(v)
    }
}

/// One recorded span, read out of a [`SpanTable`](crate::SpanTable).
#[derive(Clone, Copy)]
pub struct Span<'a> {
    /// Unique id within one sink, assigned in emit order.
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Event name, e.g. `"rpc"`, `"staging"`, `"block"`.
    pub name: &'a str,
    /// Process-level track, e.g. `"host"` or `"gpu0"`.
    pub process: &'a str,
    /// Lane within the process, e.g. `"backend"` or `"sm2"`.
    pub lane: &'a str,
    /// Simulated start time in seconds.
    pub start_s: f64,
    /// Simulated end time in seconds (`>= start_s`).
    pub end_s: f64,
    attrs: &'a [AttrRow],
    symbols: &'a [Arc<str>],
}

impl<'a> Span<'a> {
    pub(crate) fn new(row: &SpanRow, attrs: &'a [AttrRow], symbols: &'a [Arc<str>]) -> Self {
        Span {
            id: row.id,
            parent: (row.parent != 0).then_some(row.parent),
            name: &symbols[row.name as usize],
            process: &symbols[row.process as usize],
            lane: &symbols[row.lane as usize],
            start_s: row.start_s,
            end_s: row.end_s,
            attrs,
            symbols,
        }
    }

    /// Span duration in simulated seconds (never negative).
    pub fn duration_s(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }

    /// The key/value annotations, in the order they were attached.
    pub fn attrs(&self) -> impl Iterator<Item = (&'a str, AttrValue<'a>)> + 'a {
        let symbols = self.symbols;
        self.attrs.iter().map(move |attr| {
            let value = match attr.value {
                Stored::U64(v) => AttrValue::U64(v),
                Stored::I64(v) => AttrValue::I64(v),
                Stored::F64(v) => AttrValue::F64(v),
                Stored::Sym(s) => AttrValue::Str(&symbols[s as usize]),
            };
            (&*symbols[attr.key as usize], value)
        })
    }
}

impl fmt::Debug for Span<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Span")
            .field("id", &self.id)
            .field("parent", &self.parent)
            .field("name", &self.name)
            .field("process", &self.process)
            .field("lane", &self.lane)
            .field("start_s", &self.start_s)
            .field("end_s", &self.end_s)
            .field("attrs", &self.attrs().collect::<Vec<_>>())
            .finish()
    }
}

/// Where a builder's `emit` records.
pub(crate) enum Target<'a> {
    /// A disabled sink: nothing is kept, nothing is recorded.
    Off,
    /// An enabled sink: `emit` takes the collector lock once.
    Sink(&'a Mutex<Collector>),
    /// A [`Recorder`](crate::Recorder) that already holds the lock.
    Locked(&'a mut Collector),
}

/// Attributes a builder keeps on the stack; a span with more spills the
/// rest to the heap.
const INLINE_ATTRS: usize = 4;

type Attr<'a> = (&'a str, AttrValue<'a>);

/// Fluent builder returned by [`TelemetrySink::span`](crate::TelemetrySink::span)
/// and [`Recorder::span`](crate::Recorder::span).
///
/// Dropping the builder without calling [`emit`](Self::emit) records
/// nothing; on a disabled sink `emit` is a no-op returning `None`.
#[must_use = "call .emit() to record the span"]
pub struct SpanBuilder<'a> {
    target: Target<'a>,
    span: PendingSpan<'a>,
    inline: [Attr<'a>; INLINE_ATTRS],
    /// Attributes attached so far, inline and spilled.
    len: usize,
    spill: Vec<Attr<'a>>,
}

impl<'a> SpanBuilder<'a> {
    #[inline]
    pub(crate) fn new(
        target: Target<'a>,
        (process, lane): (&'a str, &'a str),
        name: &'a str,
        (start_s, end_s): (f64, f64),
    ) -> Self {
        SpanBuilder {
            target,
            span: PendingSpan {
                process,
                lane,
                name,
                start_s,
                end_s,
                parent: None,
            },
            inline: [("", AttrValue::U64(0)); INLINE_ATTRS],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Sets the parent span id (pass the value a previous `emit` returned).
    #[inline]
    pub fn parent(mut self, parent: Option<u64>) -> Self {
        self.span.parent = parent;
        self
    }

    /// Attaches a key/value attribute.
    #[inline]
    pub fn attr(mut self, key: &'a str, value: impl Into<AttrValue<'a>>) -> Self {
        if matches!(self.target, Target::Off) {
            return self;
        }
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = (key, value.into()),
            None => self.spill.push((key, value.into())),
        }
        self.len += 1;
        self
    }

    /// Records the span, returning its id so children can reference it.
    #[inline]
    pub fn emit(self) -> Option<u64> {
        let inline = &self.inline[..self.len.min(INLINE_ATTRS)];
        let attrs = inline.iter().chain(&self.spill);
        match self.target {
            Target::Off => None,
            Target::Sink(collector) => Some(lock(collector).spans.push(&self.span, attrs)),
            Target::Locked(collector) => Some(collector.spans.push(&self.span, attrs)),
        }
    }
}
