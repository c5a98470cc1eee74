//! Decision audit log.
//!
//! Every consolidate/serial/CPU verdict made by the decision engine is
//! recorded together with the model predictions that justified it, so a
//! surprising schedule can be explained after the fact (which prediction
//! won, and by how much). The events around the verdicts — sheds,
//! placements, drains, recovery hops, state changes — are recorded too.
//!
//! A record holds the plain fields its event site knew, as an
//! [`AuditEvent`]. Its text is rendered in one place,
//! [`DecisionRecord::write_reason`], and only when an exporter asks, so
//! the text cannot say anything the fields do not.

use std::fmt::{self, Write};
use std::sync::Arc;

/// The scheduling verdict for one kernel group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Space-share the GPU: launch the group as one consolidated kernel.
    Consolidate,
    /// Time-share the GPU: launch the kernels back-to-back.
    SerialGpu,
    /// Keep the work on the host CPU.
    Cpu,
    /// The request could not be completed by any rung of the degradation
    /// ladder and was failed back to its frontend.
    Failed,
    /// The request was abandoned: its frontend disconnected before the
    /// work ran, so the backend drained it from the pending queue.
    Drained,
    /// A fleet placement event: a context was bound to a device (or
    /// drained off a tripped one and re-placed). Only emitted when an
    /// explicit fleet is configured.
    Placed,
    /// The request was shed by the admission controller (queue bound,
    /// rate limit, priority class under pressure, or CoDel-style queue
    /// age) instead of being executed. Only emitted when admission
    /// control is configured.
    Shed,
    /// The degradation ladder changed level (stepped down under
    /// sustained pressure, or back up after a quiet period). Only
    /// emitted when admission control is configured.
    Degraded,
    /// A device moved to a different power state (a DVFS level, or
    /// parked in idle/sleep). Only emitted when a power-state stack is
    /// configured.
    StateChanged,
}

impl Verdict {
    /// Stable lower-case label used by every exporter.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Consolidate => "consolidate",
            Verdict::SerialGpu => "serial_gpu",
            Verdict::Cpu => "cpu",
            Verdict::Failed => "failed",
            Verdict::Drained => "drained",
            Verdict::Placed => "placed",
            Verdict::Shed => "shed",
            Verdict::Degraded => "degraded",
            Verdict::StateChanged => "state_changed",
        }
    }
}

/// What one audit record is about: the plain fields of one event.
///
/// `ctx` is a context, `seq` a request's ticket, `device`, `from` and
/// `to` are device indices, and `error` is a device error's
/// `to_string()`. Causes, policies and states are the `&'static str`
/// labels their own types carry. A kernel name or a member count is read
/// off the record's `kernels`.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditEvent {
    /// A group's verdict: consolidate, serial GPU or CPU.
    Decision {
        /// The energies the verdict compared, joules: consolidated,
        /// serial, CPU. The consolidated one has `margin` applied; under
        /// a power policy the GPU two are horizon energies at the states
        /// the knob chose.
        compared_j: [f64; 3],
        /// The benefit margin consolidation had to clear, a fraction of
        /// its energy.
        margin: f64,
        /// The power policy's part, when one is wired.
        policy: Option<PolicyStates>,
        /// `force_gpu` overrode a CPU verdict.
        forced: bool,
        /// Why the GPU was closed to the group after the verdict, if it
        /// was.
        closed: Option<GpuClosed>,
    },
    /// A request shed at admission (no ticket yet) or from the queue.
    Shed {
        ctx: u64,
        seq: Option<u64>,
        cause: &'static str,
    },
    /// A context bound to a device on first touch, by a placement
    /// `policy` for a placement `reason`.
    Placed {
        ctx: u64,
        device: usize,
        /// The device's fleet name.
        device_name: Arc<str>,
        policy: &'static str,
        reason: &'static str,
    },
    /// A context drained off a device whose breaker is open: `bytes`
    /// crossed PCIe.
    Migrated {
        ctx: u64,
        from: usize,
        to: usize,
        buffers: usize,
        constants: usize,
        bytes: u64,
    },
    /// A frontend left with launches pending; the record names them.
    Reaped { ctx: u64 },
    /// The degradation ladder changed level.
    Degraded {
        from: u8,
        to: u8,
        /// The pressure the watchdog read: oldest pending age or device
        /// backlog, seconds.
        age_s: f64,
        /// Launches pending.
        pending: usize,
    },
    /// A device moved to another power state.
    StateChanged {
        device: usize,
        /// The level it left (`None`: it had never left P0).
        from: Option<u32>,
        /// The name of the state it entered, at `level`.
        state: &'static str,
        level: usize,
    },
    /// A consolidated launch failed; the record's members go serially.
    SerialFallback { device: usize, error: String },
    /// One member falls back to the CPU.
    CpuFallback {
        seq: u64,
        device: usize,
        /// The error it last met (`None`: it was never launched).
        error: Option<String>,
        /// It was launched again on its own, serially.
        relaunched: bool,
        /// Its device's breaker is open.
        breaker_open: bool,
    },
    /// A transient fault tripped a device's circuit breaker at device
    /// time `at_s`, closing the device for `cooldown_s`.
    BreakerTripped {
        device: usize,
        at_s: f64,
        cooldown_s: f64,
        error: String,
    },
    /// Retry `retry` would blow the group's deadline; the ladder
    /// escalates.
    DeadlineEscalation {
        deadline_s: f64,
        retry: u32,
        error: String,
    },
    /// A request failed permanently; `error` is delivered at the
    /// context's next `sync`.
    Failed { ctx: u64, seq: u64, error: String },
}

/// A power policy's part in a decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyStates {
    /// The knob's label.
    pub knob: &'static str,
    /// The states the knob chose: for the consolidated alternative, then
    /// for the serial one.
    pub states: [&'static str; 2],
}

/// Why a group headed for the GPU was sent to the CPU after all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuClosed {
    /// The device's breaker was open and no healthy device was left.
    BreakerOpen { device: usize },
    /// The device's breaker was open, and the drain to healthy device
    /// `to` could not move every context of the group.
    DrainRefused { from: usize, to: usize },
    /// Degradation level 4 spilled the group to the CPU lifeboat.
    Spilled,
}

/// One audited decision: the verdict plus all candidate costs.
///
/// Times are simulated seconds, energies joules.  A candidate the engine
/// did not evaluate (e.g. CPU execution for a group that cannot run on the
/// host) is `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Simulated time at which the decision was taken.
    pub time_s: f64,
    /// Kernel names in the group, in submission order.
    pub kernels: Vec<Arc<str>>,
    /// The verdict.
    pub verdict: Verdict,
    /// Predicted (time, energy) if the group is consolidated.
    pub consolidated: Option<(f64, f64)>,
    /// Predicted (time, energy) if the kernels run serially on the GPU.
    pub serial: Option<(f64, f64)>,
    /// Predicted (time, energy) if the work stays on the CPU.
    pub cpu: Option<(f64, f64)>,
    /// What happened, in the event's own fields.
    pub event: AuditEvent,
}

impl DecisionRecord {
    /// An audited event that weighed no candidates — a placement, a
    /// shed, a drain, a recovery hop, a state change: every prediction
    /// is `None`.
    pub fn event(time_s: f64, verdict: Verdict, kernels: Vec<Arc<str>>, event: AuditEvent) -> Self {
        DecisionRecord {
            time_s,
            kernels,
            verdict,
            consolidated: None,
            serial: None,
            cpu: None,
            event,
        }
    }

    /// Predicted (time, energy) of the chosen candidate, when evaluated.
    pub fn chosen(&self) -> Option<(f64, f64)> {
        match self.verdict {
            Verdict::Consolidate => self.consolidated,
            Verdict::SerialGpu => self.serial,
            Verdict::Cpu => self.cpu,
            Verdict::Failed
            | Verdict::Drained
            | Verdict::Placed
            | Verdict::Shed
            | Verdict::Degraded
            | Verdict::StateChanged => None,
        }
    }

    /// Write the record's human-readable reason, e.g. `"compared energy:
    /// consolidated 12.300 J (2% margin included), serial 15.900 J, cpu
    /// 20.000 J"`. Every exporter's audit text comes from here.
    pub fn write_reason(&self, out: &mut impl Write) -> fmt::Result {
        let name = self.kernels.first().map_or("", |k| &**k);
        let members = self.kernels.len();
        match &self.event {
            AuditEvent::Decision {
                compared_j: [consolidated, serial, cpu],
                margin,
                policy,
                forced,
                closed,
            } => {
                out.write_str("compared energy")?;
                if let Some(p) = policy {
                    write!(out, " over the {} horizon", p.knob)?;
                }
                write!(out, ": consolidated {consolidated:.3} J")?;
                if let Some(p) = policy {
                    write!(out, " at {}", p.states[0])?;
                }
                write!(
                    out,
                    " ({}% margin included), serial {serial:.3} J",
                    margin * 100.0
                )?;
                if let Some(p) = policy {
                    write!(out, " at {}", p.states[1])?;
                }
                write!(out, ", cpu {cpu:.3} J")?;
                if *forced {
                    out.write_str("; force_gpu overrode a CPU verdict")?;
                }
                match closed {
                    Some(GpuClosed::BreakerOpen { device }) => write!(
                        out,
                        "; circuit breaker open on gpu{device}, no healthy device: \
                         group tripped to CPU"
                    ),
                    Some(GpuClosed::DrainRefused { from, to }) => write!(
                        out,
                        "; circuit breaker open on gpu{from}, drain to gpu{to} refused: \
                         group tripped to CPU"
                    ),
                    Some(GpuClosed::Spilled) => {
                        out.write_str("; overload level 4: group spilled to the CPU lifeboat")
                    }
                    None => Ok(()),
                }
            }
            AuditEvent::Shed {
                ctx,
                seq: Some(seq),
                cause,
            } => write!(
                out,
                "request '{name}' (ctx {ctx}, seq {seq}) shed from the queue: {cause}"
            ),
            AuditEvent::Shed {
                ctx,
                seq: None,
                cause,
            } => write!(
                out,
                "launch of '{name}' (ctx {ctx}) shed at admission: {cause}"
            ),
            AuditEvent::Placed {
                ctx,
                device,
                device_name,
                policy,
                reason,
            } => write!(
                out,
                "ctx {ctx} placed on gpu{device} ({device_name}) by {policy} policy ({reason})"
            ),
            AuditEvent::Migrated {
                ctx,
                from,
                to,
                buffers,
                constants,
                bytes,
            } => write!(
                out,
                "ctx {ctx} drained off gpu{from} (breaker open) to gpu{to}: \
                 {buffers} buffer(s), {constants} constant(s), {bytes} bytes"
            ),
            AuditEvent::Reaped { ctx } => write!(
                out,
                "frontend ctx {ctx} gone (disconnect); drained {members} pending launch(es)"
            ),
            AuditEvent::Degraded {
                from,
                to,
                age_s,
                pending,
            } => write!(
                out,
                "degradation ladder {} {from} -> {to} (oldest pending age {age_s:.4} s, \
                 {pending} pending)",
                if to > from {
                    "stepped down under pressure:"
                } else {
                    "recovered after quiet period:"
                }
            ),
            AuditEvent::StateChanged {
                device,
                from,
                state,
                level,
            } => {
                write!(out, "gpu{device}: power state ")?;
                match from {
                    Some(l) => write!(out, "level {l}")?,
                    None => out.write_str("p0")?,
                }
                write!(out, " -> {state} (level {level})")
            }
            AuditEvent::SerialFallback { device, error } => write!(
                out,
                "consolidated launch failed on gpu{device} ({error}); \
                 re-dispatching {members} member(s) serially"
            ),
            AuditEvent::CpuFallback {
                seq,
                device,
                error,
                relaunched,
                breaker_open,
            } => {
                let what = format_args!("'{name}' (seq {seq}) on gpu{device}");
                match error {
                    Some(e) if *relaunched => {
                        write!(out, "serial launch of {what} still failing ({e})")
                    }
                    Some(e) if *breaker_open => {
                        write!(
                            out,
                            "launch of {what} failed ({e}), and its breaker is open"
                        )
                    }
                    Some(e) => write!(out, "launch of {what}, a group of one, failed ({e})"),
                    None => write!(out, "{what} not launched: its breaker is open"),
                }?;
                out.write_str("; falling back to CPU")
            }
            AuditEvent::BreakerTripped {
                device,
                at_s,
                cooldown_s,
                error,
            } => write!(
                out,
                "circuit breaker on gpu{device} tripped at {at_s:.6} s ({error}); \
                 device closed for {cooldown_s:.3} s"
            ),
            AuditEvent::DeadlineEscalation {
                deadline_s,
                retry,
                error,
            } => write!(
                out,
                "deadline {deadline_s:.6} s would blow before retry {retry} ({error}); escalating"
            ),
            AuditEvent::Failed { ctx, seq, error } => write!(
                out,
                "kernel '{name}' (ctx {ctx}, seq {seq}) failed permanently: {error}"
            ),
        }
    }
}
