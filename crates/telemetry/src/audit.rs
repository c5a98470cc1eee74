//! Decision audit log.
//!
//! Every consolidate/serial/CPU verdict made by the decision engine is
//! recorded together with the model predictions that justified it, so a
//! surprising schedule can be explained after the fact (which prediction
//! won, and by how much).

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
    /// Short human-readable justification, e.g. `"consolidated energy
    /// 12.3 J beats serial 15.9 J by >2% margin"`.
    pub reason: String,
}

impl DecisionRecord {
    /// An audited event that weighed no candidates — a placement, a
    /// shed, a drain, a recovery hop, a state change: every prediction
    /// is `None`.
    pub fn event(time_s: f64, verdict: Verdict, kernels: Vec<Arc<str>>, reason: String) -> Self {
        DecisionRecord {
            time_s,
            kernels,
            verdict,
            consolidated: None,
            serial: None,
            cpu: None,
            reason,
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
}
