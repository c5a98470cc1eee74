//! The recovery ladder for a dispatched group: retry with backoff,
//! consolidated → serial re-dispatch, the CPU lifeboat, and the
//! permanent failure delivered at the owner's next `sync`.

use ewc_gpu::grid::GridSegment;
use ewc_gpu::kernel::LaunchConfig;
use ewc_gpu::{GpuError, Grid};
use ewc_telemetry::Verdict;

use super::Backend;
use crate::decision::Choice;
use crate::protocol::{CoreError, KernelRequest};

/// Initial retry backoff, seconds; doubles per retry. The device idles
/// (and burns idle power — retries are not energetically free) for the
/// backoff interval.
const RETRY_BACKOFF_S: f64 = 1e-3;

/// How one member of a dispatched group ended up.
pub(super) enum MemberFate {
    /// Completed, on the given rung (consolidated, serial GPU, or CPU).
    Done(Choice),
    /// Failed permanently; the error is queued for the frontend's next
    /// `sync`.
    Failed(GpuError),
}

impl Backend {
    /// Rungs 1–3 of the degradation ladder for a group headed to the GPU.
    ///
    /// * Rung 1: the planned dispatch — one consolidated grid
    ///   (`consolidate`) or per-member grids — with retry + backoff.
    /// * Rung 2: a failing consolidated launch is aborted and its members
    ///   re-dispatched serially, isolating a poisoned merge.
    /// * Rung 3: members the GPU persistently refuses (transient faults
    ///   exhausting retries/deadline) run on the CPU lifeboat.
    /// * Permanent errors exit the ladder: the request is failed back to
    ///   its frontend, and the rest of the group still completes.
    pub(super) fn run_ladder(
        &mut self,
        device: usize,
        group: &[KernelRequest],
        consolidate: bool,
    ) -> Vec<MemberFate> {
        if consolidate {
            match self.launch_with_retries(device, group) {
                Ok(()) => {
                    if group.len() >= 2 {
                        self.stats.consolidated_launches += 1;
                    }
                    return group
                        .iter()
                        .map(|_| MemberFate::Done(Choice::Consolidate))
                        .collect();
                }
                Err(e) => {
                    self.stats.serial_fallbacks += 1;
                    self.audit_event(Verdict::SerialGpu, group, || {
                        format!(
                            "consolidated launch failed on gpu{device} ({e}); re-dispatching {} member(s) serially",
                            group.len()
                        )
                    });
                }
            }
        }
        let mut fates = Vec::with_capacity(group.len());
        for req in group {
            let member = std::slice::from_ref(req);
            let fate = match self.launch_with_retries(device, member) {
                Ok(()) => MemberFate::Done(Choice::SerialGpu),
                Err(e) if e.is_transient() => {
                    self.stats.cpu_fallbacks += 1;
                    self.audit_event(Verdict::Cpu, member, || {
                        format!(
                            "serial launch of '{}' (seq {}) on gpu{device} still failing ({e}); falling back to CPU",
                            req.kernel.name, req.seq
                        )
                    });
                    let (time_s, energy_j) = self
                        .decision
                        .run_on_cpu(std::slice::from_ref(&req.kernel.cpu_task));
                    self.run_cpu(device, member, time_s, energy_j);
                    MemberFate::Done(Choice::Cpu)
                }
                Err(e) => {
                    self.record_failure(req, e.clone());
                    MemberFate::Failed(e)
                }
            };
            fates.push(fate);
        }
        fates
    }

    /// Launch `members` as one grid, retrying transient faults with
    /// exponential backoff on the device clock (retries are not
    /// energetically free — the device burns idle power while waiting).
    /// Gives up early when a member's deadline would blow or the circuit
    /// breaker opens mid-retry; the caller escalates down the ladder.
    fn launch_with_retries(
        &mut self,
        device: usize,
        members: &[KernelRequest],
    ) -> Result<(), GpuError> {
        let pol = self.cfg.resilience.clone();
        let deadline_s = members
            .iter()
            .map(|r| r.submitted_at_s)
            .fold(f64::INFINITY, f64::min)
            + pol.request_deadline_s;
        let mut backoff = RETRY_BACKOFF_S;
        let mut attempts = 0u32;
        let launch = LaunchConfig::from_grid(self.grid_of(members));
        loop {
            let err = match self.gpus[device].launch(&launch) {
                Ok(_) => {
                    self.fleet.record_success(device);
                    return Ok(());
                }
                Err(e) => e,
            };
            self.device_faults[device][0] += 1;
            if self.fleet.record_fault(device, self.gpus[device].clock()) {
                self.device_faults[device][1] += 1;
                self.audit_event(Verdict::Cpu, members, || {
                    format!(
                        "circuit breaker on gpu{device} tripped at {:.6} s ({err}); device closed for {:.3} s",
                        self.gpus[device].now_s(),
                        pol.breaker_cooldown_s
                    )
                });
            }
            if !err.is_transient() || attempts >= pol.max_gpu_retries {
                return Err(err);
            }
            if self.fleet.is_open(device, self.gpus[device].clock()) {
                // The breaker just closed the GPU path: stop burning
                // retries on a device declared sick.
                return Err(err);
            }
            if self.gpus[device].now_s() + backoff > deadline_s {
                self.stats.deadline_escalations += 1;
                self.audit_event(Verdict::Cpu, members, || {
                    format!(
                        "deadline {:.6} s would blow before retry {} ({err}); escalating",
                        deadline_s,
                        attempts + 1
                    )
                });
                return Err(err);
            }
            self.gpus[device].idle(backoff);
            self.stats.gpu_retries += 1;
            self.stats.backoff_s += backoff;
            backoff *= 2.0;
            attempts += 1;
        }
    }

    /// `members` as one launchable grid: a segment each, in order, with
    /// every pointer argument resolved through its context's migration
    /// remap.
    fn grid_of(&self, members: &[KernelRequest]) -> Grid {
        let mut grid = Grid::new();
        for req in members {
            let kernel = &req.kernel;
            grid.push(
                GridSegment::bare(kernel.desc.clone(), kernel.blocks)
                    .with_args(self.resolved_args(req.ctx, &req.args))
                    .with_body(kernel.body.clone())
                    .with_tag(req.ctx),
            );
        }
        grid
    }

    /// The CPU rung: run the members' functional bodies host-side into
    /// the backend-owned device buffers (frontends read back as usual)
    /// and charge the CPU simulator's `makespan` and `energy` for them.
    pub(super) fn run_cpu(
        &mut self,
        device: usize,
        group: &[KernelRequest],
        makespan: f64,
        energy: f64,
    ) {
        // The instances run on the host; results must still materialise
        // in the (backend-owned) device buffers the frontends will read.
        self.grid_of(group)
            .run_bodies(self.gpus[device].memory_mut());
        // CPU work occupies the host timeline; the device just waits for
        // the results to land.
        self.clock.advance_by(makespan.max(0.0));
        self.gpus[device].idle(makespan.max(0.0));
        self.stats.cpu_executions += group.len() as u64;
        self.stats.cpu_time_s += makespan;
        self.stats.cpu_energy_j += energy;
    }

    /// Queue a permanent failure for delivery at the context's next
    /// `sync`, and audit it.
    fn record_failure(&mut self, req: &KernelRequest, e: GpuError) {
        self.stats.failed_kernels += 1;
        self.context(req.ctx).failures.push_back((
            req.seq,
            CoreError::KernelFailed {
                seq: req.seq,
                gpu: e.clone(),
            },
        ));
        self.audit_event(Verdict::Failed, std::slice::from_ref(req), || {
            format!(
                "kernel '{}' (ctx {}, seq {}) failed permanently: {e}",
                req.kernel.name, req.ctx, req.seq
            )
        });
    }
}
