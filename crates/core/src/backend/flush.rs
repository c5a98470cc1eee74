//! When pending launches leave the queue, and what happens to a group
//! that does: the batching conditions re-checked after every message
//! (threshold, staleness, age shed, the degradation watchdog), template
//! matching per device, and the dispatch of one group — coordination,
//! the decision engine's verdict and its overrides, execution, records.

use std::convert::Infallible;
use std::fmt::Write as _;
use std::sync::Arc;

use ewc_models::{ConsolidationPlan, KernelSpec, PolicyKnob};
use ewc_telemetry::{DecisionRecord, Verdict};

use super::ladder::MemberFate;
use super::Backend;
use crate::admission::{Priority, ShedCause};
use crate::decision::{Assessment, Choice, DecisionEngine};
use crate::protocol::{CoreError, KernelRequest};
use crate::stats::{ConsolidationRecord, KernelOutcome};

impl Backend {
    /// The batching conditions: flush on reaching the group-size
    /// threshold, or when the oldest pending request has waited past
    /// the staleness bound (trace-driven runs may never reach the
    /// threshold). The CoDel-style age shed runs first (blown requests
    /// are dropped before more work is dispatched) and the queue-age
    /// watchdog **after** the flush:
    /// flushing always empties pending work onto the device, so any age
    /// the flush could clear is batching delay, not overload — what the
    /// watchdog must react to is the pressure that *survives* a flush
    /// (device backlog, or a queue the flush could not move).
    pub(super) fn check_flush(&mut self) {
        self.shed_stale();
        if self.pending.len() >= self.effective_threshold() {
            self.flush(false);
        } else if let Some(oldest) = self.pending.first() {
            // `pending` is in submission order: the front is the oldest.
            if self.clock.now_s() - oldest.submitted_at_s > self.cfg.max_pending_wait_s {
                self.flush(true);
            }
        }
        self.watchdog();
    }

    /// The consolidation threshold adjusted by the degradation ladder:
    /// level ≥ 3 widens batching to 2× so each coordination round moves
    /// more work per unit of overhead.
    fn effective_threshold(&self) -> usize {
        let base = self.cfg.threshold();
        if self.admission.level() >= 3 {
            base * 2
        } else {
            base
        }
    }

    /// The queue-age watchdog driving the degradation ladder: sustained
    /// pressure (oldest pending request older than the configured age)
    /// steps the ladder down one level at a time; a full quiet period
    /// steps it back up. Audited as `Verdict::Degraded`.
    ///
    /// Launches are asynchronous, so sustained overload mostly shows up
    /// as a device clock running *ahead* of the host clock (queued work
    /// on the device) rather than as pending-queue depth — the watchdog
    /// treats that backlog lead as pressure too: it is exactly the extra
    /// queueing delay a newly admitted request would face.
    fn watchdog(&mut self) {
        let now = self.clock.now_s();
        let age = self
            .pending
            .first()
            .map_or(0.0, |oldest| (now - oldest.submitted_at_s).max(0.0));
        let backlog = self
            .gpus
            .iter()
            .map(|g| (g.now_s() - now).max(0.0))
            .fold(0.0, f64::max);
        let age = age.max(backlog);
        let before = self.admission.level();
        let Some(level) = self.admission.observe(now, age) else {
            return;
        };
        self.stats.degradation_steps += 1;
        self.stats.max_degradation_level = self.stats.max_degradation_level.max(level);
        self.audit_event(Verdict::Degraded, &[], || {
            format!(
                "degradation ladder {} {before} -> {level} (oldest pending age {age:.4} s, {} pending)",
                if level > before {
                    "stepped down under pressure:"
                } else {
                    "recovered after quiet period:"
                },
                self.pending.len()
            )
        });
    }

    /// CoDel-style age shed: queued requests older than `shed_age_s`
    /// have already blown their latency budget — executing them would
    /// only burn energy, so they are dropped with a `Shed` notice
    /// queued for the owner's next `sync` and a `Verdict::Shed` audit.
    fn shed_stale(&mut self) {
        let shed_age_s = self.admission.cfg.shed_age_s;
        let now = self.clock.now_s();
        // This runs per message; almost always nothing has aged out.
        // The front of the queue is the oldest request: if it is fresh
        // (or the bound is infinite), so is everything behind it.
        if self
            .pending
            .first()
            .is_none_or(|oldest| now - oldest.submitted_at_s <= shed_age_s)
        {
            return;
        }
        for req in self.take_pending(|r| now - r.submitted_at_s > shed_age_s) {
            self.stats.shed_requests += 1;
            self.stats.shed_queue_age += 1;
            self.context(req.ctx).failures.push_back((
                req.seq,
                CoreError::Shed {
                    seq: Some(req.seq),
                    cause: ShedCause::QueueAge,
                },
            ));
            self.audit_shed(
                &req.kernel.name,
                req.ctx,
                Some(req.seq),
                ShedCause::QueueAge,
            );
        }
    }

    /// Drain the pending queue. With `force`, everything executes now;
    /// otherwise only while the threshold is met. Groups form per device
    /// (a context's data lives on its bound GPU).
    pub(super) fn flush(&mut self, force: bool) {
        loop {
            if self.pending.is_empty() {
                return;
            }
            if !force && self.pending.len() < self.effective_threshold() {
                return;
            }
            // Degradation level ≥ 2 coarsens the consolidation search:
            // only the oldest `threshold` requests per device are
            // template-matched, bounding matcher cost under a deep
            // backlog (the rest wait their turn).
            let window = if self.admission.level() >= 2 {
                self.cfg.threshold().max(1)
            } else {
                usize::MAX
            };
            let mut grouped = false;
            for d in 0..self.gpus.len() {
                // The per-device index list is rebuilt every iteration of
                // a hot loop; recycle its storage across flushes.
                let mut local = std::mem::take(&mut self.flush_scratch);
                local.clear();
                local.extend(
                    (0..self.pending.len()).filter(|&i| self.bound(self.pending[i].ctx) == Some(d)),
                );
                local.truncate(window);
                if local.is_empty() {
                    self.flush_scratch = local;
                    continue;
                }
                let refs: Vec<&KernelRequest> = local.iter().map(|&i| &self.pending[i]).collect();
                if let Some((t, sel)) = self.templates.best_match(&refs) {
                    let tname = t.name.clone();
                    let global: Vec<usize> = sel.into_iter().map(|i| local[i]).collect();
                    self.flush_scratch = local;
                    let group = self.extract(global);
                    self.execute_group(d, &tname, group);
                    grouped = true;
                    break;
                }
                self.flush_scratch = local;
            }
            if !grouped {
                // No template matches anywhere: run the oldest kernel on
                // its own ("the backend lets the kernels run normally") —
                // the front of the submission-ordered queue.
                let group = self.extract(vec![0]);
                let d = self.device_for(group[0].ctx);
                self.execute_group(d, "<individual>", group);
            }
        }
    }

    /// Remove the given indices from pending, preserving the order the
    /// indices are listed in (the template's layout order).
    fn extract(&mut self, idx: Vec<usize>) -> Vec<KernelRequest> {
        // Mark-and-sweep through recycled scratch: requests move (no
        // clones), and neither the mark vector nor the rebuilt queue
        // allocates once the scratch has warmed up.
        self.extract_scratch.clear();
        self.extract_scratch
            .extend(self.pending.drain(..).map(Some));
        let group: Vec<KernelRequest> = idx
            .iter()
            .map(|&i| self.extract_scratch[i].take().expect("duplicate index"))
            .collect();
        self.pending
            .extend(self.extract_scratch.drain(..).flatten());
        for r in &group {
            self.book_queued(r.ctx, false);
        }
        group
    }

    fn execute_group(&mut self, device: usize, template: &str, group: Vec<KernelRequest>) {
        // Coordination between the participating frontends (host side).
        let coord_start_s = self.clock.now_s();
        let refs: Vec<&KernelRequest> = group.iter().collect();
        let coord = self.coordinator.plan(&refs);
        self.stats.messages += coord.messages;
        self.stats.coordination_s += coord.cost_s;
        self.clock.advance_by(coord.cost_s);

        // Model the alternatives. The overrides below change this local
        // copy, never the remembered assessment.
        let mut assessment = self.assess(&group);
        let mut forced = false;
        if self.cfg.force_gpu && assessment.choice == Choice::Cpu {
            forced = true;
            assessment.choice =
                if assessment.consolidated.system_energy_j <= assessment.serial.system_energy_j {
                    Choice::Consolidate
                } else {
                    Choice::SerialGpu
                };
        }
        // The device's circuit breaker outranks everything, force_gpu
        // included — but a trip is per-device: the group's contexts
        // drain to a healthy card when one exists, and only a fully sick
        // fleet sends the group to the CPU until a cooldown expires and
        // the next launch probes a half-open breaker.
        let mut tripped = false;
        let mut device = device;
        if assessment.choice != Choice::Cpu && self.fleet.is_open(device, &self.clock) {
            let target = self.fleet.healthy_target(device, &self.clock);
            match target {
                Some(to) if self.migrate_group(&group, device, to) => device = to,
                _ => {
                    tripped = true;
                    assessment.choice = Choice::Cpu;
                }
            }
        }
        // Degradation level 4: the CPU lifeboat. Whole groups without a
        // High-priority member spill to the host so the device queue can
        // drain — force_gpu does not outrank a ladder at its last rung.
        let mut spilled = false;
        if assessment.choice != Choice::Cpu
            && self.admission.level() >= 4
            && group.iter().all(|r| r.priority < Priority::High)
        {
            spilled = true;
            assessment.choice = Choice::Cpu;
        }
        if self.sink.is_enabled() {
            self.sink
                .span(
                    "host",
                    "backend",
                    "coordinate",
                    coord_start_s,
                    self.clock.now_s(),
                )
                .attr("template", template)
                .attr("group_size", group.len())
                .emit();
            self.audit_decision(&assessment, &group, device, forced, tripped, spilled);
        }

        // Kernel launches are asynchronous: the device clock runs ahead
        // of the host clock, so other devices' groups can overlap.
        self.catch_up(device);
        // Apply the knob-chosen operating point before the launch; the
        // wake latency lands on the device clock. Race-to-idle parks the
        // device in the deepest state once the group completes.
        let mut park_after = None;
        if let Some(sd) = &assessment.state {
            if assessment.choice != Choice::Cpu {
                if let Some(choice) = sd.chosen(assessment.choice) {
                    let level = choice.level;
                    if matches!(sd.knob, PolicyKnob::RaceToIdle) {
                        park_after = self.decision.power_policy().and_then(|ps| ps.table.park());
                    }
                    self.apply_power_state(device, level);
                }
            }
        }
        let t0 = self.gpus[device].now_s();
        let fates = match assessment.choice {
            Choice::Consolidate => self.run_ladder(device, &group, true),
            Choice::SerialGpu => self.run_ladder(device, &group, false),
            Choice::Cpu => {
                // The assessment already simulated these tasks on the CPU.
                let (time_s, energy_j) = (assessment.cpu_time_s, assessment.cpu_energy_j);
                self.run_cpu(device, &group, time_s, energy_j);
                group
                    .iter()
                    .map(|_| MemberFate::Done(Choice::Cpu))
                    .collect()
            }
        };

        let completed_at_s = self.gpus[device].now_s();
        if let Some(park) = park_after {
            self.apply_power_state(device, park);
        }
        for (req, fate) in group.iter().zip(&fates) {
            // Failed members never completed; they get no outcome record
            // — their story is told by `failed_kernels` and the audit log.
            if let MemberFate::Done(choice) = fate {
                self.stats.kernel_outcomes.push(KernelOutcome {
                    ctx: req.ctx,
                    seq: req.seq,
                    name: req.kernel.name.clone(),
                    submitted_at_s: req.submitted_at_s,
                    completed_at_s,
                    choice: *choice,
                });
            }
        }
        self.stats.records.push(ConsolidationRecord {
            template: template.to_string(),
            kernels: group.iter().map(|r| r.kernel.name.clone()).collect(),
            choice: assessment.choice,
            predicted_time_s: assessment.chosen_time_s(),
            predicted_energy_j: assessment.chosen_energy_j(),
            actual_time_s: completed_at_s - t0,
        });

        // One lock for the group's lifecycle spans.
        if let Some(mut rec) = self.sink.lock() {
            let mut lane = String::new();
            for (req, fate) in group.iter().zip(&fates) {
                let (label, error) = match fate {
                    MemberFate::Done(c) => (verdict_of(*c).label(), None),
                    MemberFate::Failed(e) => (Verdict::Failed.label(), Some(e.to_string())),
                };
                // Full request lifecycle on the submitting context's lane:
                // queued behind the threshold, then executing on the device
                // (or host, for CPU verdicts).
                lane.clear();
                let _ = write!(lane, "ctx{}", req.ctx);
                let mut span = rec
                    .span("host", &lane, "request", req.submitted_at_s, completed_at_s)
                    .attr("kernel", &req.kernel.name)
                    .attr("seq", req.seq)
                    .attr("choice", label);
                if let Some(error) = &error {
                    span = span.attr("error", error);
                }
                let parent = span.emit();
                rec.span("host", &lane, "queued", req.submitted_at_s, coord_start_s)
                    .parent(parent)
                    .emit();
                rec.span("host", &lane, "execute", t0, completed_at_s)
                    .parent(parent)
                    .attr("device", device)
                    .emit();
                rec.histogram_record("request_latency_s", completed_at_s - req.submitted_at_s);
            }
        }
    }

    /// The decision engine's assessment of `group`, made once per shape.
    ///
    /// [`DecisionEngine::assess`] is a pure function of the members'
    /// registered kernels in layout order, and the registry is fixed when
    /// the backend starts, so each kernel's address names it for the
    /// backend's whole life: a group whose addresses match an earlier
    /// group's, in order, reuses that group's assessment.
    fn assess(&mut self, group: &[KernelRequest]) -> Assessment {
        let decision = &self.decision;
        let Ok(assessment) = self.assessments.get_or_try_insert(
            group.iter().map(|r| Arc::as_ptr(&r.kernel) as usize),
            || Ok::<_, Infallible>(assess_group(decision, group)),
        );
        assessment
    }

    /// Record the verdict and the predictions that justified it.
    fn audit_decision(
        &self,
        assessment: &crate::decision::Assessment,
        group: &[KernelRequest],
        device: usize,
        forced: bool,
        tripped: bool,
        spilled: bool,
    ) {
        let state_note = match &assessment.state {
            Some(sd) => match sd.chosen(assessment.choice) {
                Some(c) => format!(
                    "; {} policy chose state {} ({:.3} J over horizon)",
                    sd.knob.label(),
                    c.state,
                    c.horizon_energy_j
                ),
                None => String::new(),
            },
            None => String::new(),
        };
        let reason = format!(
            "predicted energy: consolidated {:.3} J (margin-adjusted), serial {:.3} J, cpu {:.3} J{}{}{}{state_note}",
            assessment.consolidated.system_energy_j,
            assessment.serial.system_energy_j,
            assessment.cpu_energy_j,
            if forced { "; force_gpu overrode a CPU verdict" } else { "" },
            if tripped {
                format!("; circuit breaker open on gpu{device}, no healthy device: group tripped to CPU")
            } else {
                String::new()
            },
            if spilled {
                "; overload level 4: group spilled to the CPU lifeboat"
            } else {
                ""
            }
        );
        self.sink.audit(DecisionRecord {
            time_s: self.clock.now_s(),
            kernels: group.iter().map(|r| r.kernel.name.clone()).collect(),
            verdict: verdict_of(assessment.choice),
            consolidated: Some((
                assessment.consolidated.time_s,
                assessment.consolidated.system_energy_j,
            )),
            serial: Some((assessment.serial.time_s, assessment.serial.system_energy_j)),
            cpu: Some((assessment.cpu_time_s, assessment.cpu_energy_j)),
            reason,
        });
    }
}

/// Assess `group` from scratch: the GPU plan and the CPU tasks of its
/// members, in layout order.
fn assess_group(decision: &DecisionEngine, group: &[KernelRequest]) -> Assessment {
    let plan = ConsolidationPlan {
        members: group
            .iter()
            .map(|r| KernelSpec::new(r.kernel.desc.clone(), r.kernel.blocks))
            .collect(),
    };
    let cpu_tasks: Vec<_> = group.iter().map(|r| r.kernel.cpu_task.clone()).collect();
    decision.assess(&plan, &cpu_tasks)
}

/// Map the decision engine's [`Choice`] onto the telemetry [`Verdict`].
fn verdict_of(choice: Choice) -> Verdict {
    match choice {
        Choice::Consolidate => Verdict::Consolidate,
        Choice::SerialGpu => Verdict::SerialGpu,
        Choice::Cpu => Verdict::Cpu,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ewc_gpu::GpuConfig;
    use ewc_workloads::{AesWorkload, BlackScholesWorkload};

    use super::Backend;
    use crate::admission::Priority;
    use crate::protocol::KernelRequest;
    use crate::{Runtime, RuntimeConfig, Template};

    fn runtime() -> Runtime {
        let cfg = GpuConfig::tesla_c1060();
        Runtime::builder(RuntimeConfig {
            threshold_factor: 1_000_000,
            force_gpu: true,
            ..RuntimeConfig::default()
        })
        .workload("encryption", Arc::new(AesWorkload::fig7(&cfg)))
        .workload(
            "blackscholes",
            Arc::new(BlackScholesWorkload::tables56(&cfg)),
        )
        .template(Template::homogeneous("encryption"))
        .build()
    }

    /// A group of the named registered kernels, in the order given.
    fn group(b: &Backend, names: &[&str]) -> Vec<KernelRequest> {
        names
            .iter()
            .enumerate()
            .map(|(seq, name)| KernelRequest {
                ctx: 1,
                seq: seq as u64,
                kernel: Arc::clone(&b.registry[*name]),
                args: Vec::new(),
                submitted_at_s: 0.0,
                priority: Priority::Normal,
            })
            .collect()
    }

    #[test]
    fn repeated_shapes_reuse_and_layout_order_is_part_of_the_key() {
        let rt = runtime();
        let mut guard = rt.backend().lock().unwrap();
        let b = guard.as_mut().unwrap();
        let ab = group(b, &["encryption", "blackscholes"]);
        let ba = group(b, &["blackscholes", "encryption"]);
        let first = format!("{:?}", b.assess(&ab));
        assert_eq!(b.assessments.reuses(), 0);
        assert_eq!(format!("{:?}", b.assess(&ab)), first);
        assert_eq!(b.assessments.reuses(), 1, "the same shape reuses");
        b.assess(&ba);
        assert_eq!(b.assessments.reuses(), 1, "another layout order misses");
        b.assess(&group(b, &["encryption", "blackscholes", "encryption"]));
        assert_eq!(b.assessments.reuses(), 1, "another member count misses");
        b.assess(&ba);
        assert_eq!(b.assessments.reuses(), 2);
    }

    #[test]
    fn a_session_of_one_shape_decides_and_simulates_it_once() {
        let rt = runtime();
        let aes = AesWorkload::fig7(&GpuConfig::tesla_c1060());
        let mut fe = rt.connect();
        for _ in 0..3 {
            for _ in 0..2 {
                fe.submit("encryption", &aes, 1).unwrap();
            }
            fe.sync().unwrap();
        }
        drop(fe);
        let stats = rt.shutdown().stats;
        assert_eq!((stats.records.len(), stats.launches), (3, 3));
        assert_eq!((stats.decision_reuses, stats.simulation_reuses), (2, 2));
    }
}
