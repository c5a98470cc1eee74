//! The runtime façade: builds the backend, hands out frontends, and
//! integrates energy at shutdown.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ewc_cpu::{CpuConfig, CpuEngine, CpuPowerModel};
use ewc_energy::{GpuSystemPower, PowerCoefficients, ThermalModel, TrainingBenchmark};
use ewc_gpu::{FaultInjectorHandle, GpuConfig, GpuDevice};
use ewc_models::{EnergyModel, PowerModel};
use ewc_telemetry::{TelemetrySink, TelemetrySnapshot};
use ewc_workloads::Workload;

use crate::backend::{self, SharedBackend, ShutdownReport};
use crate::config::RuntimeConfig;
use crate::decision::DecisionEngine;
use crate::frontend::Frontend;
use crate::protocol::RegisteredKernel;
use crate::resilience::RuntimeFaultInjector;
use crate::stats::BackendStats;
use crate::template::{Template, TemplateRegistry};

/// Builder for a [`Runtime`]. Workloads and templates must be registered
/// before the backend starts (they are the "precompiled" artefacts of
/// Section IV).
pub struct RuntimeBuilder {
    cfg: RuntimeConfig,
    gpu_cfg: GpuConfig,
    idle_w: f64,
    training_seed: u64,
    kernels: HashMap<String, Arc<RegisteredKernel>>,
    templates: TemplateRegistry,
    telemetry: TelemetrySink,
    device_faults: Option<FaultInjectorHandle>,
    fault_targets: Option<Vec<usize>>,
    runtime_faults: Option<Arc<dyn RuntimeFaultInjector>>,
}

impl RuntimeBuilder {
    /// Start a builder with the given runtime configuration.
    pub fn new(cfg: RuntimeConfig) -> Self {
        RuntimeBuilder {
            cfg,
            gpu_cfg: GpuConfig::tesla_c1060(),
            idle_w: 200.0,
            training_seed: 42,
            kernels: HashMap::new(),
            templates: TemplateRegistry::new(),
            telemetry: TelemetrySink::disabled(),
            device_faults: None,
            fault_targets: None,
            runtime_faults: None,
        }
    }

    /// Attach a device-level fault injector: every simulated GPU consults
    /// it on malloc/transfer/launch. Pair with
    /// [`RuntimeConfig::resilience`](crate::RuntimeConfig) to control how
    /// the backend recovers.
    pub fn device_faults(mut self, injector: FaultInjectorHandle) -> Self {
        self.device_faults = Some(injector);
        self
    }

    /// Restrict the device-fault injector to the listed device indices.
    /// By default (no call) every device consults the injector; with a
    /// target list only those devices see faults, so a test can sicken
    /// one card of a fleet and watch its contexts drain to healthy ones.
    pub fn device_fault_targets(mut self, targets: Vec<usize>) -> Self {
        self.fault_targets = Some(targets);
        self
    }

    /// Attach a runtime-level fault injector: the backend consults it per
    /// message to model dropped-and-retransmitted channel traffic.
    pub fn runtime_faults(mut self, injector: Arc<dyn RuntimeFaultInjector>) -> Self {
        self.runtime_faults = Some(injector);
        self
    }

    /// Attach a telemetry sink. The backend, every device and the energy
    /// integration record into it; pass [`TelemetrySink::enabled`] and
    /// snapshot it (or read [`RuntimeReport::telemetry`]) after shutdown.
    pub fn telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }

    /// Override the GPU configuration.
    pub fn gpu_config(mut self, cfg: GpuConfig) -> Self {
        self.gpu_cfg = cfg;
        self
    }

    /// Register a workload under its registry name. Its descriptor,
    /// grid, body and CPU profile are resolved here, once; the launch
    /// path never calls back into the workload.
    pub fn workload(mut self, name: &str, w: Arc<dyn Workload>) -> Self {
        let kernel = RegisteredKernel::resolve(name, w.as_ref());
        self.kernels.insert(name.to_string(), Arc::new(kernel));
        self
    }

    /// Register a consolidation template.
    pub fn template(mut self, t: Template) -> Self {
        self.templates.register(t);
        self
    }

    /// Build: trains the power model, starts the backend, returns the
    /// runtime.
    pub fn build(self) -> Runtime {
        let roster = self.cfg.fleet.as_ref().map(|fleet| fleet.roster());
        let gpus: Vec<GpuDevice> = (0..self.cfg.num_devices())
            .map(|d| {
                // A fleet spec overrides the builder-level GpuConfig per
                // device; without one every device is identical.
                let dev_cfg = match &roster {
                    Some(roster) => roster[d].gpu.clone(),
                    None => self.gpu_cfg.clone(),
                };
                let mut gpu = GpuDevice::new(dev_cfg).with_telemetry(self.telemetry.clone(), d);
                let targeted = self
                    .fault_targets
                    .as_ref()
                    .is_none_or(|targets| targets.contains(&d));
                if let (Some(injector), true) = (&self.device_faults, targeted) {
                    gpu = gpu.with_fault_injector(Arc::clone(injector));
                }
                gpu
            })
            .collect();
        let system = GpuSystemPower {
            idle_w: self.idle_w,
            ..GpuSystemPower::tesla_system()
        };
        let coeffs = PowerCoefficients::train(
            &self.gpu_cfg,
            &system.truth,
            &TrainingBenchmark::rodinia_suite(),
            self.training_seed,
        )
        .expect("power-model training must converge");
        let energy = EnergyModel::new(
            self.gpu_cfg.clone(),
            PowerModel::new(coeffs, ThermalModel::gt200(), self.gpu_cfg.clone()),
            self.idle_w,
        );
        let mut decision = DecisionEngine::new(
            energy,
            CpuEngine::new(CpuConfig::xeon_e5520_x2()),
            CpuPowerModel::xeon_e5520_x2(),
        );
        if let Some(ps) = &self.cfg.power_states {
            decision = decision.with_power_policy(ps.clone());
        }
        let noise_seed = self.cfg.noise_seed;
        let batching = self.cfg.argument_batching;
        let sink = self.telemetry.clone();
        let backend = backend::start(
            self.cfg,
            gpus,
            self.kernels,
            self.templates,
            decision,
            self.telemetry,
            self.runtime_faults,
        );
        Runtime {
            backend,
            next_ctx: AtomicU64::new(1),
            batching,
            system,
            noise_seed,
            sink,
        }
    }
}

/// Final report of a runtime session.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Backend statistics.
    pub stats: BackendStats,
    /// Total device time elapsed (first call to shutdown), seconds.
    pub elapsed_s: f64,
    /// Whole-system energy over the session, joules.
    pub energy: ewc_energy::system::SystemEnergy,
    /// Everything telemetry collected, when a sink was attached.
    pub telemetry: Option<TelemetrySnapshot>,
}

/// A running consolidation runtime.
pub struct Runtime {
    backend: SharedBackend,
    next_ctx: AtomicU64,
    batching: bool,
    system: GpuSystemPower,
    noise_seed: Option<u64>,
    sink: TelemetrySink,
}

impl Runtime {
    /// Build a runtime.
    pub fn builder(cfg: RuntimeConfig) -> RuntimeBuilder {
        RuntimeBuilder::new(cfg)
    }

    /// Connect a new user process; returns its frontend shim.
    pub fn connect(&self) -> Frontend {
        let ctx = self.next_ctx.fetch_add(1, Ordering::Relaxed);
        Frontend::new(ctx, Arc::clone(&self.backend), self.batching)
    }

    /// The telemetry sink attached at build time (disabled by default).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.sink
    }

    /// The shared backend, for in-crate tests that inspect its state.
    #[cfg(test)]
    pub(crate) fn backend(&self) -> &SharedBackend {
        &self.backend
    }

    /// Take the backend out of the shared slot (frontends answer
    /// `Disconnected` from here on) and run its shutdown. `None` when it
    /// is already gone or a panic inside it poisoned the lock.
    fn stop(&self) -> Option<ShutdownReport> {
        let backend = self.backend.lock().ok()?.take()?;
        Some(backend.shutdown())
    }

    /// Drain everything, stop the backend, and report.
    pub fn shutdown(self) -> RuntimeReport {
        let (stats, activities, elapsed_s) = self.stop().expect("backend alive at shutdown");
        let energy = self
            .system
            .integrate_many(&activities, elapsed_s, self.noise_seed);
        if self.sink.is_enabled() {
            // Sample each device's system power trace into a counter
            // series so the Chrome trace shows power under the spans.
            let meter = ewc_energy::PowerMeter::new(10.0);
            for (d, acts) in activities.iter().enumerate() {
                let tl = self.system.timeline(acts, elapsed_s, self.noise_seed);
                meter.measure_into(&tl, 0.0, elapsed_s, &self.sink, &format!("power_w/gpu{d}"));
            }
            self.sink.counter_add("energy_j", energy.energy_j);
            self.sink.gauge_set("avg_power_w", energy.avg_power_w);
            self.sink.gauge_set("elapsed_s", elapsed_s);
        }
        let telemetry = self.sink.snapshot();
        RuntimeReport {
            stats,
            elapsed_s,
            energy,
            telemetry,
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::Choice;
    use ewc_workloads::{AesWorkload, Workload};

    fn runtime(threshold: u32) -> Runtime {
        let gpu_cfg = GpuConfig::tesla_c1060();
        let cfg = RuntimeConfig {
            threshold_factor: threshold,
            ..RuntimeConfig::default()
        };
        Runtime::builder(cfg)
            .workload("encryption", Arc::new(AesWorkload::fig7(&gpu_cfg)))
            .template(Template::homogeneous("encryption"))
            .build()
    }

    /// Submit one AES instance through the frontend API; returns
    /// (frontend, output ptr, expected bytes).
    fn submit_aes(rt: &Runtime, seed: u64) -> (Frontend, ewc_gpu::DevicePtr, Vec<u8>) {
        let w = AesWorkload::fig7(&GpuConfig::tesla_c1060());
        let mut fe = rt.connect();
        let bufs = fe.submit("encryption", &w, seed).unwrap();
        (fe, bufs.output, w.expected_output(seed))
    }

    #[test]
    fn end_to_end_single_instance() {
        let rt = runtime(10);
        let (fe, out_ptr, expect) = submit_aes(&rt, 5);
        fe.sync().unwrap();
        let got = fe.memcpy_d2h(out_ptr, 0, expect.len() as u64).unwrap();
        assert_eq!(got, expect, "framework execution must match host AES");
        let report = rt.shutdown();
        assert_eq!(report.stats.records.len(), 1);
        assert!(report.elapsed_s > 0.0);
        assert!(report.energy.energy_j > 0.0);
    }

    #[test]
    fn threshold_triggers_consolidation() {
        let rt = runtime(3);
        let mut outs = Vec::new();
        for seed in 0..3 {
            outs.push(submit_aes(&rt, seed));
        }
        // Threshold (3) reached on the last launch: everything should
        // already have executed as one consolidated group.
        for (fe, out_ptr, expect) in &outs {
            let got = fe.memcpy_d2h(*out_ptr, 0, expect.len() as u64).unwrap();
            assert_eq!(&got, expect);
        }
        let report = rt.shutdown();
        assert_eq!(report.stats.consolidated_launches, 1);
        let rec = &report.stats.records[0];
        assert_eq!(rec.choice, Choice::Consolidate);
        assert_eq!(rec.kernels.len(), 3);
    }

    #[test]
    fn below_threshold_waits_until_sync() {
        let rt = runtime(10);
        let (fe1, out1, expect1) = submit_aes(&rt, 1);
        let (fe2, out2, expect2) = submit_aes(&rt, 2);
        fe1.sync().unwrap();
        // Results must be correct regardless of which alternative the
        // decision engine picked (two CPU-friendly AES instances may
        // legitimately be routed to the CPU).
        assert_eq!(
            fe1.memcpy_d2h(out1, 0, expect1.len() as u64).unwrap(),
            expect1
        );
        assert_eq!(
            fe2.memcpy_d2h(out2, 0, expect2.len() as u64).unwrap(),
            expect2
        );
        let report = rt.shutdown();
        // Both instances were handled as one group at sync time.
        assert_eq!(report.stats.records.len(), 1);
        assert_eq!(report.stats.records[0].kernels.len(), 2);
    }

    #[test]
    fn unknown_kernel_rejected() {
        let rt = runtime(10);
        let mut fe = rt.connect();
        fe.configure_call(1, 32).unwrap();
        let err = fe.launch("nonexistent").unwrap_err();
        assert!(matches!(err, crate::protocol::CoreError::UnknownKernel(_)));
        drop(rt);
    }

    #[test]
    fn launch_without_configure_rejected() {
        let rt = runtime(10);
        let mut fe = rt.connect();
        let err = fe.launch("encryption").unwrap_err();
        assert!(matches!(err, crate::protocol::CoreError::NotConfigured));
    }

    #[test]
    fn bad_configuration_rejected() {
        let rt = runtime(10);
        let mut fe = rt.connect();
        fe.configure_call(99, 64).unwrap();
        let err = fe.launch("encryption").unwrap_err();
        assert!(matches!(
            err,
            crate::protocol::CoreError::BadConfiguration { .. }
        ));
    }

    #[test]
    fn distinct_contexts_per_frontend() {
        let rt = runtime(10);
        let a = rt.connect();
        let b = rt.connect();
        assert_ne!(a.ctx(), b.ctx());
    }

    #[test]
    fn overheads_accumulate_in_stats() {
        let rt = runtime(10);
        let (fe, ..) = submit_aes(&rt, 3);
        fe.sync().unwrap();
        let report = rt.shutdown();
        assert!(report.stats.messages > 5);
        assert!(report.stats.staged_bytes > 0);
        assert!(report.stats.overhead_s() > 0.0);
    }
}
