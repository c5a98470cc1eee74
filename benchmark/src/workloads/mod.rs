//! The five workloads. Names are stable identifiers.

use ewc_gpu::{GpuConfig, KernelDesc, KernelDescBuilder};

use crate::run::Workload;

pub mod engine_storm;
pub mod openloop;
pub mod paper_mix;
pub mod policy_storm;

/// Build workload `name` from `seed` (every input it generates comes
/// from the seed; the stack only ever sees the generated inputs).
pub fn build(name: &str, seed: u64, smoke: bool) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "openloop_storm" => Box::new(openloop::OpenLoop::storm(seed, smoke)),
        "fleet_policy_burst" => Box::new(openloop::OpenLoop::fleet_burst(seed, smoke)),
        "paper_mix" => Box::new(paper_mix::PaperMix::new(seed, smoke)),
        "policy_storm" => Box::new(policy_storm::PolicyStorm::new(seed, smoke)),
        "engine_storm" => Box::new(engine_storm::EngineStorm::new(seed, smoke)),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// A compute-heavy kernel whose solo block time is ~`secs` seconds, as
/// `ewc_bench::microbench` builds its storm and policy kernels.
fn compute_kernel(name: &str, tpb: u32, secs: f64) -> KernelDescBuilder {
    let cfg = GpuConfig::tesla_c1060();
    let warps = f64::from(tpb.div_ceil(32));
    KernelDesc::builder(name)
        .threads_per_block(tpb)
        .comp_insts(secs * cfg.clock_hz / (warps * cfg.warp_issue_cycles()))
}
