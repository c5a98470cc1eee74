//! What one admitted request, and one functional block, cost in heap
//! allocations — counted, not guessed. Its own test binary, so the
//! counting allocator below is the global allocator of nothing else.
//!
//! Counts at the parent of the change that added this file, from this
//! same harness (with the pass written out as the `BlockCtx` loop that
//! `GpuDevice::launch` then held), and after two later changes:
//!
//! | | parent | then | with the shape memos | with scalar predictions |
//! |---|---|---|---|---|
//! | search functional pass, per block | 2 | 0 | 0 | 0 |
//! | warmed-up `search` group of ten through `Runtime`, per admitted request | 14.5 | 6.5 | 3.0 | 2.4 |
//!
//! The eight a request no longer pays: an `Arc<str>` for the kernel
//! name at the frontend, another inside `cpu_task()`, a body closure
//! and its copy of the pattern, and a text copy plus a one-word `Vec`
//! in each of this kernel's two blocks. Of the 2.4 that remain one is
//! the request's own (its pointer-resolved arguments); the rest is the
//! group's — matcher, grid, records — over ten. The plan, the decision
//! and the engine run are made once per group shape, not per group, and
//! a reused assessment is copied without the six per-SM and per-member
//! vectors its two predictions used to carry; debug builds still make
//! the decision and the run on every group, to check the reuse, and
//! count 5.2.
//!
//! The decision path on the benchmark's `policy_storm` groups, before and
//! after predictions became scalars folded from one pass over the SMs,
//! with one placement shared by every operating point of the ladder:
//!
//! | per group | before | after |
//! |---|---|---|
//! | `EnergyModel::predict` | 11.4 | 5.0 |
//! | `DecisionEngine::assess`, flat | 29.1 | 18.8 |
//! | `DecisionEngine::assess`, race-to-idle over the DVFS ladder | 83.9 | 28.8 |
//!
//! A prediction no longer builds per-SM and per-member vectors, a lower
//! operating point re-derives one cost per cost class instead of placing
//! the plan again, and the serial alternative places each distinct member
//! once, without building a one-member plan, for the whole ladder. Debug
//! and release builds count the same here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use ewc_core::{
    DecisionEngine, Frontend, PowerStatesConfig, Priority, Runtime, RuntimeConfig, Template,
};
use ewc_cpu::{CpuConfig, CpuEngine, CpuPowerModel, CpuTask};
use ewc_energy::{GpuSystemPower, PowerCoefficients, ThermalModel, TrainingBenchmark};
use ewc_gpu::kernel::KernelArg;
use ewc_gpu::{GpuConfig, GpuDevice, KernelDesc};
use ewc_models::{ConsolidationPlan, EnergyModel, PowerModel};
use ewc_workloads::{instance_grid, SearchWorkload, Workload};

thread_local! {
    /// Allocations and reallocations made by this thread (tests run on
    /// one thread each, in parallel).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local cell
// with no destructor and no lazy initialiser, so touching it allocates
// nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `work` makes on this thread.
fn allocations<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    let count = ALLOCATIONS.with(Cell::get) - before;
    println!("{count} allocations"); // shown by `-- --nocapture`
    (count, out)
}

const KERNEL: &str = "search";

/// The open-loop harness's kernel: 2 KiB of text in two blocks.
fn tiny_search() -> SearchWorkload {
    let desc = KernelDesc::builder("substring_search")
        .threads_per_block(64)
        .regs_per_thread(16)
        .shared_mem_per_block(1024)
        .comp_insts(1_000.0)
        .uncoalesced_mem(100.0)
        .build();
    SearchWorkload::new(2048, b"gpu".to_vec(), desc, 2, 1.0, 2, 64 << 10)
}

#[test]
fn the_search_functional_pass_allocates_nothing() {
    let w = tiny_search();
    let mut gpu = GpuDevice::new(GpuConfig::tesla_c1060());
    let (args, bufs) = w.build_args(&mut gpu, 7).expect("instance build");
    let grid = instance_grid(&w, args);
    let (count, ()) = allocations(|| {
        for _ in 0..1_000 {
            grid.run_bodies(gpu.memory_mut());
        }
    });
    assert_eq!(count, 0, "over 2000 blocks");
    let (out, _) = gpu
        .memcpy_d2h(bufs.output, 0, bufs.output_len)
        .expect("readback");
    assert_eq!(out, w.expected_output(7));
}

#[test]
fn a_warmed_up_search_group_allocates_a_fixed_number_per_request() {
    const GROUP: usize = 10; // the default threshold on one GPU
    const GROUPS: usize = 64;
    let w = tiny_search();
    let rt = Runtime::builder(RuntimeConfig {
        force_gpu: true,
        ..RuntimeConfig::default()
    })
    .workload(KERNEL, Arc::new(w.clone()))
    .template(Template::homogeneous(KERNEL))
    .build();
    let mut frontends: Vec<Frontend> = Vec::new();
    let mut stream_args: Vec<Vec<KernelArg>> = Vec::new();
    for seed in 0..GROUP as u64 {
        let mut fe = rt.connect();
        let (args, _) = w.build_args(&mut fe, seed).expect("stream build");
        frontends.push(fe);
        stream_args.push(args);
    }
    // The caller's argument vectors are its own cost: built up front,
    // popped in reverse stream order.
    let mut args: Vec<Vec<KernelArg>> = (0..GROUPS + 4)
        .flat_map(|_| stream_args.iter().rev().cloned())
        .collect();
    // The tenth launch of a round trips the threshold and carries the
    // whole group's decision, launch and records.
    let mut round = || {
        for fe in &mut frontends {
            fe.configure_call(w.blocks(), w.desc().threads_per_block)
                .expect("configure");
            let args = args.pop().expect("one vector per launch");
            fe.launch_with(KERNEL, args, Priority::Normal, 0)
                .expect("launch");
        }
    };
    for _ in 0..4 {
        round(); // scratch vectors and maps reach their size
    }
    let (count, ()) = allocations(|| {
        for _ in 0..GROUPS {
            round();
        }
    });
    let requests = (GROUP * GROUPS) as u64;
    println!("{:.1} per request", count as f64 / requests as f64);
    // 24 per group of ten measured in release; the slack is for the
    // statistics vectors doubling. Debug builds measure 53: they redo
    // every reused assessment and simulation to check it.
    let per_request = if cfg!(debug_assertions) { 8 } else { 4 };
    assert!(
        count <= per_request * requests,
        "{count} allocations for {requests} admitted requests"
    );
    drop(frontends);
    let report = rt.shutdown();
    assert_eq!(report.stats.kernel_outcomes.len(), GROUP * (GROUPS + 4));
}

/// The benchmark's `policy_storm` groups: 64 homogeneous groups of 2–9
/// members × 3 blocks of a 2–3 s compute kernel, each with its CPU tasks.
fn policy_storm_groups() -> Vec<(ConsolidationPlan, Vec<CpuTask>)> {
    let cfg = GpuConfig::tesla_c1060();
    (0..64u32)
        .map(|i| {
            let members = 2 + i % 8;
            let secs = 2.0 + 0.25 * f64::from(i % 5);
            let desc = KernelDesc::builder("policy")
                .threads_per_block(128)
                .comp_insts(secs * cfg.clock_hz / (4.0 * cfg.warp_issue_cycles()))
                .coalesced_mem(50.0)
                .build();
            let tasks = (0..members)
                .map(|_| CpuTask::new("policy", secs * 1.7, 2, 8 << 20))
                .collect();
            (ConsolidationPlan::homogeneous(desc, 3, members), tasks)
        })
        .collect()
}

#[test]
fn an_assessment_allocates_a_fixed_number_per_group() {
    let cfg = GpuConfig::tesla_c1060();
    let system = GpuSystemPower::tesla_system();
    let coeffs =
        PowerCoefficients::train(&cfg, &system.truth, &TrainingBenchmark::rodinia_suite(), 42)
            .expect("training converges");
    let model = EnergyModel::new(
        cfg.clone(),
        PowerModel::new(coeffs, ThermalModel::gt200(), cfg),
        system.idle_w,
    );
    let engine = || {
        DecisionEngine::new(
            model.clone(),
            CpuEngine::new(CpuConfig::xeon_e5520_x2()),
            CpuPowerModel::xeon_e5520_x2(),
        )
    };
    let groups = policy_storm_groups();
    let per_group = |count: u64| count as f64 / groups.len() as f64;

    let (predict, ()) = allocations(|| {
        for (plan, _) in &groups {
            std::hint::black_box(model.predict(plan));
        }
    });
    println!("{:.1} per predict", per_group(predict));
    assert!(per_group(predict) <= 6.0, "{predict} allocations");
    for (label, engine, ceiling) in [
        ("flat", engine(), 24.0),
        (
            "race",
            engine().with_power_policy(PowerStatesConfig::race()),
            40.0,
        ),
    ] {
        let (count, ()) = allocations(|| {
            for (plan, tasks) in &groups {
                std::hint::black_box(engine.assess(plan, tasks));
            }
        });
        println!("{label}: {:.1} per assess", per_group(count));
        assert!(per_group(count) <= ceiling, "{label}: {count} allocations");
    }
}
