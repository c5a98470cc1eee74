//! The framework under real concurrency: frontends on separate OS
//! threads submitting simultaneously, exactly the multi-process pattern
//! the paper targets. Arrival order is nondeterministic; results and
//! accounting must not be.

use std::sync::{mpsc, Arc, Barrier};
use std::thread;

use ewc_core::{CoreError, Runtime, RuntimeConfig, Template};
use ewc_gpu::GpuConfig;
use ewc_workloads::{AesWorkload, SortWorkload, Workload};

fn runtime(threshold: u32) -> (Arc<Runtime>, Arc<dyn Workload>, Arc<dyn Workload>) {
    let cfg = GpuConfig::tesla_c1060();
    let aes: Arc<dyn Workload> = Arc::new(AesWorkload::fig7(&cfg));
    let sort: Arc<dyn Workload> = Arc::new(SortWorkload::fig8(&cfg));
    let rt = Runtime::builder(RuntimeConfig {
        threshold_factor: threshold,
        force_gpu: true,
        ..RuntimeConfig::default()
    })
    .workload("encryption", Arc::clone(&aes))
    .workload("sorting", Arc::clone(&sort))
    .template(Template::homogeneous("encryption"))
    .template(Template::homogeneous("sorting"))
    .build();
    (Arc::new(rt), aes, sort)
}

/// One user: submit a kernel, `sync`, read back and verify. With
/// `submitted`, wait after `launch` until every user has launched, so
/// no `sync` can flush a partial batch.
fn submit_and_verify(
    rt: &Runtime,
    name: &str,
    w: &Arc<dyn Workload>,
    seed: u64,
    submitted: Option<&Barrier>,
) {
    let mut fe = rt.connect();
    let bufs = fe.submit(name, w.as_ref(), seed).expect("submit");
    if let Some(barrier) = submitted {
        barrier.wait();
    }
    fe.sync().expect("sync");
    let out = fe
        .memcpy_d2h(bufs.output, 0, bufs.output_len)
        .expect("readback");
    assert_eq!(out, w.expected_output(seed), "user {seed} result corrupted");
}

#[test]
fn sixteen_concurrent_users_all_verify() {
    let (rt, aes, sort) = runtime(50);
    let mut threads = Vec::new();
    for user in 0..16u64 {
        let rt = Arc::clone(&rt);
        let (name, w) = if user % 2 == 0 {
            ("encryption", Arc::clone(&aes))
        } else {
            ("sorting", Arc::clone(&sort))
        };
        threads.push(thread::spawn(move || {
            submit_and_verify(&rt, name, &w, user, None)
        }));
    }
    for t in threads {
        t.join().expect("user thread");
    }
    let rt = Arc::into_inner(rt).expect("all users joined");
    let report = rt.shutdown();
    // Every kernel accounted for exactly once.
    let total: usize = report.stats.records.iter().map(|r| r.kernels.len()).sum();
    assert_eq!(total, 16);
}

#[test]
fn concurrent_submissions_hit_the_threshold_path() {
    let (rt, aes, _) = runtime(4);
    // Every launch lands before any sync: the fourth and the eighth
    // launch each reach the threshold, whatever order the threads run in.
    let submitted = Arc::new(Barrier::new(8));
    let mut threads = Vec::new();
    for user in 0..8u64 {
        let rt = Arc::clone(&rt);
        let w = Arc::clone(&aes);
        let submitted = Arc::clone(&submitted);
        threads.push(thread::spawn(move || {
            submit_and_verify(&rt, "encryption", &w, user, Some(&submitted))
        }));
    }
    for t in threads {
        t.join().expect("user thread");
    }
    let rt = Arc::into_inner(rt).expect("all users joined");
    let report = rt.shutdown();
    let sizes: Vec<usize> = report
        .stats
        .records
        .iter()
        .map(|r| r.kernels.len())
        .collect();
    assert_eq!(sizes, [4, 4], "records: {:?}", report.stats.records);
    assert_eq!(report.stats.consolidated_launches, 2);
}

#[test]
fn frontends_can_interleave_api_calls() {
    // Two frontends interleaving configure/setup sequences must not
    // clobber each other's per-context state.
    let (rt, aes, sort) = runtime(50);
    let mut fe_a = rt.connect();
    let mut fe_b = rt.connect();
    let (args_a, bufs_a) = aes.build_args(&mut fe_a, 1).unwrap();
    let (args_b, bufs_b) = sort.build_args(&mut fe_b, 2).unwrap();
    fe_a.configure_call(aes.blocks(), aes.desc().threads_per_block)
        .unwrap();
    fe_b.configure_call(sort.blocks(), sort.desc().threads_per_block)
        .unwrap();
    for (a, b) in args_a.iter().zip(&args_b) {
        fe_a.setup_argument(*a).unwrap();
        fe_b.setup_argument(*b).unwrap();
    }
    fe_a.launch("encryption").unwrap();
    fe_b.launch("sorting").unwrap();
    fe_a.sync().unwrap();
    let out_a = fe_a
        .memcpy_d2h(bufs_a.output, 0, bufs_a.output_len)
        .unwrap();
    let out_b = fe_b
        .memcpy_d2h(bufs_b.output, 0, bufs_b.output_len)
        .unwrap();
    assert_eq!(out_a, aes.expected_output(1));
    assert_eq!(out_b, sort.expected_output(2));
    drop(rt);
}

#[test]
fn interleaving_without_batching_still_routes_arguments_correctly() {
    // With argument batching off, setup_argument goes through the shared
    // channel; per-context accumulation in the backend must keep the two
    // users' arguments apart.
    let cfg = GpuConfig::tesla_c1060();
    let aes: Arc<dyn Workload> = Arc::new(AesWorkload::fig7(&cfg));
    let rt = Runtime::builder(RuntimeConfig {
        argument_batching: false,
        force_gpu: true,
        ..RuntimeConfig::default()
    })
    .workload("encryption", Arc::clone(&aes))
    .template(Template::homogeneous("encryption"))
    .build();
    let mut fe_a = rt.connect();
    let mut fe_b = rt.connect();
    let (args_a, bufs_a) = aes.build_args(&mut fe_a, 10).unwrap();
    let (args_b, bufs_b) = aes.build_args(&mut fe_b, 11).unwrap();
    fe_a.configure_call(aes.blocks(), aes.desc().threads_per_block)
        .unwrap();
    fe_b.configure_call(aes.blocks(), aes.desc().threads_per_block)
        .unwrap();
    for (a, b) in args_a.iter().zip(&args_b) {
        fe_b.setup_argument(*b).unwrap();
        fe_a.setup_argument(*a).unwrap();
    }
    fe_a.launch("encryption").unwrap();
    fe_b.launch("encryption").unwrap();
    fe_a.sync().unwrap();
    let out_a = fe_a
        .memcpy_d2h(bufs_a.output, 0, bufs_a.output_len)
        .unwrap();
    let out_b = fe_b
        .memcpy_d2h(bufs_b.output, 0, bufs_b.output_len)
        .unwrap();
    assert_eq!(out_a, aes.expected_output(10));
    assert_eq!(out_b, aes.expected_output(11));
}

#[test]
fn calls_racing_shutdown_answer_ok_or_disconnected() {
    let (rt, ..) = runtime(50);
    let fe = rt.connect();
    let (first_answer_tx, first_answer) = mpsc::channel();
    let user = thread::spawn(move || {
        let mut answered = 0u64;
        loop {
            match fe.sync() {
                Ok(()) => answered += 1,
                Err(CoreError::Disconnected) => return answered,
                Err(e) => panic!("a call racing shutdown answered {e:?}"),
            }
            if answered == 1 {
                first_answer_tx.send(()).expect("main thread waits");
            }
        }
    });
    // The user is mid-loop: shut down underneath it. It must see every
    // call answered, then `Disconnected` — and stop, not hang.
    first_answer.recv().expect("user thread runs");
    let rt = Arc::into_inner(rt).expect("sole owner");
    let report = rt.shutdown();
    let answered = user.join().expect("user thread");
    assert!(answered >= 1);
    // Every answered sync was one charged message; shutdown is one more.
    assert_eq!(report.stats.messages, answered + 1);
}
