//! Enterprise scenario: many concurrent users firing small mixed
//! requests at a shared GPU node. The backend's threshold logic batches
//! them; the decision engine routes each batch to the GPU (consolidated
//! or serial) or the CPU, whichever costs the least energy — the full
//! Figure 6 flow, with nothing forced.
//!
//! Telemetry is enabled for the run: alongside the textual report it
//! writes `enterprise_trace.json`, a Chrome trace-event file — open it
//! in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing` to see
//! every request, staging copy and per-SM block on a timeline.
//!
//! ```text
//! cargo run -p ewc-bench --release --example enterprise_server
//! ```

use std::sync::{Arc, Barrier};
use std::thread;

use ewc_core::{Runtime, RuntimeConfig, Template};
use ewc_gpu::GpuConfig;
use ewc_telemetry::{export, TelemetrySink};
use ewc_workloads::{AesWorkload, BlackScholesWorkload, SearchWorkload, Workload};

fn main() {
    let cfg = GpuConfig::tesla_c1060();
    let aes: Arc<dyn Workload> = Arc::new(AesWorkload::fig7(&cfg));
    let search: Arc<dyn Workload> = Arc::new(SearchWorkload::tables56(&cfg));
    let bs: Arc<dyn Workload> = Arc::new(BlackScholesWorkload::tables56(&cfg));

    let rt = Arc::new(
        Runtime::builder(RuntimeConfig {
            threshold_factor: 8, // consider consolidation at 8 pending requests
            ..RuntimeConfig::default()
        })
        .workload("encryption", Arc::clone(&aes))
        .workload("search", Arc::clone(&search))
        .workload("blackscholes", Arc::clone(&bs))
        .template(Template::heterogeneous(
            "search+bs",
            &["search", "blackscholes"],
        ))
        .template(Template::homogeneous("encryption"))
        .template(Template::homogeneous("blackscholes"))
        .template(Template::homogeneous("search"))
        .telemetry(TelemetrySink::enabled())
        .build(),
    );

    // 24 users submit, and only then sync: every eighth launch reaches
    // the threshold with the others still pending, so the backend sees
    // real groups however the threads interleave.
    let submitted = Arc::new(Barrier::new(24));
    let mut threads = Vec::new();
    for user in 0..24u64 {
        let rt = Arc::clone(&rt);
        let submitted = Arc::clone(&submitted);
        let w: Arc<dyn Workload> = match user % 3 {
            0 => Arc::clone(&aes),
            1 => Arc::clone(&search),
            _ => Arc::clone(&bs),
        };
        let name = match user % 3 {
            0 => "encryption",
            1 => "search",
            _ => "blackscholes",
        };
        threads.push(thread::spawn(move || {
            let mut fe = rt.connect();
            let bufs = fe.submit(name, w.as_ref(), user).expect("queue");
            submitted.wait();
            fe.sync().expect("drain");
            let out = fe
                .memcpy_d2h(bufs.output, 0, bufs.output_len)
                .expect("download");
            assert_eq!(out, w.expected_output(user), "user {user} result");
            (user, name)
        }));
    }
    for t in threads {
        let (user, name) = t.join().expect("user thread");
        println!("user {user:2} ({name}) verified");
    }

    let rt = Arc::into_inner(rt).expect("all users done");
    let report = rt.shutdown();
    println!("\n== backend report ==");
    println!(
        "wall time:  {:.2} s, energy {:.1} kJ",
        report.elapsed_s,
        report.energy.energy_j / 1e3
    );
    println!(
        "launches: {} ({} consolidated), cpu-offloaded kernels: {}",
        report.stats.launches, report.stats.consolidated_launches, report.stats.cpu_executions
    );
    for rec in &report.stats.records {
        println!(
            "  {:?}: {} kernels via '{}' — predicted {:.1} s, actual {:.1} s",
            rec.choice,
            rec.kernels.len(),
            rec.template,
            rec.predicted_time_s,
            rec.actual_time_s
        );
    }

    let snap = report.telemetry.expect("telemetry was enabled");
    println!("\n== telemetry ==");
    print!("{}", export::summary::render(&snap));
    let path = "enterprise_trace.json";
    match std::fs::write(path, export::chrome::render(&snap)) {
        Ok(()) => println!(
            "\nwrote {path} ({} spans, {} decisions) — open it in https://ui.perfetto.dev",
            snap.spans.len(),
            snap.audit.len()
        ),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
