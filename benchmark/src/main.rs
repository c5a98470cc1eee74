//! The one command: `cargo run --release --manifest-path
//! benchmark/Cargo.toml -- [--workload W] [--seed N] [--seconds S]
//! [--trace 0|1] [--smoke] [--out DIR]`, or `-- compare A B`.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use ewc_benchmark::compare;
use ewc_benchmark::env::{self, Pinned};
use ewc_benchmark::metrics::{manifest_json, RUN_SECONDS, WORKLOADS};
use ewc_benchmark::run::{self, Options};

const USAGE: &str = "usage: ewc-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
       ewc-benchmark compare A/results.jsonl B/results.jsonl
       ewc-benchmark manifest            (prints /BENCHMARK.json from the metric tables)
workloads: openloop_storm fleet_policy_burst paper_mix policy_storm engine_storm (default: all, one child process each)";

struct Args {
    workload: Option<String>,
    opts: Options,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: String::new(),
        seed: 42,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds >= 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => opts.smoke = true,
            "--out" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args { workload, opts })
}

fn run_one(opts: &Options, pinned: Pinned) -> Result<bool, String> {
    let report = run::run(opts, pinned)?;
    print!("{}", report.render());
    run::append_record(&opts.out_dir, &report.record_line(pinned))?;
    // Last line of stdout: the machine-readable result.
    println!("{}", report.result_line());
    Ok(report.correct)
}

/// Every workload in its own child process, one after the other, so
/// `peak_rss_mb` is per workload. Children inherit the pinned mask.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut failed = Vec::new();
    for (name, _) in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(args)
            .status()
            .map_err(|e| format!("cannot start the {name} run: {e}"))?;
        if !status.success() {
            failed.push(*name);
        }
    }
    println!(
        "{{\"workloads\": {}, \"failed_workloads\": {:?}, \"claim\": null}}",
        WORKLOADS.len(),
        failed
    );
    Ok(failed.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match (compare::load(a.as_ref()), compare::load(b.as_ref())) {
            (Ok(a), Ok(b)) => {
                let (table, any_worse) = compare::render(&a, &b);
                print!("{table}");
                ExitCode::from(u8::from(any_worse))
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    if args.first().map(String::as_str) == Some("manifest") {
        print!("{}", manifest_json());
        return ExitCode::SUCCESS;
    }
    let parsed = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any thread, pool or `available_parallelism()` call.
    let pinned = match env::pin_to_one_cpu() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}; refusing to measure unpinned");
            return ExitCode::from(2);
        }
    };
    let outcome = match parsed.workload {
        Some(w) => run_one(
            &Options {
                workload: w,
                ..parsed.opts
            },
            pinned,
        ),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
