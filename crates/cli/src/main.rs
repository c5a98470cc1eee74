//! `ewc` — the command-line face of the consolidation framework.
//!
//! ```text
//! ewc experiments                 list every reproducible table/figure
//! ewc run <id>                    regenerate one experiment
//! ewc predict enc 9               model a homogeneous consolidation
//! ewc devices                     show the simulated GPU presets
//! ewc gantt <1|2>                 per-SM schedule of a paper scenario
//! ewc telemetry chrome trace.json replay a trace, export a Perfetto trace
//! ```

#![forbid(unsafe_code)]
// A bad argument is an `error:` line and exit status 1, not a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod commands;

use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(output) => {
            // A downstream reader (`ewc telemetry jsonl | head`) may close
            // the pipe early; that is not an error worth a panic.
            let _ = writeln!(std::io::stdout(), "{output}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{}", commands::usage());
            ExitCode::FAILURE
        }
    }
}
