//! The measuring environment: CPU pinning, `/proc` readings and the
//! stamp (toolchain, profile, commit) every result carries.

/// `cpu_set_t` is 1024 bits on Linux.
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// What pinning found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinned {
    /// The one CPU the process now runs on.
    pub cpu: u32,
    /// CPUs the process was allowed before pinning (`nproc`).
    pub nproc: u32,
}

/// Pin the whole process to one CPU: the highest one it is allowed, which
/// keeps it off CPU 0 where the host's interrupts usually land. Must run
/// before any thread, pool or `available_parallelism()` call — children
/// and threads inherit the mask, and the stack's shared task pool sizes
/// itself from the allowed CPUs, so a pinned run has the driver thread,
/// the runtime's one backend thread and nothing else.
///
/// Unpinned, the driver and backend threads ping-pong across CPUs on
/// every blocking round trip; on the 2-vCPU reference host that made the
/// same binary take anywhere from 1.3 s to 7.7 s for one open-loop
/// repetition (pinned: 1.0–1.33 s). So the benchmark refuses to measure
/// unpinned.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<Pinned, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling process.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let nproc: u32 = mask.iter().map(|w| w.count_ones()).sum();
    let (word, bits) = mask
        .iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .ok_or("empty affinity mask")?;
    let bit = 63 - bits.leading_zeros();
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1u64 << bit;
    // SAFETY: `one` is a live buffer of exactly the byte length passed
    // and is only read; pid 0 names the calling process.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err("sched_setaffinity failed".into());
    }
    Ok(Pinned {
        cpu: word as u32 * 64 + bit,
        nproc,
    })
}

/// Pinning needs `sched_setaffinity`; elsewhere the benchmark refuses.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<Pinned, String> {
    Err("CPU pinning is only implemented for Linux".into())
}

/// A `key:  <n> kB`-style field of a `/proc/.../status` file.
fn status_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("/proc/self/status", "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Voluntary context switches of the calling thread so far: one per
/// blocking wait, so the driver thread's delta over a run counts the
/// round trips that actually slept.
pub fn vol_ctx_switches() -> u64 {
    status_field("/proc/thread-self/status", "voluntary_ctxt_switches").unwrap_or(0)
}

/// The commit the working tree is at, read from `.git` without starting
/// a process; `"unknown"` outside a git checkout.
pub fn commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let head = match std::fs::read_to_string(format!("{git}/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = std::fs::read_to_string(format!("{git}/{reference}")) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(format!("{git}/packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc --version` of the compiler that built this binary (captured
/// by `build.rs`).
pub fn rustc_version() -> &'static str {
    env!("EWC_BENCH_RUSTC")
}

/// The build profile this binary was compiled under.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
