//! Profile parity: the benchmark must measure the binary users get, so
//! its manifest has to build with the same release profile, the same
//! `ewc-gpu` feature set and the same rustflags as the root workspace.

use std::collections::BTreeMap;

fn read(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `key = value` lines of one `[section]` of a manifest, comments and
/// blank lines dropped.
fn section(manifest: &str, header: &str) -> BTreeMap<String, String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter_map(|l| {
            let l = l.trim();
            if l.is_empty() || l.starts_with('#') {
                return None;
            }
            let (k, v) = l.split_once('=')?;
            Some((k.trim().to_string(), v.trim().to_string()))
        })
        .collect()
}

#[test]
fn release_profile_matches_the_root_manifest() {
    let root = section(&read("../Cargo.toml"), "[profile.release]");
    let mine = section(&read("Cargo.toml"), "[profile.release]");
    assert!(!root.is_empty(), "the root manifest has a release profile");
    assert_eq!(mine, root, "benchmark/Cargo.toml [profile.release] drifted");
    assert_eq!(mine.get("lto").map(String::as_str), Some("\"thin\""));
    assert_eq!(mine.get("codegen-units").map(String::as_str), Some("1"));
}

#[test]
fn gpu_feature_set_matches_the_shipped_binary() {
    // The `ewc` binary links ewc-bench, which enables the reference
    // engine; the benchmark must enable it too.
    let bench = section(&read("../crates/bench/Cargo.toml"), "[dependencies]");
    let mine = section(&read("Cargo.toml"), "[dependencies]");
    let feature = "\"reference-engine\"";
    assert!(bench["ewc-gpu"].contains(feature), "{}", bench["ewc-gpu"]);
    assert!(mine["ewc-gpu"].contains(feature), "{}", mine["ewc-gpu"]);
}

#[test]
fn rustflags_are_inherited_not_overridden() {
    let config = read("../.cargo/config.toml");
    assert!(config.contains("target-cpu=native"), "{config}");
    // A config of the benchmark's own would shadow the root one when
    // cargo is invoked from inside benchmark/.
    let own = format!("{}/.cargo", env!("CARGO_MANIFEST_DIR"));
    assert!(!std::path::Path::new(&own).exists(), "{own} must not exist");
}
