//! Cross-crate correctness: a consolidated launch — manual or through
//! the full framework — must produce byte-identical results to serial
//! execution for every workload family and mix shape.

use std::sync::Arc;

use ewc_bench::{run_dynamic, run_dynamic_with, run_manual, run_serial, Mix, SetupResult};
use ewc_core::RuntimeConfig;
use ewc_gpu::GpuConfig;
use ewc_workloads::MatmulWorkload;

fn assert_all_correct(mix: &Mix, label: &str) {
    let serial = run_serial(mix);
    let manual = run_manual(mix);
    let dynamic = run_dynamic(mix);
    assert!(
        serial.correct,
        "{label}: serial outputs must match host references"
    );
    assert!(
        manual.correct,
        "{label}: manual consolidation corrupted outputs"
    );
    assert!(
        dynamic.correct,
        "{label}: framework consolidation corrupted outputs"
    );
}

#[test]
fn homogeneous_encryption() {
    let cfg = GpuConfig::tesla_c1060();
    for n in [1, 2, 5, 9] {
        assert_all_correct(&Mix::encryption(&cfg, n), &format!("enc x{n}"));
    }
}

#[test]
fn homogeneous_sorting() {
    let cfg = GpuConfig::tesla_c1060();
    for n in [1, 4, 9] {
        assert_all_correct(&Mix::sorting(&cfg, n), &format!("sort x{n}"));
    }
}

#[test]
fn homogeneous_matmul() {
    let cfg = GpuConfig::tesla_c1060();
    let matmul = Arc::new(MatmulWorkload::scalability_limited(&cfg));
    for n in [1, 3] {
        let mix = Mix::new().add("matmul", matmul.clone(), n);
        assert_all_correct(&mix, &format!("matmul x{n}"));
    }
}

#[test]
fn a_group_on_the_cpu_lifeboat_lands_in_the_same_buffers() {
    // Without `force_gpu` the decision engine sends two CPU-friendly AES
    // instances to the host: their bodies run through the same
    // functional pass a launch uses, into the buffers the frontends
    // read back.
    let cfg = GpuConfig::tesla_c1060();
    let mix = Mix::encryption(&cfg, 2);
    let lifeboat = run_dynamic_with(
        &mix,
        RuntimeConfig {
            threshold_factor: 30,
            ..RuntimeConfig::default()
        },
    );
    let stats = lifeboat
        .stats
        .as_ref()
        .expect("dynamic setup reports stats");
    assert_eq!(stats.cpu_executions, 2, "both instances ran host-side");
    assert_eq!(stats.launches, 0);
    assert!(
        lifeboat.correct,
        "CPU lifeboat outputs must match host references"
    );
}

#[test]
fn heterogeneous_search_blackscholes() {
    let cfg = GpuConfig::tesla_c1060();
    assert_all_correct(&Mix::search_blackscholes(&cfg, 1, 1), "1S+1B");
    assert_all_correct(&Mix::search_blackscholes(&cfg, 2, 10), "2S+10B");
}

#[test]
fn heterogeneous_encryption_montecarlo() {
    let cfg = GpuConfig::tesla_c1060();
    assert_all_correct(&Mix::encryption_montecarlo(&cfg, 1, 1), "1E+1M");
    assert_all_correct(&Mix::encryption_montecarlo(&cfg, 3, 3), "3E+3M");
}

#[test]
fn scenario_mixes() {
    let cfg = GpuConfig::tesla_c1060();
    assert_all_correct(&Mix::scenario1(&cfg), "scenario 1");
    assert_all_correct(&Mix::scenario2(&cfg), "scenario 2");
}

#[test]
fn distinct_instances_get_distinct_outputs() {
    // Two instances of the same workload with different seeds must not
    // be cross-wired by consolidation: verify outputs differ.
    let cfg = GpuConfig::tesla_c1060();
    let mix = Mix::encryption(&cfg, 2);
    let w = &mix.instances[0].1;
    assert_ne!(
        w.expected_output(0),
        w.expected_output(1),
        "seeds must generate different instances"
    );
    // run_manual already asserts per-instance equality against the
    // per-seed reference, which implies no cross-wiring.
    assert!(run_manual(&mix).correct);
}

/// FNV-1a 64 over the bytes of `s`.
fn fnv1a64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One dynamic-setup result as bits: time, energy and average power,
/// whether every output verified, and a digest of the stats' `Debug`.
type Pinned = (u64, u64, u64, bool, u64);

fn pinned(r: &SetupResult) -> Pinned {
    let stats = r.stats.as_ref().expect("dynamic setup reports stats");
    (
        r.time_s.to_bits(),
        r.energy_j.to_bits(),
        r.avg_power_w.to_bits(),
        r.correct,
        fnv1a64(&format!("{stats:?}")),
    )
}

/// Every mix `paper_mix` runs through `run_dynamic`, then the
/// `run_dynamic_with` configurations of the ablations and the multi-GPU
/// scaling study, labelled.
fn dynamic_sessions() -> Vec<(String, SetupResult)> {
    let cfg = GpuConfig::tesla_c1060();
    let mut mixes = vec![
        ("enc x12".to_string(), Mix::encryption(&cfg, 12)),
        ("sort x9".to_string(), Mix::sorting(&cfg, 9)),
        ("scenario 1".to_string(), Mix::scenario1(&cfg)),
        ("scenario 2".to_string(), Mix::scenario2(&cfg)),
        ("4S+4B".to_string(), Mix::search_blackscholes(&cfg, 4, 4)),
    ];
    for e in 3..=5 {
        mixes.push((
            format!("{e}E+{}M", 8 - e),
            Mix::encryption_montecarlo(&cfg, e, 8 - e),
        ));
    }
    let mut runs: Vec<_> = mixes
        .into_iter()
        .map(|(label, mix)| (label, run_dynamic(&mix)))
        .collect();

    let forced = || RuntimeConfig {
        force_gpu: true,
        ..RuntimeConfig::default()
    };
    let ablations: [(&str, u32, RuntimeConfig); 6] = [
        ("leader on", 9, forced()),
        (
            "leader off",
            9,
            RuntimeConfig {
                leader_election: false,
                ..forced()
            },
        ),
        ("batching on", 6, forced()),
        (
            "batching off",
            6,
            RuntimeConfig {
                argument_batching: false,
                ..forced()
            },
        ),
        ("reuse on", 8, forced()),
        (
            "reuse off",
            8,
            RuntimeConfig {
                constant_reuse: false,
                ..forced()
            },
        ),
    ];
    for (label, n, rc) in ablations {
        runs.push((
            label.to_string(),
            run_dynamic_with(&Mix::encryption(&cfg, n), rc),
        ));
    }
    let scaling = Mix::encryption_montecarlo(&cfg, 20, 20);
    for num_gpus in [1, 2, 4] {
        let rc = RuntimeConfig {
            num_gpus,
            force_gpu: true,
            threshold_factor: 60,
            ..RuntimeConfig::default()
        };
        runs.push((format!("{num_gpus} GPUs"), run_dynamic_with(&scaling, rc)));
    }
    runs
}

/// [`dynamic_sessions`] as recorded while `run_dynamic_with` still
/// submitted its batch by hand, before `run_batch` and
/// `Frontend::submit` took over. Never re-record these to make a
/// refactor pass.
#[rustfmt::skip]
const PINNED: [(&str, Pinned); 17] = [
    ("enc x12", (0x4030e27da778f320, 0x40b3aad10bcd872a, 0x4072a3004b23af53, true, 0xef45067828528cae)),
    ("sort x9", (0x400091e1ee618921, 0x4088c1db35bb58a5, 0x4077e7e4212b8f47, true, 0xd18090039da486c6)),
    ("scenario 1", (0x40547f0820bea77b, 0x40d956b01fc805a1, 0x4073c7b711dc77f0, true, 0x1b133ad5112205f2)),
    ("scenario 2", (0x404a9f7a66bde64e, 0x40d077c8370d89f5, 0x4073cb3e526d9f62, true, 0xadc71f180ff0ed96)),
    ("4S+4B", (0x4046e6ad6c99acdb, 0x40ccd29b8b2b62ac, 0x4074231d73f1516b, true, 0x467fe0b5d5af28c6)),
    ("3E+5M", (0x404704d018e21c70, 0x40c8f4e4dea8613e, 0x407158d16d00276c, true, 0xcdad946424b837db)),
    ("4E+4M", (0x404704d93b6bb0e6, 0x40c9e405464ca22f, 0x4071ff00d404d4f3, true, 0xf58ab760bd2010ca)),
    ("5E+3M", (0x404704e25df5455c, 0x40cad3258bfef2a0, 0x4072a52f9f8b6bef, true, 0x3ef3d5bc350cca1e)),
    ("leader on", (0x4020f254d07ab2db, 0x40a6af3bad0e9d99, 0x40756ada038ee90f, true, 0x176b3798763cf45e)),
    ("leader off", (0x40219006fd8908df, 0x40a72a6ee041d0cc, 0x40751ac81cf67701, true, 0x326d907681c41027)),
    ("batching on", (0x4020ec7b1ed04c68, 0x40a3d474051834b7, 0x4072bf5d240d8813, true, 0xeaf64c2c8b76973f)),
    ("batching off", (0x4020eec8f1c1f664, 0x40a3d640d1e50184, 0x4072be8384e73cd6, true, 0xc11f27db3f47c8f7)),
    ("reuse on", (0x4020f0619541e60a, 0x40a5aadc065faf63, 0x407477608b8d1e49, true, 0x5b7eacd23ee88d06)),
    ("reuse off", (0x4020f0701d0cd509, 0x40a5aae760763a19, 0x40747759b62ce111, true, 0x4258f5f49ed9cbfc)),
    ("1 GPUs", (0x4061093193369646, 0x40e6f6b1245daa5c, 0x407591391014c075, true, 0x850618cc069bf347)),
    ("2 GPUs", (0x4056a5969c0d2402, 0x40e4af0f977ff7ce, 0x407d39ed97c79da6, true, 0x8dc0fdc32410c981)),
    ("4 GPUs", (0x4047b194a833bfba, 0x40e180f78ecdd766, 0x4087a3ddb55777d1, true, 0x07297d9683c4b601)),
];

#[test]
fn run_dynamic_reproduces_the_values_pinned_before_the_batch_driver() {
    let runs = dynamic_sessions();
    assert_eq!(runs.len(), PINNED.len());
    for ((label, r), (pinned_label, expect)) in runs.iter().zip(PINNED) {
        assert_eq!(label, pinned_label);
        assert_eq!(pinned(r), expect, "{label}");
    }
}
