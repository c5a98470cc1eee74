//! Byte-identity pins: every preset of every workload, at seeds 0..=3,
//! must produce exactly the bytes it always has — both the host
//! reference (`expected_output`) and what the kernel leaves in device
//! memory (`run_standalone`). Staged bytes feed the simulation and the
//! references are compared byte-for-byte, so any rewrite of a kernel or
//! reference for speed has to reproduce these digests.
//!
//! On a mismatch the test prints the full table of computed digests.

use ewc_gpu::{GpuConfig, GpuDevice};
use ewc_workloads::{
    run_standalone, AesWorkload, BlackScholesWorkload, MatmulWorkload, MonteCarloWorkload,
    SearchWorkload, SortWorkload, Workload,
};

/// 64-bit FNV-1a.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(preset, digest of its bytes at seeds 0..=3)`: the reference and
/// the device output must both hash to it.
type Pin = (&'static str, [u64; 4]);

const PINS: [Pin; 12] = [
    (
        "aes::fig7",
        [
            0xd349_02ca_3c79_e3a4,
            0x9baa_1c39_596b_3fed,
            0xcb0a_fe97_1542_3fdc,
            0x8b84_87d2_056b_2b03,
        ],
    ),
    (
        "aes::table1_6k",
        [
            0xdd13_8e11_7560_3ffb,
            0x0f0c_7238_603b_7b04,
            0x541f_22c2_e7c3_a5f0,
            0x1a7f_e7e6_8c17_9309,
        ],
    ),
    (
        "aes::scenario1",
        [
            0xd349_02ca_3c79_e3a4,
            0x9baa_1c39_596b_3fed,
            0xcb0a_fe97_1542_3fdc,
            0x8b84_87d2_056b_2b03,
        ],
    ),
    (
        "aes::tables78",
        [
            0xd349_02ca_3c79_e3a4,
            0x9baa_1c39_596b_3fed,
            0xcb0a_fe97_1542_3fdc,
            0x8b84_87d2_056b_2b03,
        ],
    ),
    (
        "sort::fig8",
        [
            0x7058_e3f7_8a48_02bf,
            0xd55a_2d60_c1fc_4a0b,
            0x902c_13be_e9b7_f8cd,
            0x79d6_442d_12fd_36c9,
        ],
    ),
    (
        "search::tables56",
        [
            0x40d6_9e0c_f0f6_5c45,
            0x40d6_9e0c_f0f6_5c45,
            0x40d6_9e0c_f0f6_5c45,
            0x40d6_9e0c_f0f6_5c45,
        ],
    ),
    (
        "search::scenario2",
        [
            0xf87b_38c6_cf34_ac55,
            0xf87b_38c6_cf34_ac55,
            0xf87b_38c6_cf34_ac55,
            0xf87b_38c6_cf34_ac55,
        ],
    ),
    (
        "blackscholes::tables56",
        [
            0x5885_6e48_dd1c_d8dc,
            0x2a9e_75c7_c89d_3132,
            0x873b_05ae_25d7_4afe,
            0x0aa4_d2b5_a328_8092,
        ],
    ),
    (
        "blackscholes::scenario2",
        [
            0x5885_6e48_dd1c_d8dc,
            0x2a9e_75c7_c89d_3132,
            0x873b_05ae_25d7_4afe,
            0x0aa4_d2b5_a328_8092,
        ],
    ),
    (
        "montecarlo::scenario1",
        [
            0x842c_bb42_e037_1235,
            0x842c_bb42_e037_1235,
            0x842c_bb42_e037_1235,
            0x842c_bb42_e037_1235,
        ],
    ),
    (
        "montecarlo::tables78",
        [
            0xe3e6_c8f5_0a93_401a,
            0xe3e6_c8f5_0a93_401a,
            0xe3e6_c8f5_0a93_401a,
            0xe3e6_c8f5_0a93_401a,
        ],
    ),
    (
        "matmul::scalability_limited",
        [
            0x978d_5a5a_f7ad_d8ab,
            0x8ff6_7052_ed60_2de0,
            0x6ce8_ad6b_f894_3a27,
            0x357d_c374_192e_3332,
        ],
    ),
];

/// Digest of AES's staged constant data (the T-tables plus the S-box).
const AES_CONSTANTS: u64 = 0x133a_f3ec_67c1_1bdd;

fn presets(cfg: &GpuConfig) -> Vec<(&'static str, Box<dyn Workload>)> {
    vec![
        ("aes::fig7", Box::new(AesWorkload::fig7(cfg))),
        ("aes::table1_6k", Box::new(AesWorkload::table1_6k(cfg))),
        ("aes::scenario1", Box::new(AesWorkload::scenario1(cfg))),
        ("aes::tables78", Box::new(AesWorkload::tables78(cfg))),
        ("sort::fig8", Box::new(SortWorkload::fig8(cfg))),
        ("search::tables56", Box::new(SearchWorkload::tables56(cfg))),
        (
            "search::scenario2",
            Box::new(SearchWorkload::scenario2(cfg)),
        ),
        (
            "blackscholes::tables56",
            Box::new(BlackScholesWorkload::tables56(cfg)),
        ),
        (
            "blackscholes::scenario2",
            Box::new(BlackScholesWorkload::scenario2(cfg)),
        ),
        (
            "montecarlo::scenario1",
            Box::new(MonteCarloWorkload::scenario1(cfg)),
        ),
        (
            "montecarlo::tables78",
            Box::new(MonteCarloWorkload::tables78(cfg)),
        ),
        (
            "matmul::scalability_limited",
            Box::new(MatmulWorkload::scalability_limited(cfg)),
        ),
    ]
}

#[test]
fn every_preset_reproduces_its_pinned_bytes() {
    let cfg = GpuConfig::tesla_c1060();
    let mut computed: Vec<Pin> = Vec::new();
    for (name, w) in presets(&cfg) {
        let mut row = [0; 4];
        for (seed, slot) in row.iter_mut().enumerate() {
            let seed = seed as u64;
            let reference = digest(&w.expected_output(seed));
            let mut gpu = GpuDevice::new(cfg.clone());
            let run = run_standalone(w.as_ref(), &mut gpu, seed).expect("standalone run");
            assert_eq!(
                digest(&run.output),
                reference,
                "{name} seed {seed}: device output differs from the reference"
            );
            *slot = reference;
        }
        computed.push((name, row));
    }
    let table: String = computed
        .iter()
        .map(|(name, row)| format!("    (\"{name}\", {row:#018x?}),\n"))
        .collect();
    assert_eq!(
        computed.as_slice(),
        PINS.as_slice(),
        "computed pins:\n{table}"
    );
}

#[test]
fn aes_constant_data_is_pinned() {
    let cfg = GpuConfig::tesla_c1060();
    let (key, bytes) = AesWorkload::fig7(&cfg)
        .constant_data()
        .expect("AES stages its tables");
    assert_eq!(key, "aes_ttables");
    assert_eq!(bytes.len(), 4 * 1024 + 256);
    assert_eq!(
        digest(&bytes),
        AES_CONSTANTS,
        "computed 0x{:016x}",
        digest(&bytes)
    );
}
