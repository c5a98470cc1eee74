//! The flat placement, the per-state models, the serial dedupe, the
//! cost classes, the shared ladder placement and the scalar energy path
//! are reshapings, not remodellings: every prediction must equal, bit for
//! bit, the member-at-a-time reference below, which keeps the original
//! shape — nested per-SM block lists, a materialised block queue,
//! per-phase scratch vectors, one cost per member, every SM evaluated,
//! models rebuilt per call and one single-member prediction per member.
//! It adds one rule to that shape: a plan with a member that fits no SM
//! predicts +∞ (see [`unschedulable`]).

use std::collections::VecDeque;

use ewc_energy::{
    GpuPowerGroundTruth, PowerCoefficients, PowerState, PowerStateTable, ThermalModel,
    TrainingBenchmark,
};
use ewc_gpu::occupancy::{Occupancy, SmResources};
use ewc_gpu::{BlockCost, EventRates, GpuConfig, KernelDesc, SimRng};
use ewc_models::{
    analyze, analyze_serial, ConsolidationPlan, EnergyModel, KernelSpec, PerfPrediction,
    PowerModel, Prediction,
};

const IDLE_W: f64 = 200.0;

fn cfg() -> GpuConfig {
    GpuConfig::tesla_c1060()
}

fn power_model() -> PowerModel {
    let coeffs = PowerCoefficients::train(
        &cfg(),
        &GpuPowerGroundTruth::tesla_c1060(),
        &TrainingBenchmark::rodinia_suite(),
        42,
    )
    .expect("training converges");
    PowerModel::new(coeffs, ThermalModel::gt200(), cfg())
}

// ---- reference: placement on Vec<Vec<_>> -------------------------------

struct RefPlacement {
    /// Per SM: `(member, phase)` in placement order.
    per_sm: Vec<Vec<(usize, u8)>>,
    costs: Vec<BlockCost>,
}

fn ref_sm_phase_time(blocks: &[&BlockCost]) -> f64 {
    let issue: f64 = blocks.iter().map(|c| c.issue_demand * c.t_solo_s).sum();
    let longest = blocks.iter().map(|c| c.t_solo_s).fold(0.0, f64::max);
    issue.max(longest)
}

fn ref_analyze(plan: &ConsolidationPlan, cfg: &GpuConfig) -> RefPlacement {
    let n_sms = cfg.num_sms as usize;
    let costs: Vec<BlockCost> = plan
        .members
        .iter()
        .map(|m| BlockCost::derive(&m.desc, cfg))
        .collect();
    let order: Vec<usize> = plan
        .members
        .iter()
        .enumerate()
        .flat_map(|(mi, m)| std::iter::repeat_n(mi, m.blocks as usize))
        .collect();
    let mut per_sm: Vec<Vec<(usize, u8)>> = vec![Vec::new(); n_sms];
    let mut res: Vec<SmResources> = (0..n_sms).map(|_| SmResources::new(cfg)).collect();
    let mut pool = VecDeque::from(order);
    loop {
        let mut progress = false;
        for sm in 0..n_sms {
            let Some(&mi) = pool.front() else { break };
            if res[sm].admit(&plan.members[mi].desc) {
                per_sm[sm].push((mi, 0));
                pool.pop_front();
                progress = true;
            }
        }
        if !progress || pool.is_empty() {
            break;
        }
    }
    if !pool.is_empty() {
        let finish: Vec<f64> = per_sm
            .iter()
            .map(|blocks| {
                let refs: Vec<&BlockCost> = blocks.iter().map(|b| &costs[b.0]).collect();
                if refs.is_empty() {
                    0.0
                } else {
                    ref_sm_phase_time(&refs)
                }
            })
            .collect();
        let min_busy = finish
            .iter()
            .filter(|&&t| t > 0.0)
            .fold(f64::INFINITY, |a, &b| a.min(b));
        let idle: Vec<usize> = (0..n_sms)
            .filter(|&sm| finish[sm] > 0.0 && finish[sm] <= min_busy * (1.0 + 1e-9))
            .collect();
        if !idle.is_empty() {
            let mut next = 0usize;
            while let Some(mi) = pool.pop_front() {
                per_sm[idle[next % idle.len()]].push((mi, 1));
                next += 1;
            }
        }
    }
    RefPlacement { per_sm, costs }
}

fn ref_perf(plan: &ConsolidationPlan, placement: &RefPlacement, cfg: &GpuConfig) -> PerfPrediction {
    let n_sms = cfg.num_sms as usize;
    let costs = &placement.costs;
    let mut demand = 0.0;
    for blocks in &placement.per_sm {
        let sum_d: f64 = blocks.iter().map(|b| costs[b.0].issue_demand).sum();
        let share = if sum_d > 1.0 { 1.0 / sum_d } else { 1.0 };
        for b in blocks {
            demand += costs[b.0].bw_solo * share;
        }
    }
    let bw_stretch = (demand / cfg.dram_bandwidth).max(1.0);

    let mut per_sm_finish = vec![0.0_f64; n_sms];
    let mut member_finish = vec![0.0_f64; plan.members.len()];
    for (sm, blocks) in placement.per_sm.iter().enumerate() {
        if blocks.is_empty() {
            continue;
        }
        let mut finish = 0.0;
        for phase in [0u8, 1u8] {
            let refs: Vec<&BlockCost> = blocks
                .iter()
                .filter(|b| b.1 == phase)
                .map(|b| &costs[b.0])
                .collect();
            if refs.is_empty() {
                continue;
            }
            let t_base = ref_sm_phase_time(&refs);
            let mem_weight: f64 = refs
                .iter()
                .map(|c| c.mem_fraction * c.t_solo_s)
                .sum::<f64>()
                / refs.iter().map(|c| c.t_solo_s).sum::<f64>();
            finish += t_base * ((1.0 - mem_weight) + mem_weight * bw_stretch);
        }
        per_sm_finish[sm] = finish;
        for b in blocks {
            member_finish[b.0] = member_finish[b.0].max(finish);
        }
    }

    let time_s = per_sm_finish.iter().copied().fold(0.0, f64::max);
    let critical_sms: Vec<u32> = per_sm_finish
        .iter()
        .enumerate()
        .filter(|(_, &t)| t > 0.0 && (time_s - t) <= time_s * 1e-9)
        .map(|(i, _)| i as u32)
        .collect();
    PerfPrediction {
        time_s,
        critical_sms,
        member_finish,
        sms_used: placement.per_sm.iter().filter(|b| !b.is_empty()).count(),
        is_type1: placement.per_sm.iter().map(Vec::len).max().unwrap_or(0) <= 1,
        bw_stretch,
        per_sm_finish,
    }
}

fn ref_rates(
    plan: &ConsolidationPlan,
    costs: &[BlockCost],
    time_s: f64,
    per_sm_finish: &[f64],
    num_sms: u32,
) -> EventRates {
    let (mut comp_ops, mut mem_txn, mut mem_bytes) = (0.0, 0.0, 0.0);
    for (m, cost) in plan.members.iter().zip(costs) {
        let blocks = f64::from(m.blocks);
        comp_ops += blocks * cost.comp_ops;
        mem_txn += blocks * cost.mem_requests;
        mem_bytes += blocks * cost.mem_bytes;
    }
    let busy: f64 = per_sm_finish.iter().sum();
    let active_frac = if time_s > 0.0 {
        (busy / (time_s * f64::from(num_sms))).min(1.0)
    } else {
        0.0
    };
    EventRates {
        comp_ops_per_s: comp_ops / time_s.max(1e-12),
        mem_txn_per_s: mem_txn / time_s.max(1e-12),
        bytes_per_s: mem_bytes / time_s.max(1e-12),
        active_sm_frac: active_frac,
        resident_warps: 0.0,
    }
}

// ---- reference: energy composition, models rebuilt per call ------------

/// The reference's one explicit rule: a plan with a member that fits no
/// SM cannot run.
fn unschedulable(plan: &ConsolidationPlan) -> bool {
    plan.members
        .iter()
        .any(|m| Occupancy::of(&m.desc, &cfg()).is_err())
}

/// What a plan that cannot run predicts: +∞ in every field.
fn infinite() -> Prediction {
    Prediction {
        time_s: f64::INFINITY,
        dyn_power_w: f64::INFINITY,
        thermal_w: f64::INFINITY,
        gpu_energy_j: f64::INFINITY,
        system_energy_j: f64::INFINITY,
    }
}

/// `state`, unless it is flat or the P0 anchor, whose scalings are 1.
fn scaling(state: Option<&PowerState>) -> Option<&PowerState> {
    state.filter(|s| !(s.freq_scale == 1.0 && s.volt_scale == 1.0))
}

/// The device configuration in `state` (`None` = flat).
fn cfg_in(state: Option<&PowerState>) -> GpuConfig {
    let mut cfg = cfg();
    if let Some(s) = scaling(state) {
        cfg.clock_hz *= s.freq_scale;
    }
    cfg
}

/// The consolidated prediction, flat (`state == None`) or in a state.
fn ref_predict(
    power: &PowerModel,
    plan: &ConsolidationPlan,
    state: Option<&PowerState>,
) -> Prediction {
    if unschedulable(plan) {
        return infinite();
    }
    let cfg = cfg_in(state);
    let volt_sq = scaling(state).map(PowerState::volt_sq);
    let power = power.with_config(cfg.clone());
    let placement = ref_analyze(plan, &cfg);
    let perf = ref_perf(plan, &placement, &cfg);
    let rates = ref_rates(
        plan,
        &placement.costs,
        perf.time_s,
        &perf.per_sm_finish,
        cfg.num_sms,
    );
    let mut dyn_power_w = power.predict_dyn_power_w(&rates);
    if let Some(v2) = volt_sq {
        dyn_power_w *= v2;
    }
    let thermal_w = power.predict_thermal_w(dyn_power_w);
    let gpu_energy_j = (dyn_power_w + thermal_w) * perf.time_s;
    Prediction {
        time_s: perf.time_s,
        dyn_power_w,
        thermal_w,
        gpu_energy_j,
        system_energy_j: gpu_energy_j + IDLE_W * perf.time_s,
    }
}

/// The serial prediction: every member alone, one at a time.
fn ref_predict_serial(
    power: &PowerModel,
    plan: &ConsolidationPlan,
    state: Option<&PowerState>,
) -> Prediction {
    if unschedulable(plan) {
        return infinite();
    }
    let (mut time, mut gpu_energy) = (0.0, 0.0);
    for m in &plan.members {
        let single = ConsolidationPlan::new().with(KernelSpec::new(m.desc.clone(), m.blocks));
        let p = ref_predict(power, &single, state);
        time += p.time_s;
        gpu_energy += p.gpu_energy_j;
    }
    Prediction {
        time_s: time,
        dyn_power_w: if time > 0.0 { gpu_energy / time } else { 0.0 },
        thermal_w: 0.0,
        gpu_energy_j: gpu_energy,
        system_energy_j: gpu_energy + IDLE_W * time,
    }
}

// ---- comparison --------------------------------------------------------

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same(got: &Prediction, want: &Prediction, what: &str) {
    let scalars = |p: &Prediction| {
        bits(&[
            p.time_s,
            p.dyn_power_w,
            p.thermal_w,
            p.gpu_energy_j,
            p.system_energy_j,
        ])
    };
    assert_eq!(scalars(got), scalars(want), "{what}: scalars");
}

fn assert_same_perf(got: &PerfPrediction, want: &PerfPrediction, what: &str) {
    assert_eq!(
        bits(&[got.time_s, got.bw_stretch]),
        bits(&[want.time_s, want.bw_stretch]),
        "{what}: time_s, bw_stretch"
    );
    assert_eq!(
        bits(&got.per_sm_finish),
        bits(&want.per_sm_finish),
        "{what}: per_sm_finish"
    );
    assert_eq!(
        bits(&got.member_finish),
        bits(&want.member_finish),
        "{what}: member_finish"
    );
    assert_eq!(got.critical_sms, want.critical_sms, "{what}: critical_sms");
    assert_eq!(got.sms_used, want.sms_used, "{what}: sms_used");
    assert_eq!(got.is_type1, want.is_type1, "{what}: is_type1");
}

// ---- plans -------------------------------------------------------------

/// A random kernel; heavy register use and large grids are common enough
/// that many plans overflow the first waves and redistribute.
fn random_spec(rng: &mut SimRng) -> KernelSpec {
    let tpb = [64u32, 128, 256, 512][rng.range_usize(0, 4)];
    let desc = KernelDesc::builder("rand")
        .threads_per_block(tpb)
        .regs_per_thread(rng.range_u32(8, 64))
        .shared_mem_per_block(rng.range_u32(0, 3) * 4096)
        .comp_insts(rng.range_f64(1e5, 5e7))
        .coalesced_mem(rng.range_f64(0.0, 5e4))
        .uncoalesced_mem(rng.range_f64(0.0, 2e3))
        .build();
    KernelSpec::new(desc, rng.range_u32(1, 40))
}

/// `spec` with exactly one descriptor field changed.
fn one_field_off(spec: &KernelSpec, rng: &mut SimRng) -> KernelSpec {
    let mut s = spec.clone();
    match rng.range_u32(0, 7) {
        0 => s.desc.threads_per_block /= 2,
        1 => s.desc.regs_per_thread += 1,
        2 => s.desc.shared_mem_per_block += 256,
        3 => s.desc.comp_insts *= 1.0 + f64::EPSILON,
        4 => s.desc.coalesced_mem += 1.0,
        5 => s.desc.uncoalesced_mem += 1.0,
        _ => s.desc.sync_insts += 1.0,
    }
    s
}

fn plan_of(members: impl IntoIterator<Item = KernelSpec>) -> ConsolidationPlan {
    let mut plan = ConsolidationPlan::new();
    for m in members {
        plan.push(m);
    }
    plan
}

fn random_plan(shape: usize, rng: &mut SimRng) -> ConsolidationPlan {
    let (a, b, c) = (random_spec(rng), random_spec(rng), random_spec(rng));
    let reps = |rng: &mut SimRng, s: &KernelSpec| vec![s.clone(); rng.range_usize(1, 4)];
    match shape {
        0 => ConsolidationPlan::new(),
        1 => plan_of([a]),
        // Homogeneous, 2–9 members.
        2 => ConsolidationPlan::homogeneous(a.desc, a.blocks.min(6), rng.range_u32(2, 10)),
        // Heterogeneous with consecutive repeats: A…, B…, C….
        3 => plan_of([reps(rng, &a), reps(rng, &b), reps(rng, &c)].concat()),
        // Non-consecutive repeats: A, B, A (and A, A, B, A).
        4 => plan_of([reps(rng, &a), vec![b], vec![a.clone()]].concat()),
        // Neighbours differing only in block count.
        5 => {
            let more = KernelSpec::new(a.desc.clone(), a.blocks + 1);
            plan_of([a.clone(), more.clone(), a, more])
        }
        // Neighbours differing in exactly one descriptor field.
        6 => {
            let off = one_field_off(&a, rng);
            plan_of([a.clone(), off.clone(), off, a])
        }
        // The decision benchmark's shape: homogeneous, 2–9 members × 3
        // blocks, so every busy SM holds the same work.
        _ => ConsolidationPlan::homogeneous(a.desc, 3, rng.range_u32(2, 10)),
    }
}

#[test]
fn predictions_equal_the_member_at_a_time_reference() {
    let power = power_model();
    let model = EnergyModel::new(cfg(), power.clone(), IDLE_W);
    let table = PowerStateTable::dvfs(60.0);
    let ladder: Vec<(&PowerState, EnergyModel)> = table
        .operating_points()
        .map(|(_, state)| (state, model.in_state(state)))
        .collect();
    let mut rng = SimRng::seed_from_u64(0x0b17_1de7);
    let (mut unrunnable, mut shared, mut fresh) = (0, 0, 0);
    for i in 0..320 {
        let plan = random_plan(i % 8, &mut rng);
        let what = format!("plan {i} (shape {})", i % 8);
        // The placement the ladder shares: occupancy-only unless it
        // redistributed, in which case each state places afresh.
        let placement = analyze(&plan, &cfg());
        let runs = analyze_serial(&plan, &cfg());
        if unschedulable(&plan) {
            unrunnable += 1;
        } else if placement.redistributed {
            fresh += 1;
        } else if !plan.members.is_empty() {
            shared += 1;
        }

        assert_same(
            &model.predict(&plan),
            &ref_predict(&power, &plan, None),
            &what,
        );
        assert_same(
            &model.predict_serial(&plan),
            &ref_predict_serial(&power, &plan, None),
            &format!("{what} serial"),
        );
        assert_same_perf(
            &model.perf().predict(&plan),
            &ref_perf(&plan, &ref_analyze(&plan, &cfg()), &cfg()),
            &format!("{what} perf"),
        );
        for (state, in_state) in &ladder {
            let what = format!("{what} in {}", state.name);
            let want = ref_predict(&power, &plan, Some(state));
            assert_same(&model.predict_in_state(&plan, state), &want, &what);
            assert_same(
                &in_state.predict_placed(&plan, &placement),
                &want,
                &format!("{what} on the shared placement"),
            );
            let want = ref_predict_serial(&power, &plan, Some(state));
            assert_same(
                &model.predict_serial_in_state(&plan, state),
                &want,
                &format!("{what} serial"),
            );
            assert_same(
                &in_state.predict_serial_placed(&plan, &runs),
                &want,
                &format!("{what} serial on the shared placements"),
            );
            let state_cfg = cfg_in(Some(state));
            assert_same_perf(
                &in_state.perf().predict(&plan),
                &ref_perf(&plan, &ref_analyze(&plan, &state_cfg), &state_cfg),
                &format!("{what} perf"),
            );
        }
    }
    println!("{shared} shared placements, {fresh} placed afresh, {unrunnable} unschedulable");
    assert!(
        shared >= 40 && fresh >= 40,
        "the sweep must exercise the shared ladder placement and the fresh \
         one after redistribution, saw {shared} and {fresh}"
    );
    assert!(
        unrunnable >= 20,
        "the sweep must exercise unschedulable plans, saw {unrunnable}"
    );
}
