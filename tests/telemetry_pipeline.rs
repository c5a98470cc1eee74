//! End-to-end telemetry: an enabled sink threaded through the runtime
//! must yield spans from the host and GPU tracks, a populated metrics
//! registry, a decision audit trail consistent with the backend stats,
//! and exporters whose output is valid (parseable) JSON with matched
//! event structure — the Chrome-trace golden test.

use std::sync::Arc;

use ewc_bench::{run_batch, Mix};
use ewc_core::{Choice, PowerStatesConfig, Runtime, RuntimeConfig, Template, CONSOLIDATION_MARGIN};
use ewc_gpu::GpuConfig;
use ewc_telemetry::export::{chrome, jsonl, summary};
use ewc_telemetry::{json, AuditEvent, TelemetrySink, TelemetrySnapshot};
use ewc_workloads::{AesWorkload, MonteCarloWorkload, SortWorkload};

/// Run `n` GPU-friendly Monte Carlo requests through a runtime wired to
/// `sink`, and return the shutdown report.
fn run_requests(n: u32, sink: TelemetrySink) -> ewc_core::RuntimeReport {
    let mc = Arc::new(MonteCarloWorkload::tables78(&GpuConfig::tesla_c1060()));
    let cfg = RuntimeConfig {
        threshold_factor: 2,
        ..RuntimeConfig::default()
    };
    run_mix(cfg, sink, &Mix::new().add("montecarlo", mc, n))
}

/// Run `mix` as one closed batch under `cfg`, and return the shutdown
/// report.
fn run_mix(cfg: RuntimeConfig, sink: TelemetrySink, mix: &Mix) -> ewc_core::RuntimeReport {
    let batch = run_batch(cfg, sink, mix);
    assert!(batch.correct);
    batch.report
}

fn snapshot(n: u32) -> (ewc_core::RuntimeReport, TelemetrySnapshot) {
    let report = run_requests(n, TelemetrySink::enabled());
    let snap = report
        .telemetry
        .clone()
        .expect("enabled sink must snapshot");
    (report, snap)
}

#[test]
fn disabled_sink_yields_no_snapshot() {
    let report = run_requests(2, TelemetrySink::disabled());
    assert!(report.telemetry.is_none());
    // The run itself must be unaffected.
    assert!(report.elapsed_s > 0.0);
    assert_eq!(report.stats.kernel_outcomes.len(), 2);
}

#[test]
fn runtime_run_emits_host_and_gpu_spans() {
    let (report, snap) = snapshot(4);
    assert!(!snap.spans.is_empty());

    // Host side: every frontend API call that reached the backend shows
    // up as an rpc span on the backend lane (which additionally carries
    // the backend's own staging/coordination phases).
    let rpcs = snap
        .spans
        .iter()
        .filter(|s| {
            s.process == "host"
                && s.lane == "backend"
                && s.name != "staging"
                && s.name != "coordinate"
        })
        .count();
    // One span name per kind of API call, as the Chrome trace shows it.
    let kinds: std::collections::BTreeSet<&str> = snap
        .spans
        .iter()
        .filter(|s| s.lane == "backend" && s.name != "staging" && s.name != "coordinate")
        .map(|s| s.name)
        .collect();
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        [
            "configure_call",
            "launch",
            "malloc",
            "memcpy_d2h",
            "memcpy_h2d",
            "shutdown",
            "sync"
        ]
    );
    // stats.messages additionally counts intra-group coordination
    // messages (leader election), which are not frontend API calls.
    assert!(
        rpcs as u64 <= report.stats.messages,
        "rpc spans ({rpcs}) cannot exceed backend messages ({})",
        report.stats.messages
    );
    let launches = snap
        .spans
        .iter()
        .filter(|s| s.lane == "backend" && s.name == "launch")
        .count();
    assert_eq!(launches, 4, "one launch rpc span per submitted request");
    assert!(
        snap.spans
            .iter()
            .any(|s| s.lane == "backend" && s.name == "staging"),
        "staging copies must appear on the backend lane"
    );
    assert!(
        snap.spans
            .iter()
            .any(|s| s.lane == "backend" && s.name == "coordinate"),
        "group coordination must appear on the backend lane"
    );

    // Request lifecycle: one "request" span per completed kernel, with
    // queued + execute children nested inside it.
    let requests: Vec<_> = snap.spans.iter().filter(|s| s.name == "request").collect();
    assert_eq!(requests.len(), report.stats.kernel_outcomes.len());
    for req in &requests {
        assert!(
            req.lane.starts_with("ctx"),
            "request spans live on context lanes"
        );
        let children: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.parent == Some(req.id))
            .collect();
        assert!(
            children.iter().any(|c| c.name == "queued"),
            "request {} lacks a queued child",
            req.id
        );
        assert!(
            children.iter().any(|c| c.name == "execute"),
            "request {} lacks an execute child",
            req.id
        );
        for c in children {
            assert!(
                c.start_s >= req.start_s - 1e-9,
                "child starts before parent"
            );
            assert!(c.end_s <= req.end_s + 1e-9, "child ends after parent");
        }
    }

    // GPU side: kernel + per-block SM spans, since Monte Carlo stays on
    // the device.
    assert!(
        report.stats.launches >= 1,
        "precondition: work must hit the GPU"
    );
    let gpu_streams = snap
        .spans
        .iter()
        .filter(|s| s.process == "gpu0" && s.lane == "stream")
        .count();
    assert_eq!(
        gpu_streams as u64, report.stats.launches,
        "one stream span per launch"
    );
    let sm_blocks = snap
        .spans
        .iter()
        .filter(|s| s.process == "gpu0" && s.lane.starts_with("sm"))
        .count();
    assert!(sm_blocks > 0, "per-block SM spans expected");

    // All spans have sane intervals.
    for s in snap.spans.iter() {
        assert!(s.end_s >= s.start_s, "negative span {s:?}");
    }
    // Snapshot ordering is chronological.
    let starts: Vec<f64> = snap.spans.iter().map(|s| s.start_s).collect();
    for w in starts.windows(2) {
        assert!(w[0] <= w[1]);
    }
}

#[test]
fn metrics_and_audit_match_backend_stats() {
    let (report, snap) = snapshot(4);

    let h = snap
        .metrics
        .histogram("request_latency_s")
        .expect("latency histogram");
    assert_eq!(h.count(), report.stats.kernel_outcomes.len() as u64);
    // Histogram percentiles agree with the exact stats within bucket
    // resolution (8% growth factor), which is the point of replacing the
    // ad-hoc sort.
    let exact = report.stats.latency_summary();
    let approx = h.percentile(95.0);
    let exact95 = exact.percentile(95.0).unwrap();
    assert!(
        (approx - exact95).abs() <= exact95 * 0.09 + 1e-9,
        "histogram p95 {approx} vs exact {exact95}"
    );

    assert_eq!(
        snap.metrics.counter("gpu_launches"),
        report.stats.launches as f64
    );
    assert_eq!(
        snap.metrics.counter("groups"),
        report.stats.records.len() as f64
    );
    assert!(snap.metrics.counter("staged_bytes") > 0.0);
    assert!(snap.metrics.gauge("elapsed_s").is_some());

    // No fleet, admission or policy: every audit record is a decision.
    assert_eq!(snap.audit.len(), report.stats.records.len());
    assert_decisions_match(&report, &snap);

    // Power series sampled for the device.
    let power = snap.series.get("power_w/gpu0").expect("power series");
    assert!(power.len() >= 2);
    for w in power.windows(2) {
        assert!(w[0].0 < w[1].0, "samples strictly ordered in time");
    }
}

/// One decision record per group, in order, each matching its stats
/// record: the verdict is the cheapest of the energies the record says
/// were compared, and the chosen one is the group's predicted energy —
/// over the policy horizon under a power policy, with the margin on it
/// for consolidation. Without a policy the compared energies are the
/// recorded predictions, consolidation's with the margin on it.
fn assert_decisions_match(report: &ewc_core::RuntimeReport, snap: &TelemetrySnapshot) {
    // State changes are audited too; they weigh no candidates.
    let decisions: Vec<_> = snap
        .audit
        .iter()
        .filter(|a| a.consolidated.is_some())
        .collect();
    assert_eq!(decisions.len(), report.stats.records.len());
    assert!(!decisions.is_empty());
    for (a, r) in decisions.into_iter().zip(&report.stats.records) {
        let (chosen, label) = match r.choice {
            Choice::Consolidate => (0, "consolidate"),
            Choice::SerialGpu => (1, "serial_gpu"),
            Choice::Cpu => (2, "cpu"),
        };
        assert_eq!(a.verdict.label(), label);
        assert_eq!(a.kernels.len(), r.kernels.len());
        let AuditEvent::Decision {
            compared_j,
            margin,
            policy,
            forced: false,
            closed: None,
        } = &a.event
        else {
            panic!("not a plain decision: {a:?}");
        };
        assert_eq!(*margin, CONSOLIDATION_MARGIN);
        assert!(compared_j.iter().all(|e| compared_j[chosen] <= *e), "{a:?}");
        let with_margin = |e: f64| e * (1.0 + margin);
        let predicted = match r.choice {
            Choice::Consolidate => with_margin(r.predicted_energy_j),
            _ => r.predicted_energy_j,
        };
        assert_eq!(compared_j[chosen].to_bits(), predicted.to_bits(), "{a:?}");
        if policy.is_none() {
            let [c, s, cpu] = [a.consolidated, a.serial, a.cpu].map(|p| p.expect("evaluated").1);
            assert_eq!(*compared_j, [with_margin(c), s, cpu]);
            let (t, e) = a.chosen().expect("chosen alternative recorded");
            assert!((t - r.predicted_time_s).abs() < 1e-9);
            assert!((e - r.predicted_energy_j).abs() < 1e-9);
        }
        let mut reason = String::new();
        a.write_reason(&mut reason).unwrap();
        let [c, s, cpu] = compared_j;
        for shown in [
            format!("consolidated {c:.3} J"),
            format!("serial {s:.3} J"),
            format!("cpu {cpu:.3} J"),
        ] {
            assert!(reason.contains(&shown), "{shown:?} missing from {reason:?}");
        }
    }
}

#[test]
fn a_flat_decision_record_shows_consolidation_with_its_margin() {
    // Sorting beside scenario 1's pair predicts consolidation about
    // 1.7 % below serial, inside the margin, so the verdict is serial —
    // and the record's consolidated energy, margin included, is above
    // serial's.
    let cfg = GpuConfig::tesla_c1060();
    let mix = Mix::new()
        .add("sorting", Arc::new(SortWorkload::fig8(&cfg)), 1)
        .add("encryption", Arc::new(AesWorkload::scenario1(&cfg)), 1)
        .add(
            "montecarlo",
            Arc::new(MonteCarloWorkload::scenario1(&cfg)),
            1,
        );
    let flat = RuntimeConfig {
        threshold_factor: 1_000_000,
        ..RuntimeConfig::default()
    };
    let report = run_mix(flat, TelemetrySink::enabled(), &mix);
    let snap = report.telemetry.clone().expect("enabled sink");
    assert_decisions_match(&report, &snap);
    let [a] = &snap.audit[..] else {
        panic!("one group: {:?}", snap.audit);
    };
    let (raw, serial) = (a.consolidated.unwrap().1, a.serial.unwrap().1);
    assert!(raw < serial && serial < raw * 1.02, "{a:?}");
    assert_eq!(report.stats.records[0].choice, Choice::SerialGpu);
    let AuditEvent::Decision { compared_j, .. } = a.event else {
        panic!("{a:?}");
    };
    assert_eq!(compared_j[0], raw * 1.02);
    assert!(compared_j[0] > compared_j[1], "{a:?}");
}

#[test]
fn a_policy_decision_record_shows_the_horizon_energies_it_compared() {
    // Race-to-idle: the verdict compared the knob-chosen horizon
    // energies, which the flat predictions beside them are not.
    let cfg = GpuConfig::tesla_c1060();
    let race = RuntimeConfig {
        threshold_factor: 2,
        power_states: Some(PowerStatesConfig::race()),
        ..RuntimeConfig::default()
    };
    let mc = Arc::new(MonteCarloWorkload::tables78(&cfg));
    let report = run_mix(
        race,
        TelemetrySink::enabled(),
        &Mix::new().add("montecarlo", mc, 4),
    );
    let snap = report.telemetry.clone().expect("enabled sink");
    assert_decisions_match(&report, &snap);
    let decisions = snap.audit.iter().filter(|a| a.consolidated.is_some());
    for a in decisions {
        let AuditEvent::Decision {
            compared_j,
            policy: Some(p),
            ..
        } = a.event
        else {
            panic!("a decision under a policy: {a:?}");
        };
        assert_eq!(p.knob, "race");
        assert_ne!(compared_j[1], a.serial.unwrap().1, "{a:?}");
    }
}

#[test]
fn chrome_trace_export_is_valid_and_matched() {
    let (_, snap) = snapshot(3);
    let trace = chrome::render(&snap);
    let doc = json::parse(&trace).expect("chrome trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("top-level traceEvents array");

    let mut complete = 0usize;
    let mut metadata = 0usize;
    let mut counters = 0usize;
    let mut instants = 0usize;
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .expect("every event has ph");
        assert!(
            ev.get("name").and_then(|v| v.as_str()).is_some(),
            "every event has a name"
        );
        match ph {
            "X" => {
                complete += 1;
                let ts = ev.get("ts").and_then(|v| v.as_f64()).expect("X has ts");
                let dur = ev.get("dur").and_then(|v| v.as_f64()).expect("X has dur");
                assert!(ts >= 0.0 && dur >= 0.0);
                assert!(ev.get("pid").and_then(|v| v.as_f64()).is_some());
                assert!(ev.get("tid").and_then(|v| v.as_f64()).is_some());
            }
            "M" => metadata += 1,
            "C" => counters += 1,
            "i" => instants += 1,
            other => panic!("unexpected phase {other:?}"),
        }
    }

    // Golden structure: every span becomes exactly one complete event,
    // every series point one counter event, every audit entry one
    // instant event; metadata names every (process, lane) track plus
    // each process itself.
    assert_eq!(complete, snap.spans.len());
    assert_eq!(counters, snap.series.values().map(Vec::len).sum::<usize>());
    assert_eq!(instants, snap.audit.len());
    let mut procs: Vec<&str> = snap.spans.iter().map(|s| s.process).collect();
    procs.sort_unstable();
    procs.dedup();
    let mut tracks: Vec<(&str, &str)> = snap.spans.iter().map(|s| (s.process, s.lane)).collect();
    tracks.sort_unstable();
    tracks.dedup();
    assert_eq!(
        metadata,
        procs.len() + tracks.len(),
        "process_name + thread_name records"
    );
}

#[test]
fn jsonl_and_summary_exports_cover_the_snapshot() {
    let (_, snap) = snapshot(2);

    let lines = jsonl::render(&snap);
    let mut kinds = std::collections::BTreeSet::new();
    for line in lines.lines() {
        let v = json::parse(line).expect("every JSONL line parses alone");
        kinds.insert(
            v.get("type")
                .and_then(|k| k.as_str())
                .expect("line has a type")
                .to_string(),
        );
    }
    for expect in [
        "span",
        "counter",
        "gauge",
        "histogram",
        "sample",
        "decision",
    ] {
        assert!(
            kinds.contains(expect),
            "jsonl export missing type {expect:?}"
        );
    }

    let text = summary::render(&snap);
    for section in ["spans", "counters", "histograms", "decisions"] {
        assert!(
            text.to_lowercase().contains(section),
            "summary missing section {section:?}:\n{text}"
        );
    }
    assert!(text.contains("request_latency_s"));
}

#[test]
fn chrome_trace_render_is_byte_deterministic() {
    // The backend runs only inside its callers' calls and every span is
    // stamped from simulated clocks, so two separate runs on default
    // (non-virtual) sinks export the same bytes — not just two renders
    // of one snapshot. A map-iteration-order leak in an exporter, or a
    // wall-clock reading anywhere in the recording path, shows up here.
    let (_, a) = snapshot(3);
    let (_, b) = snapshot(3);
    assert_eq!(chrome::render(&a), chrome::render(&b));
    assert_eq!(jsonl::render(&a), jsonl::render(&b));
    assert_eq!(summary::render(&a), summary::render(&b));
}

#[test]
fn virtual_time_trace_exports_are_byte_identical_across_runs() {
    // A sink that lends the backend its executor clock replays the same
    // way as a default one (`chrome_trace_render_is_byte_deterministic`
    // above): two separate runs export the same bytes.
    let a = trace_replay_snapshot(virtual_sink());
    let b = trace_replay_snapshot(virtual_sink());
    assert_eq!(
        chrome::render(&a),
        chrome::render(&b),
        "virtual-time Chrome traces must be byte-identical across runs"
    );
    assert_eq!(jsonl::render(&a), jsonl::render(&b));
}

/// FNV-1a 64 over the bytes of `s`.
fn fnv1a64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(digest, byte length)` of the chrome / jsonl / summary renders,
/// every document and line re-parsed on the way.
fn export_digests(snap: &TelemetrySnapshot) -> [(u64, usize); 3] {
    let chrome = chrome::render(snap);
    json::parse(&chrome).expect("chrome trace parses");
    let jsonl = jsonl::render(snap);
    for line in jsonl.lines() {
        json::parse(line).expect("jsonl line parses");
    }
    [chrome, jsonl, summary::render(snap)].map(|text| digest(&text))
}

/// `(digest, byte length)` of `text`.
fn digest(text: &str) -> (u64, usize) {
    (fnv1a64(text), text.len())
}

fn virtual_sink() -> TelemetrySink {
    TelemetrySink::enabled_virtual(ewc_exec::VirtualClock::new())
}

/// The seeded ten-request trace replay `ewc telemetry` exports.
fn trace_replay_snapshot(sink: TelemetrySink) -> TelemetrySnapshot {
    use ewc_bench::experiments::trace;
    let arrivals = trace::generate(&trace::TraceSpec {
        requests: 10,
        mean_interarrival_s: 1.0,
        seed: 5,
    });
    trace::replay_with(&arrivals, 4, 60.0, sink)
        .1
        .expect("enabled sink must snapshot")
}

/// A bursty 8× open-loop session on four devices under the race-to-idle
/// policy with queue-bound admission: `fleet_policy_burst` in small,
/// as far as `ewc_load::openloop::run` (which takes no fleet) goes.
fn bursty_openloop_snapshot() -> TelemetrySnapshot {
    bursty_openloop_session(16, 16)
}

/// [`bursty_openloop_snapshot`]'s session with `streams` streams of
/// `arrivals` requests each.
fn bursty_openloop_session(streams: usize, arrivals: usize) -> TelemetrySnapshot {
    use ewc_load::openloop::{self, LoadConfig};
    let mut cfg = LoadConfig::scaled(42, LoadConfig::bursty(), 8.0);
    (cfg.streams, cfg.arrivals_per_stream) = (streams, arrivals);
    cfg.num_gpus = 4;
    cfg.kernel_target_s = 20e-3;
    cfg.admission = Some(ewc_core::AdmissionConfig {
        max_per_device: 256,
        max_per_ctx: 32,
        ..ewc_core::AdmissionConfig::default()
    });
    cfg.power_states = Some(ewc_core::PowerStatesConfig::race());
    cfg.telemetry = true;
    let report = openloop::run(&cfg);
    assert!(report.conserved());
    report.telemetry.expect("telemetry was on")
}

/// The rest of `fleet_policy_burst`'s configuration: a heterogeneous
/// four-device `FragAware` fleet with the DVFS ladder, race-to-idle.
fn dvfs_fleet_snapshot() -> TelemetrySnapshot {
    use ewc_fleet::{FleetConfig, PolicyKind};
    use ewc_workloads::AesWorkload;
    let aes = AesWorkload::fig7(&GpuConfig::tesla_c1060());
    let rt = Runtime::builder(RuntimeConfig {
        threshold_factor: 3,
        force_gpu: true,
        noise_seed: Some(7),
        power_states: Some(ewc_core::PowerStatesConfig::race()),
        fleet: Some(
            FleetConfig::heterogeneous(4)
                .with_policy(PolicyKind::FragAware)
                .with_dvfs(),
        ),
        ..RuntimeConfig::default()
    })
    .telemetry(virtual_sink())
    .workload("encryption", Arc::new(aes.clone()))
    .template(Template::homogeneous("encryption"))
    .build();
    // No constants and no read-back: the digests above were pinned on
    // exactly this message sequence, which is not `run_batch`'s.
    let mut frontends = Vec::new();
    for seed in 0..12 {
        let mut fe = rt.connect();
        fe.submit("encryption", &aes, seed).expect("submit");
        frontends.push(fe);
    }
    frontends[0].sync().expect("drain");
    drop(frontends);
    rt.shutdown().telemetry.expect("enabled sink must snapshot")
}

#[test]
fn exports_match_the_digests_pinned_before_the_store_rewrite() {
    // Recorded before the interned store and the single-pass renderers,
    // which had to produce the same bytes. Re-recorded once since, when
    // decision reasons started printing the energies the verdict
    // compared: every span, number and event record kept its bytes.
    assert_eq!(
        export_digests(&trace_replay_snapshot(virtual_sink())),
        [
            (0xbfe7_3d8f_c3b6_ad03, 130_922),
            (0xc52c_60fb_b4b4_e5cc, 121_199),
            (0xab50_7d72_e4b8_a466, 3_554),
        ],
        "trace replay"
    );
    assert_eq!(
        export_digests(&bursty_openloop_snapshot()),
        [
            (0x1c45_cce1_1b96_1941, 308_615),
            (0x7a05_72b8_ad3d_c0b2, 339_965),
            (0x49be_86b1_65fb_9598, 10_089),
        ],
        "bursty open loop"
    );
    assert_eq!(
        export_digests(&dvfs_fleet_snapshot()),
        [
            (0x1f95_a184_c3e1_d5e8, 64_261),
            (0xab43_130a_3bb3_59f8, 60_902),
            (0x9862_2d45_bd02_b4cd, 5_872),
        ],
        "DVFS fleet"
    );
}

#[test]
fn benchmark_scale_exports_match_the_digests_pinned_before_the_templates() {
    // Recorded before the span templates (fmt-printed floats, per-span
    // skeleton, gathered snapshot rows), and re-recorded only when
    // decision reasons started printing the compared energies: 107 904 spans,
    // ids past 100 000, consolidated names of 31 kernels. Not re-parsed
    // (39 MB would double the test's time in a debug build): the small
    // sessions above parse the output of the same code.
    let snap = bursty_openloop_session(64, 256);
    assert_eq!(snap.spans.len(), 107_904);
    assert_eq!(
        [
            chrome::render(&snap),
            jsonl::render(&snap),
            summary::render(&snap)
        ]
        .map(|t| digest(&t)),
        [
            (0x103f_b53d_a840_492a, 18_611_649),
            (0xe57d_ad78_ab25_e0b8, 20_647_797),
            (0x8ae9_5a3d_6c4e_e4bf, 14_063),
        ],
        "bursty open loop, benchmark scale"
    );
}

#[test]
fn every_float_of_the_pinned_sessions_prints_as_fmt_does() {
    // What `json::write_number` wrote before it had its own float
    // writer, byte for byte: the digests above pin the renders, this
    // names the value when one differs.
    let reference = |v: f64| {
        if !v.is_finite() {
            "null".to_string()
        } else if v == v.trunc() && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    };
    let sessions = [
        trace_replay_snapshot(virtual_sink()),
        bursty_openloop_snapshot(),
        dvfs_fleet_snapshot(),
    ];
    let mut checked = 0;
    for snap in &sessions {
        let mut floats = Vec::new();
        for s in snap.spans.iter() {
            floats.extend([s.start_s, s.end_s, s.start_s * 1e6, s.duration_s() * 1e6]);
            floats.extend(s.attrs().filter_map(|(_, v)| match v {
                ewc_telemetry::AttrValue::F64(v) => Some(v),
                _ => None,
            }));
        }
        for &(t, v) in snap.series.values().flatten() {
            floats.extend([t, t * 1e6, v]);
        }
        for rec in &snap.audit {
            floats.extend([rec.time_s, rec.time_s * 1e6]);
            for (t, e) in [rec.consolidated, rec.serial, rec.cpu]
                .into_iter()
                .flatten()
            {
                floats.extend([t, e]);
            }
        }
        for v in floats {
            let mut got = String::new();
            json::write_number(&mut got, v);
            assert_eq!(got, reference(v), "{v:e} ({:#x})", v.to_bits());
            checked += 1;
        }
    }
    assert!(checked > 10_000, "{checked} floats");
}
