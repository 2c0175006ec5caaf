//! Integration + property tests for the `leime-serving` online runtime:
//! byte-identical deterministic replay (report *and* telemetry), the
//! admission controller's stability-bound guarantee under arbitrary
//! generated inputs, the overload acceptance bar (admission beats
//! no-admission on latency-critical hit-rate), the golden
//! flash-crowd-over-brownout composition with `leime-chaos` (pinned
//! counts and latency quantiles included), and extreme parameters ending in finite reports.

use leime::{ControllerKind, ModelKind, Scenario};
use leime_invariant as invariant;
use leime_serving::{
    admit, flash_brownout_testbed, serving_testbed, AdmissionPolicy, ServingReport, ServingSystem,
    SlaClass,
};
use leime_telemetry::Registry;
use proptest::prelude::*;

const SLOTS: usize = 120;
const RUN_SEED: u64 = 3;
const CHAOS_SEED: u64 = 42;
const DEVICES: usize = 4;

fn run_testbed(
    load: f64,
    admission: bool,
    registry: Option<&Registry>,
) -> leime::Result<ServingReport> {
    let (scenario, mut config) = serving_testbed(ModelKind::SqueezeNet, DEVICES, load);
    config.admission.enabled = admission;
    let mut sys = ServingSystem::new(scenario, config)?;
    if let Some(reg) = registry {
        sys.attach_registry(reg, "serve");
    }
    sys.run(SLOTS, RUN_SEED)
}

/// DESIGN.md §11 applied to serving: two runs at the same seed are
/// byte-identical — the full report (per-class counts *and* latency
/// histograms) and the entire telemetry snapshot serialize to the same
/// JSON text.
#[test]
fn replay_is_byte_identical_including_telemetry() {
    let reg_a = Registry::new();
    let reg_b = Registry::new();
    let a = run_testbed(2.0, true, Some(&reg_a)).unwrap();
    let b = run_testbed(2.0, true, Some(&reg_b)).unwrap();
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "serving reports diverged between same-seed runs"
    );
    assert_eq!(
        serde_json::to_string(&reg_a.snapshot()).unwrap(),
        serde_json::to_string(&reg_b.snapshot()).unwrap(),
        "telemetry snapshots diverged between same-seed runs"
    );
    // And a different seed actually changes the run (the determinism is
    // not degeneracy).
    let (scenario, config) = serving_testbed(ModelKind::SqueezeNet, DEVICES, 2.0);
    let mut sys = ServingSystem::new(scenario, config).unwrap();
    let c = sys.run(SLOTS, RUN_SEED + 1).unwrap();
    assert_ne!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&c).unwrap()
    );
}

/// The PR's acceptance bar, pinned as a tier-2 test: under 2x overload
/// the admission controller's latency-critical deadline-hit-rate beats
/// the admit-everything baseline, and shedding is priority-ordered.
#[test]
fn admission_beats_no_admission_under_overload() {
    let with = run_testbed(2.0, true, None).unwrap();
    let without = run_testbed(2.0, false, None).unwrap();
    let lc_on = with.class(SlaClass::LatencyCritical).hit_rate();
    let lc_off = without.class(SlaClass::LatencyCritical).hit_rate();
    assert!(
        lc_on > lc_off,
        "admission LC hit-rate {lc_on:.3} not above baseline {lc_off:.3}"
    );
    // The margin is structural (calibrated testbed), not a coin flip.
    assert!(lc_on > 0.9, "admission LC hit-rate {lc_on:.3} below 0.9");
    assert!(lc_off < 0.5, "unbounded baseline somehow hit {lc_off:.3}");

    let lc = with.class(SlaClass::LatencyCritical);
    let be = with.class(SlaClass::BestEffort);
    let lc_shed = lc.shed as f64 / lc.offered.max(1) as f64;
    let be_shed = be.shed as f64 / be.offered.max(1) as f64;
    assert!(
        be_shed > lc_shed,
        "best-effort shed rate {be_shed:.3} not above latency-critical {lc_shed:.3}"
    );
    // Bounded queues: the backlog stayed inside the per-device envelope.
    let policy = AdmissionPolicy::default();
    invariant::check_drained(
        "integration_serving.backlog",
        with.final_backlog,
        (policy.q_bound + policy.h_bound + 1.0) * DEVICES as f64,
    );
}

/// The golden composition: a 3x flash crowd breaking over an edge
/// brownout. Deterministic, visibly faulted, and latency-critical
/// traffic still meets its deadline while best-effort pays.
#[test]
fn flash_crowd_over_brownout_composition() {
    let run = || {
        let (scenario, config) =
            flash_brownout_testbed(ModelKind::SqueezeNet, DEVICES, CHAOS_SEED, 1.0);
        let mut sys = ServingSystem::new(scenario, config).unwrap();
        sys.run(SLOTS, RUN_SEED).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "golden composition is not replayable"
    );
    assert!(a.fault_slots > 0, "brownout never surfaced");
    assert!(a.shed_total() > 0, "flash crowd never forced shedding");
    let lc = a.class(SlaClass::LatencyCritical);
    assert!(
        lc.hit_rate() > 0.9,
        "latency-critical hit-rate {:.3} under composition",
        lc.hit_rate()
    );
    let be = a.class(SlaClass::BestEffort);
    assert!(
        (be.shed as f64 / be.offered.max(1) as f64) > (lc.shed as f64 / lc.offered.max(1) as f64),
        "composition shed out of priority order"
    );
}

/// The golden composition's counts and latency distribution, pinned: a
/// change here is a change in what the serving loop computes, not only
/// in how it computes it.
#[test]
fn flash_brownout_counts_are_pinned() {
    let (scenario, config) = flash_brownout_testbed(ModelKind::SqueezeNet, 4, CHAOS_SEED, 2.0);
    let report = ServingSystem::new(scenario, config)
        .and_then(|mut sys| sys.run(120, 7))
        .unwrap();
    // (offered, admitted, shed, deadline_hits, tct_s.count()) per class.
    let want: [(u64, u64, u64, u64, u64); 3] = [
        (6962, 5397, 1565, 5397, 5397),
        (17332, 4561, 12771, 4561, 4561),
        (10160, 18, 10142, 18, 18),
    ];
    // `to_bits` of tct_s (min, max, p50, p99, p999, sum) per class. None
    // of them depends on the order requests are recorded in: the sum is
    // exact and rounded once, so it moves only when a recorded value or
    // count does, and a sampler that drifts by one request moves it.
    let want_tct: [[u64; 6]; 3] = [
        [
            0x3fdbb0125e853436,
            0x3ff6eb9eca7d42fe,
            0x3ff2f05472a660d0,
            0x3ff51aea1f046343,
            0x3ff60a1f3b49c376,
            0x40b8e26959c7be1b,
        ],
        [
            0x3fdbb0125e853436,
            0x3ff9893f056a3883,
            0x3ff2f05472a660d0,
            0x3ff808c7153e8b7e,
            0x3ff9893f056a3883,
            0x40b5b0e5a725447a,
        ],
        [
            0x3ff0490c9c7d5390,
            0x3ffe2a9164ff0b94,
            0x3ff2f05472a660d0,
            0x3ffdd8e000d78fb2,
            0x3ffdd8e000d78fb2,
            0x40359086fa9c39de,
        ],
    ];
    for ((c, want), want_tct) in SlaClass::ALL.into_iter().zip(want).zip(want_tct) {
        let s = report.class(c);
        let got = (
            s.offered,
            s.admitted,
            s.shed,
            s.deadline_hits,
            s.tct_s.count(),
        );
        assert_eq!(got, want, "{}", c.name());
        let h = &s.tct_s;
        let got_tct = [
            h.min(),
            h.max(),
            h.quantile(0.5),
            h.quantile(0.99),
            h.p999(),
            Some(h.sum()),
        ]
        .map(|v| v.map(f64::to_bits));
        assert_eq!(got_tct, want_tct.map(Some), "{} tct_s", c.name());
    }
    assert_eq!(report.hard_requests, 1705);
    assert_eq!(report.fault_slots, 76);
    assert_eq!(report.offload_slots, 480);
}

/// Extreme parameters end in a report with conserved per-class counts
/// and finite aggregates, never an error, a panic or a NaN.
#[test]
fn extreme_parameters_yield_finite_reports() {
    type Tweak = fn(&mut Scenario);
    let cases: [(&str, Tweak); 7] = [
        ("v = 1e-300", |s| s.v = 1e-300),
        ("v = inf", |s| s.v = f64::INFINITY),
        ("one device", |s| s.devices.truncate(1)),
        ("no arrivals", |s| {
            s.devices.iter_mut().for_each(|d| d.arrival_mean = 0.0)
        }),
        ("device only", |s| s.controller = ControllerKind::DeviceOnly),
        ("edge only", |s| s.controller = ControllerKind::EdgeOnly),
        ("bandwidth 1e-300", |s| {
            s.devices.iter_mut().for_each(|d| d.bandwidth_bps = 1e-300)
        }),
    ];
    for (name, tweak) in cases {
        let (mut scenario, config) =
            flash_brownout_testbed(ModelKind::SqueezeNet, DEVICES, CHAOS_SEED, 2.0);
        tweak(&mut scenario);
        let report = match ServingSystem::new(scenario, config).and_then(|mut s| s.run(SLOTS, 7)) {
            Ok(report) => report,
            Err(e) => panic!("{name}: {e}"),
        };
        for c in SlaClass::ALL {
            let s = report.class(c);
            assert_eq!(s.offered, s.admitted + s.shed, "{name}: {}", c.name());
            assert!(s.tct_s.sum().is_finite(), "{name}: {} tct sum", c.name());
        }
        assert!(report.final_backlog.is_finite(), "{name}: backlog");
        assert!(report.offload_sum.is_finite(), "{name}: offload sum");
    }
}

/// Shared body for the property and its pinned regressions: `admit`
/// must never push a predicted backlog past `max(post-service backlog,
/// bound)` — the non-panicking mirror of the `invariant::` guard inside
/// `admit` itself — and per-class bookkeeping must conserve requests.
#[allow(clippy::too_many_arguments, reason = "mirrors admit()'s slot state")]
fn assert_admission_respects_bounds(
    q: f64,
    h: f64,
    device_quota: f64,
    edge_quota: f64,
    x: f64,
    q_bound: f64,
    h_bound: f64,
    weights: [f64; 3],
    offered: [u64; 3],
) {
    let policy = AdmissionPolicy {
        enabled: true,
        q_bound,
        h_bound,
    };
    let d = admit(&policy, q, h, device_quota, edge_quota, x, weights, offered);
    for (ci, &off) in offered.iter().enumerate() {
        assert_eq!(d.admitted[ci] + d.shed[ci], off, "class {ci} leaked");
    }
    let q_after = (q - device_quota.max(0.0)).max(0.0);
    let h_after = (h - edge_quota.max(0.0)).max(0.0);
    let volume: f64 = (0..3).map(|ci| d.admitted[ci] as f64 * weights[ci]).sum();
    let slop = 1e-9 * (1.0 + volume);
    assert!(
        invariant::within_bound(d.predicted_q, q_after.max(q_bound) + slop),
        "predicted Q {} escaped bound {q_bound} (post-service {q_after})",
        d.predicted_q
    );
    assert!(
        invariant::within_bound(d.predicted_h, h_after.max(h_bound) + slop),
        "predicted H {} escaped bound {h_bound} (post-service {h_after})",
        d.predicted_h
    );
    // Disabling the controller admits everything, whatever the bounds.
    let open = AdmissionPolicy {
        enabled: false,
        ..policy
    };
    let all = admit(&open, q, h, device_quota, edge_quota, x, weights, offered);
    assert_eq!(all.admitted, offered);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The admission guarantee under arbitrary queue states, quotas,
    /// offload splits, class weights and offered loads.
    #[test]
    fn admission_never_breaks_the_stability_bound(
        q in 0.0f64..60.0,
        h in 0.0f64..60.0,
        device_quota in 0.0f64..30.0,
        edge_quota in 0.0f64..30.0,
        x in 0.0f64..=1.0,
        q_bound in 0.0f64..40.0,
        h_bound in 0.0f64..40.0,
        w_lc in 0.1f64..3.0,
        w_be in 0.1f64..3.0,
        offered_lc in 0u64..200,
        offered_std in 0u64..200,
        offered_be in 0u64..200,
    ) {
        assert_admission_respects_bounds(
            q, h, device_quota, edge_quota, x, q_bound, h_bound,
            [w_lc, 1.0, w_be],
            [offered_lc, offered_std, offered_be],
        );
    }
}

/// Pinned edge cases for the property above (the vendored proptest shim
/// does not replay `.proptest-regressions` corpora, so interesting
/// boundaries are mirrored here explicitly).
#[test]
fn admission_bound_pinned_edge_cases() {
    // Fully-local split: the edge bound must not interfere.
    assert_admission_respects_bounds(0.0, 0.0, 0.0, 0.0, 0.0, 10.0, 0.0, [1.0; 3], [50, 50, 50]);
    // Fully-offloaded split against a zero edge bound: everything with
    // edge footprint sheds.
    assert_admission_respects_bounds(0.0, 0.0, 0.0, 0.0, 1.0, 10.0, 0.0, [1.0; 3], [50, 50, 50]);
    // Backlog already past both bounds; quotas free partial room.
    assert_admission_respects_bounds(60.0, 60.0, 30.0, 5.0, 0.5, 15.0, 20.0, [1.0; 3], [9, 9, 9]);
    // Zero-weight classes have no footprint and always fit.
    assert_admission_respects_bounds(
        0.0,
        0.0,
        0.0,
        0.0,
        0.5,
        0.0,
        0.0,
        [0.0, 1.0, 0.0],
        [9, 7, 9],
    );
}
