//! Instrumentation neutrality: attaching the observability layer must not
//! move a single output byte.
//!
//! `apc-obs` promises that metrics and span recording are *observers* —
//! the replay schedule, the campaign result files and the golden
//! fingerprints are identical with instrumentation on or off. These tests
//! prove it two ways:
//!
//! * instrumented replays hash to the **same golden constants** recorded
//!   from the uninstrumented seed build (`tests/golden_fingerprints.rs`);
//! * a campaign run with metrics + spans enabled renders byte-identical
//!   CSV at 1, 2 and 8 worker threads, matching the uninstrumented run.

use adaptive_powercap::obs::{Registry, SpanRecorder};
use adaptive_powercap::prelude::*;
use adaptive_powercap::workload::rng::{fnv1a, FNV_OFFSET};

/// The same observable fingerprint `tests/golden_fingerprints.rs` hashes.
fn fingerprint(outcome: &ReplayOutcome) -> String {
    format!(
        "events={:?}\nreport={:?}\nnormalized={:?}\nutilization={:?}\npower={:?}\nsummary={}",
        outcome.log.events(),
        outcome.report,
        outcome.normalized,
        outcome.utilization,
        outcome.power,
        outcome.summary(),
    )
}

fn golden_harness() -> ReplayHarness {
    let platform = Platform::curie_scaled(2); // 180 nodes
    let trace = CurieTraceGenerator::new(2012)
        .interval(IntervalKind::MedianJob)
        .generate_for(&platform);
    ReplayHarness::new(platform, trace)
}

// The seed-build constants these instrumented replays must still hit
// (recorded in tests/golden_fingerprints.rs).
const GOLDEN_BASELINE: u64 = 0xceee_ae71_8678_949f;
const GOLDEN_SHUT_60: u64 = 0xc611_248b_a1cb_e020;
const GOLDEN_DVFS_60: u64 = 0xbf14_1327_532a_bf49;
const GOLDEN_MIX_60: u64 = 0x5435_6a46_d232_6a85;

/// Fully-instrumented replays (metrics registry + span recorder) still hash
/// to the golden seed fingerprints.
#[test]
fn instrumented_replays_match_the_golden_fingerprints() {
    let harness = golden_harness();
    let duration = harness.trace().duration;
    let cases: [(&str, Option<PowercapPolicy>, u64); 4] = [
        ("100%/None", None, GOLDEN_BASELINE),
        ("60%/SHUT", Some(PowercapPolicy::Shut), GOLDEN_SHUT_60),
        ("60%/DVFS", Some(PowercapPolicy::Dvfs), GOLDEN_DVFS_60),
        ("60%/MIX", Some(PowercapPolicy::Mix), GOLDEN_MIX_60),
    ];
    let registry = Registry::new();
    let spans = SpanRecorder::new();
    for (label, policy, expected) in cases {
        let scenario = match policy {
            None => Scenario::baseline(),
            Some(policy) => Scenario::paper(policy, 0.6, duration),
        };
        let obs = ControllerObs::new(&registry, spans.clone());
        let outcome = harness.run_with_obs(&scenario, obs);
        let actual = fnv1a(FNV_OFFSET, fingerprint(&outcome).as_bytes());
        assert_eq!(
            actual, expected,
            "{label}: instrumentation moved the schedule \
             (expected 0x{expected:016x}, got 0x{actual:016x})"
        );
    }
    // And the instruments really were live while the schedule stayed put.
    let snap = registry.snapshot();
    let passes = snap
        .histogram("rjms.schedule_pass.duration_ns")
        .expect("pass histogram registered");
    assert!(passes.count > 0, "instrumented replays recorded passes");
    assert!(!spans.take_events().is_empty(), "spans were recorded");
}

/// A small-but-real campaign slice for the byte-identity runs.
fn neutrality_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::paper(2012, 2);
    spec.intervals = vec![IntervalKind::SmallJob];
    spec.policies = vec![PowercapPolicy::Shut, PowercapPolicy::Mix];
    spec.cap_fractions = vec![0.6];
    spec
}

fn rendered_outputs(threads: usize, obs: CampaignObs) -> (String, String) {
    let outcome = CampaignRunner::new(neutrality_spec())
        .with_threads(threads)
        .with_obs(obs)
        .run()
        .expect("campaign runs");
    (
        render_cells_csv(&outcome.rows),
        render_summary_csv(&outcome.summaries),
    )
}

/// Campaign output bytes are identical across thread counts with metrics
/// and span recording enabled, and identical to the uninstrumented run.
#[test]
fn instrumented_campaign_output_is_byte_identical_across_threads() {
    let (plain_cells, plain_summary) = rendered_outputs(1, CampaignObs::disabled());
    for threads in [1usize, 2, 8] {
        let obs = CampaignObs::full();
        let (cells, summary) = rendered_outputs(threads, obs.clone());
        assert_eq!(
            cells, plain_cells,
            "cells.csv moved with instrumentation at {threads} thread(s)"
        );
        assert_eq!(
            summary, plain_summary,
            "summary.csv moved with instrumentation at {threads} thread(s)"
        );
        // The observer half really observed.
        let snap = obs.registry.snapshot();
        assert!(snap.counter("campaign.cells.completed").unwrap_or(0) > 0);
        assert!(!obs.spans.take_events().is_empty());
    }
}
