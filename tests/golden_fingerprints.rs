//! Golden replay fingerprints.
//!
//! `tests/determinism.rs` proves that two replays of the same scenario in
//! the *same build* agree; these tests pin the absolute schedule across
//! *builds*: the committed constants were recorded from the pre-NodeMask
//! seed implementation (PR 4), so any refactor of the scheduling hot path —
//! bitmask node sets, scratch-buffer reuse, blocked-set caching — must keep
//! the replay byte-identical to the seed behaviour or these hashes move.
//!
//! The hash is FNV-1a over the same observable fingerprint string the
//! determinism suite renders (event log, report, normalised triple, both
//! time series, summary line). If an intentional semantic change ever lands,
//! rerun with `--nocapture` and update the constants in the same commit,
//! explaining why the schedule was allowed to move.

use adaptive_powercap::prelude::*;
use adaptive_powercap::rjms::time::TimeWindow;
use adaptive_powercap::workload::rng::{fnv1a, FNV_OFFSET};

/// Render everything observable about an outcome into one byte string —
/// the exact format `tests/determinism.rs` compares.
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

fn replay_hash(harness: &ReplayHarness, scenario: &Scenario) -> u64 {
    fnv1a(FNV_OFFSET, fingerprint(&harness.run(scenario)).as_bytes())
}

/// The paper scenario set: the uncapped baseline plus every policy at the
/// 80 / 60 / 40 % caps, on the seed-2012 median-job interval.
#[test]
fn paper_scenario_set_matches_the_seed_schedule() {
    // (label, expected FNV-1a hash) recorded from the PR 4 seed build.
    const GOLDEN: [(&str, f64, Option<PowercapPolicy>, u64); 10] = [
        ("100%/None", 1.0, None, GOLDEN_BASELINE),
        ("80%/SHUT", 0.8, Some(PowercapPolicy::Shut), GOLDEN_SHUT_80),
        ("80%/DVFS", 0.8, Some(PowercapPolicy::Dvfs), GOLDEN_DVFS_80),
        ("80%/MIX", 0.8, Some(PowercapPolicy::Mix), GOLDEN_MIX_80),
        ("60%/SHUT", 0.6, Some(PowercapPolicy::Shut), GOLDEN_SHUT_60),
        ("60%/DVFS", 0.6, Some(PowercapPolicy::Dvfs), GOLDEN_DVFS_60),
        ("60%/MIX", 0.6, Some(PowercapPolicy::Mix), GOLDEN_MIX_60),
        ("40%/SHUT", 0.4, Some(PowercapPolicy::Shut), GOLDEN_SHUT_40),
        ("40%/DVFS", 0.4, Some(PowercapPolicy::Dvfs), GOLDEN_DVFS_40),
        ("40%/MIX", 0.4, Some(PowercapPolicy::Mix), GOLDEN_MIX_40),
    ];
    let harness = golden_harness();
    let duration = harness.trace().duration;
    let mut mismatches = Vec::new();
    for (label, fraction, policy, expected) in GOLDEN {
        let scenario = match policy {
            None => Scenario::baseline(),
            Some(policy) => Scenario::paper(policy, fraction, duration),
        };
        let actual = replay_hash(&harness, &scenario);
        println!("golden {label}: 0x{actual:016x}");
        if actual != expected {
            mismatches.push(format!(
                "{label}: expected 0x{expected:016x}, got 0x{actual:016x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "replay fingerprints moved from the seed schedule:\n{}",
        mismatches.join("\n")
    );
}

/// A scenario capping `windows`, in the order given, at one shared level.
fn uniform(policy: PowercapPolicy, fraction: f64, windows: &[(u64, u64)]) -> Scenario {
    let windows: Vec<TimeWindow> = windows
        .iter()
        .map(|&(start, duration)| TimeWindow::with_duration(start, duration))
        .collect();
    Scenario::scheduled(policy, CapSchedule::uniform(&windows, fraction))
}

/// A multi-window sweep cell (two disjoint cap slots in one interval), the
/// shape the PR 4 `--windows` axis replays.
#[test]
fn multi_window_sweep_cell_matches_the_seed_schedule() {
    let harness = golden_harness();
    let duration = harness.trace().duration;
    let scenario = uniform(
        PowercapPolicy::Mix,
        0.6,
        &[(1800, 3600), (duration - 5400, 3600)],
    );
    let actual = replay_hash(&harness, &scenario);
    println!("golden multi-window 60%/MIX: 0x{actual:016x}");
    assert_eq!(
        actual, GOLDEN_MULTI_WINDOW_MIX_60,
        "multi-window sweep cell diverged from the seed schedule \
         (got 0x{actual:016x})"
    );
}

/// Two adjacent windows written late-first (`--windows 1x9000+0x9000` on
/// the 5 h interval). Reservations register in written order, and that
/// order reaches the event log, so the two orders fingerprint differently.
/// It does not decide which nodes are off: both windows switch off the same
/// nodes, and at t = 9000 the later window's start runs before the earlier
/// window's end, which each node's hold count absorbs. Both orders report
/// the same replay, with every window's peak within its cap.
#[test]
fn late_first_window_set_matches_the_recorded_schedule() {
    let harness = golden_harness();
    let late = harness.run(&uniform(
        PowercapPolicy::Mix,
        0.4,
        &[(9000, 9000), (0, 9000)],
    ));
    let early = harness.run(&uniform(
        PowercapPolicy::Mix,
        0.4,
        &[(0, 9000), (9000, 9000)],
    ));
    let hash = |outcome| fnv1a(FNV_OFFSET, fingerprint(outcome).as_bytes());
    let actual = hash(&late);
    println!("golden late-first 40%/MIX: 0x{actual:016x}");
    assert_eq!(
        actual, GOLDEN_LATE_FIRST_MIX_40,
        "late-first window cell diverged from the recorded schedule \
         (got 0x{actual:016x})"
    );
    assert_ne!(hash(&early), actual, "written order must reach the replay");
    assert_eq!(late.report, early.report, "window order changed the replay");
    for outcome in [&late, &early] {
        for (window, cap) in outcome.scenario.reservations(harness.platform()) {
            let peak = outcome.power.peak_within(window.start, window.end);
            assert!(
                peak <= cap,
                "{}: peak {peak:?} over cap {cap:?} in {window:?}",
                outcome.scenario.window_label()
            );
        }
    }
}

/// The tight-cap tail of the paper grid: every policy at 40 % over the
/// seed-2012 24-hour interval. These cells run the most power-blocked
/// schedule passes (deep queues where the postponed head job holds no
/// shadow reservation), so they pin the scheduler's short-cuts hardest.
#[test]
fn day24h_tight_cap_cells_match_the_recorded_schedule() {
    const GOLDEN: [(&str, PowercapPolicy, u64); 3] = [
        ("24h 40%/SHUT", PowercapPolicy::Shut, GOLDEN_DAY24H_SHUT_40),
        ("24h 40%/DVFS", PowercapPolicy::Dvfs, GOLDEN_DAY24H_DVFS_40),
        ("24h 40%/MIX", PowercapPolicy::Mix, GOLDEN_DAY24H_MIX_40),
    ];
    let platform = Platform::curie_scaled(2);
    let trace = CurieTraceGenerator::new(2012)
        .interval(IntervalKind::Day24h)
        .generate_for(&platform);
    let harness = ReplayHarness::new(platform, trace);
    let duration = harness.trace().duration;
    let mut mismatches = Vec::new();
    for (label, policy, expected) in GOLDEN {
        let actual = replay_hash(&harness, &Scenario::paper(policy, 0.4, duration));
        println!("golden {label}: 0x{actual:016x}");
        if actual != expected {
            mismatches.push(format!(
                "{label}: expected 0x{expected:016x}, got 0x{actual:016x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "24h tight-cap fingerprints moved:\n{}",
        mismatches.join("\n")
    );
}

// Recorded from the seed (pre-NodeMask) build; see module docs.
const GOLDEN_BASELINE: u64 = 0xceee_ae71_8678_949f;
const GOLDEN_SHUT_80: u64 = 0x1f12_570a_1aa1_d447;
const GOLDEN_DVFS_80: u64 = 0x09d7_ad07_3af4_df9a;
const GOLDEN_MIX_80: u64 = 0x76eb_886a_7a0f_bdec;
const GOLDEN_SHUT_60: u64 = 0xc611_248b_a1cb_e020;
const GOLDEN_DVFS_60: u64 = 0xbf14_1327_532a_bf49;
const GOLDEN_MIX_60: u64 = 0x5435_6a46_d232_6a85;
const GOLDEN_SHUT_40: u64 = 0x209a_1622_8a50_4fd1;
const GOLDEN_DVFS_40: u64 = 0x068c_4f64_3598_4f7f;
const GOLDEN_MIX_40: u64 = 0x5347_8186_843c_26cd;
const GOLDEN_MULTI_WINDOW_MIX_60: u64 = 0x14fc_51ce_1df7_ac4a;
// Re-recorded when a node's off state became a count of holds: the first
// window's end no longer powers on the nodes the second has switched off.
const GOLDEN_LATE_FIRST_MIX_40: u64 = 0x8e16_c728_3140_1aad;
// Recorded before the schedule pass decided power ahead of node placement.
const GOLDEN_DAY24H_SHUT_40: u64 = 0x0817_84e1_107f_35e0;
const GOLDEN_DAY24H_DVFS_40: u64 = 0xec75_62e5_a662_5455;
const GOLDEN_DAY24H_MIX_40: u64 = 0xcec8_9c6e_b020_0247;
