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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

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
    fnv1a64(fingerprint(&harness.run(scenario)).as_bytes())
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
/// order moves this replay: the same windows written early-first schedule
/// differently, so a constructor that sorted the windows would fail here.
#[test]
fn late_first_window_set_matches_the_recorded_schedule() {
    let harness = golden_harness();
    let late_first = uniform(PowercapPolicy::Mix, 0.4, &[(9000, 9000), (0, 9000)]);
    let early_first = uniform(PowercapPolicy::Mix, 0.4, &[(0, 9000), (9000, 9000)]);
    let actual = replay_hash(&harness, &late_first);
    println!("golden late-first 40%/MIX: 0x{actual:016x}");
    assert_eq!(
        actual, GOLDEN_LATE_FIRST_MIX_40,
        "late-first window cell diverged from the recorded schedule \
         (got 0x{actual:016x})"
    );
    assert_ne!(
        replay_hash(&harness, &early_first),
        actual,
        "written order must reach the replay"
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
// Recorded from the build before window sets became uniform cap schedules,
// where the same windows were a cap fraction plus a window list.
const GOLDEN_LATE_FIRST_MIX_40: u64 = 0x4996_1d0c_61c7_f9a3;
