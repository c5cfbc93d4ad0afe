//! Cross-crate integration tests: the whole pipeline from synthetic trace to
//! replay outcome, checking the qualitative shape of the paper's results on a
//! reduced-scale Curie.

use adaptive_powercap::prelude::*;

fn harness(seed: u64, interval: IntervalKind, racks: usize) -> ReplayHarness {
    let platform = Platform::curie_scaled(racks);
    let trace = CurieTraceGenerator::new(seed)
        .interval(interval)
        .generate_for(&platform);
    ReplayHarness::new(platform, trace)
}

#[test]
fn every_policy_respects_every_cap() {
    let h = harness(21, IntervalKind::MedianJob, 2);
    let duration = h.trace().duration;
    for fraction in [0.8, 0.6, 0.4] {
        for policy in [
            PowercapPolicy::Shut,
            PowercapPolicy::Dvfs,
            PowercapPolicy::Mix,
        ] {
            let scenario = Scenario::paper(policy, fraction, duration);
            let outcome = h.run(&scenario);
            let (window, cap) = scenario.reservations(h.platform()).next().unwrap();
            let peak = outcome.power.peak_within(window.start, window.end);
            assert!(
                peak.as_watts() <= cap.as_watts() + 1e-6,
                "{policy} at {fraction}: peak {peak} exceeds cap {cap}"
            );
        }
    }
}

#[test]
fn work_and_energy_decrease_with_the_cap() {
    // Paper: "for every type of workload work and energy decrease
    // proportionally to the powercap diminution".
    let h = harness(22, IntervalKind::MedianJob, 2);
    let duration = h.trace().duration;
    for policy in [PowercapPolicy::Shut, PowercapPolicy::Mix] {
        let mut last_work = f64::INFINITY;
        let mut last_energy = f64::INFINITY;
        for fraction in [0.8, 0.6, 0.4] {
            let outcome = h.run(&Scenario::paper(policy, fraction, duration));
            assert!(
                outcome.report.work_core_seconds <= last_work + 1e-6,
                "{policy}: work must not grow as the cap shrinks"
            );
            assert!(
                outcome.report.energy.as_joules() <= last_energy * 1.02,
                "{policy}: energy must not grow as the cap shrinks"
            );
            last_work = outcome.report.work_core_seconds;
            last_energy = outcome.report.energy.as_joules();
        }
    }
}

#[test]
fn capped_runs_never_beat_the_uncapped_baseline() {
    let h = harness(23, IntervalKind::SmallJob, 2);
    let duration = h.trace().duration;
    let baseline = h.run(&Scenario::baseline());
    for policy in [
        PowercapPolicy::Shut,
        PowercapPolicy::Dvfs,
        PowercapPolicy::Mix,
    ] {
        let outcome = h.run(&Scenario::paper(policy, 0.4, duration));
        assert!(outcome.report.work_core_seconds <= baseline.report.work_core_seconds + 1e-6);
        assert!(outcome.report.energy < baseline.report.energy);
        // Note: launched-job counts may go either way — the paper itself
        // observes capped runs launching *more* (smaller) jobs than the
        // baseline when the baseline favours one huge job.
    }
}

#[test]
fn shut_and_mix_power_nodes_off_while_dvfs_downclocks() {
    let h = harness(24, IntervalKind::MedianJob, 2);
    let duration = h.trace().duration;
    let count_off = |o: &ReplayOutcome| {
        o.log
            .events()
            .iter()
            .filter(|e| matches!(e.kind, SimEventKind::NodesPoweredOff { .. }))
            .count()
    };
    let shut = h.run(&Scenario::paper(PowercapPolicy::Shut, 0.4, duration));
    assert!(count_off(&shut) > 0);
    assert!(shut
        .log
        .job_starts()
        .all(|(_, _, _, f)| f == Frequency::from_ghz(2.7)));

    let dvfs = h.run(&Scenario::paper(PowercapPolicy::Dvfs, 0.4, duration));
    assert_eq!(count_off(&dvfs), 0);
    assert!(dvfs
        .log
        .job_starts()
        .any(|(_, _, _, f)| f < Frequency::from_ghz(2.7)));

    let mix = h.run(&Scenario::paper(PowercapPolicy::Mix, 0.4, duration));
    assert!(count_off(&mix) > 0);
    assert!(mix
        .log
        .job_starts()
        .all(|(_, _, _, f)| f >= Frequency::from_ghz(2.0)));
}

#[test]
fn utilization_recovers_after_the_cap_window() {
    // Paper (Fig. 6/7): "the system utilization in terms of cores increases
    // directly after the powercap interval".
    let h = harness(25, IntervalKind::MedianJob, 2);
    let duration = h.trace().duration;
    let scenario = Scenario::paper(PowercapPolicy::Shut, 0.4, duration);
    let outcome = h.run(&scenario);
    let window = scenario.window().unwrap();
    let during = outcome.utilization.at(window.start + window.duration() / 2);
    let after = outcome
        .utilization
        .at((window.end + 1800).min(duration - 1));
    assert!(
        after.busy_cores() as f64 >= during.busy_cores() as f64 * 0.8,
        "utilisation should recover after the cap is lifted (during {}, after {})",
        during.busy_cores(),
        after.busy_cores()
    );
    // During the window some nodes are dark under SHUT.
    assert!(during.off_cores > 0);
    // After the window every node is powered again.
    assert_eq!(outcome.utilization.at(duration - 1).off_cores, 0);
}

#[test]
fn grouped_selection_switches_off_no_more_nodes_than_scattered() {
    let h = harness(26, IntervalKind::MedianJob, 2);
    let duration = h.trace().duration;
    let nodes_off_at_window = |o: &ReplayOutcome, t: u64| o.utilization.at(t).off_cores;
    let scenario = Scenario::paper(PowercapPolicy::Shut, 0.4, duration);
    let grouped = h.run(&scenario);
    let scattered = h.run(
        &Scenario::paper(PowercapPolicy::Shut, 0.4, duration)
            .with_grouping(apc_power::bonus::GroupingStrategy::Scattered),
    );
    let mid = scenario.window().unwrap().start + 1800;
    assert!(
        nodes_off_at_window(&grouped, mid) <= nodes_off_at_window(&scattered, mid),
        "the power bonus lets the grouped plan keep more cores alive"
    );
}

#[test]
fn swf_round_trip_feeds_the_replay() {
    // A trace can leave through the SWF writer and come back unchanged in
    // the fields the replay uses.
    let platform = Platform::curie_scaled(1);
    let trace = CurieTraceGenerator::new(30)
        .load_factor(0.3)
        .backlog_factor(0.2)
        .generate_for(&platform);
    let swf = write_swf(&trace);
    let reparsed = parse_swf(&swf).expect("writer output parses");
    assert_eq!(reparsed.len(), trace.len());
    let h = ReplayHarness::new(platform, reparsed);
    let outcome = h.run(&Scenario::baseline());
    assert!(outcome.report.launched_jobs > 0);
}

#[test]
fn full_curie_platform_constructs_and_accounts_power() {
    // A cheap sanity check at the real 5 040-node scale (no replay).
    let platform = Platform::curie();
    let mut cluster = Cluster::new(platform.clone());
    assert_eq!(cluster.total_nodes(), 5040);
    let idle = cluster.current_power();
    // All-idle power: 5040 idle nodes plus chassis/rack equipment.
    let expected = Watts(5040.0 * 117.0) + platform.topology.total_overhead();
    assert!(idle.approx_eq(expected, 1e-3));
    // Powering a full rack off recovers the Fig. 2 accumulated saving
    // relative to idle (idle-vs-max difference accounted separately).
    let rack: Vec<usize> = (0..90).collect();
    cluster.power_off(&rack, 0);
    let drop = idle - cluster.current_power();
    assert!(drop.approx_eq(Watts(90.0 * 103.0 + 5.0 * 500.0 + 900.0), 1e-3));
}

/// DVFS cannot hold a cap below the idle floor. An idle Curie rack draws
/// 12 670 W of its 34 360 W maximum (36.87 %) at every scale, and DVFS only
/// slows busy nodes down, so under a 20 % cap its in-window peak is exactly
/// that idle draw. SHUT and MIX switch nodes off and hold the cap. These
/// rows look like any other row; whether the spec should refuse such cells
/// or the rows flag them is still open. Campaign defaults, bigjob, seed
/// 2012, peaks as `campaign --racks 1,2,6 --intervals bigjob --caps 20
/// --no-baseline --seeds 1` stores them.
#[test]
fn dvfs_stays_at_the_idle_floor_under_a_cap_below_it() {
    let spec = CampaignSpec {
        racks: vec![1, 2, 6],
        intervals: vec![IntervalKind::BigJob],
        cap_fractions: vec![0.2],
        include_baseline: false,
        ..CampaignSpec::paper(2012, 1)
    };
    let outcome = CampaignRunner::new(spec).run().expect("grid runs");
    let peaks: Vec<(usize, &str, f64)> = outcome
        .rows
        .iter()
        .map(|r| (r.racks, r.policy.as_str(), r.peak_power_watts))
        .collect();
    assert_eq!(
        peaks,
        [
            (1, "shut", 6_560.0),
            (1, "dvfs", 12_670.0),
            (1, "mix", 6_869.0),
            (2, "shut", 13_596.0),
            (2, "dvfs", 25_340.0),
            (2, "mix", 13_721.0),
            (6, "shut", 40_920.0),
            (6, "dvfs", 76_020.0),
            (6, "mix", 41_204.0),
        ]
    );
    for (racks, policy, peak) in peaks {
        let platform = Platform::curie_scaled(racks);
        let idle = Cluster::new(platform.clone()).current_power().as_watts();
        assert_eq!(idle, 12_670.0 * racks as f64);
        assert_eq!(platform.max_power().as_watts(), 34_360.0 * racks as f64);
        let cap = platform.power_fraction(0.2).as_watts();
        if policy == "dvfs" {
            assert_eq!(peak, idle, "{racks} rack(s): DVFS sits on the idle floor");
            assert!(peak > cap);
        } else {
            assert!(
                peak <= cap,
                "{racks} rack(s) {policy}: {peak} W over {cap} W"
            );
        }
    }
}
