//! Per-figure experiment drivers.
//!
//! One function per table/figure of the paper. Each returns a plain-text
//! report (aligned columns) so the output can be compared side-by-side with
//! the published figure; the underlying data is also available through the
//! returned structures of the harness/metrics modules for programmatic use.
//!
//! Figures 2–5 are pure model evaluations and always use the full Curie
//! parameters. Figures 6–8 replay workloads; they take a `racks` parameter so
//! they can be run at reduced scale (tests, quick looks) or at the full
//! 56-rack Curie scale (`--full` in the experiments binary).

use apc_core::PowercapPolicy;
use apc_power::bonus::GroupingStrategy;
use apc_power::tradeoff::DecisionRule;
use apc_power::{
    benchprofiles, BenchmarkProfile, FrequencyLadder, NodePowerProfile, PowercapTradeoff, Topology,
    Watts,
};
use apc_rjms::cluster::Platform;
use apc_workload::{CurieTraceGenerator, IntervalKind, Trace, TraceStats};

use std::sync::Arc;

use crate::harness::{platform_for, ReplayHarness, ReplayOutcome};
use crate::scenario::Scenario;

/// Default number of racks used by the replay figures when not running at
/// full scale (6 racks = 540 nodes keeps every scenario under a few seconds).
pub const DEFAULT_RACKS: usize = 6;

/// Build the replay harness for a figure: the calibrated synthetic
/// generator by default, or a fixed trace (e.g. parsed from an SWF file via
/// `--swf` in the experiments binary) when one is supplied. The fixed trace
/// arrives as an `Arc` so `experiments all` shares one copy across all
/// eight replay figures instead of deep-cloning a potentially huge trace.
fn harness(
    racks: usize,
    seed: u64,
    interval: IntervalKind,
    swf: Option<&Arc<Trace>>,
) -> ReplayHarness {
    let platform = platform_for(racks);
    match swf {
        Some(trace) => ReplayHarness::from_shared(platform, Arc::clone(trace)),
        None => {
            let trace = CurieTraceGenerator::new(seed)
                .interval(interval)
                .generate_for(&platform);
            ReplayHarness::new(platform, trace)
        }
    }
}

/// Fig. 2 — power consumption and power bonus of each Curie aggregation
/// level.
pub fn fig2() -> String {
    let topo = Topology::curie();
    let profile = NodePowerProfile::curie();
    let mut out = String::from(
        "Fig. 2 — Curie power levels: consumption, bonus and accumulated savings\n\
         level              members        equipment W   bonus W   accumulated W\n",
    );
    out.push_str(&format!(
        "{:<18} {:<14} {:>12} {:>9} {:>15}\n",
        "node (down)",
        "-",
        format!("{:.0}", profile.off_watts().as_watts()),
        "-",
        "-"
    ));
    out.push_str(&format!(
        "{:<18} {:<14} {:>12} {:>9} {:>15.0}\n",
        "node (max)",
        "-",
        format!("{:.0}", profile.max_watts().as_watts()),
        "-",
        profile.shutdown_saving().as_watts()
    ));
    for (level, name, members) in [(0usize, "chassis", "18 nodes"), (1, "rack", "5 chassis")] {
        out.push_str(&format!(
            "{:<18} {:<14} {:>12.0} {:>9.0} {:>15.0}\n",
            name,
            members,
            topo.levels()[level].overhead.as_watts(),
            topo.group_bonus(level, &profile).as_watts(),
            topo.group_accumulated_saving(level, &profile).as_watts()
        ));
    }
    out.push_str(&format!(
        "{:<18} {:<14} {:>12} {:>9} {:>15}\n",
        "cluster", "56 racks", "-", "-", "-"
    ));
    out
}

/// Fig. 3 — maximum power vs normalised execution time for the four measured
/// applications at every DVFS step.
pub fn fig3() -> String {
    let mut out = String::from(
        "Fig. 3 — Maximum power / normalised execution-time trade-off per application\n\
         app        freq(GHz)   norm. time   max power (W)\n",
    );
    for profile in BenchmarkProfile::all_curie() {
        for point in &profile.points {
            out.push_str(&format!(
                "{:<10} {:>9.1} {:>12.3} {:>15.1}\n",
                profile.app.name(),
                point.frequency.as_ghz(),
                point.normalized_time,
                point.power.as_watts()
            ));
        }
    }
    out
}

/// Fig. 4 — maximum power consumption of a Curie node in each state.
pub fn fig4() -> String {
    let profile = NodePowerProfile::curie();
    let mut out = String::from(
        "Fig. 4 — Maximum power consumption of a Curie node per state\n\
         state            max power (W)\n",
    );
    out.push_str(&format!(
        "{:<16} {:>13.0}\n",
        "switch-off",
        profile.off_watts().as_watts()
    ));
    out.push_str(&format!(
        "{:<16} {:>13.0}\n",
        "idle",
        profile.idle_watts().as_watts()
    ));
    for f in FrequencyLadder::curie().steps() {
        out.push_str(&format!(
            "{:<16} {:>13.0}\n",
            format!("DVFS {:.1} GHz", f.as_ghz()),
            profile.busy_watts(*f).as_watts()
        ));
    }
    out
}

/// Fig. 5 — degradation, ρ and best mechanism per benchmark.
///
/// Two ρ columns are printed: one computed strictly from the Fig. 4 watt
/// values, and one using the effective off-power implied by the published
/// table (see EXPERIMENTS.md for the discussion).
pub fn fig5() -> String {
    let mut out = String::from(
        "Fig. 5 — DVFS vs switch-off comparison per benchmark\n\
         benchmark                degmin   rho(Fig.4 W)   rho(paper)   best mechanism\n",
    );
    for row in benchprofiles::fig5_table() {
        out.push_str(&format!(
            "{:<24} {:>6.2} {:>14.3} {:>12.3}   {}\n",
            row.name, row.degmin, row.rho, row.rho_paper_effective, row.best_mechanism
        ));
    }
    out
}

/// Render a replay outcome as the paper's Figure 6/7 style time series:
/// cores per frequency (top) and power (bottom), sampled every `step`
/// seconds.
pub fn render_timeseries(outcome: &ReplayOutcome, horizon: u64, step: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "scenario {}  (window {:?})\n",
        outcome.scenario.label(),
        outcome.scenario.window()
    ));
    out.push_str(
        "time(h)   cores@2.7   cores@2.4-2.2   cores@2.0   cores@<2.0   cores off   power(kW)\n",
    );
    for sample in outcome.utilization.resample(horizon, step) {
        let t = sample.time;
        let at = |lo: u32, hi: u32| -> u64 {
            sample
                .busy_cores_by_freq
                .iter()
                .filter(|(&mhz, _)| mhz >= lo && mhz <= hi)
                .map(|(_, &c)| c)
                .sum()
        };
        out.push_str(&format!(
            "{:>7.2} {:>11} {:>15} {:>11} {:>12} {:>11} {:>11.1}\n",
            t as f64 / 3600.0,
            at(2700, u32::MAX),
            at(2200, 2699),
            at(2000, 2199),
            at(0, 1999),
            sample.off_cores,
            outcome.power.at(t).as_kilowatts()
        ));
    }
    out
}

/// Fig. 6 — 24-hour workload, MIX policy, 1-hour reservation of 40 % of the
/// total power: core-state and power time series.
pub fn fig6(racks: usize, seed: u64, swf: Option<&Arc<Trace>>) -> String {
    let h = harness(racks, seed, IntervalKind::Day24h, swf);
    let duration = h.trace().duration;
    let scenario = Scenario::paper(PowercapPolicy::Mix, 0.40, duration);
    let outcome = h.run(&scenario);
    let mut out = String::from("Fig. 6 — 24 h workload, MIX policy, 40 % powercap for 1 hour\n");
    out.push_str(&describe_trace(&h));
    out.push_str(&render_timeseries(&outcome, duration, 1800));
    out.push_str(&outcome.summary());
    out.push('\n');
    out
}

/// Fig. 7a — 5-hour *bigjob* workload, SHUT policy, 60 % powercap.
pub fn fig7a(racks: usize, seed: u64, swf: Option<&Arc<Trace>>) -> String {
    let h = harness(racks, seed, IntervalKind::BigJob, swf);
    let duration = h.trace().duration;
    let scenario = Scenario::paper(PowercapPolicy::Shut, 0.60, duration);
    let outcome = h.run(&scenario);
    let mut out =
        String::from("Fig. 7a — bigjob workload, SHUT policy, 60 % powercap for 1 hour\n");
    out.push_str(&describe_trace(&h));
    out.push_str(&render_timeseries(&outcome, duration, 900));
    out.push_str(&outcome.summary());
    out.push('\n');
    out
}

/// Fig. 7b — 5-hour *smalljob* workload, DVFS policy, 40 % powercap.
pub fn fig7b(racks: usize, seed: u64, swf: Option<&Arc<Trace>>) -> String {
    let h = harness(racks, seed, IntervalKind::SmallJob, swf);
    let duration = h.trace().duration;
    let scenario = Scenario::paper(PowercapPolicy::Dvfs, 0.40, duration);
    let outcome = h.run(&scenario);
    let mut out =
        String::from("Fig. 7b — smalljob workload, DVFS policy, 40 % powercap for 1 hour\n");
    out.push_str(&describe_trace(&h));
    out.push_str(&render_timeseries(&outcome, duration, 900));
    out.push_str(&outcome.summary());
    out.push('\n');
    out
}

/// Fig. 8 — normalised energy, launched jobs and work for every
/// workload × cap × policy combination.
pub fn fig8(racks: usize, seed: u64, swf: Option<&Arc<Trace>>) -> String {
    let mut out = String::from(
        "Fig. 8 — normalised energy / launched jobs / work per workload, cap and policy\n\
         workload    scenario     energy   launched   work\n",
    );
    // With a fixed trace every interval flavour would replay the same jobs,
    // so the workload axis collapses to a single "swf" row group.
    let intervals: &[IntervalKind] = if swf.is_some() {
        &[IntervalKind::MedianJob]
    } else {
        &[
            IntervalKind::BigJob,
            IntervalKind::MedianJob,
            IntervalKind::SmallJob,
        ]
    };
    for &interval in intervals {
        let h = harness(racks, seed, interval, swf);
        let duration = h.trace().duration;
        for scenario in Scenario::paper_grid(duration) {
            let outcome = h.run(&scenario);
            out.push_str(&format!(
                "{:<11} {:<12} {:>7.3} {:>10.3} {:>7.3}\n",
                if swf.is_some() {
                    "swf"
                } else {
                    interval.name()
                },
                scenario.label(),
                outcome.normalized.energy_normalized,
                outcome.normalized.launched_jobs_normalized,
                outcome.normalized.work_normalized
            ));
        }
    }
    out
}

/// §VII-C headline claims on the replayed data, at a 40 % cap: the three
/// policies' summaries, then the ratio behind each claim — SHUT work over
/// DVFS work (the paper has SHUT deliver more), and MIX energy over the
/// smaller of SHUT's and DVFS's (the paper has MIX consume the least).
pub fn claims(racks: usize, seed: u64, swf: Option<&Arc<Trace>>) -> String {
    let h = harness(racks, seed, IntervalKind::MedianJob, swf);
    let duration = h.trace().duration;
    let shut = h.run(&Scenario::paper(PowercapPolicy::Shut, 0.40, duration));
    let dvfs = h.run(&Scenario::paper(PowercapPolicy::Dvfs, 0.40, duration));
    let mix = h.run(&Scenario::paper(PowercapPolicy::Mix, 0.40, duration));
    let mut out = String::from("Claims of Section VII-C (40 % cap, medianjob interval)\n");
    for o in [&shut, &dvfs, &mix] {
        out.push_str(&o.summary());
        out.push('\n');
    }
    out.push_str(&format!(
        "SHUT work / DVFS work = {:.2}   (paper: SHUT >= DVFS at caps <= 60 %)\n",
        shut.report.work_core_seconds / dvfs.report.work_core_seconds.max(1.0)
    ));
    let least = shut
        .report
        .energy
        .as_joules()
        .min(dvfs.report.energy.as_joules());
    out.push_str(&format!(
        "MIX energy / min(SHUT, DVFS) energy = {:.2}   (paper: MIX uses the least energy)\n",
        mix.report.energy.as_joules() / least.max(1.0)
    ));
    out
}

/// Ablation — grouped vs scattered switch-off selection (the value of the
/// power bonus preparation done by the offline phase).
pub fn ablation_grouping(racks: usize, seed: u64, swf: Option<&Arc<Trace>>) -> String {
    let h = harness(racks, seed, IntervalKind::MedianJob, swf);
    let duration = h.trace().duration;
    let grouped = h.run(&Scenario::paper(PowercapPolicy::Shut, 0.40, duration));
    let scattered = h.run(
        &Scenario::paper(PowercapPolicy::Shut, 0.40, duration)
            .with_grouping(GroupingStrategy::Scattered),
    );
    let off_nodes = |o: &ReplayOutcome| {
        o.log
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                apc_rjms::log::SimEventKind::NodesPoweredOff { nodes } => Some(nodes.len()),
                _ => None,
            })
            .sum::<usize>()
    };
    let mut out =
        String::from("Ablation — grouped vs scattered switch-off node selection (SHUT, 40 %)\n");
    out.push_str(&format!(
        "grouped  : {}  nodes powered off: {}\n",
        grouped.summary(),
        off_nodes(&grouped)
    ));
    out.push_str(&format!(
        "scattered: {}  nodes powered off: {}\n",
        scattered.summary(),
        off_nodes(&scattered)
    ));
    out
}

/// Ablation — published ρ rule vs direct work-maximising rule in the offline
/// planner (MIX policy).
pub fn ablation_decision_rule(racks: usize, seed: u64, swf: Option<&Arc<Trace>>) -> String {
    let h = harness(racks, seed, IntervalKind::MedianJob, swf);
    let duration = h.trace().duration;
    let paper = h.run(&Scenario::paper(PowercapPolicy::Mix, 0.60, duration));
    let direct = h.run(
        &Scenario::paper(PowercapPolicy::Mix, 0.60, duration)
            .with_decision_rule(DecisionRule::WorkMaximizing),
    );
    let mut out = String::from("Ablation — offline decision rule (MIX, 60 %)\n");
    out.push_str(&format!("paper rho rule   : {}\n", paper.summary()));
    out.push_str(&format!("work-maximising  : {}\n", direct.summary()));
    out
}

/// Ablation — policy-wide "common value" degradation vs per-application
/// degradation (the paper's future-work extension where applications provide
/// their own DVFS sensitivity).
pub fn ablation_app_aware(racks: usize, seed: u64, swf: Option<&Arc<Trace>>) -> String {
    let h = harness(racks, seed, IntervalKind::MedianJob, swf);
    let duration = h.trace().duration;
    let common = h.run(&Scenario::paper(PowercapPolicy::Dvfs, 0.40, duration));
    let aware = h.run(
        &Scenario::paper(PowercapPolicy::Dvfs, 0.40, duration).with_per_application_degradation(),
    );
    let mut out =
        String::from("Ablation — common-value vs per-application DVFS degradation (DVFS, 40 %)\n");
    out.push_str(&format!("common value 1.63 : {}\n", common.summary()));
    out.push_str(&format!("per-application   : {}\n", aware.summary()));
    out
}

/// The analytic Section III model evaluated over a sweep of cap fractions
/// (supporting table for the model discussion; no counterpart figure).
pub fn model_sweep() -> String {
    let model = PowercapTradeoff::curie_default();
    let mut out = String::from(
        "Section III model — mechanism selection vs powercap fraction (Curie, degmin 1.63)\n\
         lambda   mechanism      n_off   n_dvfs   work(nodes)\n",
    );
    for i in 1..=19 {
        let lambda = 0.05 * i as f64;
        let d = model.decide_fraction(lambda);
        out.push_str(&format!(
            "{:>6.2}   {:<12} {:>7} {:>8} {:>12.0}\n",
            lambda,
            format!("{:?}", d.mechanism),
            d.n_off_nodes(),
            d.n_dvfs_nodes(),
            d.work
        ));
    }
    out
}

/// Profile one replay of each paper scenario (100%/None, 60%/SHUT,
/// 60%/DVFS, 60%/MIX) with schedule-pass span recording attached, and
/// return the Chrome Trace Event JSON plus the number of spans captured.
/// Each scenario gets its own named lane (`tid`), so loading the file at
/// chrome://tracing or ui.perfetto.dev shows the four replays side by side.
pub fn profile_trace(racks: usize, seed: u64, swf: Option<&Arc<Trace>>) -> (String, usize) {
    use apc_obs::{ArgValue, Registry, SpanRecorder, TraceEvent};
    use apc_rjms::obs::ControllerObs;
    let h = harness(racks, seed, IntervalKind::MedianJob, swf);
    let duration = h.trace().duration;
    let scenarios = [
        Scenario::baseline(),
        Scenario::paper(PowercapPolicy::Shut, 0.60, duration),
        Scenario::paper(PowercapPolicy::Dvfs, 0.60, duration),
        Scenario::paper(PowercapPolicy::Mix, 0.60, duration),
    ];
    let registry = Registry::new();
    let spans = SpanRecorder::new();
    let mut events: Vec<TraceEvent> = Vec::new();
    for (lane, scenario) in scenarios.iter().enumerate() {
        // Label the lane with the scenario it replays.
        events.push(TraceEvent {
            name: "thread_name",
            category: "__metadata",
            phase: 'M',
            ts_us: 0,
            dur_us: 0,
            tid: lane as u64,
            args: vec![("name", ArgValue::Str(scenario.label()))],
        });
        let obs = ControllerObs::new(&registry, spans.clone()).with_lane(lane as u64);
        let _ = h.run_with_obs(scenario, obs);
    }
    events.extend(spans.take_events());
    let span_count = events.iter().filter(|e| e.phase == 'X').count();
    (
        apc_obs::write_chrome_trace(&events, "experiments"),
        span_count,
    )
}

fn describe_trace(h: &ReplayHarness) -> String {
    let stats = TraceStats::compute(h.trace(), h.platform().total_cores());
    format!(
        "platform: {} nodes / {} cores, max power {}\ntrace: {}\n",
        h.platform().total_nodes(),
        h.platform().total_cores(),
        h.platform().max_power(),
        stats.summary()
    )
}

/// Watts of one full Curie at the given cap fraction — convenience for
/// callers printing scenario headers.
pub fn curie_cap(fraction: f64) -> Watts {
    Platform::curie().power_fraction(fraction)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_contain_reference_values() {
        let f2 = fig2();
        assert!(f2.contains("6692"));
        assert!(f2.contains("34360"));
        assert!(f2.contains("500"));
        let f3 = fig3();
        assert!(f3.contains("Linpack"));
        assert!(f3.contains("GROMACS"));
        assert!(f3.lines().count() > 30, "8 points x 4 apps + header");
        let f4 = fig4();
        assert!(f4.contains("358"));
        assert!(f4.contains("117"));
        assert!(f4.contains("DVFS 1.2 GHz"));
        let f5 = fig5();
        assert!(f5.contains("Linpack"));
        assert!(f5.contains("Switch-off"));
        let sweep = model_sweep();
        assert!(sweep.contains("Both"));
        assert!(sweep.contains("ShutdownOnly"));
    }

    #[test]
    fn replay_figures_run_at_tiny_scale() {
        // 1 rack keeps this test fast while covering the whole pipeline.
        let out = fig7b(1, 5, None);
        assert!(out.contains("smalljob"));
        assert!(out.contains("power(kW)"));
        let claims_out = claims(1, 5, None);
        assert!(claims_out.contains("SHUT work / DVFS work"));
        assert!(claims_out.contains("MIX energy / min(SHUT, DVFS) energy = "));
    }

    #[test]
    fn curie_cap_scales_with_fraction() {
        assert!(curie_cap(0.4).as_watts() < curie_cap(0.8).as_watts());
    }

    #[test]
    fn replay_figures_accept_a_fixed_swf_trace() {
        let platform = Platform::curie_scaled(1);
        let synthetic = CurieTraceGenerator::new(5)
            .load_factor(0.5)
            .backlog_factor(0.2)
            .generate_for(&platform);
        let trace =
            Arc::new(apc_workload::parse_swf(&apc_workload::write_swf(&synthetic)).unwrap());
        let out = fig8(1, 5, Some(&trace));
        // The workload axis collapses to one "swf" group of 10 scenarios.
        assert!(out.contains("swf"));
        assert!(!out.contains("bigjob"));
        assert_eq!(out.lines().filter(|l| l.starts_with("swf")).count(), 10);
        let ablation = ablation_grouping(1, 5, Some(&trace));
        assert!(ablation.contains("grouped"));
    }
}
