//! The four-phase replay harness.
//!
//! The paper replays an interval in four phases (Section VII-B):
//!
//! 1. **environment setup** — SLURM configured as on Curie, with the node
//!    power values of Fig. 4;
//! 2. **interval initial state** — queued jobs and fair-share state put in
//!    place (the synthetic trace carries the queued backlog as jobs submitted
//!    at *t = 0*; historical fair-share usage is seeded per user);
//! 3. **workload replay** — jobs are submitted with their original
//!    characteristics (simple `sleep` payloads, i.e. only RJMS decisions are
//!    exercised), powercap reservations are made at the beginning of the
//!    replay;
//! 4. **data post-treatment** — job states, utilisation, power and energy are
//!    collected once the interval ends.
//!
//! [`ReplayHarness::run`] performs the four phases for one [`Scenario`] and
//! returns a [`ReplayOutcome`] bundling the report, the time series and the
//! normalised Fig. 8 metrics.

use apc_core::{PowercapConfig, PowercapHook};
use apc_rjms::cluster::Platform;
use apc_rjms::controller::{Controller, SimulationReport};
use apc_rjms::log::SimLog;
use apc_rjms::obs::ControllerObs;
use apc_workload::Trace;

use crate::metrics::{NormalizedOutcome, PowerSeries, UtilizationSeries};
use crate::scenario::Scenario;

/// Everything collected from one replay.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The scenario that was replayed.
    pub scenario: Scenario,
    /// The controller's aggregate report.
    pub report: SimulationReport,
    /// The normalised energy / launched-jobs / work triple (Fig. 8).
    pub normalized: NormalizedOutcome,
    /// Core-state time series (Figures 6 and 7, top).
    pub utilization: UtilizationSeries,
    /// Power time series (Figures 6 and 7, bottom).
    pub power: PowerSeries,
    /// The raw simulation log.
    pub log: SimLog,
}

/// The campaign-grade subset of a replay's results: the aggregate report,
/// the normalised Fig. 8 triple and the power series (for per-window peak
/// power) — everything a `CellRow` reads, and nothing else.
///
/// [`ReplayHarness::run_summary`] produces this without materialising the
/// utilisation series or cloning the event log, which a million-cell
/// campaign would otherwise pay for and immediately discard.
#[derive(Debug, Clone)]
pub struct ReplaySummary {
    /// The controller's aggregate report.
    pub report: SimulationReport,
    /// The normalised energy / launched-jobs / work triple (Fig. 8).
    pub normalized: NormalizedOutcome,
    /// Power time series (peak-power queries).
    pub power: PowerSeries,
}

impl ReplayOutcome {
    /// One-line summary used by the examples and the experiments binary.
    pub fn summary(&self) -> String {
        format!(
            "{:<10} launched {:>5} | completed {:>5} | work {:>6.1} core-h ({:>5.1}% of capacity) | energy {:>10} ({:>5.1}% of max) | mean wait {:>7.0} s",
            self.scenario.label(),
            self.report.launched_jobs,
            self.report.completed_jobs,
            self.report.work_core_hours(),
            self.normalized.work_normalized * 100.0,
            format!("{}", self.report.energy),
            self.normalized.energy_normalized * 100.0,
            self.report.mean_wait_seconds,
        )
    }
}

/// The platform for a rack scale: 56 racks or more is the full Curie
/// (5 040 nodes), fewer a Curie-like machine of that many 90-node racks.
pub fn platform_for(racks: usize) -> Platform {
    if racks >= 56 {
        Platform::curie()
    } else {
        Platform::curie_scaled(racks)
    }
}

/// The replay harness: a platform plus a workload trace.
///
/// The trace is held behind an [`Arc`](std::sync::Arc) so harnesses over the
/// same workload (e.g. the cells of one campaign group) share one copy
/// instead of deep-cloning thousands of jobs each.
#[derive(Debug, Clone)]
pub struct ReplayHarness {
    platform: Platform,
    trace: std::sync::Arc<Trace>,
    /// The distinct users appearing in the trace, sorted — computed once at
    /// construction so a harness replaying many scenarios (a campaign
    /// worker reusing it across pulled cells) does not re-scan and re-sort
    /// the whole trace per run.
    users: Vec<usize>,
    /// Seed historical fair-share usage for the users appearing in the trace
    /// (phase ii); expressed in core-hours per user.
    initial_fairshare_core_hours: f64,
}

impl ReplayHarness {
    /// Create a harness for a platform and a trace.
    pub fn new(platform: Platform, trace: Trace) -> Self {
        Self::from_shared(platform, std::sync::Arc::new(trace))
    }

    /// Create a harness sharing an already-`Arc`ed trace (no deep clone) —
    /// the form the campaign executor uses with its trace cache.
    pub fn from_shared(platform: Platform, trace: std::sync::Arc<Trace>) -> Self {
        let mut users: Vec<usize> = trace.jobs.iter().map(|j| j.user).collect();
        users.sort_unstable();
        users.dedup();
        ReplayHarness {
            platform,
            trace,
            users,
            initial_fairshare_core_hours: 1_000.0,
        }
    }

    /// Override the seeded per-user fair-share history (builder style).
    pub fn with_initial_fairshare(mut self, core_hours: f64) -> Self {
        self.initial_fairshare_core_hours = core_hours;
        self
    }

    /// The platform being replayed.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The trace being replayed.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The distinct users whose fair-share history this harness seeds.
    pub fn users(&self) -> &[usize] {
        &self.users
    }

    /// Phases 1–3 for one scenario: build the controller, seed the initial
    /// state, register the powercap reservations and run the replay.
    fn run_controller(
        &self,
        scenario: &Scenario,
        obs: ControllerObs,
    ) -> (Controller, SimulationReport) {
        // Phase 1 — environment setup.
        let powercap_config = PowercapConfig {
            policy: scenario.policy,
            grouping: scenario.grouping,
            decision_rule: scenario.decision_rule,
            kill_on_cap_violation: scenario.kill_on_violation,
            per_application_degradation: scenario.per_application_degradation,
        };
        let hook = PowercapHook::new(powercap_config, &self.platform);
        let mut controller = Controller::with_hook(self.platform.clone(), Box::new(hook));
        controller.set_obs(obs);

        // Phase 2 — interval initial state: fair-share history for every user
        // seen in the trace (precomputed at construction). The queued backlog
        // is part of the trace itself (jobs submitted at t = 0).
        for &user in &self.users {
            controller.seed_fairshare(user, self.initial_fairshare_core_hours * 3600.0);
        }

        // Phase 3 — workload replay: powercap reservations are made at the
        // beginning of the replay, one per cap segment at the segment's own
        // level and in segment order, then the trace is submitted and run.
        for (window, cap) in scenario.reservations(&self.platform) {
            controller.add_powercap_reservation(window, cap);
        }
        // Fault plan: seeded node outages become ordinary events in the
        // controller's queue, so the replay stays fully deterministic.
        if let Some(plan) = &scenario.faults {
            // Chassis-correlated plans need the platform's chassis width
            // (level 0 on Curie-like topologies; 1 on flat ones).
            let topology = &self.platform.topology;
            let per_chassis = if topology.depth() > 0 {
                topology.nodes_per_group(0)
            } else {
                1
            };
            for (node, down, up) in plan.events(
                self.platform.total_nodes(),
                per_chassis,
                self.trace.duration,
            ) {
                controller.inject_node_outage(node, down, up);
            }
        }
        controller.submit_all(self.trace.to_submissions());
        controller.set_horizon(self.trace.duration);
        let report = controller.run();
        (controller, report)
    }

    /// Run one scenario to completion and collect every metric.
    pub fn run(&self, scenario: &Scenario) -> ReplayOutcome {
        self.run_with_obs(scenario, ControllerObs::disabled())
    }

    /// [`run`](Self::run) with controller observability attached: schedule
    /// passes land on `obs`'s metrics registry and span recorder. The
    /// simulation result is identical to an uninstrumented run — the
    /// workspace's golden-fingerprint tests pin that.
    pub fn run_with_obs(&self, scenario: &Scenario, obs: ControllerObs) -> ReplayOutcome {
        let (mut controller, report) = self.run_controller(scenario, obs);

        // Phase 4 — post-treatment.
        let normalized = NormalizedOutcome::from_report(&report, &self.platform, &self.trace);
        let utilization = UtilizationSeries::from_log(controller.log(), &self.platform);
        let power = PowerSeries::from_samples(controller.cluster().accountant().samples());
        ReplayOutcome {
            scenario: scenario.clone(),
            report,
            normalized,
            utilization,
            power,
            // The controller is dropped right after: take the log instead
            // of cloning every event.
            log: controller.take_log(),
        }
    }

    /// Run one scenario and collect only the campaign-grade metrics (no
    /// utilisation series, no event-log clone) — the per-cell hot path of
    /// the campaign executor.
    pub fn run_summary(&self, scenario: &Scenario) -> ReplaySummary {
        let (controller, report) = self.run_controller(scenario, ControllerObs::disabled());
        let normalized = NormalizedOutcome::from_report(&report, &self.platform, &self.trace);
        let power = PowerSeries::from_samples(controller.cluster().accountant().samples());
        ReplaySummary {
            report,
            normalized,
            power,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_core::PowercapPolicy;
    use apc_workload::{CurieTraceGenerator, IntervalKind};

    /// A small platform and a light-but-overloaded trace so the whole test
    /// suite stays fast.
    fn harness() -> ReplayHarness {
        let platform = Platform::curie_scaled(2); // 180 nodes
        let trace = CurieTraceGenerator::new(17)
            .interval(IntervalKind::MedianJob)
            .load_factor(1.2)
            .backlog_factor(0.6)
            .generate_for(&platform);
        ReplayHarness::new(platform, trace)
    }

    #[test]
    fn baseline_replay_produces_activity() {
        let h = harness();
        let outcome = h.run(&Scenario::baseline());
        assert!(outcome.report.launched_jobs > 0);
        assert!(outcome.report.work_core_seconds > 0.0);
        assert!(outcome.normalized.work_normalized > 0.1);
        assert!(outcome.normalized.energy_normalized > 0.0);
        assert!(outcome.normalized.energy_normalized <= 1.0);
        assert!(!outcome.summary().is_empty());
        assert!(outcome.utilization.mean_utilization(h.trace().duration) > 0.1);
    }

    #[test]
    fn capped_replays_respect_the_budget() {
        let h = harness();
        for policy in [
            PowercapPolicy::Shut,
            PowercapPolicy::Dvfs,
            PowercapPolicy::Mix,
        ] {
            let scenario = Scenario::paper(policy, 0.6, h.trace().duration);
            let outcome = h.run(&scenario);
            let (window, cap) = scenario.reservations(h.platform()).next().unwrap();
            let peak = outcome.power.peak_within(window.start, window.end);
            assert!(
                peak.as_watts() <= cap.as_watts() + 1e-6,
                "{policy}: peak {peak} exceeds cap {cap}"
            );
        }
    }

    #[test]
    fn multi_window_replays_respect_the_cap_in_every_window() {
        use crate::scenario::CapSchedule;
        use apc_rjms::time::TimeWindow;
        let h = harness();
        let duration = h.trace().duration; // 5 h
        let early = TimeWindow::with_duration(1800, 3600);
        let late = TimeWindow::with_duration(duration - 5400, 3600);
        let scenario = Scenario::scheduled(
            PowercapPolicy::Mix,
            CapSchedule::uniform(&[early, late], 0.6),
        );
        let outcome = h.run(&scenario);
        let reservations: Vec<_> = scenario.reservations(h.platform()).collect();
        assert_eq!(reservations.len(), 2);
        for (w, cap) in reservations {
            let peak = outcome.power.peak_within(w.start, w.end);
            assert!(
                peak.as_watts() <= cap.as_watts() + 1e-6,
                "peak {peak} exceeds cap {cap} in window [{}, {})",
                w.start,
                w.end
            );
        }
        // Two disjoint windows constrain the replay at least as much as
        // either single window alone.
        let single = h.run(&Scenario::scheduled(
            PowercapPolicy::Mix,
            CapSchedule::uniform(&[early], 0.6),
        ));
        assert!(outcome.report.work_core_seconds <= single.report.work_core_seconds + 1e-6);
    }

    #[test]
    fn scheduled_replay_respects_each_segment_level() {
        use crate::scenario::{CapSchedule, CapSegment};
        let h = harness();
        let duration = h.trace().duration; // 5 h
        let schedule = CapSchedule::new(vec![
            CapSegment::new(1800, 3600, 0.8),
            CapSegment::new(duration - 5400, 3600, 0.5),
        ])
        .unwrap();
        let scenario = Scenario::scheduled(PowercapPolicy::Mix, schedule.clone());
        let outcome = h.run(&scenario);
        for segment in schedule.segments() {
            let cap = h.platform().power_fraction(segment.fraction);
            let w = segment.time_window();
            let peak = outcome.power.peak_within(w.start, w.end);
            assert!(
                peak.as_watts() <= cap.as_watts() + 1e-6,
                "peak {peak} exceeds cap {cap} in segment [{}, {})",
                w.start,
                w.end
            );
        }
    }

    #[test]
    fn fault_plan_kills_jobs_and_stays_deterministic() {
        use crate::scenario::FaultPlan;
        let h = harness();
        // The fault-free baseline differs (outages cost capacity) and never
        // kills anything.
        let clean = h.run(&Scenario::baseline());
        assert_eq!(clean.report.killed_jobs, 0);
        // The second plan's one outage outlasts `SimTime::MAX`: its node
        // stays down to the horizon.
        for plan in [
            FaultPlan::new(4, 1800, 5),
            FaultPlan::new(1, apc_rjms::time::SimTime::MAX, 7),
        ] {
            let scenario = Scenario::baseline().with_faults(plan);
            let a = h.run(&scenario);
            let b = h.run(&scenario);
            assert_eq!(a.report, b.report, "faulty replays are deterministic");
            assert_eq!(a.log.len(), b.log.len());
            assert!(
                a.report.killed_jobs > 0
                    || a.report.work_core_seconds < clean.report.work_core_seconds,
                "outages must leave a trace in the metrics"
            );
        }
    }

    #[test]
    fn capped_replays_deliver_less_work_than_baseline() {
        let h = harness();
        let baseline = h.run(&Scenario::baseline());
        let capped = h.run(&Scenario::paper(
            PowercapPolicy::Shut,
            0.4,
            h.trace().duration,
        ));
        assert!(capped.report.work_core_seconds <= baseline.report.work_core_seconds + 1e-6);
        assert!(capped.report.energy < baseline.report.energy);
    }

    #[test]
    fn run_summary_matches_the_full_run() {
        let h = harness();
        for scenario in [
            Scenario::baseline(),
            Scenario::paper(PowercapPolicy::Mix, 0.6, h.trace().duration),
        ] {
            let full = h.run(&scenario);
            let lean = h.run_summary(&scenario);
            assert_eq!(full.report, lean.report);
            assert_eq!(full.normalized, lean.normalized);
            assert_eq!(full.power, lean.power);
        }
    }

    #[test]
    fn run_with_obs_is_neutral_and_records() {
        use apc_obs::{Registry, SpanRecorder};
        let h = harness();
        let scenario = Scenario::paper(PowercapPolicy::Mix, 0.6, h.trace().duration);
        let plain = h.run(&scenario);
        let registry = Registry::new();
        let spans = SpanRecorder::new();
        let instrumented = h.run_with_obs(
            &scenario,
            ControllerObs::new(&registry, spans.clone()).with_lane(3),
        );
        assert_eq!(plain.report, instrumented.report, "instrumentation-neutral");
        assert_eq!(plain.log.len(), instrumented.log.len());
        let snap = registry.snapshot();
        let passes = snap.histogram("rjms.schedule_pass.duration_ns").unwrap();
        assert!(passes.count > 0);
        let events = spans.take_events();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.tid == 3), "spans on the given lane");
    }

    #[test]
    fn replay_is_deterministic() {
        let h = harness();
        let scenario = Scenario::paper(PowercapPolicy::Mix, 0.6, h.trace().duration);
        let a = h.run(&scenario);
        let b = h.run(&scenario);
        assert_eq!(a.report, b.report);
        assert_eq!(a.log.len(), b.log.len());
    }

    #[test]
    fn users_are_precomputed_for_harness_reuse() {
        let h = harness();
        // Users are precomputed: sorted, deduplicated, and exactly the set
        // appearing in the trace — a harness replaying many scenarios (a
        // campaign worker reusing it across pulled cells) never re-scans
        // the trace per run.
        let users = h.users();
        assert!(!users.is_empty());
        assert!(users.windows(2).all(|w| w[0] < w[1]));
        for j in &h.trace().jobs {
            assert!(users.binary_search(&j.user).is_ok());
        }
        // A clone shares the trace allocation, not a deep copy of the jobs.
        let c = h.clone();
        assert!(std::ptr::eq(h.trace(), c.trace()));
    }
}
