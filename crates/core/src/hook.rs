//! The powercap scheduling hook: gluing Algorithm 1 and Algorithm 2 into the
//! RJMS controller.
//!
//! [`PowercapHook`] implements [`SchedulingHook`]:
//!
//! * `plan_powercap` runs the offline planner when a powercap reservation is
//!   submitted and returns the grouped switch-off node selection;
//! * `authorize_start` runs the online frequency selection
//!   ([`OnlineScheduler::choose`]) for every job the controller is about to
//!   dispatch, before its nodes are picked, and for the narrowest and
//!   shortest fitting job, so the controller can end a pass that would
//!   postpone every job;
//! * `runtime_factor` applies the policy's DVFS degradation (or, optionally,
//!   the job's application class) so the controller stretches runtimes and
//!   walltimes consistently;
//! * `on_cap_start` optionally implements the paper's "extreme actions":
//!   killing just enough running jobs to bring the cluster under a cap that
//!   is already violated when its window opens.

use apc_power::{DegradationModel, Frequency, FrequencyLadder, Watts};
use apc_rjms::cluster::{Cluster, Platform};
use apc_rjms::hook::{OfflinePlan, SchedulingHook, StartDecision};
use apc_rjms::job::{Job, JobId};
use apc_rjms::reservation::ReservationBook;
use apc_rjms::time::{SimTime, TimeWindow};

use crate::config::PowercapConfig;
use crate::offline::{OfflineDecision, OfflinePlanner};
use crate::online::OnlineScheduler;
use crate::policy::PowercapPolicy;

/// The powercap scheduling hook.
#[derive(Debug, Clone)]
pub struct PowercapHook {
    config: PowercapConfig,
    offline: OfflinePlanner,
    online: OnlineScheduler,
    degradation: DegradationModel,
    /// Offline decisions taken so far (for inspection by experiments/tests).
    decisions: Vec<OfflineDecision>,
}

impl PowercapHook {
    /// Create a hook for `config` on the given platform (the platform's
    /// frequency ladder fixes the degradation model).
    pub fn new(config: PowercapConfig, platform: &Platform) -> Self {
        PowercapHook {
            config,
            offline: OfflinePlanner::new(config),
            online: OnlineScheduler::new(config.policy, platform),
            degradation: config.policy.degradation(&platform.ladder),
            decisions: Vec::new(),
        }
    }

    /// Convenience constructor for a policy with default options.
    pub fn for_policy(policy: PowercapPolicy, platform: &Platform) -> Self {
        PowercapHook::new(PowercapConfig::for_policy(policy), platform)
    }

    /// The configuration in use.
    pub fn config(&self) -> &PowercapConfig {
        &self.config
    }

    /// The policy in use.
    pub fn policy(&self) -> PowercapPolicy {
        self.config.policy
    }

    /// The offline decisions taken so far.
    pub fn decisions(&self) -> &[OfflineDecision] {
        &self.decisions
    }

    /// The degradation model applied to down-clocked jobs.
    pub fn degradation(&self) -> &DegradationModel {
        &self.degradation
    }

    fn ladder_of(cluster: &Cluster) -> &FrequencyLadder {
        &cluster.platform().ladder
    }
}

impl SchedulingHook for PowercapHook {
    /// Exact for the skip rule, because postponing is monotone in the node
    /// count and the walltime (see [`OnlineScheduler::choose`]).
    fn authorize_start(
        &self,
        cluster: &Cluster,
        reservations: &ReservationBook,
        node_count: usize,
        walltime: SimTime,
        now: SimTime,
    ) -> StartDecision {
        self.online
            .choose(cluster, reservations, node_count, walltime, now)
    }

    fn plan_powercap(
        &mut self,
        cluster: &Cluster,
        _reservations: &ReservationBook,
        window: TimeWindow,
        cap: Watts,
        _now: SimTime,
    ) -> OfflinePlan {
        let decision = self.offline.plan(cluster, window, cap);
        let nodes = decision.switch_off_nodes();
        self.decisions.push(decision);
        OfflinePlan {
            switch_off_nodes: nodes,
        }
    }

    fn runtime_factor(&self, job: &Job, frequency: Frequency) -> f64 {
        let app_aware = self.config.per_application_degradation && self.config.policy.allows_dvfs();
        match job.submission.app_class {
            Some(class) if app_aware => {
                // The application's own measured sensitivity (Linpack 2.14 …
                // Gromacs 1.16), evaluated over the policy's permitted
                // frequency range so MIX keeps its 2.0 GHz floor semantics.
                let app = apc_power::BenchmarkApp::ALL[class as usize % 4];
                let model = apc_power::DegradationModel::new(
                    app.degmin(),
                    self.degradation
                        .fmin()
                        .max(apc_power::Frequency::from_ghz(1.2)),
                    self.degradation.fmax(),
                );
                model.factor(frequency)
            }
            _ => self.degradation.factor(frequency),
        }
    }

    fn on_cap_start(
        &mut self,
        cluster: &Cluster,
        running_jobs: &[&Job],
        cap: Watts,
        _now: SimTime,
    ) -> Vec<JobId> {
        if !self.config.kill_on_cap_violation || !self.config.policy.enforces_cap() {
            return Vec::new();
        }
        let profile = &cluster.platform().profile;
        let mut excess = (cluster.current_power() - cap).max_zero();
        if excess == Watts::ZERO {
            return Vec::new();
        }
        // Kill the widest jobs first: each killed job releases
        // nodes × (busy − idle) watts immediately.
        let mut candidates: Vec<&&Job> = running_jobs.iter().collect();
        candidates.sort_by_key(|j| std::cmp::Reverse(j.nodes.len()));
        let mut kills = Vec::new();
        for job in candidates {
            if excess == Watts::ZERO {
                break;
            }
            let freq = job
                .frequency
                .unwrap_or_else(|| Self::ladder_of(cluster).max());
            let released =
                (profile.busy_watts(freq) - profile.idle_watts()) * job.nodes.len() as f64;
            kills.push(job.id);
            excess = (excess - released).max_zero();
        }
        kills
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_rjms::controller::Controller;
    use apc_rjms::job::JobSubmission;
    use apc_rjms::log::SimEventKind;
    use apc_rjms::time::HOUR;

    /// 180-node Curie-like platform used by the end-to-end tests.
    fn platform() -> Platform {
        Platform::curie_scaled(2)
    }

    fn controller_with(policy: PowercapPolicy) -> Controller {
        let p = platform();
        let hook = PowercapHook::for_policy(policy, &p);
        Controller::with_hook(p, Box::new(hook))
    }

    /// Submit a saturating stream of jobs: `count` jobs of `cores` cores each,
    /// all at t=0, 30-minute walltimes, 20-minute actual runtimes.
    fn saturate(c: &mut Controller, count: usize, cores: u32) {
        for i in 0..count {
            c.submit(JobSubmission::new(i % 5, 0, cores, 1800, 1200));
        }
    }

    fn max_power_within(c: &Controller, window: (SimTime, SimTime)) -> Watts {
        c.cluster()
            .accountant()
            .samples()
            .iter()
            .filter(|s| s.time >= window.0 && s.time < window.1)
            .map(|s| s.power)
            .fold(Watts::ZERO, Watts::max)
    }

    /// `rjms.probe.fast` counts decisions: every capped `authorize_start`
    /// builds exactly one `idle_busy_probe`, the accountant's only counted
    /// probe, whether it finds no cap, walks the ladder or postpones the
    /// job at the power floor.
    #[test]
    fn every_capped_decision_takes_exactly_one_probe() {
        let p = platform();
        let cluster = Cluster::new(p.clone());
        let idle = cluster.current_power();
        let mut book = ReservationBook::new();
        // A cap in [1000, 5000) that fits 10 nodes at 1.2 GHz only.
        book.add(
            TimeWindow::new(1000, 5000),
            apc_rjms::reservation::ReservationKind::PowerCap {
                cap: idle + Watts(10.0 * (193.0 - 117.0) + 1.0),
            },
        );
        let cases = [
            (10, 500, 0),    // ends before the cap at any step
            (10, 3600, 0),   // inside the cap: ladder walk
            (180, 3600, 0),  // far above the cap: power floor
            (1, 60, 10_000), // after the cap
        ];
        for policy in [
            PowercapPolicy::Shut,
            PowercapPolicy::Dvfs,
            PowercapPolicy::Mix,
        ] {
            let hook = PowercapHook::for_policy(policy, &p);
            for &(count, walltime, now) in &cases {
                let before = cluster.accountant().probe_counts();
                hook.authorize_start(&cluster, &book, count, walltime, now);
                assert_eq!(
                    cluster.accountant().probe_counts(),
                    before + 1,
                    "{policy}: {count} nodes at t={now}"
                );
            }
        }
        // The uncapped policy decides without probing.
        let hook = PowercapHook::for_policy(PowercapPolicy::None, &p);
        let before = cluster.accountant().probe_counts();
        hook.authorize_start(&cluster, &book, 180, 3600, 0);
        assert_eq!(cluster.accountant().probe_counts(), before);
    }

    #[test]
    fn runtime_factor_follows_policy() {
        let p = platform();
        let job = Job::new(0, JobSubmission::new(0, 0, 64, 3600, 600));
        let dvfs = PowercapHook::for_policy(PowercapPolicy::Dvfs, &p);
        assert!((dvfs.runtime_factor(&job, Frequency::from_ghz(1.2)) - 1.63).abs() < 1e-9);
        assert_eq!(dvfs.runtime_factor(&job, Frequency::from_ghz(2.7)), 1.0);
        let mix = PowercapHook::for_policy(PowercapPolicy::Mix, &p);
        assert!((mix.runtime_factor(&job, Frequency::from_ghz(2.0)) - 1.29).abs() < 1e-9);
        let shut = PowercapHook::for_policy(PowercapPolicy::Shut, &p);
        assert_eq!(shut.runtime_factor(&job, Frequency::from_ghz(2.7)), 1.0);
        assert_eq!(shut.policy(), PowercapPolicy::Shut);
        assert!(shut.config().grouping == apc_power::bonus::GroupingStrategy::Grouped);
    }

    #[test]
    fn shut_policy_enforces_cap_and_powers_nodes_off() {
        let mut c = controller_with(PowercapPolicy::Shut);
        let cap = c.cluster().platform().power_fraction(0.6);
        let window = apc_rjms::time::TimeWindow::new(HOUR, 2 * HOUR);
        let (_, off_id) = c.add_powercap_reservation(window, cap);
        assert!(off_id.is_some(), "SHUT plans a switch-off reservation");
        saturate(&mut c, 120, 160); // 120 jobs × 10 nodes ≫ 180 nodes
        c.set_horizon(4 * HOUR);
        let report = c.run();
        assert!(report.launched_jobs > 0);
        // Power stays within the cap during the window.
        let peak = max_power_within(&c, (window.start, window.end));
        assert!(
            peak.as_watts() <= cap.as_watts() + 1e-6,
            "peak {peak} exceeds cap {cap}"
        );
        // Nodes were powered off and back on.
        assert!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::NodesPoweredOff { .. }))
                > 0
        );
        assert!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::NodesPoweredOn { .. }))
                > 0
        );
        // SHUT never lowers frequencies.
        assert!(c
            .log()
            .job_starts()
            .all(|(_, _, _, f)| f == Frequency::from_ghz(2.7)));
    }

    #[test]
    fn dvfs_policy_lowers_frequencies_instead_of_switching_off() {
        let mut c = controller_with(PowercapPolicy::Dvfs);
        let cap = c.cluster().platform().power_fraction(0.4);
        let window = apc_rjms::time::TimeWindow::new(HOUR, 2 * HOUR);
        let (_, off_id) = c.add_powercap_reservation(window, cap);
        assert!(off_id.is_none(), "DVFS never reserves switch-offs");
        saturate(&mut c, 120, 160);
        c.set_horizon(4 * HOUR);
        c.run();
        let peak = max_power_within(&c, (window.start, window.end));
        assert!(peak.as_watts() <= cap.as_watts() + 1e-6);
        // Some jobs ran below the maximum frequency.
        let slowed = c
            .log()
            .job_starts()
            .filter(|(_, _, _, f)| *f < Frequency::from_ghz(2.7))
            .count();
        assert!(slowed > 0, "DVFS must down-clock at least some jobs");
        // No node was ever powered off.
        assert_eq!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::NodesPoweredOff { .. })),
            0
        );
    }

    #[test]
    fn mix_policy_uses_both_mechanisms_and_respects_floor() {
        let mut c = controller_with(PowercapPolicy::Mix);
        let cap = c.cluster().platform().power_fraction(0.4);
        let window = apc_rjms::time::TimeWindow::new(HOUR, 2 * HOUR);
        let (_, off_id) = c.add_powercap_reservation(window, cap);
        assert!(off_id.is_some(), "MIX below 75 % also reserves switch-offs");
        saturate(&mut c, 120, 160);
        c.set_horizon(4 * HOUR);
        c.run();
        let peak = max_power_within(&c, (window.start, window.end));
        assert!(peak.as_watts() <= cap.as_watts() + 1e-6);
        // All frequencies stay within the MIX band.
        for (_, _, _, f) in c.log().job_starts() {
            assert!(f >= Frequency::from_ghz(2.0));
        }
        assert!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::NodesPoweredOff { .. }))
                > 0
        );
    }

    /// The allocation-free claim must hold for the *capped DVFS* hot path
    /// too, where every scheduling pass probes the whole frequency ladder
    /// per pending job (the rjms-side twin of this test runs with a null
    /// hook and never exercises the power probe).
    #[test]
    fn capped_dvfs_steady_state_scheduling_stops_allocating() {
        let mut c = controller_with(PowercapPolicy::Dvfs);
        let cap = c.cluster().platform().power_fraction(0.5);
        c.add_powercap_reservation(apc_rjms::time::TimeWindow::new(0, 6 * HOUR), cap);
        // A saturating stream: the queue stays deep, so every pass walks the
        // backfill depth and probes the ladder against the cap.
        for i in 0..300 {
            c.submit(JobSubmission::new(
                i % 5,
                (i as apc_rjms::time::SimTime * 17) % (2 * HOUR),
                32 + (i as u32 % 7) * 80,
                3600,
                300 + (i as apc_rjms::time::SimTime % 11) * 120,
            ));
        }
        c.set_horizon(6 * HOUR);
        c.run();
        let passes = c.schedule_passes();
        let grew = c.scratch_growth_passes();
        assert!(passes > 100, "expected a long run, got {passes} passes");
        assert!(
            grew * 10 <= passes,
            "scratch buffers grew in {grew} of {passes} capped-DVFS passes — \
             the frequency probe is supposed to be allocation-free"
        );
    }

    #[test]
    fn none_policy_ignores_the_cap() {
        let mut c = controller_with(PowercapPolicy::None);
        let cap = c.cluster().platform().power_fraction(0.4);
        let window = apc_rjms::time::TimeWindow::new(HOUR, 2 * HOUR);
        c.add_powercap_reservation(window, cap);
        saturate(&mut c, 120, 160);
        c.set_horizon(4 * HOUR);
        c.run();
        let peak = max_power_within(&c, (window.start, window.end));
        assert!(
            peak.as_watts() > cap.as_watts(),
            "the None baseline does not enforce the cap"
        );
    }

    #[test]
    fn policies_trade_work_for_power() {
        // Same workload, same 40 % cap: every enforcing policy delivers less
        // work than the uncapped baseline, and the baseline consumes more
        // energy.
        let window = apc_rjms::time::TimeWindow::new(HOUR, 2 * HOUR);
        let run = |policy: PowercapPolicy| {
            let mut c = controller_with(policy);
            let cap = c.cluster().platform().power_fraction(0.4);
            c.add_powercap_reservation(window, cap);
            saturate(&mut c, 150, 320);
            c.set_horizon(3 * HOUR);
            c.run()
        };
        let none = run(PowercapPolicy::None);
        let shut = run(PowercapPolicy::Shut);
        let dvfs = run(PowercapPolicy::Dvfs);
        let mix = run(PowercapPolicy::Mix);
        for (name, r) in [("SHUT", &shut), ("DVFS", &dvfs), ("MIX", &mix)] {
            assert!(
                r.work_core_seconds <= none.work_core_seconds + 1e-6,
                "{name} cannot deliver more work than the uncapped run"
            );
            assert!(
                r.energy < none.energy,
                "{name} must consume less energy than the uncapped run"
            );
        }
    }

    #[test]
    fn extreme_actions_kill_jobs_when_cap_already_violated() {
        // The "powercap set for now while the cluster is above it" situation:
        // the online algorithm cannot prevent it (the jobs were started before
        // the cap existed), so the hook's cap-activation callback decides.
        let p = platform();
        let mut cluster = Cluster::new(platform());
        // Two running jobs: a wide one (60 nodes) and a narrow one (10 nodes).
        let mut wide = Job::new(0, JobSubmission::new(0, 0, 960, 6 * HOUR, 5 * HOUR));
        wide.state = apc_rjms::job::JobState::Running;
        wide.nodes = (0..60).collect();
        wide.frequency = Some(Frequency::from_ghz(2.7));
        let mut narrow = Job::new(1, JobSubmission::new(1, 0, 160, 6 * HOUR, 5 * HOUR));
        narrow.state = apc_rjms::job::JobState::Running;
        narrow.nodes = (60..70).collect();
        narrow.frequency = Some(Frequency::from_ghz(2.7));
        for job in [&wide, &narrow] {
            let nodes: Vec<usize> = job.nodes.iter().collect();
            cluster.allocate(job.id, &nodes, Frequency::from_ghz(2.7), 0);
        }

        // A cap just below the current consumption: killing the wide job is
        // enough, the narrow one survives.
        let cap = cluster.current_power() - Watts(5_000.0);
        let mut killing = PowercapHook::new(
            PowercapConfig::for_policy(PowercapPolicy::Shut).with_kill_on_violation(),
            &p,
        );
        let kills = killing.on_cap_start(&cluster, &[&wide, &narrow], cap, HOUR);
        assert_eq!(kills, vec![0], "the widest job is killed first");

        // A cap far below consumption kills both.
        let kills = killing.on_cap_start(&cluster, &[&wide, &narrow], Watts(1.0), HOUR);
        assert_eq!(kills.len(), 2);

        // Without the kill option (the paper's default) nothing is killed.
        let mut default_hook = PowercapHook::for_policy(PowercapPolicy::Shut, &p);
        assert!(default_hook
            .on_cap_start(&cluster, &[&wide, &narrow], cap, HOUR)
            .is_empty());

        // And when the cluster is already under the cap, nothing is killed
        // either, even with the option enabled.
        assert!(killing
            .on_cap_start(
                &cluster,
                &[&wide, &narrow],
                cluster.current_power() + Watts(1.0),
                HOUR
            )
            .is_empty());
    }

    #[test]
    fn controller_applies_extreme_actions_on_cap_activation() {
        // End-to-end variant: the job starts because its walltime ends before
        // the cap window opens, but it actually overruns its estimate is not
        // possible in the simulator — instead the cap is made active from t=0
        // with a later-submitted huge job killed at activation time. Here we
        // simply verify the wiring: with kill-on-violation enabled and a cap
        // that the running workload violates at activation, the controller
        // records killed jobs.
        let p = platform();
        let hook = PowercapHook::new(
            PowercapConfig::for_policy(PowercapPolicy::None).with_kill_on_violation(),
            &p,
        );
        let mut c = Controller::with_hook(p, Box::new(hook));
        // Under the None policy the online check does not postpone anything,
        // so the machine fills up and violates the cap when it activates.
        c.submit(JobSubmission::new(0, 0, 2880, 6 * HOUR, 5 * HOUR));
        let cap = c.cluster().platform().power_fraction(0.3);
        c.add_powercap_reservation(apc_rjms::time::TimeWindow::new(HOUR, 2 * HOUR), cap);
        c.set_horizon(3 * HOUR);
        let report = c.run();
        // The None policy never enforces caps, so even with the kill flag the
        // hook refuses to kill — documenting that extreme actions only apply
        // to enforcing policies.
        assert_eq!(report.killed_jobs, 0);
        assert_eq!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::JobKilled { .. })),
            0
        );
    }

    #[test]
    fn per_application_degradation_uses_the_job_class() {
        let p = platform();
        let aware = PowercapHook::new(
            PowercapConfig::for_policy(PowercapPolicy::Dvfs).with_per_application_degradation(),
            &p,
        );
        let common = PowercapHook::for_policy(PowercapPolicy::Dvfs, &p);
        let f = Frequency::from_ghz(1.2);
        // Class 0 = Linpack-like (degmin 2.14), class 3 = Gromacs-like (1.16).
        let linpack_job = Job::new(0, JobSubmission::new(0, 0, 64, 3600, 600).with_app_class(0));
        let gromacs_job = Job::new(1, JobSubmission::new(0, 0, 64, 3600, 600).with_app_class(3));
        let untagged = Job::new(2, JobSubmission::new(0, 0, 64, 3600, 600));
        assert!((aware.runtime_factor(&linpack_job, f) - 2.14).abs() < 1e-9);
        assert!((aware.runtime_factor(&gromacs_job, f) - 1.16).abs() < 1e-9);
        // Untagged jobs fall back to the common value.
        assert!((aware.runtime_factor(&untagged, f) - 1.63).abs() < 1e-9);
        // Without the option every job gets the common value.
        assert!((common.runtime_factor(&linpack_job, f) - 1.63).abs() < 1e-9);
        // At the maximum frequency nothing is stretched.
        assert_eq!(
            aware.runtime_factor(&linpack_job, Frequency::from_ghz(2.7)),
            1.0
        );
        // SHUT never down-clocks, so the flag has no effect there.
        let shut = PowercapHook::new(
            PowercapConfig::for_policy(PowercapPolicy::Shut).with_per_application_degradation(),
            &p,
        );
        assert_eq!(shut.runtime_factor(&linpack_job, f), 1.0);
    }

    #[test]
    fn offline_decisions_are_recorded() {
        let p = platform();
        let mut hook = PowercapHook::for_policy(PowercapPolicy::Mix, &p);
        let cluster = Cluster::new(platform());
        let reservations = ReservationBook::new();
        let cap = cluster.platform().power_fraction(0.5);
        let plan = hook.plan_powercap(&cluster, &reservations, TimeWindow::new(0, HOUR), cap, 0);
        assert!(!plan.switch_off_nodes.is_empty());
        assert_eq!(hook.decisions().len(), 1);
        assert!(hook.decisions()[0].reserves_shutdown());
        assert!(hook.degradation().degmin() > 1.0);
    }
}
