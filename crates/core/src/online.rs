//! Online phase: Algorithm 2 — per-job frequency selection under the cap.
//!
//! "When evaluating the impact of the start of a pending job, the controller
//! will temporarily alter the states of the candidate nodes, compute the
//! resultant consumption and compare it to the defined and planned powercap.
//! In case of DVFS or MIX scheduling mode, the evaluated job is controlled
//! for all different CPU-Frequencies and it stays pending only if the
//! estimated power consumption with the lower permitted CPU Frequency is
//! larger than the power envelope it may use." (paper Section V.)
//!
//! The frequency probe walks the policy's allowed ladder from the fastest
//! step downwards and returns the first step whose hypothetical cluster power
//! fits under every powercap reservation overlapping the job's execution
//! window (Algorithm 2).

use apc_power::{DegradationModel, Frequency, FrequencyLadder, Watts};
use apc_rjms::cluster::{Cluster, Platform};
use apc_rjms::job::Job;
use apc_rjms::reservation::ReservationBook;
use apc_rjms::time::SimTime;

use crate::policy::PowercapPolicy;

/// The outcome of the online frequency selection for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrequencyChoice {
    /// Start the job now at the given frequency.
    Start(Frequency),
    /// No permitted frequency keeps the cluster under the power budget:
    /// keep the job pending.
    Postpone,
}

impl FrequencyChoice {
    /// The chosen frequency, if the job may start.
    pub fn frequency(self) -> Option<Frequency> {
        match self {
            FrequencyChoice::Start(f) => Some(f),
            FrequencyChoice::Postpone => None,
        }
    }
}

/// The online scheduler (Algorithm 2).
///
/// The policy's allowed ladder, degradation model and power floor are
/// resolved once at construction (they only depend on the platform), so the
/// per-job `choose` does not rebuild them per call.
#[derive(Debug, Clone)]
pub struct OnlineScheduler {
    policy: PowercapPolicy,
    /// The platform's fastest frequency (uncapped jobs run at this).
    fmax: Frequency,
    /// The steps the policy may choose from, resolved from the platform
    /// ladder at construction.
    allowed: FrequencyLadder,
    /// The policy's runtime-degradation model over that ladder.
    degradation: DegradationModel,
    /// The least busy draw over the allowed steps: no step can start a job
    /// whose start at this draw already breaks the cap.
    least_busy: Watts,
}

impl OnlineScheduler {
    /// Create an online scheduler for the given policy on `platform` (the
    /// platform of the cluster later passed to [`choose`](Self::choose)).
    pub fn new(policy: PowercapPolicy, platform: &Platform) -> Self {
        let allowed = policy.allowed_ladder(&platform.ladder);
        let least_busy = allowed
            .steps()
            .iter()
            .map(|&f| platform.profile.busy_watts(f))
            .fold(Watts(f64::INFINITY), Watts::min);
        OnlineScheduler {
            policy,
            fmax: platform.ladder.max(),
            degradation: policy.degradation(&platform.ladder),
            allowed,
            least_busy,
        }
    }

    /// The policy in use.
    pub fn policy(&self) -> PowercapPolicy {
        self.policy
    }

    /// The tightest cap constraining a job that would run on the cluster
    /// during `[now, now + duration)`, if any. The window is at least one
    /// second wide and saturates at the end of time instead of overflowing
    /// (a zero-duration probe at `SimTime::MAX` must not panic).
    pub fn applicable_cap(
        &self,
        reservations: &ReservationBook,
        now: SimTime,
        duration: SimTime,
    ) -> Option<Watts> {
        reservations.cap_within(now, now.saturating_add(duration.max(1)))
    }

    /// Choose the execution frequency for `job` on `node_count` idle nodes
    /// at `now`, or decide to keep it pending.
    ///
    /// Idle candidates make the probe depend on their count alone
    /// ([`idle_busy_probe`](apc_power::ClusterPowerAccountant::idle_busy_probe)),
    /// and each ladder step then costs O(1). Before the walk, the power
    /// floor postpones a job that breaks the cap over its unstretched window
    /// even at the least allowed draw. That is exact: a stretched walltime
    /// is never shorter, so every step's window contains the unstretched
    /// one, no step's cap is looser than that window's, and no step draws
    /// less than the least draw.
    pub fn choose(
        &self,
        cluster: &Cluster,
        reservations: &ReservationBook,
        job: &Job,
        node_count: usize,
        now: SimTime,
    ) -> FrequencyChoice {
        debug_assert_eq!(
            self.fmax,
            cluster.platform().ladder.max(),
            "scheduler built for a different platform ladder"
        );
        if !self.policy.enforces_cap() {
            return FrequencyChoice::Start(self.fmax);
        }
        let profile = &cluster.platform().profile;
        let current = cluster.current_power();
        let probe = cluster.accountant().idle_busy_probe(node_count);
        let walltime = job.submission.walltime;
        let unstretched_cap = self.applicable_cap(reservations, now, walltime);
        if let Some(cap) = unstretched_cap {
            if current + probe.delta(self.least_busy) > cap {
                return FrequencyChoice::Postpone;
            }
        }

        for frequency in self.allowed.steps_descending() {
            // The job's walltime is stretched with the frequency, so the
            // window whose caps must be honoured depends on the probe (an
            // unstretched step reuses the floor's lookup).
            let stretched_walltime = self.degradation.stretch_runtime(walltime, frequency);
            let cap = if stretched_walltime == walltime {
                unstretched_cap
            } else {
                self.applicable_cap(reservations, now, stretched_walltime)
            };
            let Some(cap) = cap else {
                // No cap overlaps the job's execution at all: run flat out.
                return FrequencyChoice::Start(self.fmax);
            };
            let hypothetical = current + probe.delta(profile.busy_watts(frequency));
            if hypothetical <= cap {
                return FrequencyChoice::Start(frequency);
            }
        }
        FrequencyChoice::Postpone
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_power::Watts;
    use apc_rjms::job::JobSubmission;
    use apc_rjms::reservation::ReservationKind;
    use apc_rjms::time::TimeWindow;

    fn cluster() -> Cluster {
        Cluster::new(Platform::curie_scaled(1)) // 90 nodes
    }

    /// Scheduler over the Curie platform the test clusters use.
    fn scheduler(policy: PowercapPolicy) -> OnlineScheduler {
        OnlineScheduler::new(policy, &Platform::curie_scaled(1))
    }

    fn job(cores: u32, walltime: SimTime) -> Job {
        Job::new(0, JobSubmission::new(0, 0, cores, walltime, walltime / 2))
    }

    fn book_with_cap(window: TimeWindow, cap: Watts) -> ReservationBook {
        let mut book = ReservationBook::new();
        book.add(window, ReservationKind::PowerCap { cap });
        book
    }

    #[test]
    fn no_cap_means_max_frequency() {
        let c = cluster();
        let book = ReservationBook::new();
        let sched = scheduler(PowercapPolicy::Dvfs);
        let choice = sched.choose(&c, &book, &job(160, 3600), 10, 0);
        assert_eq!(choice, FrequencyChoice::Start(Frequency::from_ghz(2.7)));
        assert_eq!(choice.frequency(), Some(Frequency::from_ghz(2.7)));
    }

    #[test]
    fn cap_outside_job_window_is_ignored() {
        let c = cluster();
        // Cap far in the future, job finishes well before.
        let book = book_with_cap(TimeWindow::new(100_000, 200_000), Watts(1.0));
        let sched = scheduler(PowercapPolicy::Dvfs);
        let choice = sched.choose(&c, &book, &job(160, 3600), 10, 0);
        assert_eq!(choice, FrequencyChoice::Start(Frequency::from_ghz(2.7)));
    }

    #[test]
    fn tight_cap_lowers_the_frequency() {
        let c = cluster();
        let nodes = 60;
        // Budget: idle cluster + 60 nodes at 2.0 GHz (not enough for 2.7 GHz).
        let idle_power = c.current_power();
        let cap = idle_power + Watts(60.0 * (269.0 - 117.0) + 1.0);
        let book = book_with_cap(TimeWindow::new(0, 100_000), cap);
        let sched = scheduler(PowercapPolicy::Dvfs);
        let choice = sched.choose(&c, &book, &job(960, 3600), nodes, 0);
        assert_eq!(choice, FrequencyChoice::Start(Frequency::from_ghz(2.0)));
    }

    #[test]
    fn impossible_cap_postpones() {
        let c = cluster();
        let book = book_with_cap(TimeWindow::new(0, 100_000), Watts(1.0));
        for policy in [
            PowercapPolicy::Shut,
            PowercapPolicy::Dvfs,
            PowercapPolicy::Mix,
        ] {
            let sched = scheduler(policy);
            let choice = sched.choose(&c, &book, &job(160, 3600), 10, 0);
            assert_eq!(choice, FrequencyChoice::Postpone, "{policy}");
            assert_eq!(choice.frequency(), None);
        }
    }

    #[test]
    fn none_policy_ignores_caps() {
        let c = cluster();
        let book = book_with_cap(TimeWindow::new(0, 100_000), Watts(1.0));
        let sched = scheduler(PowercapPolicy::None);
        let choice = sched.choose(&c, &book, &job(160, 3600), 10, 0);
        assert_eq!(choice, FrequencyChoice::Start(Frequency::from_ghz(2.7)));
    }

    #[test]
    fn shut_policy_never_downclocks() {
        let c = cluster();
        let idle_power = c.current_power();
        // Enough for 10 nodes at 2.0 GHz but not at 2.7 GHz.
        let cap = idle_power + Watts(10.0 * (269.0 - 117.0) + 1.0);
        let book = book_with_cap(TimeWindow::new(0, 100_000), cap);
        let nodes = 10;
        // SHUT: cannot lower the frequency, so the job stays pending.
        let shut = scheduler(PowercapPolicy::Shut);
        assert_eq!(
            shut.choose(&c, &book, &job(160, 3600), nodes, 0),
            FrequencyChoice::Postpone
        );
        // DVFS: the job runs at 2.0 GHz instead.
        let dvfs = scheduler(PowercapPolicy::Dvfs);
        assert_eq!(
            dvfs.choose(&c, &book, &job(160, 3600), nodes, 0),
            FrequencyChoice::Start(Frequency::from_ghz(2.0))
        );
    }

    #[test]
    fn mix_policy_respects_the_frequency_floor() {
        let c = cluster();
        let idle_power = c.current_power();
        // Enough headroom for 10 nodes at 1.2 GHz but not at 2.0 GHz.
        let cap = idle_power + Watts(10.0 * (193.0 - 117.0) + 1.0);
        let book = book_with_cap(TimeWindow::new(0, 100_000), cap);
        let nodes = 10;
        // DVFS can drop to 1.2 GHz and start.
        let dvfs = scheduler(PowercapPolicy::Dvfs);
        assert_eq!(
            dvfs.choose(&c, &book, &job(160, 3600), nodes, 0),
            FrequencyChoice::Start(Frequency::from_ghz(1.2))
        );
        // MIX may not go below 2.0 GHz, so it must postpone.
        let mix = scheduler(PowercapPolicy::Mix);
        assert_eq!(
            mix.choose(&c, &book, &job(160, 3600), nodes, 0),
            FrequencyChoice::Postpone
        );
    }

    #[test]
    fn future_cap_constrains_long_jobs_but_not_short_ones() {
        let c = cluster();
        let idle_power = c.current_power();
        let cap = idle_power + Watts(30.0 * (269.0 - 117.0));
        // The cap window opens at t = 4000.
        let book = book_with_cap(TimeWindow::new(4000, 8000), cap);
        let sched = scheduler(PowercapPolicy::Dvfs);
        let nodes = 60;
        // A short job (walltime 1000 s) ends before the cap: full speed.
        assert_eq!(
            sched.choose(&c, &book, &job(960, 1000), nodes, 0),
            FrequencyChoice::Start(Frequency::from_ghz(2.7))
        );
        // A long job overlaps the cap window and must slow down.
        let choice = sched.choose(&c, &book, &job(960, 50_000), nodes, 0);
        match choice {
            FrequencyChoice::Start(f) => assert!(f < Frequency::from_ghz(2.7)),
            FrequencyChoice::Postpone => panic!("a frequency below 2.7 GHz fits this cap"),
        }
    }

    #[test]
    fn applicable_cap_picks_the_tightest() {
        let mut book = ReservationBook::new();
        book.add(
            TimeWindow::new(0, 1000),
            ReservationKind::PowerCap { cap: Watts(500.0) },
        );
        book.add(
            TimeWindow::new(500, 1500),
            ReservationKind::PowerCap { cap: Watts(300.0) },
        );
        let sched = scheduler(PowercapPolicy::Mix);
        assert_eq!(sched.applicable_cap(&book, 0, 100), Some(Watts(500.0)));
        assert_eq!(sched.applicable_cap(&book, 0, 600), Some(Watts(300.0)));
        assert_eq!(sched.applicable_cap(&book, 2000, 100), None);
        assert_eq!(sched.policy(), PowercapPolicy::Mix);
    }

    /// Regression: probing at the end of time must saturate, not overflow.
    /// The seed computed `saturating_add(duration).max(now + 1)`, whose
    /// `now + 1` panics in debug builds when `now == SimTime::MAX`.
    #[test]
    fn applicable_cap_saturates_at_the_end_of_time() {
        let book = book_with_cap(TimeWindow::new(0, SimTime::MAX), Watts(300.0));
        let sched = scheduler(PowercapPolicy::Mix);
        // At the end of time the probe window is empty — no cap applies and,
        // crucially, nothing overflows (the seed panicked here).
        assert_eq!(sched.applicable_cap(&book, SimTime::MAX, 0), None);
        assert_eq!(sched.applicable_cap(&book, SimTime::MAX, 3600), None);
        // One second before the end, the saturated window still overlaps.
        assert_eq!(
            sched.applicable_cap(&book, SimTime::MAX - 1, SimTime::MAX),
            Some(Watts(300.0))
        );
        // Ordinary probes still see a window at least one second wide.
        assert_eq!(sched.applicable_cap(&book, 10, 0), Some(Watts(300.0)));
    }
}
