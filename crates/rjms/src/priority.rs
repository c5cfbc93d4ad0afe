//! Multifactor job priority and fair-share accounting.
//!
//! SLURM's multifactor priority plugin combines several normalised factors
//! with configurable weights; the paper's Curie configuration uses job age,
//! job size and fair-share. The same structure is reproduced here:
//!
//! ```text
//! priority = w_age · age_factor + w_size · size_factor + w_fairshare · fs_factor
//! ```
//!
//! * `age_factor` grows linearly with queue wait time and saturates at a
//!   configurable maximum age;
//! * `size_factor` is the fraction of the machine requested (large jobs get a
//!   boost, as on Curie);
//! * `fs_factor` is `2^(−usage/shares)`, SLURM's classic fair-share decay of
//!   recent usage.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::job::{Job, JobId};
use crate::time::SimTime;

/// Weights of the multifactor priority.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PriorityWeights {
    /// Weight of the age factor.
    pub age: f64,
    /// Weight of the size factor.
    pub size: f64,
    /// Weight of the fair-share factor.
    pub fairshare: f64,
    /// Wait time (seconds) at which the age factor saturates to 1.
    pub max_age: SimTime,
}

impl Default for PriorityWeights {
    fn default() -> Self {
        // Curie-like defaults: age dominates (FCFS-ish), size breaks ties in
        // favour of large jobs, fair-share rebalances heavy users.
        PriorityWeights {
            age: 1000.0,
            size: 200.0,
            fairshare: 500.0,
            max_age: 7 * 24 * 3600,
        }
    }
}

/// Per-user fair-share accounting with exponential decay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FairShareTracker {
    /// Decayed core-seconds consumed per user.
    usage: HashMap<usize, f64>,
    /// Normalisation constant: the usage at which the fair-share factor
    /// halves.
    half_usage: f64,
    /// Exponential decay half-life of recorded usage, in seconds.
    half_life: SimTime,
    /// Last time the decay was applied.
    last_decay: SimTime,
}

impl Default for FairShareTracker {
    fn default() -> Self {
        FairShareTracker::new(1.0e7, 7 * 24 * 3600)
    }
}

impl FairShareTracker {
    /// Create a tracker. `half_usage` is the decayed core-seconds at which a
    /// user's factor drops to 0.5; `half_life` is the decay half-life.
    pub fn new(half_usage: f64, half_life: SimTime) -> Self {
        assert!(half_usage > 0.0);
        assert!(half_life > 0);
        FairShareTracker {
            usage: HashMap::new(),
            half_usage,
            half_life,
            last_decay: 0,
        }
    }

    /// Record `core_seconds` of usage for `user` at time `now`.
    pub fn record_usage(&mut self, user: usize, core_seconds: f64, now: SimTime) {
        self.decay_to(now);
        *self.usage.entry(user).or_insert(0.0) += core_seconds;
    }

    /// Pre-load historical usage (phase ii of the replay methodology: the
    /// interval's initial fair-share state).
    pub fn seed_usage(&mut self, user: usize, core_seconds: f64) {
        *self.usage.entry(user).or_insert(0.0) += core_seconds;
    }

    /// The decayed usage of a user.
    pub fn usage_of(&self, user: usize) -> f64 {
        self.usage.get(&user).copied().unwrap_or(0.0)
    }

    /// The fair-share factor of a user in `[0, 1]` (1 = no recent usage).
    pub fn factor(&self, user: usize) -> f64 {
        let u = self.usage_of(user);
        0.5_f64.powf(u / self.half_usage)
    }

    /// Apply the exponential decay up to `now`.
    pub fn decay_to(&mut self, now: SimTime) {
        if now <= self.last_decay {
            return;
        }
        let dt = (now - self.last_decay) as f64;
        let factor = 0.5_f64.powf(dt / self.half_life as f64);
        for v in self.usage.values_mut() {
            *v *= factor;
        }
        self.last_decay = now;
    }
}

/// The multifactor priority calculator.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MultifactorPriority {
    weights: PriorityWeights,
}

impl MultifactorPriority {
    /// Create a calculator with the given weights.
    pub fn new(weights: PriorityWeights) -> Self {
        MultifactorPriority { weights }
    }

    /// The configured weights.
    pub fn weights(&self) -> &PriorityWeights {
        &self.weights
    }

    /// Compute the priority of a pending job at time `now`.
    pub fn priority(
        &self,
        job: &Job,
        now: SimTime,
        total_cores: u64,
        fairshare: &FairShareTracker,
    ) -> f64 {
        let w = &self.weights;
        let age = job.wait_time(now) as f64 / w.max_age.max(1) as f64;
        let age_factor = age.min(1.0);
        let size_factor = (job.cores() as f64 / total_cores.max(1) as f64).min(1.0);
        let fs_factor = fairshare.factor(job.submission.user);
        w.age * age_factor + w.size * size_factor + w.fairshare * fs_factor
    }

    /// Order pending job indices by decreasing priority, ties broken by
    /// submission time (FCFS among equals) and then by job id. The id makes
    /// the order unique, so it does not depend on the input order.
    ///
    /// Each job's priority is computed once, into `keys` (a reusable buffer,
    /// cleared first), and the `(priority, submit time, id)` keys are sorted.
    pub fn sort_pending(
        &self,
        jobs: &[Job],
        pending: &mut [JobId],
        now: SimTime,
        total_cores: u64,
        fairshare: &FairShareTracker,
        keys: &mut Vec<(f64, SimTime, JobId)>,
    ) {
        keys.clear();
        keys.extend(pending.iter().map(|&id| {
            let job = &jobs[id];
            let priority = self.priority(job, now, total_cores, fairshare);
            (priority, job.submission.submit_time, id)
        }));
        keys.sort_by(|(pa, sa, a), (pb, sb, b)| {
            pb.partial_cmp(pa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(sa.cmp(sb))
                .then(a.cmp(b))
        });
        for (slot, &(_, _, id)) in pending.iter_mut().zip(keys.iter()) {
            *slot = id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSubmission;

    fn job(id: usize, user: usize, submit: SimTime, cores: u32) -> Job {
        Job::new(id, JobSubmission::new(user, submit, cores, 3600, 600))
    }

    #[test]
    fn fairshare_factor_decreases_with_usage() {
        let mut fs = FairShareTracker::new(1000.0, 3600);
        assert_eq!(fs.factor(0), 1.0);
        fs.record_usage(0, 1000.0, 0);
        assert!((fs.factor(0) - 0.5).abs() < 1e-12);
        fs.record_usage(0, 1000.0, 0);
        assert!((fs.factor(0) - 0.25).abs() < 1e-12);
        assert_eq!(fs.factor(1), 1.0, "other users unaffected");
    }

    #[test]
    fn fairshare_usage_decays_over_time() {
        let mut fs = FairShareTracker::new(1000.0, 3600);
        fs.record_usage(0, 2000.0, 0);
        fs.decay_to(3600);
        assert!((fs.usage_of(0) - 1000.0).abs() < 1e-9);
        fs.decay_to(7200);
        assert!((fs.usage_of(0) - 500.0).abs() < 1e-9);
        // Decay never goes backwards.
        fs.decay_to(7200);
        assert!((fs.usage_of(0) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn seeded_usage_counts_like_recorded_usage() {
        let mut fs = FairShareTracker::new(1000.0, 3600);
        fs.seed_usage(4, 3000.0);
        assert!(fs.factor(4) < 0.2);
    }

    #[test]
    fn age_increases_priority() {
        let prio = MultifactorPriority::default();
        let fs = FairShareTracker::default();
        let old = job(0, 0, 0, 64);
        let fresh = job(1, 0, 90_000, 64);
        let now = 100_000;
        assert!(prio.priority(&old, now, 80_640, &fs) > prio.priority(&fresh, now, 80_640, &fs));
    }

    #[test]
    fn size_increases_priority() {
        let prio = MultifactorPriority::default();
        let fs = FairShareTracker::default();
        let big = job(0, 0, 0, 40_000);
        let small = job(1, 0, 0, 16);
        assert!(prio.priority(&big, 0, 80_640, &fs) > prio.priority(&small, 0, 80_640, &fs));
    }

    #[test]
    fn heavy_users_sink_in_the_queue() {
        let prio = MultifactorPriority::default();
        let mut fs = FairShareTracker::default();
        fs.seed_usage(1, 1.0e8);
        let a = job(0, 0, 500, 64);
        let b = job(1, 1, 500, 64);
        let jobs = vec![a, b];
        let mut pending = vec![1, 0];
        prio.sort_pending(&jobs, &mut pending, 1000, 80_640, &fs, &mut Vec::new());
        assert_eq!(pending, vec![0, 1], "light user first");
    }

    #[test]
    fn sort_is_stable_for_equal_priorities() {
        let prio = MultifactorPriority::default();
        let fs = FairShareTracker::default();
        let jobs = vec![job(0, 0, 100, 64), job(1, 0, 100, 64), job(2, 0, 100, 64)];
        let mut pending = vec![2, 0, 1];
        prio.sort_pending(&jobs, &mut pending, 80_640, 5000, &fs, &mut Vec::new());
        assert_eq!(pending, vec![0, 1, 2]);
    }

    #[test]
    fn age_factor_saturates() {
        let weights = PriorityWeights {
            age: 100.0,
            size: 0.0,
            fairshare: 0.0,
            max_age: 1000,
        };
        let prio = MultifactorPriority::new(weights);
        let fs = FairShareTracker::default();
        let j = job(0, 0, 0, 64);
        assert_eq!(prio.priority(&j, 1000, 80_640, &fs), 100.0);
        assert_eq!(prio.priority(&j, 100_000, 80_640, &fs), 100.0);
        assert!((prio.priority(&j, 500, 80_640, &fs) - 50.0).abs() < 1e-9);
    }
}
