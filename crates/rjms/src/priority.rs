//! Multifactor job priority and fair-share accounting.
//!
//! SLURM's multifactor priority plugin combines several normalised factors
//! with weights; the paper's Curie configuration uses job age, job size and
//! fair-share. The same structure is reproduced here, with the replay's one
//! set of weights:
//!
//! ```text
//! priority = 1000 · age_factor + 200 · size_factor + 500 · fs_factor
//! ```
//!
//! Age dominates (FCFS-ish), size breaks ties in favour of large jobs, and
//! fair-share rebalances heavy users:
//!
//! * `age_factor` grows linearly with queue wait time and saturates after
//!   7 days;
//! * `size_factor` is the fraction of the machine requested (large jobs get a
//!   boost, as on Curie);
//! * `fs_factor` is `2^(−usage/10^7)`, SLURM's classic fair-share decay of
//!   recent usage: a user's factor halves per 10^7 core-seconds of usage,
//!   and recorded usage decays with a 7-day half-life.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::job::{Job, JobId};
use crate::time::SimTime;

/// Weight of the age factor.
const AGE_WEIGHT: f64 = 1000.0;
/// Weight of the size factor.
const SIZE_WEIGHT: f64 = 200.0;
/// Weight of the fair-share factor.
const FAIRSHARE_WEIGHT: f64 = 500.0;
/// Wait time (seconds) at which the age factor saturates to 1.
const MAX_AGE: SimTime = 7 * 24 * 3600;
/// Decayed core-seconds at which a user's fair-share factor halves.
const FAIRSHARE_HALF_USAGE: f64 = 1.0e7;
/// Half-life of recorded fair-share usage, in seconds.
const FAIRSHARE_HALF_LIFE: SimTime = 7 * 24 * 3600;

/// Hashes a user id with one 64×64→128-bit multiply whose halves are
/// folded together by XOR.
///
/// Every pass looks up one fair-share factor per pending job, and SipHash
/// cost about a third of computing the sort keys. The high half of the
/// product depends on every bit of the id, so the low bits the table
/// indexes with do too, and ids that are multiples of 2^k do not collide.
/// The map's iteration order is not observable: `decay_to` scales every
/// entry by the same factor. Unlike SipHash it is not keyed, so a trace
/// written to collide its user ids could slow its own replay, never change
/// its result.
#[derive(Debug, Clone, Copy, Default)]
struct UserIdHasher(u64);

impl Hasher for UserIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, id: u64) {
        // 2^64 / φ, odd: the multiplier of Fibonacci hashing.
        const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;
        let product = u128::from(self.0 ^ id) * u128::from(MULTIPLIER);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write_usize(&mut self, id: usize) {
        self.write_u64(id as u64);
    }
}

/// Per-user fair-share accounting with exponential decay: a user's factor
/// halves per 10^7 decayed core-seconds, and usage halves every 7 days.
#[derive(Debug, Clone, Default)]
pub struct FairShareTracker {
    /// Decayed core-seconds consumed per user.
    usage: HashMap<usize, f64, BuildHasherDefault<UserIdHasher>>,
    /// Last time the decay was applied.
    last_decay: SimTime,
}

impl FairShareTracker {
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
        0.5_f64.powf(u / FAIRSHARE_HALF_USAGE)
    }

    /// Apply the exponential decay up to `now`.
    pub fn decay_to(&mut self, now: SimTime) {
        if now <= self.last_decay {
            return;
        }
        let dt = (now - self.last_decay) as f64;
        let factor = 0.5_f64.powf(dt / FAIRSHARE_HALF_LIFE as f64);
        for v in self.usage.values_mut() {
            *v *= factor;
        }
        self.last_decay = now;
    }
}

/// The multifactor priority calculator.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultifactorPriority;

impl MultifactorPriority {
    /// Compute the priority of a pending job at time `now`.
    pub fn priority(
        &self,
        job: &Job,
        now: SimTime,
        total_cores: u64,
        fairshare: &FairShareTracker,
    ) -> f64 {
        let age_factor = (job.wait_time(now) as f64 / MAX_AGE as f64).min(1.0);
        let size_factor = (job.cores() as f64 / total_cores.max(1) as f64).min(1.0);
        let fs_factor = fairshare.factor(job.submission.user);
        AGE_WEIGHT * age_factor + SIZE_WEIGHT * size_factor + FAIRSHARE_WEIGHT * fs_factor
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
        let mut fs = FairShareTracker::default();
        assert_eq!(fs.factor(0), 1.0);
        fs.record_usage(0, FAIRSHARE_HALF_USAGE, 0);
        assert!((fs.factor(0) - 0.5).abs() < 1e-12);
        fs.record_usage(0, FAIRSHARE_HALF_USAGE, 0);
        assert!((fs.factor(0) - 0.25).abs() < 1e-12);
        assert_eq!(fs.factor(1), 1.0, "other users unaffected");
    }

    #[test]
    fn fairshare_usage_decays_over_time() {
        let mut fs = FairShareTracker::default();
        fs.record_usage(0, 2000.0, 0);
        fs.decay_to(FAIRSHARE_HALF_LIFE);
        assert!((fs.usage_of(0) - 1000.0).abs() < 1e-9);
        fs.decay_to(2 * FAIRSHARE_HALF_LIFE);
        assert!((fs.usage_of(0) - 500.0).abs() < 1e-9);
        // Decay never goes backwards.
        fs.decay_to(2 * FAIRSHARE_HALF_LIFE);
        assert!((fs.usage_of(0) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn seeded_usage_counts_like_recorded_usage() {
        let mut fs = FairShareTracker::default();
        fs.seed_usage(4, 3.0 * FAIRSHARE_HALF_USAGE);
        assert!(fs.factor(4) < 0.2);
    }

    #[test]
    fn age_increases_priority() {
        let prio = MultifactorPriority;
        let fs = FairShareTracker::default();
        let old = job(0, 0, 0, 64);
        let fresh = job(1, 0, 90_000, 64);
        let now = 100_000;
        assert!(prio.priority(&old, now, 80_640, &fs) > prio.priority(&fresh, now, 80_640, &fs));
    }

    #[test]
    fn size_increases_priority() {
        let prio = MultifactorPriority;
        let fs = FairShareTracker::default();
        let big = job(0, 0, 0, 40_000);
        let small = job(1, 0, 0, 16);
        assert!(prio.priority(&big, 0, 80_640, &fs) > prio.priority(&small, 0, 80_640, &fs));
    }

    #[test]
    fn heavy_users_sink_in_the_queue() {
        let prio = MultifactorPriority;
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
        let prio = MultifactorPriority;
        let fs = FairShareTracker::default();
        let jobs = vec![job(0, 0, 100, 64), job(1, 0, 100, 64), job(2, 0, 100, 64)];
        let mut pending = vec![2, 0, 1];
        prio.sort_pending(&jobs, &mut pending, 80_640, 5000, &fs, &mut Vec::new());
        assert_eq!(pending, vec![0, 1, 2]);
    }

    /// A plain multiply (or no hash at all) would put every multiple of
    /// 2^6 in one of 64 buckets.
    #[test]
    fn user_id_hashes_spread_multiples_of_powers_of_two_over_low_bits() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<UserIdHasher>::default();
        for shift in 0..=58 {
            let buckets: std::collections::HashSet<u64> = (0..64usize)
                .map(|i| build.hash_one(i << shift) % 64)
                .collect();
            assert!(buckets.len() >= 16, "ids i << {shift}: {buckets:?}");
        }
    }

    #[test]
    fn age_factor_saturates() {
        let prio = MultifactorPriority;
        let fs = FairShareTracker::default();
        let j = job(0, 0, 0, 64);
        // The size and fair-share terms do not move with the wait.
        let rest = prio.priority(&j, 0, 80_640, &fs);
        let age_term = |now| prio.priority(&j, now, 80_640, &fs) - rest;
        assert!((age_term(MAX_AGE) - AGE_WEIGHT).abs() < 1e-9);
        assert_eq!(age_term(100 * MAX_AGE), age_term(MAX_AGE));
        assert!((age_term(MAX_AGE / 2) - AGE_WEIGHT / 2.0).abs() < 1e-9);
    }
}
