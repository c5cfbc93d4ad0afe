//! Calibrated synthetic Curie workload generator.
//!
//! The paper replays four intervals extracted from Curie's 2012 production
//! trace. The trace itself is not redistributable here, so this module
//! generates synthetic intervals matched to every quantitative property the
//! paper reports:
//!
//! * the cluster is **overloaded**: "there are always at least enough jobs in
//!   the submission queues to fill a second cluster of the same size" — the
//!   generator seeds an initial backlog worth more than one full machine and
//!   keeps the arrival stream above the machine's capacity;
//! * **69 %** of jobs need fewer than 512 cores and run for less than
//!   2 minutes;
//! * **0.1 %** of jobs are huge (more than a whole-machine hour of work);
//! * users over-estimate walltimes by ≈ **12 000×** (median) / 12 670× (mean);
//! * the three 5-hour flavours differ by their size mix (*smalljob*,
//!   *medianjob*, *bigjob*) and the fourth is a representative 24-hour day.
//!
//! Generation is fully deterministic for a given seed, platform and interval
//! kind, mirroring the deterministic replays of the paper.

use apc_rjms::cluster::Platform;

use crate::rng::SplitMix64;
use crate::trace::{Trace, TraceJob};

/// The four replay intervals of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IntervalKind {
    /// 5 hours, more small jobs than the median interval.
    SmallJob,
    /// 5 hours, jobs representative of the whole workload.
    #[default]
    MedianJob,
    /// 5 hours, more big jobs than the median interval.
    BigJob,
    /// 24 hours, representative of the whole workload.
    Day24h,
}

impl IntervalKind {
    /// All four intervals.
    pub const ALL: [IntervalKind; 4] = [
        IntervalKind::SmallJob,
        IntervalKind::MedianJob,
        IntervalKind::BigJob,
        IntervalKind::Day24h,
    ];

    /// Interval duration in seconds.
    pub fn duration(self) -> u64 {
        match self {
            IntervalKind::Day24h => 24 * 3600,
            _ => 5 * 3600,
        }
    }

    /// Name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            IntervalKind::SmallJob => "smalljob",
            IntervalKind::MedianJob => "medianjob",
            IntervalKind::BigJob => "bigjob",
            IntervalKind::Day24h => "24h",
        }
    }

    /// Probability of each size class `[small, medium, large, huge]`.
    fn class_mix(self) -> [f64; 4] {
        match self {
            IntervalKind::SmallJob => [0.80, 0.17, 0.029, 0.001],
            IntervalKind::MedianJob | IntervalKind::Day24h => [0.69, 0.25, 0.059, 0.001],
            IntervalKind::BigJob => [0.55, 0.25, 0.19, 0.01],
        }
    }
}

impl std::fmt::Display for IntervalKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for IntervalKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "smalljob" | "small" => Ok(IntervalKind::SmallJob),
            "medianjob" | "median" => Ok(IntervalKind::MedianJob),
            "bigjob" | "big" => Ok(IntervalKind::BigJob),
            "24h" | "day24h" | "day" => Ok(IntervalKind::Day24h),
            other => Err(format!(
                "unknown interval: {other} (valid: smalljob, medianjob, bigjob, 24h)"
            )),
        }
    }
}

/// Size classes used internally by the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SizeClass {
    Small,
    Medium,
    Large,
    Huge,
}

/// The synthetic Curie workload generator.
#[derive(Debug, Clone, PartialEq)]
pub struct CurieTraceGenerator {
    seed: u64,
    interval: IntervalKind,
    /// Arrival work rate relative to machine capacity (> 1 ⇒ overloaded).
    load_factor: f64,
    /// Initial backlog, in multiples of the machine's core count.
    backlog_factor: f64,
    /// Median walltime over-estimation factor.
    overestimation_median: f64,
    /// Number of distinct users.
    user_count: usize,
}

impl CurieTraceGenerator {
    /// Create a generator with the paper-calibrated defaults.
    pub fn new(seed: u64) -> Self {
        CurieTraceGenerator {
            seed,
            interval: IntervalKind::MedianJob,
            load_factor: 1.8,
            backlog_factor: 1.3,
            overestimation_median: 12_000.0,
            user_count: 200,
        }
    }

    /// Select the interval flavour (builder style).
    pub fn interval(mut self, interval: IntervalKind) -> Self {
        self.interval = interval;
        self
    }

    /// Override the arrival load factor (builder style).
    pub fn load_factor(mut self, load_factor: f64) -> Self {
        assert!(load_factor > 0.0);
        self.load_factor = load_factor;
        self
    }

    /// Override the initial backlog factor (builder style).
    pub fn backlog_factor(mut self, backlog_factor: f64) -> Self {
        assert!(backlog_factor >= 0.0);
        self.backlog_factor = backlog_factor;
        self
    }

    /// Override the median walltime over-estimation (builder style).
    pub fn overestimation_median(mut self, median: f64) -> Self {
        assert!(median >= 1.0);
        self.overestimation_median = median;
        self
    }

    /// The interval kind currently selected.
    pub fn interval_kind(&self) -> IntervalKind {
        self.interval
    }

    /// The [`TraceCacheKey`](crate::cache::TraceCacheKey) identifying the
    /// trace this generator would produce for `platform` — every parameter
    /// that influences generation is part of the key.
    pub fn cache_key(&self, platform: &Platform) -> crate::cache::TraceCacheKey {
        crate::cache::TraceCacheKey {
            nodes: platform.total_nodes(),
            cores_per_node: platform.cores_per_node,
            seed: self.seed,
            interval: self.interval,
            load_bits: self.load_factor.to_bits(),
            backlog_bits: self.backlog_factor.to_bits(),
            overestimation_bits: self.overestimation_median.to_bits(),
            user_count: self.user_count,
        }
    }

    /// Generate the trace for `platform`.
    pub fn generate_for(&self, platform: &Platform) -> Trace {
        let duration = self.interval.duration();
        let total_cores = platform.total_cores();
        let cores_per_node = platform.cores_per_node;
        let mix = self.interval.class_mix();
        // Mix the interval kind into the seed so the four flavours differ even
        // with the same base seed.
        let mut rng =
            SplitMix64::new(self.seed ^ (self.interval as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));

        let mut jobs: Vec<TraceJob> = Vec::new();
        let mut id = 0usize;

        // Phase 1: the backlog already queued when the interval starts
        // ("enough jobs in the submission queues to fill a second cluster").
        let mut backlog_cores = 0u64;
        let backlog_target = (self.backlog_factor * total_cores as f64) as u64;
        while backlog_cores < backlog_target {
            let job = self.sample_job(&mut rng, id, 0, mix, total_cores, cores_per_node);
            backlog_cores += u64::from(job.cores);
            jobs.push(job);
            id += 1;
        }

        // Phase 2: the arrival stream over the interval, carrying
        // `load_factor` times the machine capacity in core-seconds.
        let capacity = total_cores as f64 * duration as f64;
        let target_work = self.load_factor * capacity;
        let mut submitted_work = 0.0;
        while submitted_work < target_work {
            let submit = rng.range(0..duration);
            let job = self.sample_job(&mut rng, id, submit, mix, total_cores, cores_per_node);
            submitted_work += job.core_seconds();
            jobs.push(job);
            id += 1;
        }

        Trace::new(jobs, duration)
    }

    fn sample_class(&self, rng: &mut SplitMix64, mix: [f64; 4]) -> SizeClass {
        let x = rng.next_f64();
        if x < mix[0] {
            SizeClass::Small
        } else if x < mix[0] + mix[1] {
            SizeClass::Medium
        } else if x < mix[0] + mix[1] + mix[2] {
            SizeClass::Large
        } else {
            SizeClass::Huge
        }
    }

    /// Log-uniform integer in `[lo, hi]`.
    fn log_uniform(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo >= 1 && hi >= lo);
        let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
        let v = rng.uniform(llo, lhi).exp();
        (v.round() as u64).clamp(lo, hi)
    }

    /// Log-normal sample with the given median and sigma (Box–Muller).
    fn log_normal(rng: &mut SplitMix64, median: f64, sigma: f64) -> f64 {
        let u1 = rng.uniform(f64::EPSILON, 1.0);
        let u2 = rng.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        median * (sigma * z).exp()
    }

    fn sample_job(
        &self,
        rng: &mut SplitMix64,
        id: usize,
        submit_time: u64,
        mix: [f64; 4],
        total_cores: u64,
        cores_per_node: u32,
    ) -> TraceJob {
        let class = self.sample_class(rng, mix);
        let max_nodes = (total_cores / cores_per_node as u64).max(1);
        let (nodes, run_time) = match class {
            SizeClass::Small => (
                Self::log_uniform(rng, 1, 31.min(max_nodes)),
                rng.range(15..115),
            ),
            SizeClass::Medium => (
                Self::log_uniform(rng, 2, 256.min(max_nodes)),
                Self::log_uniform(rng, 120, 7_200),
            ),
            SizeClass::Large => (
                Self::log_uniform(rng, 32.min(max_nodes), 1_024.min(max_nodes)),
                Self::log_uniform(rng, 600, 18_000),
            ),
            SizeClass::Huge => (
                rng.range((max_nodes / 2).max(1)..max_nodes + 1),
                rng.range(3 * 3600..6 * 3600),
            ),
        };
        let cores = (nodes * cores_per_node as u64).min(total_cores) as u32;
        // Walltime over-estimation: log-normal around the configured median,
        // clamped to a 30-day scheduler limit.
        let factor = Self::log_normal(rng, self.overestimation_median, 0.33).max(1.0);
        let requested_time = ((run_time as f64) * factor)
            .min(30.0 * 86_400.0)
            .max(run_time as f64)
            .round() as u64;
        // Skewed user popularity (a few users submit most of the jobs).
        let u = rng.next_f64();
        let user = ((u * u) * self.user_count as f64) as usize;
        TraceJob {
            id,
            submit_time,
            run_time,
            cores,
            requested_time,
            user,
            app_class: rng.range(0..4) as u8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    fn curie() -> Platform {
        Platform::curie()
    }

    #[test]
    fn interval_durations_and_names() {
        assert_eq!(IntervalKind::MedianJob.duration(), 18_000);
        assert_eq!(IntervalKind::Day24h.duration(), 86_400);
        assert_eq!(IntervalKind::SmallJob.name(), "smalljob");
        assert_eq!(IntervalKind::BigJob.to_string(), "bigjob");
        assert_eq!(IntervalKind::ALL.len(), 4);
    }

    #[test]
    fn calibration_matches_the_paper_medianjob() {
        let platform = curie();
        let trace = CurieTraceGenerator::new(42)
            .interval(IntervalKind::MedianJob)
            .generate_for(&platform);
        let stats = TraceStats::compute(&trace, platform.total_cores());
        // 69 % small & short (±8 points of sampling noise).
        assert!(
            (stats.small_short_fraction - 0.69).abs() < 0.08,
            "small/short fraction {}",
            stats.small_short_fraction
        );
        // Huge jobs are rare.
        assert!(stats.huge_fraction <= 0.02, "{}", stats.huge_fraction);
        // Walltime over-estimation around four orders of magnitude.
        assert!(
            stats.median_overestimation > 8_000.0 && stats.median_overestimation < 16_000.0,
            "median overestimation {}",
            stats.median_overestimation
        );
        assert!(stats.mean_overestimation > stats.median_overestimation * 0.8);
        // Overloaded: the submitted work exceeds the interval capacity.
        assert!(stats.load_ratio > 1.2, "load {}", stats.load_ratio);
        // The trace is non-trivial.
        assert!(stats.job_count > 500, "{} jobs", stats.job_count);
        assert!(stats.user_count > 20);
    }

    #[test]
    fn backlog_fills_a_second_cluster() {
        let platform = curie();
        let trace = CurieTraceGenerator::new(7).generate_for(&platform);
        let backlog_cores: u64 = trace
            .jobs
            .iter()
            .filter(|j| j.submit_time == 0)
            .map(|j| u64::from(j.cores))
            .sum();
        assert!(
            backlog_cores >= platform.total_cores(),
            "backlog of {backlog_cores} cores must cover the {} -core machine",
            platform.total_cores()
        );
    }

    #[test]
    fn day24h_contains_huge_jobs() {
        let platform = curie();
        let trace = CurieTraceGenerator::new(3)
            .interval(IntervalKind::Day24h)
            .generate_for(&platform);
        let machine_core_hour = platform.total_cores() as f64 * 3600.0;
        let huge = trace
            .jobs
            .iter()
            .filter(|j| j.core_seconds() > machine_core_hour)
            .count();
        assert!(huge >= 1, "a 24 h interval contains at least one huge job");
        assert_eq!(trace.duration, 86_400);
    }

    #[test]
    fn interval_flavours_differ_in_size_mix() {
        let platform = curie();
        let mean_cores = |kind: IntervalKind| {
            let t = CurieTraceGenerator::new(11)
                .interval(kind)
                .generate_for(&platform);
            t.jobs.iter().map(|j| j.cores as f64).sum::<f64>() / t.len() as f64
        };
        let small = mean_cores(IntervalKind::SmallJob);
        let median = mean_cores(IntervalKind::MedianJob);
        let big = mean_cores(IntervalKind::BigJob);
        assert!(small < median, "smalljob {small} < medianjob {median}");
        assert!(median < big, "medianjob {median} < bigjob {big}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let platform = curie();
        let a = CurieTraceGenerator::new(5).generate_for(&platform);
        let b = CurieTraceGenerator::new(5).generate_for(&platform);
        assert_eq!(a, b);
        let c = CurieTraceGenerator::new(6).generate_for(&platform);
        assert_ne!(a, c);
    }

    #[test]
    fn scaled_platforms_get_proportionally_sized_jobs() {
        let platform = Platform::curie_scaled(2); // 180 nodes, 2880 cores
        let trace = CurieTraceGenerator::new(9).generate_for(&platform);
        assert!(trace.jobs.iter().all(|j| j.cores <= 2880));
        assert!(trace.len() > 50);
        let stats = TraceStats::compute(&trace, platform.total_cores());
        assert!(stats.load_ratio > 1.0);
    }

    #[test]
    fn builder_overrides() {
        let platform = Platform::curie_scaled(1);
        let light = CurieTraceGenerator::new(1)
            .load_factor(0.5)
            .backlog_factor(0.0)
            .overestimation_median(10.0)
            .generate_for(&platform);
        let stats = TraceStats::compute(&light, platform.total_cores());
        assert!(stats.load_ratio < 1.0);
        assert!(stats.median_overestimation < 100.0);
        assert_eq!(
            CurieTraceGenerator::new(1)
                .interval(IntervalKind::BigJob)
                .interval_kind(),
            IntervalKind::BigJob
        );
        let no_backlog = light.jobs.iter().filter(|j| j.submit_time == 0).count();
        assert!(no_backlog <= 1);
    }
}
