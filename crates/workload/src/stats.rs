//! Trace statistics.
//!
//! Used for two purposes: calibration tests asserting that the synthetic
//! Curie generator matches the quantitative statements of the paper, and the
//! experiment reports describing the replayed intervals.

use crate::trace::Trace;

/// Summary statistics of a workload trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Number of jobs.
    pub job_count: usize,
    /// Interval duration in seconds.
    pub duration: u64,
    /// Fraction of jobs requesting fewer than 512 cores *and* running less
    /// than 2 minutes (the paper reports 69 %).
    pub small_short_fraction: f64,
    /// Fraction of jobs whose core-hours exceed one hour of the whole
    /// machine (the paper reports 0.1 %).
    pub huge_fraction: f64,
    /// Mean walltime over-estimation factor (paper: ≈ 12 670).
    pub mean_overestimation: f64,
    /// Median walltime over-estimation factor (paper: ≈ 12 000).
    pub median_overestimation: f64,
    /// Total work in the trace, in core-seconds.
    pub total_core_seconds: f64,
    /// Work-to-capacity ratio of the interval for a machine with
    /// `machine_cores` cores (values above 1 mean the interval is
    /// overloaded).
    pub load_ratio: f64,
    /// Largest single-job core request.
    pub max_cores: u32,
    /// Number of distinct users.
    pub user_count: usize,
}

impl TraceStats {
    /// Compute the statistics of `trace` relative to a machine with
    /// `machine_cores` cores.
    pub fn compute(trace: &Trace, machine_cores: u64) -> Self {
        let n = trace.len();
        if n == 0 {
            return TraceStats {
                job_count: 0,
                duration: trace.duration,
                small_short_fraction: 0.0,
                huge_fraction: 0.0,
                mean_overestimation: 0.0,
                median_overestimation: 0.0,
                total_core_seconds: 0.0,
                load_ratio: 0.0,
                max_cores: 0,
                user_count: 0,
            };
        }
        let small_short = trace
            .jobs
            .iter()
            .filter(|j| j.cores < 512 && j.run_time < 120)
            .count();
        let machine_core_hour = machine_cores as f64 * 3600.0;
        let huge = trace
            .jobs
            .iter()
            .filter(|j| j.core_seconds() > machine_core_hour)
            .count();
        let mut ratios: Vec<f64> = trace.jobs.iter().map(|j| j.overestimation()).collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
        let mean = ratios.iter().sum::<f64>() / n as f64;
        let median = if n % 2 == 1 {
            ratios[n / 2]
        } else {
            (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0
        };
        let total = trace.total_core_seconds();
        let capacity = machine_cores as f64 * trace.duration.max(1) as f64;
        let mut users: Vec<usize> = trace.jobs.iter().map(|j| j.user).collect();
        users.sort_unstable();
        users.dedup();
        TraceStats {
            job_count: n,
            duration: trace.duration,
            small_short_fraction: small_short as f64 / n as f64,
            huge_fraction: huge as f64 / n as f64,
            mean_overestimation: mean,
            median_overestimation: median,
            total_core_seconds: total,
            load_ratio: total / capacity,
            max_cores: trace.jobs.iter().map(|j| j.cores).max().unwrap_or(0),
            user_count: users.len(),
        }
    }

    /// A one-line human readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} jobs over {} s | {:.0}% small&short | {:.2}% huge | walltime overestimation mean {:.0}x median {:.0}x | load {:.2}x capacity",
            self.job_count,
            self.duration,
            self.small_short_fraction * 100.0,
            self.huge_fraction * 100.0,
            self.mean_overestimation,
            self.median_overestimation,
            self.load_ratio,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceJob;

    fn job(id: usize, cores: u32, run: u64, req: u64) -> TraceJob {
        TraceJob {
            id,
            submit_time: id as u64 * 10,
            run_time: run,
            cores,
            requested_time: req,
            user: id % 5,
            app_class: 0,
        }
    }

    #[test]
    fn computes_fractions_and_ratios() {
        let trace = Trace::new(
            vec![
                job(0, 16, 60, 600),          // small & short
                job(1, 32, 90, 900),          // small & short
                job(2, 1024, 7200, 86_400),   // medium
                job(3, 90_000, 7200, 86_400), // huge: 180M core-seconds
            ],
            3600,
        );
        let stats = TraceStats::compute(&trace, 80_640);
        assert_eq!(stats.job_count, 4);
        assert!((stats.small_short_fraction - 0.5).abs() < 1e-12);
        assert!((stats.huge_fraction - 0.25).abs() < 1e-12);
        assert_eq!(stats.max_cores, 90_000);
        assert_eq!(stats.user_count, 4);
        assert!(stats.mean_overestimation > 1.0);
        assert!(stats.load_ratio > 0.0);
        assert!(!stats.summary().is_empty());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        let trace = Trace::new(
            vec![
                job(0, 16, 10, 100),
                job(1, 16, 10, 200),
                job(2, 16, 10, 300),
            ],
            100,
        );
        let stats = TraceStats::compute(&trace, 1000);
        assert!((stats.median_overestimation - 20.0).abs() < 1e-12);
        let trace = Trace::new(vec![job(0, 16, 10, 100), job(1, 16, 10, 300)], 100);
        let stats = TraceStats::compute(&trace, 1000);
        assert!((stats.median_overestimation - 20.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace() {
        let stats = TraceStats::compute(&Trace::default(), 1000);
        assert_eq!(stats.job_count, 0);
        assert_eq!(stats.load_ratio, 0.0);
    }
}
