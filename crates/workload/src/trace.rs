//! In-memory job traces.
//!
//! A [`TraceJob`] carries the subset of Standard Workload Format fields the
//! replay needs. A [`Trace`] is an ordered collection of trace jobs plus the
//! interval length it describes.

use apc_rjms::job::JobSubmission;

/// One job of a workload trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceJob {
    /// Job number (SWF field 1).
    pub id: usize,
    /// Submission time, seconds from the start of the interval (SWF field 2).
    pub submit_time: u64,
    /// Actual runtime at maximum frequency, seconds (SWF field 4).
    pub run_time: u64,
    /// Number of allocated processors/cores (SWF field 5 / 8).
    pub cores: u32,
    /// Requested time — the user walltime estimate, seconds (SWF field 9).
    pub requested_time: u64,
    /// User identifier (SWF field 12).
    pub user: usize,
    /// Application class (not part of SWF; used for degradation sensitivity).
    pub app_class: u8,
}

impl TraceJob {
    /// Over-estimation factor of the walltime relative to the actual runtime.
    pub fn overestimation(&self) -> f64 {
        if self.run_time == 0 {
            self.requested_time as f64
        } else {
            self.requested_time as f64 / self.run_time as f64
        }
    }

    /// Core-seconds of work the job represents.
    pub fn core_seconds(&self) -> f64 {
        self.cores as f64 * self.run_time as f64
    }

    /// Convert to an RJMS submission.
    pub fn to_submission(&self) -> JobSubmission {
        JobSubmission::new(
            self.user,
            self.submit_time,
            self.cores,
            self.requested_time.max(1),
            self.run_time.max(1),
        )
        .with_app_class(self.app_class)
    }
}

/// A workload trace covering one replay interval.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Jobs ordered by submission time.
    pub jobs: Vec<TraceJob>,
    /// Interval length in seconds.
    pub duration: u64,
}

impl Trace {
    /// Build a trace, sorting the jobs by submission time and re-numbering
    /// them densely.
    pub fn new(mut jobs: Vec<TraceJob>, duration: u64) -> Self {
        jobs.sort_by_key(|j| (j.submit_time, j.id));
        for (i, j) in jobs.iter_mut().enumerate() {
            j.id = i;
        }
        Trace { jobs, duration }
    }

    /// Number of jobs in the trace.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Total work carried by the trace, in core-seconds.
    pub fn total_core_seconds(&self) -> f64 {
        self.jobs.iter().map(TraceJob::core_seconds).sum()
    }

    /// Convert every job to an RJMS submission, in submission order.
    pub fn to_submissions(&self) -> Vec<JobSubmission> {
        self.jobs.iter().map(TraceJob::to_submission).collect()
    }

    /// The sub-trace of jobs submitted within `[start, end)`, with times
    /// shifted so the window starts at zero (the paper's interval
    /// extraction).
    pub fn extract_window(&self, start: u64, end: u64) -> Trace {
        let jobs = self
            .jobs
            .iter()
            .filter(|j| j.submit_time >= start && j.submit_time < end)
            .map(|j| TraceJob {
                submit_time: j.submit_time - start,
                ..j.clone()
            })
            .collect();
        Trace::new(jobs, end - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: usize, submit: u64, run: u64, cores: u32, req: u64) -> TraceJob {
        TraceJob {
            id,
            submit_time: submit,
            run_time: run,
            cores,
            requested_time: req,
            user: id % 3,
            app_class: 0,
        }
    }

    #[test]
    fn trace_sorts_and_renumbers() {
        let t = Trace::new(
            vec![job(7, 300, 60, 32, 600), job(2, 100, 60, 32, 600)],
            3600,
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.jobs[0].submit_time, 100);
        assert_eq!(t.jobs[0].id, 0);
        assert_eq!(t.jobs[1].id, 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn overestimation_and_core_seconds() {
        let j = job(0, 0, 120, 512, 1_440_000);
        assert!((j.overestimation() - 12_000.0).abs() < 1e-9);
        assert_eq!(j.core_seconds(), 120.0 * 512.0);
        let zero = job(1, 0, 0, 16, 600);
        assert_eq!(zero.overestimation(), 600.0);
    }

    #[test]
    fn conversion_to_submission() {
        let j = job(3, 50, 90, 64, 3600);
        let s = j.to_submission();
        assert_eq!(s.submit_time, 50);
        assert_eq!(s.cores, 64);
        assert_eq!(s.walltime, 3600);
        assert_eq!(s.actual_runtime, 90);
        assert_eq!(s.app_class, Some(0));
        // Zero runtimes are clamped to one second so the simulator always has
        // a positive duration.
        let z = job(4, 0, 0, 16, 0);
        let s = z.to_submission();
        assert_eq!(s.actual_runtime, 1);
        assert_eq!(s.walltime, 1);
    }

    #[test]
    fn window_extraction_shifts_times() {
        let t = Trace::new(
            vec![
                job(0, 100, 60, 32, 600),
                job(1, 5000, 60, 32, 600),
                job(2, 9000, 60, 32, 600),
            ],
            10_000,
        );
        let w = t.extract_window(4000, 9000);
        assert_eq!(w.len(), 1);
        assert_eq!(w.jobs[0].submit_time, 1000);
        assert_eq!(w.duration, 5000);
        assert_eq!(t.total_core_seconds(), 3.0 * 60.0 * 32.0);
    }
}
