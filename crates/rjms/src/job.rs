//! Jobs: submissions, lifecycle states and accounting records.
//!
//! A job is submitted with a core count, a user-provided walltime (on Curie
//! users over-estimate it by four orders of magnitude on average, which the
//! synthetic trace reproduces) and an *actual* runtime measured at the
//! maximum CPU frequency. When the powercap scheduler starts a job at a lower
//! frequency, both the runtime and the walltime are stretched by the
//! degradation factor, exactly as the SLURM implementation adapts the
//! walltime (paper Section V).

use apc_power::Frequency;

use crate::mask::NodeMask;
use crate::time::SimTime;

/// Dense job identifier.
pub type JobId = usize;

/// What a user submits: the static description of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSubmission {
    /// Submitting user (index into the fair-share accounts).
    pub user: usize,
    /// Submission time.
    pub submit_time: SimTime,
    /// Number of cores requested.
    pub cores: u32,
    /// User-provided walltime estimate in seconds (over-estimated on Curie).
    pub walltime: SimTime,
    /// Actual runtime in seconds when executed at the maximum frequency.
    pub actual_runtime: SimTime,
    /// Workload class tag (indexes `apc_power::BenchmarkApp::ALL`; `None`
    /// means "unknown/average application").
    pub app_class: Option<u8>,
}

impl JobSubmission {
    /// Build a submission with the mandatory fields.
    pub fn new(
        user: usize,
        submit_time: SimTime,
        cores: u32,
        walltime: SimTime,
        actual_runtime: SimTime,
    ) -> Self {
        JobSubmission {
            user,
            submit_time,
            cores,
            walltime,
            actual_runtime,
            app_class: None,
        }
    }

    /// Attach an application class (builder style).
    pub fn with_app_class(mut self, class: u8) -> Self {
        self.app_class = Some(class);
        self
    }
}

/// Lifecycle state of a job inside the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the pending queue.
    Pending,
    /// Dispatched and running on its allocated nodes.
    Running,
    /// Finished normally.
    Completed,
    /// Killed by the controller (powercap "extreme actions") or cancelled.
    Killed,
}

/// How a job left the system (recorded in the accounting log).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran to completion.
    Completed,
    /// Killed before completion.
    Killed,
    /// Still pending or running when the replayed interval ended.
    Unfinished,
}

/// A job tracked by the controller.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Identifier assigned at submission.
    pub id: JobId,
    /// The original submission.
    pub submission: JobSubmission,
    /// Lifecycle state.
    pub state: JobState,
    /// Nodes allocated to the job while running (empty while pending;
    /// retained after completion for inspection). `nodes.len()` is the
    /// node count — an O(1) cached popcount.
    pub nodes: NodeMask,
    /// CPU frequency the job was started at (None while pending).
    pub frequency: Option<Frequency>,
    /// Start time, when started.
    pub start_time: Option<SimTime>,
    /// End time (completion or kill), when finished.
    pub end_time: Option<SimTime>,
    /// Runtime after DVFS stretching (equals `actual_runtime` at fmax).
    pub stretched_runtime: Option<SimTime>,
    /// Walltime after DVFS stretching (the limit enforced by the controller).
    pub stretched_walltime: Option<SimTime>,
}

impl Job {
    /// Wrap a submission into a pending job.
    pub fn new(id: JobId, submission: JobSubmission) -> Self {
        Job {
            id,
            submission,
            state: JobState::Pending,
            nodes: NodeMask::default(),
            frequency: None,
            start_time: None,
            end_time: None,
            stretched_runtime: None,
            stretched_walltime: None,
        }
    }

    /// Cores requested by the job.
    #[inline]
    pub fn cores(&self) -> u32 {
        self.submission.cores
    }

    /// Number of whole nodes needed given `cores_per_node` (exclusive node
    /// allocation, the dominant mode on Curie).
    pub fn nodes_needed(&self, cores_per_node: u32) -> usize {
        debug_assert!(cores_per_node > 0);
        (self.submission.cores as usize).div_ceil(cores_per_node as usize)
    }

    /// Is the job waiting to be scheduled?
    #[inline]
    pub fn is_pending(&self) -> bool {
        self.state == JobState::Pending
    }

    /// Is the job currently running?
    #[inline]
    pub fn is_running(&self) -> bool {
        self.state == JobState::Running
    }

    /// Has the job reached a terminal state?
    #[inline]
    pub fn is_finished(&self) -> bool {
        matches!(self.state, JobState::Completed | JobState::Killed)
    }

    /// Time spent waiting in the queue (up to `now` for pending jobs).
    pub fn wait_time(&self, now: SimTime) -> SimTime {
        let reference = self.start_time.unwrap_or(now);
        reference.saturating_sub(self.submission.submit_time)
    }

    /// The time at which the job will release its nodes if it runs to
    /// completion (start + stretched runtime). `None` while pending.
    pub fn expected_end(&self) -> Option<SimTime> {
        Some(self.start_time? + self.stretched_runtime?)
    }

    /// The latest time the controller would let the job run to (start +
    /// stretched walltime). Used by backfilling, which only trusts walltimes.
    pub fn walltime_end(&self) -> Option<SimTime> {
        Some(self.start_time? + self.stretched_walltime?)
    }

    /// Core-seconds of useful work delivered inside the window
    /// `[window_start, window_end)` — the "work" metric of the paper's
    /// Fig. 8. Work is counted over the job's actual execution span clipped
    /// to the window, scaled by the core count.
    pub fn work_within(&self, window_start: SimTime, window_end: SimTime) -> f64 {
        let (Some(start), Some(runtime)) = (self.start_time, self.stretched_runtime) else {
            return 0.0;
        };
        let end = self.end_time.unwrap_or(start + runtime).min(window_end);
        let start = start.max(window_start);
        if end <= start {
            return 0.0;
        }
        (end - start) as f64 * self.submission.cores as f64
    }

    /// The outcome recorded for the accounting report.
    pub fn outcome(&self) -> JobOutcome {
        match self.state {
            JobState::Completed => JobOutcome::Completed,
            JobState::Killed => JobOutcome::Killed,
            JobState::Pending | JobState::Running => JobOutcome::Unfinished,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submission() -> JobSubmission {
        JobSubmission::new(3, 1000, 512, 7200, 120)
    }

    #[test]
    fn nodes_needed_rounds_up() {
        let job = Job::new(0, submission());
        assert_eq!(job.nodes_needed(16), 32);
        let odd = Job::new(1, JobSubmission::new(0, 0, 17, 60, 30));
        assert_eq!(odd.nodes_needed(16), 2);
        let one = Job::new(2, JobSubmission::new(0, 0, 1, 60, 30));
        assert_eq!(one.nodes_needed(16), 1);
    }

    #[test]
    fn lifecycle_predicates() {
        let mut job = Job::new(0, submission());
        assert!(job.is_pending());
        assert!(!job.is_running());
        assert!(!job.is_finished());
        job.state = JobState::Running;
        assert!(job.is_running());
        job.state = JobState::Completed;
        assert!(job.is_finished());
        assert_eq!(job.outcome(), JobOutcome::Completed);
        job.state = JobState::Killed;
        assert_eq!(job.outcome(), JobOutcome::Killed);
    }

    #[test]
    fn wait_time_uses_start_or_now() {
        let mut job = Job::new(0, submission());
        assert_eq!(job.wait_time(1500), 500);
        job.start_time = Some(4000);
        assert_eq!(job.wait_time(9999), 3000);
        // A pending job whose submission is still in the future (initial-state
        // jobs) saturates at zero.
        let early = Job::new(1, JobSubmission::new(0, 50, 1, 10, 5));
        assert_eq!(early.wait_time(20), 0);
    }

    #[test]
    fn expected_end_and_walltime_end() {
        let mut job = Job::new(0, submission());
        assert_eq!(job.expected_end(), None);
        job.start_time = Some(2000);
        job.stretched_runtime = Some(150);
        job.stretched_walltime = Some(9000);
        assert_eq!(job.expected_end(), Some(2150));
        assert_eq!(job.walltime_end(), Some(11000));
    }

    #[test]
    fn work_within_window_clipping() {
        let mut job = Job::new(0, submission());
        job.start_time = Some(100);
        job.stretched_runtime = Some(100);
        job.end_time = Some(200);
        // Fully inside.
        assert_eq!(job.work_within(0, 1000), 100.0 * 512.0);
        // Clipped at both ends.
        assert_eq!(job.work_within(150, 175), 25.0 * 512.0);
        // Outside.
        assert_eq!(job.work_within(300, 400), 0.0);
        assert_eq!(job.work_within(0, 100), 0.0);
        // Pending job contributes nothing.
        let pending = Job::new(1, submission());
        assert_eq!(pending.work_within(0, 1000), 0.0);
    }

    #[test]
    fn app_class_builder() {
        let s = submission().with_app_class(2);
        assert_eq!(s.app_class, Some(2));
    }
}
