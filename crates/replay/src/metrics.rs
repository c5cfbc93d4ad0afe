//! Metrics reconstruction: utilisation/power time series and normalised
//! outcomes.
//!
//! Figures 6 and 7 of the paper plot, over the replayed interval, the number
//! of cores computing at each CPU frequency (stacked areas, with switched-off
//! cores cross-hatched) and the corresponding power consumption. Figure 8
//! compares scenarios through three normalised quantities: total consumed
//! energy, number of launched jobs, and accumulated work.
//!
//! All three are rebuilt here from the controller's simulation log and power
//! accounting — the replay never instruments scheduler internals.

use std::collections::BTreeMap;

use apc_power::{Joules, Watts};
use apc_rjms::cluster::Platform;
use apc_rjms::controller::SimulationReport;
use apc_rjms::log::{SimEventKind, SimLog};
use apc_rjms::time::SimTime;
use apc_workload::Trace;

/// Cores in each state at one instant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UtilizationSample {
    /// Sample time.
    pub time: SimTime,
    /// Busy cores per CPU frequency (MHz key), matching the stacked areas of
    /// Figures 6 and 7.
    pub busy_cores_by_freq: BTreeMap<u32, u64>,
    /// Cores belonging to switched-off nodes (the cross-hatched area).
    pub off_cores: u64,
}

impl UtilizationSample {
    /// Total busy cores across all frequencies.
    pub fn busy_cores(&self) -> u64 {
        self.busy_cores_by_freq.values().sum()
    }
}

/// Step-function time series of core states.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UtilizationSeries {
    samples: Vec<UtilizationSample>,
    total_cores: u64,
}

impl UtilizationSeries {
    /// Reconstruct the series from a simulation log.
    pub fn from_log(log: &SimLog, platform: &Platform) -> Self {
        let cores_per_node = platform.cores_per_node as u64;
        let mut samples: Vec<UtilizationSample> = Vec::new();
        let mut by_freq: BTreeMap<u32, i64> = BTreeMap::new();
        let mut off_nodes: i64 = 0;
        let mut job_freq: BTreeMap<usize, (u32, u32)> = BTreeMap::new(); // job -> (cores, mhz)

        let push = |time: SimTime,
                    by_freq: &BTreeMap<u32, i64>,
                    off_nodes: i64,
                    samples: &mut Vec<UtilizationSample>| {
            let sample = UtilizationSample {
                time,
                busy_cores_by_freq: by_freq
                    .iter()
                    .filter(|(_, &v)| v > 0)
                    .map(|(&k, &v)| (k, v as u64))
                    .collect(),
                off_cores: (off_nodes.max(0) as u64) * cores_per_node,
            };
            if let Some(last) = samples.last_mut() {
                if last.time == time {
                    *last = sample;
                    return;
                }
            }
            samples.push(sample);
        };

        for event in log.events() {
            match &event.kind {
                SimEventKind::JobStarted {
                    job,
                    cores,
                    frequency,
                    ..
                } => {
                    let mhz = frequency.as_mhz();
                    *by_freq.entry(mhz).or_insert(0) += i64::from(*cores);
                    job_freq.insert(*job, (*cores, mhz));
                    push(event.time, &by_freq, off_nodes, &mut samples);
                }
                SimEventKind::JobCompleted { job, .. } | SimEventKind::JobKilled { job, .. } => {
                    if let Some((cores, mhz)) = job_freq.remove(job) {
                        *by_freq.entry(mhz).or_insert(0) -= i64::from(cores);
                        push(event.time, &by_freq, off_nodes, &mut samples);
                    }
                }
                SimEventKind::NodesPoweredOff { nodes } => {
                    off_nodes += nodes.len() as i64;
                    push(event.time, &by_freq, off_nodes, &mut samples);
                }
                SimEventKind::NodesPoweredOn { nodes } => {
                    off_nodes -= nodes.len() as i64;
                    push(event.time, &by_freq, off_nodes, &mut samples);
                }
                _ => {}
            }
        }
        UtilizationSeries {
            samples,
            total_cores: platform.total_cores(),
        }
    }

    /// The raw step-change samples.
    pub fn samples(&self) -> &[UtilizationSample] {
        &self.samples
    }

    /// Total core count of the platform.
    pub fn total_cores(&self) -> u64 {
        self.total_cores
    }

    /// The state at instant `t` (the last change at or before `t`).
    pub fn at(&self, t: SimTime) -> UtilizationSample {
        let idx = self.samples.partition_point(|s| s.time <= t);
        if idx == 0 {
            UtilizationSample {
                time: t,
                ..UtilizationSample::default()
            }
        } else {
            let mut s = self.samples[idx - 1].clone();
            s.time = t;
            s
        }
    }

    /// Resample the series at a fixed `step` over `[0, horizon]` — the form
    /// used to print/plot Figures 6 and 7.
    pub fn resample(&self, horizon: SimTime, step: SimTime) -> Vec<UtilizationSample> {
        assert!(step > 0);
        (0..=horizon / step).map(|i| self.at(i * step)).collect()
    }

    /// Mean utilisation (busy cores / total cores) over `[0, horizon]`,
    /// integrating the step function exactly.
    pub fn mean_utilization(&self, horizon: SimTime) -> f64 {
        if self.total_cores == 0 || horizon == 0 {
            return 0.0;
        }
        let mut busy_core_seconds = 0.0;
        let mut last_time = 0u64;
        let mut last_busy = 0u64;
        for s in &self.samples {
            if s.time >= horizon {
                break;
            }
            busy_core_seconds += last_busy as f64 * (s.time - last_time) as f64;
            last_time = s.time;
            last_busy = s.busy_cores();
        }
        busy_core_seconds += last_busy as f64 * (horizon - last_time) as f64;
        busy_core_seconds / (self.total_cores as f64 * horizon as f64)
    }
}

/// Power time series (taken straight from the power accountant's samples).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PowerSeries {
    /// `(time, watts)` change points.
    pub samples: Vec<(SimTime, Watts)>,
}

impl PowerSeries {
    /// Build from the accountant's sample log.
    pub fn from_samples(samples: &[apc_power::PowerSample]) -> Self {
        PowerSeries {
            samples: samples.iter().map(|s| (s.time, s.power)).collect(),
        }
    }

    /// Power at instant `t`.
    pub fn at(&self, t: SimTime) -> Watts {
        let idx = self.samples.partition_point(|s| s.0 <= t);
        if idx == 0 {
            Watts::ZERO
        } else {
            self.samples[idx - 1].1
        }
    }

    /// Peak power inside `[start, end)`: the level the cluster held at
    /// `start` maxed with the level it settled at after each change
    /// instant inside the window — the largest [`at`](Self::at) over `start`
    /// and those instants.
    ///
    /// Several changes at one instant (a job ending as the next starts, a
    /// node powering off) leave one sample each, but only the last is a
    /// level the cluster held; the intermediate ones last no time and are
    /// not peaks.
    ///
    /// The samples are change points in nondecreasing time order, so the
    /// window is located by binary search — multi-window campaign cells
    /// query many windows against the same series, and a full scan per call
    /// made that O(windows × samples).
    pub fn peak_within(&self, start: SimTime, end: SimTime) -> Watts {
        // `at(start)` already covers the instant `start` itself; the window
        // slice then holds whole instants, as no instant straddles either
        // boundary.
        let lo = self.samples.partition_point(|s| s.0 <= start);
        let hi = lo + self.samples[lo..].partition_point(|s| s.0 < end);
        self.samples[lo..hi]
            .chunk_by(|a, b| a.0 == b.0)
            .map(|instant| instant[instant.len() - 1].1)
            .fold(self.at(start), Watts::max)
    }

    /// Resample at a fixed step.
    pub fn resample(&self, horizon: SimTime, step: SimTime) -> Vec<(SimTime, Watts)> {
        assert!(step > 0);
        (0..=horizon / step)
            .map(|i| (i * step, self.at(i * step)))
            .collect()
    }
}

/// The normalised outcome triple of the paper's Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalizedOutcome {
    /// Total consumed energy.
    pub energy: Joules,
    /// Energy normalised by the energy of a cluster running flat-out for the
    /// whole interval (the "maximal possible value").
    pub energy_normalized: f64,
    /// Number of jobs started during the interval.
    pub launched_jobs: usize,
    /// Launched jobs normalised by the number of jobs in the trace.
    pub launched_jobs_normalized: f64,
    /// Work (core-seconds) delivered during the interval.
    pub work_core_seconds: f64,
    /// Work normalised by the interval's total core capacity.
    pub work_normalized: f64,
}

impl NormalizedOutcome {
    /// Compute the triple from a simulation report.
    pub fn from_report(report: &SimulationReport, platform: &Platform, trace: &Trace) -> Self {
        let horizon = report.horizon.max(1);
        let max_energy = platform.max_power().over_seconds(horizon);
        let capacity = platform.total_cores() as f64 * horizon as f64;
        NormalizedOutcome {
            energy: report.energy,
            energy_normalized: report.energy.as_joules() / max_energy.as_joules(),
            launched_jobs: report.launched_jobs,
            launched_jobs_normalized: report.launched_jobs as f64 / trace.len().max(1) as f64,
            work_core_seconds: report.work_core_seconds,
            work_normalized: report.work_core_seconds / capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_power::{Frequency, PowerSample};

    fn platform() -> Platform {
        Platform::curie_scaled(1)
    }

    fn log_with_activity() -> SimLog {
        let mut log = SimLog::new();
        log.push(0, SimEventKind::JobSubmitted { job: 0, cores: 160 });
        log.push(
            10,
            SimEventKind::JobStarted {
                job: 0,
                cores: 160,
                nodes: 10,
                frequency: Frequency::from_ghz(2.7),
            },
        );
        log.push(
            20,
            SimEventKind::JobStarted {
                job: 1,
                cores: 320,
                nodes: 20,
                frequency: Frequency::from_ghz(2.0),
            },
        );
        log.push(
            30,
            SimEventKind::NodesPoweredOff {
                nodes: vec![80, 81],
            },
        );
        log.push(
            100,
            SimEventKind::JobCompleted {
                job: 0,
                cores: 160,
                frequency: Frequency::from_ghz(2.7),
            },
        );
        log.push(
            150,
            SimEventKind::NodesPoweredOn {
                nodes: vec![80, 81],
            },
        );
        log.push(
            200,
            SimEventKind::JobKilled {
                job: 1,
                cores: 320,
                frequency: Frequency::from_ghz(2.0),
            },
        );
        log
    }

    #[test]
    fn utilization_series_tracks_frequencies_and_off_nodes() {
        let series = UtilizationSeries::from_log(&log_with_activity(), &platform());
        assert_eq!(series.total_cores(), 1440);
        // At t=25 both jobs run at their frequencies.
        let s = series.at(25);
        assert_eq!(s.busy_cores_by_freq[&2700], 160);
        assert_eq!(s.busy_cores_by_freq[&2000], 320);
        assert_eq!(s.busy_cores(), 480);
        assert_eq!(s.off_cores, 0);
        // After the power-off two nodes (32 cores) are dark.
        assert_eq!(series.at(40).off_cores, 32);
        // After job 0 completes only the 2.0 GHz job remains.
        let s = series.at(120);
        assert!(!s.busy_cores_by_freq.contains_key(&2700));
        assert_eq!(s.busy_cores(), 320);
        // After the kill nothing runs and nothing is off.
        let s = series.at(250);
        assert_eq!(s.busy_cores(), 0);
        assert_eq!(s.off_cores, 0);
        // Before any event the cluster is empty.
        assert_eq!(series.at(5).busy_cores(), 0);
    }

    #[test]
    fn resample_and_mean_utilization() {
        let series = UtilizationSeries::from_log(&log_with_activity(), &platform());
        let resampled = series.resample(200, 50);
        assert_eq!(resampled.len(), 5);
        assert_eq!(resampled[0].time, 0);
        assert_eq!(resampled[4].time, 200);
        let mean = series.mean_utilization(200);
        // Exact integral: 160 cores for [10,20), 480 for [20,100), 320 for
        // [100,200) => (1600 + 38400 + 32000) / (1440*200).
        let expected = (1600.0 + 38_400.0 + 32_000.0) / (1440.0 * 200.0);
        assert!((mean - expected).abs() < 1e-9, "{mean} vs {expected}");
        assert_eq!(series.mean_utilization(0), 0.0);
    }

    #[test]
    fn power_series_lookup_and_peak() {
        let series = PowerSeries::from_samples(&[
            PowerSample {
                time: 0,
                power: Watts(100.0),
            },
            PowerSample {
                time: 50,
                power: Watts(300.0),
            },
            PowerSample {
                time: 100,
                power: Watts(200.0),
            },
        ]);
        assert_eq!(series.at(0), Watts(100.0));
        assert_eq!(series.at(75), Watts(300.0));
        assert_eq!(series.at(500), Watts(200.0));
        assert_eq!(series.peak_within(0, 60), Watts(300.0));
        assert_eq!(series.peak_within(60, 90), Watts(300.0), "level carried in");
        assert_eq!(series.peak_within(100, 200), Watts(200.0));
        let resampled = series.resample(100, 25);
        assert_eq!(resampled.len(), 5);
        assert_eq!(resampled[2].1, Watts(300.0));
    }

    /// Regression for the binary-searched `peak_within`: a degenerate
    /// window (`start == end`) contains no change points and must return
    /// the level carried in at `start` — exactly what the full-scan seed
    /// implementation returned.
    #[test]
    fn peak_within_degenerate_window_returns_the_carried_level() {
        let series = PowerSeries::from_samples(&[
            PowerSample {
                time: 0,
                power: Watts(100.0),
            },
            PowerSample {
                time: 50,
                power: Watts(300.0),
            },
            PowerSample {
                time: 100,
                power: Watts(200.0),
            },
        ]);
        // On a change point, between change points, and before the series.
        assert_eq!(series.peak_within(50, 50), Watts(300.0));
        assert_eq!(series.peak_within(75, 75), Watts(300.0));
        assert_eq!(series.peak_within(200, 200), Watts(200.0));
        let empty = PowerSeries::default();
        assert_eq!(empty.peak_within(10, 10), Watts::ZERO);
        // And the binary-searched window agrees with a full scan everywhere.
        for start in 0..120 {
            for end in start..=120 {
                let scanned = series
                    .samples
                    .iter()
                    .filter(|(t, _)| *t >= start && *t < end)
                    .map(|(_, p)| *p)
                    .fold(series.at(start), Watts::max);
                assert_eq!(
                    series.peak_within(start, end),
                    scanned,
                    "window [{start}, {end})"
                );
            }
        }
    }

    /// Only the level settled after the last change of an instant counts:
    /// the intermediate samples of an instant, inside the window or at
    /// `start`, are levels the cluster never held.
    #[test]
    fn peak_within_ignores_the_intermediate_samples_of_an_instant() {
        let series = PowerSeries::from_samples(&[
            PowerSample {
                time: 0,
                power: Watts(100.0),
            },
            PowerSample {
                time: 10,
                power: Watts(900.0),
            },
            PowerSample {
                time: 10,
                power: Watts(200.0),
            },
            PowerSample {
                time: 20,
                power: Watts(800.0),
            },
            PowerSample {
                time: 20,
                power: Watts(300.0),
            },
            PowerSample {
                time: 30,
                power: Watts(150.0),
            },
        ]);
        // Two changes at `start` and two inside the window.
        assert_eq!(series.peak_within(10, 30), Watts(300.0));
        assert_eq!(series.peak_within(10, 20), Watts(200.0));
        assert_eq!(series.peak_within(0, 30), Watts(300.0));
        assert_eq!(series.peak_within(5, 40), Watts(300.0));
        assert_eq!(series.peak_within(25, 40), Watts(300.0));
    }

    #[test]
    fn normalized_outcome_bounds() {
        let platform = platform();
        let trace = apc_workload::CurieTraceGenerator::new(1)
            .load_factor(0.2)
            .backlog_factor(0.1)
            .generate_for(&platform);
        let report = SimulationReport {
            horizon: 18_000,
            launched_jobs: trace.len() / 2,
            completed_jobs: trace.len() / 2,
            killed_jobs: 0,
            pending_jobs: trace.len() - trace.len() / 2,
            work_core_seconds: 1440.0 * 18_000.0 * 0.5,
            energy: platform.max_power().over_seconds(18_000) * 0.4,
            mean_wait_seconds: 10.0,
        };
        let outcome = NormalizedOutcome::from_report(&report, &platform, &trace);
        assert!((outcome.work_normalized - 0.5).abs() < 1e-9);
        assert!((outcome.energy_normalized - 0.4).abs() < 1e-9);
        let expected_jobs = (trace.len() / 2) as f64 / trace.len() as f64;
        assert!((outcome.launched_jobs_normalized - expected_jobs).abs() < 1e-9);
    }
}
