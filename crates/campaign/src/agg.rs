//! Streaming result aggregation.
//!
//! Workers reduce each heavy [`ReplayOutcome`](apc_replay::ReplayOutcome)
//! (simulation log + time series) to a flat [`CellRow`] *inside the worker
//! thread*, immediately after the replay finishes — only rows ever cross the
//! channel and only rows are retained, so a campaign's resident footprint is
//! proportional to the number of cells, not to the size of the simulations.
//!
//! [`summarize`] then folds the rows, grouped over the seed axis, into
//! across-replication mean / min / max / stddev [`SummaryRow`]s. Rows are
//! always folded in cell-index order, so every float accumulation is
//! order-stable and the summaries are byte-identical for any thread count.

use apc_replay::metrics::{NormalizedOutcome, PowerSeries};
use apc_replay::{ReplayOutcome, ReplaySummary, SimulationReport};

use crate::spec::CampaignCell;

/// The flat per-cell result record (one CSV/JSON row).
#[derive(Debug, Clone, PartialEq)]
pub struct CellRow {
    /// Cell index in expansion order.
    pub index: usize,
    /// Platform scale in racks.
    pub racks: usize,
    /// Workload label ("smalljob", "medianjob", "bigjob", "24h" or "swf").
    pub workload: String,
    /// Generator seed; `None` for a fixed trace (rendered as an empty
    /// field, so an SWF row can never masquerade as a synthetic `seed=0`
    /// replication).
    pub seed: Option<u64>,
    /// Generator arrival load factor; `NaN` for a fixed trace (rendered as
    /// an empty field).
    pub load_factor: f64,
    /// Scenario label, e.g. "60%/SHUT" or "100%/None".
    pub scenario: String,
    /// Cap-window label (`start+duration` pairs joined with `|`, `"-"` for
    /// the baseline) — see [`Scenario::window_label`](apc_replay::Scenario::window_label).
    pub window: String,
    /// Policy name ("none", "shut", "dvfs", "mix").
    pub policy: String,
    /// Cap as a percentage of maximum power (100 for the baseline and for
    /// schedules given segment by segment) — see
    /// [`Scenario::cap_percent`](apc_replay::Scenario::cap_percent).
    pub cap_percent: f64,
    /// Grouping strategy name.
    pub grouping: String,
    /// Decision rule name.
    pub decision_rule: String,
    /// Cap-schedule label (`start+duration@percent` pairs joined with `|`,
    /// `"-"` for uniform caps and the baseline) — see
    /// [`Scenario::schedule_label`](apc_replay::Scenario::schedule_label).
    pub schedule: String,
    /// Fault-plan label (`COUNTxDURATION@SEED`, `"-"` for fault-free
    /// scenarios) — see
    /// [`Scenario::fault_label`](apc_replay::Scenario::fault_label).
    pub faults: String,
    /// Jobs started during the interval.
    pub launched_jobs: usize,
    /// Jobs run to completion.
    pub completed_jobs: usize,
    /// Jobs killed by the controller.
    pub killed_jobs: usize,
    /// Jobs still pending at the horizon.
    pub pending_jobs: usize,
    /// Useful work delivered, in core-seconds.
    pub work_core_seconds: f64,
    /// Total energy, in joules.
    pub energy_joules: f64,
    /// Energy normalised by the flat-out maximum (Fig. 8).
    pub energy_normalized: f64,
    /// Launched jobs normalised by the trace size (Fig. 8).
    pub launched_jobs_normalized: f64,
    /// Work normalised by the interval capacity (Fig. 8).
    pub work_normalized: f64,
    /// Mean queue wait of started jobs, in seconds.
    pub mean_wait_seconds: f64,
    /// Peak power inside the cap window (whole interval for the baseline).
    pub peak_power_watts: f64,
}

impl CellRow {
    /// Reduce a full replay outcome to its flat row.
    pub fn from_outcome(cell: &CampaignCell, outcome: &ReplayOutcome) -> Self {
        Self::from_parts(cell, &outcome.report, &outcome.normalized, &outcome.power)
    }

    /// Reduce a lean [`ReplaySummary`] to its flat row — the campaign
    /// executor's per-cell path (the summary carries exactly the fields a
    /// row reads, so no utilisation series or log is ever built).
    pub fn from_summary(cell: &CampaignCell, summary: &ReplaySummary) -> Self {
        Self::from_parts(cell, &summary.report, &summary.normalized, &summary.power)
    }

    fn from_parts(
        cell: &CampaignCell,
        report: &SimulationReport,
        normalized: &NormalizedOutcome,
        power: &PowerSeries,
    ) -> Self {
        let scenario = &cell.scenario;
        let duration_end = report.horizon;
        // Peak power inside the cap windows (the max across them for a
        // multi-window scenario); whole interval for the baseline.
        let peak_power_watts = scenario
            .windows()
            .map(|w| power.peak_within(w.start, w.end).as_watts())
            .reduce(f64::max)
            .unwrap_or_else(|| power.peak_within(0, duration_end).as_watts());
        CellRow {
            index: cell.index,
            racks: cell.racks,
            workload: cell.workload.label().to_string(),
            seed: cell.workload.seed(),
            load_factor: cell.workload.load_factor().unwrap_or(f64::NAN),
            scenario: scenario.label(),
            window: scenario.window_label(),
            policy: scenario.policy.name().to_ascii_lowercase(),
            cap_percent: scenario.cap_percent(),
            grouping: scenario.grouping.name().to_string(),
            decision_rule: scenario.decision_rule.name().to_string(),
            schedule: scenario.schedule_label(),
            faults: scenario.fault_label(),
            launched_jobs: report.launched_jobs,
            completed_jobs: report.completed_jobs,
            killed_jobs: report.killed_jobs,
            pending_jobs: report.pending_jobs,
            work_core_seconds: report.work_core_seconds,
            energy_joules: report.energy.as_joules(),
            energy_normalized: normalized.energy_normalized,
            launched_jobs_normalized: normalized.launched_jobs_normalized,
            work_normalized: normalized.work_normalized,
            mean_wait_seconds: report.mean_wait_seconds,
            peak_power_watts,
        }
    }

    /// Encode the row as one CSV record for the on-disk result store.
    ///
    /// Unlike the rendered `cells.csv` (which rounds floats to six decimals
    /// for human consumption), the store keeps every float in Rust's
    /// shortest round-trip `Display` form, so
    /// [`parse_store_line`](Self::parse_store_line) recovers the exact bit
    /// pattern and a resumed campaign aggregates the same values an
    /// uninterrupted one would. Non-finite values print as `NaN`/`inf`,
    /// which `f64::from_str` accepts back.
    pub fn to_store_line(&self) -> String {
        use crate::sink::csv_field;
        // Rows without schedule/fault labels keep the original 22-field
        // layout byte for byte; labelled rows append the two columns. The
        // parser accepts both, so stores written before the scenario-engine
        // refactor load unchanged.
        let labels = if self.schedule == "-" && self.faults == "-" {
            String::new()
        } else {
            format!(",{},{}", csv_field(&self.schedule), csv_field(&self.faults))
        };
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}{labels}",
            self.index,
            self.racks,
            csv_field(&self.workload),
            self.seed.map_or_else(String::new, |s| s.to_string()),
            self.load_factor,
            csv_field(&self.scenario),
            csv_field(&self.window),
            csv_field(&self.policy),
            self.cap_percent,
            csv_field(&self.grouping),
            csv_field(&self.decision_rule),
            self.launched_jobs,
            self.completed_jobs,
            self.killed_jobs,
            self.pending_jobs,
            self.work_core_seconds,
            self.energy_joules,
            self.energy_normalized,
            self.launched_jobs_normalized,
            self.work_normalized,
            self.mean_wait_seconds,
            self.peak_power_watts,
        )
    }

    /// Decode a store record written by [`to_store_line`](Self::to_store_line).
    ///
    /// Any malformed input — wrong field count, bad quoting, an unparsable
    /// number — is an error, never a panic: the store loader treats such
    /// lines (e.g. a row torn in half by a crash) as "cell not recorded".
    pub fn parse_store_line(line: &str) -> Result<CellRow, String> {
        let fields = crate::sink::split_csv_line(line)?;
        // 22 fields = a label-free row (possibly from a pre-refactor store);
        // 24 fields = a row carrying schedule/fault labels.
        if fields.len() != 22 && fields.len() != 24 {
            return Err(format!("expected 22 or 24 fields, got {}", fields.len()));
        }
        fn int(raw: &str, what: &str) -> Result<usize, String> {
            raw.parse()
                .map_err(|_| format!("bad {what} field: {raw:?}"))
        }
        fn float(raw: &str, what: &str) -> Result<f64, String> {
            raw.parse()
                .map_err(|_| format!("bad {what} field: {raw:?}"))
        }
        let seed = if fields[3].is_empty() {
            None
        } else {
            Some(
                fields[3]
                    .parse()
                    .map_err(|_| format!("bad seed field: {:?}", fields[3]))?,
            )
        };
        Ok(CellRow {
            index: int(&fields[0], "index")?,
            racks: int(&fields[1], "racks")?,
            workload: fields[2].clone(),
            seed,
            load_factor: float(&fields[4], "load_factor")?,
            scenario: fields[5].clone(),
            window: fields[6].clone(),
            policy: fields[7].clone(),
            cap_percent: float(&fields[8], "cap_percent")?,
            grouping: fields[9].clone(),
            decision_rule: fields[10].clone(),
            schedule: fields.get(22).cloned().unwrap_or_else(|| "-".to_string()),
            faults: fields.get(23).cloned().unwrap_or_else(|| "-".to_string()),
            launched_jobs: int(&fields[11], "launched_jobs")?,
            completed_jobs: int(&fields[12], "completed_jobs")?,
            killed_jobs: int(&fields[13], "killed_jobs")?,
            pending_jobs: int(&fields[14], "pending_jobs")?,
            work_core_seconds: float(&fields[15], "work_core_seconds")?,
            energy_joules: float(&fields[16], "energy_joules")?,
            energy_normalized: float(&fields[17], "energy_normalized")?,
            launched_jobs_normalized: float(&fields[18], "launched_jobs_normalized")?,
            work_normalized: float(&fields[19], "work_normalized")?,
            mean_wait_seconds: float(&fields[20], "mean_wait_seconds")?,
            peak_power_watts: float(&fields[21], "peak_power_watts")?,
        })
    }

    /// The across-seed grouping key: everything except the seed (and index).
    /// The exact cap and load bits are part of the key because the labels
    /// round — `--caps 59.6,60.4` must stay two groups even though both
    /// label as "60%/…" — and the workload *kind* (fixed vs synthetic) is
    /// explicit so an SWF row can never share a group with a synthetic one.
    fn group_key(&self) -> GroupKey {
        (
            self.racks,
            self.seed.is_none(),
            self.cap_percent.to_bits(),
            self.load_factor.to_bits(),
            self.workload.clone(),
            self.scenario.clone(),
            self.window.clone(),
            self.grouping.clone(),
            self.decision_rule.clone(),
            self.schedule.clone(),
            self.faults.clone(),
        )
    }
}

/// (racks, fixed-workload?, cap bits, load bits, workload, scenario, window,
/// grouping, decision rule, schedule, faults).
type GroupKey = (
    usize,
    bool,
    u64,
    u64,
    String,
    String,
    String,
    String,
    String,
    String,
    String,
);

/// Mean / min / max / standard deviation of one metric across seeds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricSummary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Population standard deviation (0 for a single replication).
    pub stddev: f64,
}

/// Running accumulator behind a [`MetricSummary`].
#[derive(Debug, Clone, Copy, Default)]
struct MetricAcc {
    n: usize,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
    saw_nan: bool,
}

impl MetricAcc {
    fn push(&mut self, v: f64) {
        // An undefined observation (e.g. mean wait of an interval that
        // launched nothing) poisons the whole group — see finish().
        if v.is_nan() {
            self.saw_nan = true;
        }
        if self.n == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.n += 1;
        self.sum += v;
        self.sum_sq += v * v;
    }

    fn finish(&self) -> MetricSummary {
        // All four statistics become NaN together if any observation was
        // NaN (the sinks render them as empty/null); `f64::min`/`max` skip
        // NaN and `.max(0.0)` would map a NaN variance to 0, so without
        // this a group could report a defined min/max/stddev next to an
        // undefined mean.
        if self.saw_nan {
            return MetricSummary {
                mean: f64::NAN,
                min: f64::NAN,
                max: f64::NAN,
                stddev: f64::NAN,
            };
        }
        let n = self.n.max(1) as f64;
        let mean = self.sum / n;
        let variance = (self.sum_sq / n - mean * mean).max(0.0);
        MetricSummary {
            mean,
            min: self.min,
            max: self.max,
            stddev: variance.sqrt(),
        }
    }
}

/// Across-seed statistics for one scenario of one workload at one scale.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRow {
    /// Platform scale in racks.
    pub racks: usize,
    /// Workload label.
    pub workload: String,
    /// Generator arrival load factor (`NaN` for a fixed trace; renders as
    /// an empty field, which also keeps an SWF group visibly distinct from
    /// any synthetic one).
    pub load_factor: f64,
    /// Scenario label.
    pub scenario: String,
    /// Cap-window label (`"-"` for the baseline).
    pub window: String,
    /// Exact cap percentage (100 for the baseline) — kept alongside the
    /// label because the label rounds to whole percents.
    pub cap_percent: f64,
    /// Grouping strategy name.
    pub grouping: String,
    /// Decision rule name.
    pub decision_rule: String,
    /// Cap-schedule label (`"-"` for uniform caps and the baseline).
    pub schedule: String,
    /// Fault-plan label (`"-"` for fault-free groups).
    pub faults: String,
    /// Number of seed replications folded in.
    pub replications: usize,
    /// Launched jobs across seeds.
    pub launched_jobs: MetricSummary,
    /// Normalised energy across seeds.
    pub energy_normalized: MetricSummary,
    /// Normalised work across seeds.
    pub work_normalized: MetricSummary,
    /// Mean wait time across seeds.
    pub mean_wait_seconds: MetricSummary,
    /// Peak power across seeds.
    pub peak_power_watts: MetricSummary,
}

/// Running accumulator for one summary group.
#[derive(Debug, Clone, Default)]
struct GroupAcc {
    replications: usize,
    launched_jobs: MetricAcc,
    energy_normalized: MetricAcc,
    work_normalized: MetricAcc,
    mean_wait_seconds: MetricAcc,
    peak_power_watts: MetricAcc,
}

/// Fold cell rows into across-seed summaries.
///
/// `rows` **must already be sorted by cell index** (the executor guarantees
/// this): groups appear in first-occurrence order and floats accumulate in a
/// fixed order, making the output independent of worker scheduling.
pub fn summarize(rows: &[CellRow]) -> Vec<SummaryRow> {
    debug_assert!(rows.windows(2).all(|w| w[0].index < w[1].index));
    let mut order: Vec<GroupKey> = Vec::new();
    let mut groups: std::collections::HashMap<GroupKey, GroupAcc> =
        std::collections::HashMap::new();
    for row in rows {
        let key = row.group_key();
        let acc = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            GroupAcc::default()
        });
        acc.replications += 1;
        acc.launched_jobs.push(row.launched_jobs as f64);
        acc.energy_normalized.push(row.energy_normalized);
        acc.work_normalized.push(row.work_normalized);
        acc.mean_wait_seconds.push(row.mean_wait_seconds);
        acc.peak_power_watts.push(row.peak_power_watts);
    }
    order
        .into_iter()
        .map(|key| {
            let acc = &groups[&key];
            let (
                racks,
                _fixed,
                cap_bits,
                load_bits,
                workload,
                scenario,
                window,
                grouping,
                decision_rule,
                schedule,
                faults,
            ) = key;
            SummaryRow {
                racks,
                workload,
                load_factor: f64::from_bits(load_bits),
                scenario,
                window,
                cap_percent: f64::from_bits(cap_bits),
                grouping,
                decision_rule,
                schedule,
                faults,
                replications: acc.replications,
                launched_jobs: acc.launched_jobs.finish(),
                energy_normalized: acc.energy_normalized.finish(),
                work_normalized: acc.work_normalized.finish(),
                mean_wait_seconds: acc.mean_wait_seconds.finish(),
                peak_power_watts: acc.peak_power_watts.finish(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(index: usize, seed: u64, scenario: &str, launched: usize, work: f64) -> CellRow {
        CellRow {
            index,
            racks: 1,
            workload: "medianjob".into(),
            seed: Some(seed),
            load_factor: 1.8,
            scenario: scenario.into(),
            window: "7200+3600".into(),
            policy: "shut".into(),
            cap_percent: 60.0,
            grouping: "grouped".into(),
            decision_rule: "paper-rho".into(),
            schedule: "-".into(),
            faults: "-".into(),
            launched_jobs: launched,
            completed_jobs: launched,
            killed_jobs: 0,
            pending_jobs: 0,
            work_core_seconds: work,
            energy_joules: 1.0,
            energy_normalized: 0.5,
            launched_jobs_normalized: 0.5,
            work_normalized: work / 100.0,
            mean_wait_seconds: 10.0,
            peak_power_watts: 100.0,
        }
    }

    #[test]
    fn summaries_group_across_seeds() {
        let rows = vec![
            row(0, 1, "60%/SHUT", 10, 40.0),
            row(1, 2, "60%/SHUT", 20, 60.0),
            row(2, 1, "40%/MIX", 5, 20.0),
        ];
        let summaries = summarize(&rows);
        assert_eq!(summaries.len(), 2);
        let shut = &summaries[0];
        assert_eq!(shut.scenario, "60%/SHUT");
        assert_eq!(shut.replications, 2);
        assert!((shut.launched_jobs.mean - 15.0).abs() < 1e-12);
        assert!((shut.launched_jobs.min - 10.0).abs() < 1e-12);
        assert!((shut.launched_jobs.max - 20.0).abs() < 1e-12);
        assert!((shut.launched_jobs.stddev - 5.0).abs() < 1e-12);
        let mix = &summaries[1];
        assert_eq!(mix.replications, 1);
        assert_eq!(mix.launched_jobs.stddev, 0.0);
        assert_eq!(mix.launched_jobs.min, mix.launched_jobs.max);
    }

    #[test]
    fn one_nan_observation_poisons_all_four_statistics() {
        let mut a = row(0, 1, "60%/SHUT", 10, 40.0);
        a.mean_wait_seconds = f64::NAN;
        let b = row(1, 2, "60%/SHUT", 12, 42.0);
        let summaries = summarize(&[a, b]);
        assert_eq!(summaries.len(), 1);
        let wait = &summaries[0].mean_wait_seconds;
        assert!(wait.mean.is_nan());
        assert!(wait.min.is_nan());
        assert!(wait.max.is_nan());
        assert!(wait.stddev.is_nan());
        // Other metrics of the same group are unaffected.
        assert!((summaries[0].launched_jobs.mean - 11.0).abs() < 1e-12);
    }

    #[test]
    fn caps_rounding_to_the_same_label_stay_separate_groups() {
        let mut a = row(0, 1, "60%/SHUT", 10, 40.0);
        a.cap_percent = 59.6;
        let mut b = row(1, 2, "60%/SHUT", 12, 42.0);
        b.cap_percent = 60.4;
        let summaries = summarize(&[a, b]);
        assert_eq!(summaries.len(), 2);
        assert!(summaries.iter().all(|s| s.replications == 1));
    }

    #[test]
    fn window_and_load_sweeps_stay_separate_groups() {
        // Same scenario label, different cap windows ⇒ two groups.
        let a = row(0, 1, "60%/SHUT", 10, 40.0);
        let mut b = row(1, 2, "60%/SHUT", 12, 42.0);
        b.window = "0+1800|16200+1800".into();
        let summaries = summarize(&[a.clone(), b]);
        assert_eq!(summaries.len(), 2);
        // Same everything, different load factor ⇒ two groups.
        let mut c = row(1, 2, "60%/SHUT", 12, 42.0);
        c.load_factor = 1.0;
        let summaries = summarize(&[a, c]);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].load_factor, 1.8);
        assert_eq!(summaries[1].load_factor, 1.0);
    }

    #[test]
    fn fixed_rows_never_group_with_synthetic_ones() {
        // Regression for the seed-conflation bug: a fixed-trace row (no
        // seed) must not fold into a synthetic group even if every label
        // matches — the workload kind is part of the key.
        let synthetic = row(0, 0, "60%/SHUT", 10, 40.0); // legitimate seed=0
        let mut fixed = row(1, 0, "60%/SHUT", 12, 42.0);
        fixed.seed = None;
        fixed.workload = synthetic.workload.clone();
        fixed.load_factor = synthetic.load_factor;
        let summaries = summarize(&[synthetic, fixed]);
        assert_eq!(summaries.len(), 2, "fixed and synthetic must stay apart");
        assert!(summaries.iter().all(|s| s.replications == 1));
    }

    #[test]
    fn store_codec_round_trips_exactly() {
        let mut r = row(42, 7, "60%/SHUT", 13, 123.456);
        // Values that 6-decimal rendering would mangle must survive the
        // store: shortest-Display round-trips are bit-exact.
        r.work_core_seconds = 0.1 + 0.2;
        r.energy_joules = 1.0 / 3.0;
        r.mean_wait_seconds = f64::NAN;
        r.peak_power_watts = f64::INFINITY;
        let line = r.to_store_line();
        let back = CellRow::parse_store_line(&line).unwrap();
        assert_eq!(back.index, r.index);
        assert_eq!(
            back.work_core_seconds.to_bits(),
            r.work_core_seconds.to_bits()
        );
        assert_eq!(back.energy_joules.to_bits(), r.energy_joules.to_bits());
        assert!(back.mean_wait_seconds.is_nan());
        assert_eq!(back.peak_power_watts, f64::INFINITY);
        assert_eq!(back.scenario, r.scenario);
        // Re-encoding is byte-stable.
        assert_eq!(back.to_store_line(), line);
        // A fixed-trace row (no seed, NaN load factor) round-trips too.
        let mut fixed = row(7, 0, "60%/SHUT", 3, 9.0);
        fixed.seed = None;
        fixed.load_factor = f64::NAN;
        fixed.workload = "swf".into();
        let line = fixed.to_store_line();
        let back = CellRow::parse_store_line(&line).unwrap();
        assert_eq!(back.seed, None);
        assert!(back.load_factor.is_nan());
        assert_eq!(back.to_store_line(), line);
    }

    #[test]
    fn store_codec_quotes_separator_carrying_labels() {
        let mut r = row(0, 1, "odd,\"label\"", 1, 1.0);
        r.workload = "a,b".into();
        let line = r.to_store_line();
        let back = CellRow::parse_store_line(&line).unwrap();
        assert_eq!(back.scenario, "odd,\"label\"");
        assert_eq!(back.workload, "a,b");
    }

    #[test]
    fn labelled_rows_round_trip_and_legacy_lines_still_parse() {
        // A row with schedule/fault labels appends two columns…
        let mut r = row(3, 1, "SCHED/SHUT", 5, 9.0);
        r.schedule = "0+7200@80|7200+10800@40".into();
        r.faults = "3x600@7".into();
        let line = r.to_store_line();
        assert_eq!(crate::sink::split_csv_line(&line).unwrap().len(), 24);
        let back = CellRow::parse_store_line(&line).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_store_line(), line);
        // …while a label-free row keeps the pre-refactor 22-field layout,
        // and a line from an old store (no label columns at all) parses
        // with "-" placeholders.
        let legacy = row(4, 1, "60%/SHUT", 5, 9.0);
        let line = legacy.to_store_line();
        assert_eq!(crate::sink::split_csv_line(&line).unwrap().len(), 22);
        let back = CellRow::parse_store_line(&line).unwrap();
        assert_eq!(back.schedule, "-");
        assert_eq!(back.faults, "-");
        assert_eq!(back, legacy);
    }

    #[test]
    fn schedule_and_fault_labels_split_summary_groups() {
        let a = row(0, 1, "SCHED/SHUT", 10, 40.0);
        let mut b = row(1, 2, "SCHED/SHUT", 12, 42.0);
        b.schedule = "0+7200@80".into();
        let mut c = row(2, 1, "SCHED/SHUT", 9, 39.0);
        c.faults = "2x600@7".into();
        let summaries = summarize(&[a, b, c]);
        assert_eq!(summaries.len(), 3);
        assert!(summaries.iter().all(|s| s.replications == 1));
        assert_eq!(summaries[1].schedule, "0+7200@80");
        assert_eq!(summaries[2].faults, "2x600@7");
    }

    #[test]
    fn store_codec_rejects_torn_lines() {
        let r = row(3, 1, "60%/SHUT", 5, 9.0);
        let line = r.to_store_line();
        // A crash can truncate the final record anywhere. Any prefix short
        // of the last separator must parse as an error, not a bogus row or
        // a panic. (A cut inside the very last numeric field can still
        // parse — which is why the store only trusts rows whose `done`
        // manifest entry, written *after* the row, is present.)
        let last_comma = line.rfind(',').unwrap();
        for cut in 0..=last_comma {
            assert!(
                CellRow::parse_store_line(&line[..cut]).is_err(),
                "prefix of length {cut} unexpectedly parsed"
            );
        }
        assert!(CellRow::parse_store_line("").is_err());
        assert!(CellRow::parse_store_line("not,a,row").is_err());
    }

    #[test]
    fn groups_appear_in_first_occurrence_order() {
        let rows = vec![
            row(0, 1, "B", 1, 1.0),
            row(1, 1, "A", 1, 1.0),
            row(2, 2, "B", 1, 1.0),
        ];
        let summaries = summarize(&rows);
        let labels: Vec<&str> = summaries.iter().map(|s| s.scenario.as_str()).collect();
        assert_eq!(labels, ["B", "A"]);
    }
}
