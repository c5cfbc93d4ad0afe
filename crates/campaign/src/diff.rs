//! Cross-campaign diffing of `summary.csv` files.
//!
//! Two campaigns over the **same grid** (same racks × workloads × scenarios
//! × ablation knobs) but different code revisions should agree row for row;
//! where they don't, the per-metric deltas are exactly the policy
//! regressions CI wants to catch. [`diff_summary_csv`] matches rows by
//! their identity columns and compares every numeric column;
//! [`DiffReport::breaches`] applies a relative-change threshold so noisy
//! metrics can be tolerated while real regressions still fail the build.
//!
//! The `campaign-diff` binary is a thin CLI over this module: exit 0 when
//! the grids match and no delta breaches the threshold, exit 1 otherwise.
//! With `--intersect` the grids may legitimately differ (e.g. a smoke
//! subset against the full campaign): only the common subgrid is judged
//! and [`DiffReport::coverage_summary`] reports what was left out.

use std::collections::BTreeMap;

use crate::agg::{Column, SUMMARY_KEY};
use crate::sink::split_csv_line;

/// One metric of one grid row whose value differs between the two files.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Human-readable row identity, e.g. `racks=2 workload=24h scenario=60%/SHUT …`.
    pub key: String,
    /// Column name, e.g. `work_normalized_mean`.
    pub metric: String,
    /// Value in the first (baseline) file; `NaN` for an empty field.
    pub a: f64,
    /// Value in the second (candidate) file.
    pub b: f64,
}

impl MetricDelta {
    /// Absolute change `b - a` (`NaN` when either side is undefined).
    pub fn delta(&self) -> f64 {
        self.b - self.a
    }

    /// Relative change in percent, against the baseline value.
    ///
    /// Defined-vs-undefined disagreements (`NaN` on one side, any
    /// non-finite flip like `inf -> 3.2`, and changes away from an exact
    /// zero baseline) report `inf` — they breach every finite threshold,
    /// which is the conservative reading of "the metric moved". Two `NaN`s
    /// compare as equal (0 %), whatever their provenance or payload bits.
    ///
    /// This function never returns `NaN`: the naive `(b - a) / a` formula
    /// would (e.g. `a = inf, b = 3.2` gives `-inf / inf = NaN`), and a `NaN`
    /// relative change silently passed every `>` threshold test — an
    /// infinite baseline regressing to a finite value slipped through
    /// `campaign-diff` unflagged.
    pub fn rel_percent(&self) -> f64 {
        if self.a.is_nan() && self.b.is_nan() {
            return 0.0;
        }
        if !self.a.is_finite() || !self.b.is_finite() {
            // inf == inf (same sign) is unchanged; any other pairing of
            // non-finite values is a defined-vs-undefined flip.
            return if self.a == self.b { 0.0 } else { f64::INFINITY };
        }
        if self.a == 0.0 {
            return if self.b == 0.0 { 0.0 } else { f64::INFINITY };
        }
        ((self.b - self.a) / self.a).abs() * 100.0
    }

    /// Does this delta exceed `threshold_percent`?
    ///
    /// Only a *defined* comparison showing `rel <= threshold` passes; an
    /// incomparable (NaN) relative change breaches. The old `rel > t` test
    /// had it backwards — `NaN > t` is `false` for every `t`, so
    /// NaN-producing deltas passed the diff silently.
    pub fn breaches(&self, threshold_percent: f64) -> bool {
        use std::cmp::Ordering;
        !matches!(
            self.rel_percent().partial_cmp(&threshold_percent),
            Some(Ordering::Less | Ordering::Equal)
        )
    }
}

/// Everything [`diff_summary_csv`] found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Number of grid rows present in both files.
    pub compared_rows: usize,
    /// Metrics whose values differ (bit-compared after parsing; two `NaN`s
    /// count as equal). Empty for identical campaigns.
    pub deltas: Vec<MetricDelta>,
    /// Row identities only the first file has.
    pub only_in_a: Vec<String>,
    /// Row identities only the second file has.
    pub only_in_b: Vec<String>,
}

impl DiffReport {
    /// Do the two files cover exactly the same grid rows?
    pub fn grid_matches(&self) -> bool {
        self.only_in_a.is_empty() && self.only_in_b.is_empty()
    }

    /// One-line coverage summary for intersect-mode diffs: how much of each
    /// grid was actually compared.
    ///
    /// Intersect mode (`campaign-diff --intersect`) deliberately compares
    /// partial grids — e.g. a full campaign against a cheap smoke subset —
    /// so "rows only in A" is expected, not an error. This line keeps the
    /// asymmetry visible so a diff that silently compared 3 of 3000 rows
    /// can't masquerade as a clean full-grid pass.
    pub fn coverage_summary(&self) -> String {
        format!(
            "coverage: {} common row(s); {} only in A, {} only in B\n",
            self.compared_rows,
            self.only_in_a.len(),
            self.only_in_b.len()
        )
    }

    /// Deltas whose relative change exceeds `threshold_percent` (including
    /// any whose relative change is undefined — see
    /// [`MetricDelta::breaches`]).
    pub fn breaches(&self, threshold_percent: f64) -> Vec<&MetricDelta> {
        self.deltas
            .iter()
            .filter(|d| d.breaches(threshold_percent))
            .collect()
    }

    /// Render the report as human-readable text (one line per finding).
    pub fn render(&self, threshold_percent: f64) -> String {
        let mut out = String::new();
        for key in &self.only_in_a {
            out.push_str(&format!("only in A: {key}\n"));
        }
        for key in &self.only_in_b {
            out.push_str(&format!("only in B: {key}\n"));
        }
        for d in &self.deltas {
            let breach = if d.breaches(threshold_percent) {
                "  ** breach"
            } else {
                ""
            };
            out.push_str(&format!(
                "{} {}: {} -> {} (delta {:+.6}, {:.3}%){breach}\n",
                d.key,
                d.metric,
                d.a,
                d.b,
                d.delta(),
                d.rel_percent(),
            ));
        }
        if out.is_empty() {
            out.push_str(&format!(
                "identical summaries: {} rows, no metric deltas\n",
                self.compared_rows
            ));
        }
        out
    }
}

/// One parsed summary file: row identity → (metric name → value).
type ParsedSummary = BTreeMap<String, BTreeMap<String, f64>>;

/// Parse a rendered `summary.csv` (header + data lines).
fn parse_summary_csv(which: &str, text: &str) -> Result<ParsedSummary, String> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| format!("{which} is empty — not a summary.csv"))?;
    let columns: Vec<&str> = header.split(',').collect();
    for key in SUMMARY_KEY.iter().filter(|c| !c.is_optional_label()) {
        if !columns.contains(&key.name()) {
            return Err(format!(
                "{which} has no {:?} column — not a summary.csv (header: {header})",
                key.name()
            ));
        }
    }
    // The summary key columns identify a row; the rest are metrics.
    // Legacy summaries don't render the optional label columns at all, and
    // labelled ones mark label-free rows with `-`; a `-` contributes nothing
    // to the key, so a legacy row and its label-free rendering under the
    // new schema have the same identity.
    let key_columns: Vec<Option<Column>> = columns
        .iter()
        .map(|name| SUMMARY_KEY.into_iter().find(|c| c.name() == *name))
        .collect();
    let mut rows = ParsedSummary::new();
    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let fields =
            split_csv_line(line).map_err(|e| format!("{which} line {}: {e}", lineno + 2))?;
        if fields.len() != columns.len() {
            return Err(format!(
                "{which} line {}: {} fields but {} header columns",
                lineno + 2,
                fields.len(),
                columns.len()
            ));
        }
        let mut key_parts = Vec::with_capacity(SUMMARY_KEY.len());
        let mut metrics = BTreeMap::new();
        for ((column, key), field) in columns.iter().zip(&key_columns).zip(&fields) {
            if let Some(key) = key {
                if !key.is_optional_label() || field != "-" {
                    key_parts.push(format!("{column}={field}"));
                }
            } else {
                // An empty field is a rendered NaN (e.g. the mean wait of
                // an interval that launched nothing).
                let value = if field.is_empty() {
                    f64::NAN
                } else {
                    field.parse().map_err(|_| {
                        format!("{which} line {}: bad {column} value {field:?}", lineno + 2)
                    })?
                };
                metrics.insert((*column).to_string(), value);
            }
        }
        let key = key_parts.join(" ");
        if rows.insert(key.clone(), metrics).is_some() {
            return Err(format!("{which} repeats grid row {key}"));
        }
    }
    Ok(rows)
}

/// Compare two rendered `summary.csv` texts from the same grid.
///
/// Errors on malformed input (not a summary.csv, torn lines, duplicate
/// rows); grid mismatches and metric deltas are reported in the
/// [`DiffReport`], not as errors.
pub fn diff_summary_csv(a_text: &str, b_text: &str) -> Result<DiffReport, String> {
    let a = parse_summary_csv("A", a_text)?;
    let b = parse_summary_csv("B", b_text)?;
    let mut report = DiffReport::default();
    for (key, a_metrics) in &a {
        let Some(b_metrics) = b.get(key) else {
            report.only_in_a.push(key.clone());
            continue;
        };
        report.compared_rows += 1;
        // Walk the union of both rows' metric columns: a column missing on
        // either side compares as NaN and therefore breaches, whether the
        // schema shrank (A-only) or grew (B-only).
        let metrics = a_metrics.keys().chain(
            b_metrics
                .keys()
                .filter(|metric| !a_metrics.contains_key(*metric)),
        );
        for metric in metrics {
            let va = a_metrics.get(metric).copied().unwrap_or(f64::NAN);
            let vb = b_metrics.get(metric).copied().unwrap_or(f64::NAN);
            let equal = (va.is_nan() && vb.is_nan()) || va == vb;
            if !equal {
                report.deltas.push(MetricDelta {
                    key: key.clone(),
                    metric: metric.clone(),
                    a: va,
                    b: vb,
                });
            }
        }
    }
    for key in b.keys() {
        if !a.contains_key(key) {
            report.only_in_b.push(key.clone());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{summarize, CellRow};
    use crate::sink::render_summary_csv;

    fn row(index: usize, scenario: &str, launched: usize, wait: f64) -> CellRow {
        CellRow {
            index,
            racks: 1,
            workload: "medianjob".into(),
            seed: Some(index as u64),
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
            work_core_seconds: 100.0,
            energy_joules: 1.0,
            energy_normalized: 0.5,
            launched_jobs_normalized: 0.5,
            work_normalized: 0.25,
            mean_wait_seconds: wait,
            peak_power_watts: 900.0,
        }
    }

    fn csv(rows: &[CellRow]) -> String {
        render_summary_csv(&summarize(rows))
    }

    #[test]
    fn identical_summaries_have_no_deltas() {
        let a = csv(&[row(0, "60%/SHUT", 10, 5.0), row(1, "40%/MIX", 8, 7.0)]);
        let report = diff_summary_csv(&a, &a).unwrap();
        assert!(report.grid_matches());
        assert_eq!(report.compared_rows, 2);
        assert!(report.deltas.is_empty());
        assert!(report.breaches(0.0).is_empty());
        assert!(report.render(0.0).contains("identical summaries"));
    }

    #[test]
    fn regressions_are_reported_per_metric_and_thresholded() {
        let a = csv(&[row(0, "60%/SHUT", 100, 5.0)]);
        let b = csv(&[row(0, "60%/SHUT", 98, 5.0)]); // 2 % fewer launches
        let report = diff_summary_csv(&a, &b).unwrap();
        assert!(report.grid_matches());
        assert!(!report.deltas.is_empty());
        let launched: Vec<&MetricDelta> = report
            .deltas
            .iter()
            .filter(|d| d.metric.starts_with("launched_jobs"))
            .collect();
        assert!(!launched.is_empty());
        assert!((launched[0].rel_percent() - 2.0).abs() < 1e-9);
        // A 5 % tolerance swallows it; a 1 % tolerance flags it.
        assert!(report.breaches(5.0).is_empty());
        assert!(!report.breaches(1.0).is_empty());
        assert!(report.render(1.0).contains("** breach"));
    }

    #[test]
    fn grid_mismatches_are_not_silently_compared() {
        let a = csv(&[row(0, "60%/SHUT", 10, 5.0), row(1, "40%/MIX", 8, 7.0)]);
        let b = csv(&[row(0, "60%/SHUT", 10, 5.0), row(1, "80%/DVFS", 8, 7.0)]);
        let report = diff_summary_csv(&a, &b).unwrap();
        assert!(!report.grid_matches());
        assert_eq!(report.compared_rows, 1);
        assert_eq!(report.only_in_a.len(), 1);
        assert_eq!(report.only_in_b.len(), 1);
        assert!(report.only_in_a[0].contains("40%/MIX"));
        let rendered = report.render(0.0);
        assert!(rendered.contains("only in A"));
        assert!(rendered.contains("only in B"));
    }

    #[test]
    fn coverage_summary_reports_the_compared_subgrid() {
        let a = csv(&[row(0, "60%/SHUT", 10, 5.0), row(1, "40%/MIX", 8, 7.0)]);
        let b = csv(&[row(0, "60%/SHUT", 10, 5.0), row(1, "80%/DVFS", 8, 7.0)]);
        let report = diff_summary_csv(&a, &b).unwrap();
        assert_eq!(
            report.coverage_summary(),
            "coverage: 1 common row(s); 1 only in A, 1 only in B\n"
        );
        // The common subgrid itself is clean: intersect mode would pass.
        assert!(report.breaches(0.0).is_empty());
        let full = diff_summary_csv(&a, &a).unwrap();
        assert_eq!(
            full.coverage_summary(),
            "coverage: 2 common row(s); 0 only in A, 0 only in B\n"
        );
    }

    #[test]
    fn nan_fields_compare_as_equal_but_mismatches_breach() {
        let a = csv(&[row(0, "60%/SHUT", 0, f64::NAN)]);
        let report = diff_summary_csv(&a, &a).unwrap();
        assert!(report.deltas.is_empty(), "NaN == NaN for diffing purposes");
        let b = csv(&[row(0, "60%/SHUT", 0, 9.0)]);
        let report = diff_summary_csv(&a, &b).unwrap();
        let wait: Vec<&MetricDelta> = report
            .deltas
            .iter()
            .filter(|d| d.metric.starts_with("mean_wait"))
            .collect();
        assert!(!wait.is_empty());
        assert_eq!(wait[0].rel_percent(), f64::INFINITY);
        assert!(
            !report.breaches(1e12).is_empty(),
            "NaN mismatch always breaches"
        );
    }

    #[test]
    fn schema_drift_in_either_direction_breaches() {
        let a = csv(&[row(0, "60%/SHUT", 10, 5.0)]);
        // Append an extra metric column to one side only.
        let grow = |text: &str, value: &str| -> String {
            let mut lines = text.lines();
            let header = lines.next().unwrap();
            let row = lines.next().unwrap();
            format!("{header},new_metric_mean\n{row},{value}\n")
        };
        let b = grow(&a, "1.5");
        // B grew a column: every row breaches regardless of threshold.
        let report = diff_summary_csv(&a, &b).unwrap();
        assert!(report.deltas.iter().any(|d| d.metric == "new_metric_mean"));
        assert!(!report.breaches(1e12).is_empty());
        // And symmetrically when A has the extra column.
        let report = diff_summary_csv(&b, &a).unwrap();
        assert!(report.deltas.iter().any(|d| d.metric == "new_metric_mean"));
        assert!(!report.breaches(1e12).is_empty());
    }

    #[test]
    fn label_columns_are_identity_not_metrics_and_dashes_match_legacy() {
        // A labelled summary: one scheduled row, one legacy row marked "-".
        let mut scheduled = row(0, "SCHED/SHUT", 10, 5.0);
        scheduled.schedule = "0+43200@80|43200+43200@40".into();
        let legacy_row = row(1, "60%/SHUT", 8, 7.0);
        let labelled = csv(&[scheduled.clone(), legacy_row.clone()]);
        assert!(labelled
            .lines()
            .next()
            .unwrap()
            .contains(",schedule,faults,"));

        // Labels are identity: the same grid diffs clean against itself, and
        // the schedule string never tries to parse as a metric.
        let report = diff_summary_csv(&labelled, &labelled).unwrap();
        assert!(report.grid_matches());
        assert!(report.deltas.is_empty());
        assert!(report
            .only_in_a
            .iter()
            .chain(&report.only_in_b)
            .all(|k| !k.contains("schedule=-")));

        // Changing only the schedule label is a grid mismatch, not a
        // tolerated metric delta.
        let mut relabelled = scheduled.clone();
        relabelled.schedule = "0+86400@80".into();
        let other = csv(&[relabelled, legacy_row.clone()]);
        let report = diff_summary_csv(&labelled, &other).unwrap();
        assert!(!report.grid_matches());
        assert_eq!(report.compared_rows, 1);

        // The "-" rows of a labelled file match the same rows of a legacy
        // (label-free) file: only the scheduled row is unmatched.
        let legacy = csv(&[legacy_row]);
        assert!(!legacy.lines().next().unwrap().contains("schedule"));
        let report = diff_summary_csv(&labelled, &legacy).unwrap();
        assert_eq!(report.compared_rows, 1);
        assert!(report.deltas.is_empty());
        assert_eq!(report.only_in_a.len(), 1);
        assert!(report.only_in_a[0].contains("SCHED/SHUT"));
        assert!(report.only_in_b.is_empty());
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        assert!(diff_summary_csv("", "").is_err());
        assert!(diff_summary_csv("index,foo\n1,2\n", "index,foo\n1,2\n").is_err());
        let good = csv(&[row(0, "60%/SHUT", 10, 5.0)]);
        let torn = good.lines().next().unwrap().to_string() + "\n1,medianjob\n";
        assert!(diff_summary_csv(&good, &torn).is_err());
        // Duplicate grid rows are ambiguous — refuse.
        let dup = good.clone() + good.lines().nth(1).unwrap() + "\n";
        assert!(diff_summary_csv(&good, &dup).is_err());
    }

    #[test]
    fn zero_baseline_changes_report_infinite_relative_delta() {
        let d = MetricDelta {
            key: "k".into(),
            metric: "m".into(),
            a: 0.0,
            b: 0.5,
        };
        assert_eq!(d.rel_percent(), f64::INFINITY);
        let same = MetricDelta { b: 0.0, ..d };
        assert_eq!(same.rel_percent(), 0.0);
    }

    #[test]
    fn non_finite_flips_always_breach_instead_of_nan_passing() {
        // Regression: `(b - a) / a` with an infinite baseline is NaN, and
        // `NaN > threshold` is false — an inf -> finite regression passed
        // `campaign-diff` silently. rel_percent must never return NaN.
        let delta = |a: f64, b: f64| MetricDelta {
            key: "k".into(),
            metric: "m".into(),
            a,
            b,
        };
        for (a, b) in [
            (f64::INFINITY, 3.2),
            (3.2, f64::INFINITY),
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::INFINITY, f64::NAN),
            (f64::NAN, 0.0),
        ] {
            let d = delta(a, b);
            assert!(
                !d.rel_percent().is_nan(),
                "rel_percent({a}, {b}) must not be NaN"
            );
            assert_eq!(d.rel_percent(), f64::INFINITY, "rel_percent({a}, {b})");
            assert!(d.breaches(1e300), "({a} -> {b}) must breach any threshold");
        }
        // Unchanged non-finite values compare as equal.
        assert_eq!(delta(f64::INFINITY, f64::INFINITY).rel_percent(), 0.0);
        assert_eq!(
            delta(f64::NEG_INFINITY, f64::NEG_INFINITY).rel_percent(),
            0.0
        );
        assert_eq!(delta(f64::NAN, f64::NAN).rel_percent(), 0.0);
        assert!(!delta(f64::NAN, f64::NAN).breaches(0.0));
    }

    #[test]
    fn infinite_peak_regressions_are_caught_end_to_end() {
        // The same hole exercised through the full summary.csv diff. Our own
        // renderer writes non-finite values as empty fields, but `inf` is
        // valid `f64::from_str` input and appears in files produced by other
        // tooling (and in the full-precision store rows): a metric that was
        // `inf` in A and finite in B used to produce a NaN relative change
        // and pass silently.
        let base = csv(&[row(0, "60%/SHUT", 10, 5.0)]);
        let grow = |text: &str, value: &str| -> String {
            let mut lines = text.lines();
            let header = lines.next().unwrap();
            let row = lines.next().unwrap();
            format!("{header},extra_metric_mean\n{row},{value}\n")
        };
        let a = grow(&base, "inf");
        let b = grow(&base, "3.2");
        let report = diff_summary_csv(&a, &b).unwrap();
        let extra: Vec<&MetricDelta> = report
            .deltas
            .iter()
            .filter(|d| d.metric == "extra_metric_mean")
            .collect();
        assert_eq!(extra.len(), 1, "inf -> finite must produce a delta");
        assert_eq!(extra[0].rel_percent(), f64::INFINITY);
        assert!(
            !report.breaches(1e300).is_empty(),
            "inf -> finite must breach every threshold"
        );
        assert!(report.render(1e300).contains("** breach"));
        // Two inf runs of the same sign are identical, not a breach.
        let report = diff_summary_csv(&a, &a).unwrap();
        assert!(report.deltas.is_empty());
    }
}
