//! Pareto-front extraction over campaign summaries.
//!
//! The window/load-factor sweeps make the grid large enough that "which
//! scenario wins" stops having a single answer: a tighter cap saves energy
//! but costs work and wait. The GreenSlot-style framing (see PAPERS.md) is
//! to report the **non-dominated front** of the energy-vs-performance
//! trade-off instead: a scenario is on the front exactly when no other
//! scenario of the same workload is at least as good on every objective and
//! strictly better on one.
//!
//! Objectives, taken from the across-seed means of `summary.csv`:
//!
//! * `energy_normalized` — minimise;
//! * `work_normalized`   — maximise;
//! * `mean_wait_seconds` — minimise.
//!
//! Fronts are computed per **workload group** (rack scale × workload label ×
//! load factor × fault plan): comparing a 24 h interval against a 5 h one,
//! or a 1.0-load run against an overloaded 1.8 one, would mix incomparable
//! baselines — and so would comparing a clean run against one whose nodes
//! were being failed under it. Cap *schedules*, by contrast, are competing
//! policies and share a front with the static-window scenarios: "flat 80 %"
//! versus "day/night tariff" is exactly the trade-off the front is for.
//! Rows with an undefined (`NaN`) objective are excluded — they can neither
//! dominate nor sit on the front.
//!
//! [`pareto_front_cells`] is the per-replication variant: it fronts the raw
//! cell rows instead of across-seed means, with the seed joining the group
//! key so dominance is counted per seed. A scenario whose *mean* sits on
//! the summary front can still lose every individual seed to a rival with
//! higher variance; the cells front makes those variance-driven trade-offs
//! visible.

use crate::agg::{encode_key, CellRow, Column, Field, SummaryRow, SUMMARY_KEY};
use crate::sink::{csv, fixed, header, shown};

/// The objective triple of one summary row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// Across-seed mean of the normalised energy (minimise).
    pub energy_normalized: f64,
    /// Across-seed mean of the normalised work (maximise).
    pub work_normalized: f64,
    /// Across-seed mean of the queue wait in seconds (minimise).
    pub mean_wait_seconds: f64,
}

impl Objectives {
    /// Extract the objective means from a summary row.
    pub fn of(row: &SummaryRow) -> Self {
        Objectives {
            energy_normalized: row.metric(Column::EnergyNormalized).mean,
            work_normalized: row.metric(Column::WorkNormalized).mean,
            mean_wait_seconds: row.metric(Column::MeanWaitSeconds).mean,
        }
    }

    /// Extract the objectives of one replication (cell row).
    pub fn of_cell(row: &CellRow) -> Self {
        Objectives {
            energy_normalized: row.energy_normalized,
            work_normalized: row.work_normalized,
            mean_wait_seconds: row.mean_wait_seconds,
        }
    }

    /// Is any objective undefined? Such rows are excluded from the front.
    pub fn has_nan(&self) -> bool {
        self.energy_normalized.is_nan()
            || self.work_normalized.is_nan()
            || self.mean_wait_seconds.is_nan()
    }

    /// Does `self` dominate `other`: at least as good on every objective and
    /// strictly better on at least one? Undefined objectives never dominate.
    pub fn dominates(&self, other: &Objectives) -> bool {
        if self.has_nan() || other.has_nan() {
            return false;
        }
        let no_worse = self.energy_normalized <= other.energy_normalized
            && self.work_normalized >= other.work_normalized
            && self.mean_wait_seconds <= other.mean_wait_seconds;
        let strictly_better = self.energy_normalized < other.energy_normalized
            || self.work_normalized > other.work_normalized
            || self.mean_wait_seconds < other.mean_wait_seconds;
        no_worse && strictly_better
    }
}

/// One row of a Pareto report: a non-dominated summary row plus how many
/// rows of its workload group it dominates.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoRow {
    /// The non-dominated summary row.
    pub summary: SummaryRow,
    /// Its objective triple.
    pub objectives: Objectives,
    /// Number of same-group rows this row dominates.
    pub dominated: usize,
}

/// One row of the per-replication Pareto report: a non-dominated cell row
/// plus how many same-group (same-seed) cells it dominates.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoCellRow {
    /// The non-dominated replication.
    pub cell: CellRow,
    /// Its objective triple.
    pub objectives: Objectives,
    /// Number of same-group cells this cell dominates.
    pub dominated: usize,
}

/// The workload-group key: rows are only comparable within one group. The
/// fault plan is part of the key: an injected outage perturbs the workload
/// that actually ran, so a faulted row and a clean row have incomparable
/// baselines. Cap schedules are deliberately *not* in the key — they are
/// competing policies and belong on the same front as static windows. The
/// per-replication front adds the seed, so dominance is counted between
/// scenarios that replayed the *same* perturbed trace. Both encode it as
/// [`summarize`](crate::agg::summarize) encodes its own key.
const FRONT_KEY: [Column; 4] = [
    Column::Racks,
    Column::Workload,
    Column::LoadFactor,
    Column::Faults,
];

/// Dominance scan shared by both fronts: every row no other row with the
/// same `key` dominates, in input order, with its objectives and the number
/// of same-group rows it dominates. Rows with an undefined objective are
/// left out. Rows are bucketed by group first, so the scan is quadratic in
/// the **group** size (a scenario grid: tens to a few thousand rows), not
/// in the total row count of a big multi-workload sweep.
fn front<R>(
    rows: &[R],
    objectives: impl Fn(&R) -> Objectives,
    key: impl Fn(&R) -> Vec<u8>,
) -> Vec<(&R, Objectives, usize)> {
    let objectives: Vec<Objectives> = rows.iter().map(objectives).collect();
    let keys: Vec<Vec<u8>> = rows.iter().map(key).collect();
    let mut groups: std::collections::HashMap<&[u8], Vec<usize>> = std::collections::HashMap::new();
    for (i, key) in keys.iter().enumerate() {
        groups.entry(key).or_default().push(i);
    }
    let on_front = |i: usize| {
        let mut dominated = 0;
        // The row itself is in its group; nothing dominates itself.
        for &j in &groups[keys[i].as_slice()] {
            if objectives[j].dominates(&objectives[i]) {
                return None;
            }
            if objectives[i].dominates(&objectives[j]) {
                dominated += 1;
            }
        }
        Some((&rows[i], objectives[i], dominated))
    };
    (0..rows.len())
        .filter(|&i| !objectives[i].has_nan())
        .filter_map(on_front)
        .collect()
}

/// Extract the non-dominated front of every workload group, preserving the
/// input (first-occurrence) order of groups and of rows within a group.
///
/// The front is *exactly* the set of rows no other same-group row
/// dominates; rows with a `NaN` objective are skipped.
pub fn pareto_front(summaries: &[SummaryRow]) -> Vec<ParetoRow> {
    let key = |s: &SummaryRow| encode_key(FRONT_KEY.map(|c| s.key_field(c)));
    front(summaries, Objectives::of, key)
        .into_iter()
        .map(|(summary, objectives, dominated)| ParetoRow {
            summary: summary.clone(),
            objectives,
            dominated,
        })
        .collect()
}

/// Extract the per-replication front: every cell row no other cell of the
/// same workload group **and seed** dominates (`campaign pareto --cells`).
///
/// Fronting individual replications instead of across-seed means exposes
/// variance-driven trade-offs: a scenario whose mean is non-dominated may
/// still lose every individual seed to a noisier rival, and vice versa.
pub fn pareto_front_cells(cells: &[CellRow]) -> Vec<ParetoCellRow> {
    let key =
        |r: &CellRow| encode_key(FRONT_KEY.iter().chain(&[Column::Seed]).map(|&c| r.field(c)));
    front(cells, Objectives::of_cell, key)
        .into_iter()
        .map(|(cell, objectives, dominated)| ParetoCellRow {
            cell: cell.clone(),
            objectives,
            dominated,
        })
        .collect()
}

/// The objective columns, in render order: `pareto.csv` prints their
/// across-seed means, `pareto-cells.csv` their per-replication values.
const OBJECTIVES: [Column; 3] = [
    Column::EnergyNormalized,
    Column::WorkNormalized,
    Column::MeanWaitSeconds,
];

/// The `pareto-cells.csv` columns before `dominated`: the summary key with
/// the seed after racks, workload and load factor, then the objectives.
/// Unlike `cells.csv`, the policy and counts are left out.
fn cell_front_columns() -> Vec<Column> {
    let (before_seed, after_seed) = SUMMARY_KEY.split_at(3);
    [before_seed, &[Column::Seed], after_seed, &OBJECTIVES].concat()
}

/// Render a Pareto front as CSV (with header and trailing newline), using
/// the same float formatting as `summary.csv`. The `schedule`/`faults`
/// columns appear only when some front row actually carries a label, so
/// legacy (static-window) campaigns render byte-identically.
pub fn render_pareto_csv(front: &[ParetoRow]) -> String {
    let labelled = front.iter().any(|r| r.summary.is_labelled());
    let key = shown(&SUMMARY_KEY, labelled);
    let mut names = header(&key);
    names.push("replications".into());
    names.extend(OBJECTIVES.map(|c| format!("{}_mean", c.name())));
    names.push("dominated".into());
    csv(
        names,
        front.iter().map(|row| {
            let s = &row.summary;
            let mut fields: Vec<String> =
                key.iter().map(|&c| fixed(s.key_field(c), false)).collect();
            fields.push(s.replications.to_string());
            fields.extend(OBJECTIVES.map(|c| fixed(Field::Float(s.metric(c).mean), false)));
            fields.push(row.dominated.to_string());
            fields
        }),
    )
}

/// Render a per-replication front as CSV (`campaign pareto --cells`), with
/// the same conditional label columns as the summary front.
pub fn render_pareto_cells_csv(front: &[ParetoCellRow]) -> String {
    let labelled = front.iter().any(|r| r.cell.is_labelled());
    let columns = shown(&cell_front_columns(), labelled);
    let mut names = header(&columns);
    names.push("dominated".into());
    csv(
        names,
        front.iter().map(|row| {
            let mut fields: Vec<String> = columns
                .iter()
                .map(|&c| fixed(row.cell.field(c), false))
                .collect();
            fields.push(row.dominated.to_string());
            fields
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::summarize;

    /// One replication of `scenario` on `workload`, to be summarised.
    fn summary(workload: &str, scenario: &str, energy: f64, work: f64, wait: f64) -> CellRow {
        CellRow {
            workload: workload.into(),
            ..cell(1, scenario, energy, work, wait)
        }
    }

    /// The summaries of `rows`, indexed in their order.
    fn summaries(mut rows: Vec<CellRow>) -> Vec<SummaryRow> {
        for (i, row) in rows.iter_mut().enumerate() {
            row.index = i;
        }
        summarize(&rows)
    }

    fn scenario(row: &SummaryRow) -> Field<'_> {
        row.key_field(Column::Scenario)
    }

    #[test]
    fn dominated_rows_are_dropped_and_counted() {
        let rows = vec![
            // Dominates b (less energy, more work, same wait).
            summary("medianjob", "A", 0.5, 0.8, 100.0),
            summary("medianjob", "B", 0.6, 0.7, 100.0),
            // Trade-off against A: more energy but less wait — stays.
            summary("medianjob", "C", 0.7, 0.8, 50.0),
        ];
        let front = pareto_front(&summaries(rows));
        let labels: Vec<Field> = front.iter().map(|r| scenario(&r.summary)).collect();
        assert_eq!(labels, [Field::Label("A"), Field::Label("C")]);
        assert_eq!(front[0].dominated, 1);
        assert_eq!(front[1].dominated, 0);
    }

    #[test]
    fn fronts_are_per_workload_group() {
        let rows = vec![
            summary("medianjob", "A", 0.5, 0.8, 100.0),
            // Strictly better than A on every objective, but a different
            // workload: both rows survive, each on its own front.
            summary("24h", "B", 0.4, 0.9, 50.0),
            // Same workload label, different load factor: still a separate
            // group.
            {
                let mut r = summary("medianjob", "D", 0.4, 0.9, 50.0);
                r.load_factor = 1.0;
                r
            },
        ];
        let front = pareto_front(&summaries(rows));
        assert_eq!(front.len(), 3);
    }

    #[test]
    fn nan_objectives_are_excluded_but_do_not_block_others() {
        let rows = summaries(vec![
            summary("medianjob", "A", 0.5, 0.8, f64::NAN),
            summary("medianjob", "B", 0.6, 0.7, 100.0),
        ]);
        let front = pareto_front(&rows);
        assert_eq!(front.len(), 1);
        assert_eq!(scenario(&front[0].summary), Field::Label("B"));
        // NaN rows neither dominate nor get dominated.
        assert!(!Objectives::of(&rows[0]).dominates(&Objectives::of(&rows[1])));
        assert!(!Objectives::of(&rows[1]).dominates(&Objectives::of(&rows[0])));
    }

    #[test]
    fn equal_rows_are_both_kept() {
        // Neither strictly better ⇒ neither dominates ⇒ both on the front.
        let rows = vec![
            summary("medianjob", "A", 0.5, 0.8, 100.0),
            summary("medianjob", "B", 0.5, 0.8, 100.0),
        ];
        assert_eq!(pareto_front(&summaries(rows)).len(), 2);
    }

    fn cell(seed: u64, scenario: &str, energy: f64, work: f64, wait: f64) -> CellRow {
        CellRow {
            index: seed as usize,
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
            launched_jobs: 10,
            completed_jobs: 10,
            killed_jobs: 0,
            pending_jobs: 0,
            work_core_seconds: 100.0,
            energy_joules: 1.0,
            energy_normalized: energy,
            launched_jobs_normalized: 0.5,
            work_normalized: work,
            mean_wait_seconds: wait,
            peak_power_watts: 900.0,
        }
    }

    #[test]
    fn fault_plans_split_groups_but_schedules_compete() {
        // B is strictly better than A but ran under injected outages: the
        // fault plan is part of the group key, so both stay on their own
        // fronts.
        let mut faulted = summary("medianjob", "B", 0.4, 0.9, 50.0);
        faulted.faults = "3x600@7".into();
        let rows = vec![summary("medianjob", "A", 0.5, 0.8, 100.0), faulted];
        assert_eq!(pareto_front(&summaries(rows)).len(), 2);

        // A cap schedule, by contrast, competes on the same front as the
        // static window it beats.
        let mut scheduled = summary("medianjob", "B", 0.4, 0.9, 50.0);
        scheduled.schedule = "0+43200@80|43200+43200@40".into();
        let rows = vec![summary("medianjob", "A", 0.5, 0.8, 100.0), scheduled];
        let front = pareto_front(&summaries(rows));
        assert_eq!(front.len(), 1);
        assert_eq!(scenario(&front[0].summary), Field::Label("B"));
        assert_eq!(front[0].dominated, 1);
    }

    #[test]
    fn labelled_fronts_add_schedule_and_fault_columns() {
        let mut scheduled = summary("medianjob", "B", 0.4, 0.9, 50.0);
        scheduled.schedule = "0+43200@80|43200+43200@40".into();
        scheduled.faults = "3x600@7".into();
        let csv = render_pareto_csv(&pareto_front(&summaries(vec![scheduled])));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "racks,workload,load_factor,scenario,window,cap_percent,grouping,decision_rule,\
             schedule,faults,replications,energy_normalized_mean,work_normalized_mean,\
             mean_wait_seconds_mean,dominated"
        );
        assert!(lines[1].contains(",0+43200@80|43200+43200@40,3x600@7,"));
        assert_eq!(lines[1].split(',').count(), lines[0].split(',').count());
    }

    #[test]
    fn cells_front_counts_dominance_per_seed() {
        let rows = vec![
            // Seed 1: A dominates B.
            cell(1, "A", 0.5, 0.8, 100.0),
            cell(1, "B", 0.6, 0.7, 100.0),
            // Seed 2: the ranking flips — B dominates A. Neither cell of
            // seed 1 may dominate (or save) a cell of seed 2.
            cell(2, "A", 0.6, 0.7, 100.0),
            cell(2, "B", 0.5, 0.8, 100.0),
        ];
        let front = pareto_front_cells(&rows);
        let ids: Vec<(u64, &str)> = front
            .iter()
            .map(|r| (r.cell.seed.unwrap(), r.cell.scenario.as_str()))
            .collect();
        assert_eq!(ids, [(1, "A"), (2, "B")]);
        assert_eq!(front[0].dominated, 1);
        assert_eq!(front[1].dominated, 1);
    }

    #[test]
    fn cells_csv_renders_seed_column() {
        let front = pareto_front_cells(&[cell(7, "A", 0.5, 0.8, 100.0)]);
        let csv = render_pareto_cells_csv(&front);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "racks,workload,load_factor,seed,scenario,window,cap_percent,grouping,\
             decision_rule,energy_normalized,work_normalized,mean_wait_seconds,dominated"
        );
        assert!(lines[1].starts_with("1,medianjob,1.800000,7,A,7200+3600,60.000000"));
        assert_eq!(lines[1].split(',').count(), lines[0].split(',').count());
    }

    #[test]
    fn rendered_csv_has_one_line_per_front_row() {
        let rows = vec![
            summary("medianjob", "A", 0.5, 0.8, 100.0),
            summary("medianjob", "B", 0.6, 0.7, 100.0),
        ];
        let csv = render_pareto_csv(&pareto_front(&summaries(rows)));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "racks,workload,load_factor,scenario,window,cap_percent,grouping,decision_rule,\
             replications,energy_normalized_mean,work_normalized_mean,mean_wait_seconds_mean,\
             dominated"
        );
        assert_eq!(lines[1].split(',').count(), lines[0].split(',').count());
        assert!(lines[1].starts_with("1,medianjob,1.800000,A,7200+3600,60.000000"));
        assert!(lines[1].ends_with(",1"), "dominated count column");
    }
}
