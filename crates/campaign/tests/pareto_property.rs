//! Property: the Pareto front really is the non-dominated set.
//!
//! For random objective triples (including occasional undefined values and
//! several workload groups), the extracted front must contain no pair where
//! one member dominates the other, every excluded well-defined row must be
//! dominated by some front member of its group (domination is a strict
//! partial order, so every dominated row sits under some maximal element),
//! and re-running the extraction on the front must be a fixpoint.
//!
//! The same three properties are checked for the per-replication front
//! (`campaign pareto --cells`), whose group key additionally contains the
//! seed — dominance is only ever counted between cells that replayed the
//! same perturbed trace. Both fronts sample fault labels as part of the
//! group, pinning that a faulted run never dominates (or shields) a clean
//! one.

use apc_campaign::agg::{summarize, CellRow, Column, Field, SummaryRow};
use apc_campaign::pareto::{pareto_front, pareto_front_cells, Objectives};
use proptest::prelude::*;

fn workload(group: u8) -> String {
    match group % 3 {
        0 => "smalljob".to_string(),
        1 => "medianjob".to_string(),
        _ => "24h".to_string(),
    }
}

fn faults(group: u8) -> String {
    if group < 3 { "-" } else { "3x600@7" }.to_string()
}

/// Summarise sampled (group, energy, work, wait) tuples, one replication
/// of a scenario of its own each, so every tuple is one summary row.
/// Groups 0–2 are clean workloads, 3–5 the same workloads under a fault
/// plan — six dominance groups in total.
fn summaries(rows: Vec<(u8, f64, f64, f64)>) -> Vec<SummaryRow> {
    let cells: Vec<CellRow> = rows
        .into_iter()
        .enumerate()
        .map(|(i, (group, energy, work, wait))| cell(i, group, 0, energy, work, wait))
        .collect();
    summarize(&cells)
}

/// A summary's workload group: racks, workload, load factor (by bits) and
/// faults.
fn summary_group(s: &SummaryRow) -> [String; 4] {
    [
        Column::Racks,
        Column::Workload,
        Column::LoadFactor,
        Column::Faults,
    ]
    .map(|c| match s.key_field(c) {
        Field::Float(v) => format!("{:016x}", v.to_bits()),
        field => format!("{field:?}"),
    })
}

fn scenario(s: &SummaryRow) -> Field<'_> {
    s.key_field(Column::Scenario)
}

/// Build one replication (cell row) from a sampled (group, seed,
/// objectives) tuple.
fn cell(index: usize, group: u8, seed: u64, energy: f64, work: f64, wait: f64) -> CellRow {
    CellRow {
        index,
        racks: 1,
        workload: workload(group),
        seed: Some(seed),
        load_factor: 1.8,
        scenario: format!("s{index}"),
        window: "7200+3600".to_string(),
        policy: "shut".to_string(),
        cap_percent: 60.0,
        grouping: "grouped".to_string(),
        decision_rule: "paper-rho".to_string(),
        schedule: "-".to_string(),
        faults: faults(group),
        launched_jobs: 1,
        completed_jobs: 1,
        killed_jobs: 0,
        pending_jobs: 0,
        work_core_seconds: 1.0,
        energy_joules: 1.0,
        energy_normalized: energy,
        launched_jobs_normalized: 1.0,
        work_normalized: work,
        mean_wait_seconds: wait,
        peak_power_watts: 1.0,
    }
}

/// Sample an objective value from a small discrete lattice (so domination
/// and ties both actually occur) with an occasional NaN.
fn objective() -> impl Strategy<Value = f64> {
    (0usize..12).prop_map(|i| if i == 11 { f64::NAN } else { i as f64 / 10.0 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn front_is_exactly_the_non_dominated_set(
        rows in proptest::collection::vec((0u8..6, objective(), objective(), objective()), 1..40)
    ) {
        let summaries = summaries(rows);
        let front = pareto_front(&summaries);
        let key = summary_group;

        // 1. Nothing on the front is dominated by anything in the input
        //    (in particular, no front member dominates another).
        for member in &front {
            for other in &summaries {
                if key(&member.summary) != key(other) {
                    continue;
                }
                prop_assert!(
                    !Objectives::of(other).dominates(&member.objectives),
                    "front row {:?} is dominated by {:?}",
                    scenario(&member.summary),
                    scenario(other)
                );
            }
        }

        // 2. Every excluded well-defined row is dominated by a front member
        //    of its group.
        for row in &summaries {
            let objectives = Objectives::of(row);
            if objectives.has_nan() {
                prop_assert!(
                    front.iter().all(|m| scenario(&m.summary) != scenario(row)),
                    "NaN row {:?} must not be on the front",
                    scenario(row)
                );
                continue;
            }
            let on_front = front.iter().any(|m| scenario(&m.summary) == scenario(row));
            if !on_front {
                prop_assert!(
                    front
                        .iter()
                        .filter(|m| key(&m.summary) == key(row))
                        .any(|m| m.objectives.dominates(&objectives)),
                    "excluded row {:?} is not dominated by any front member",
                    scenario(row)
                );
            }
        }

        // 3. The extraction is a fixpoint: running it on the front changes
        //    nothing.
        let front_rows: Vec<SummaryRow> = front.iter().map(|m| m.summary.clone()).collect();
        let refront = pareto_front(&front_rows);
        prop_assert_eq!(refront.len(), front.len());
        for (a, b) in refront.iter().zip(front.iter()) {
            prop_assert_eq!(scenario(&a.summary), scenario(&b.summary));
        }
    }

    #[test]
    fn cells_front_is_exactly_the_non_dominated_set_per_seed(
        // The first element packs (group, seed): group = v % 6, seed = v / 6
        // (the vendored proptest implements Strategy for tuples up to 4).
        rows in proptest::collection::vec(
            (0u8..18, objective(), objective(), objective()),
            1..40,
        )
    ) {
        let cells: Vec<CellRow> = rows
            .into_iter()
            .enumerate()
            .map(|(i, (packed, energy, work, wait))| {
                cell(i, packed % 6, (packed / 6) as u64, energy, work, wait)
            })
            .collect();
        let front = pareto_front_cells(&cells);

        let key = |c: &CellRow| {
            (
                c.racks,
                c.workload.clone(),
                c.load_factor.to_bits(),
                c.faults.clone(),
                c.seed,
            )
        };

        // 1. Nothing on the front is dominated by any same-seed cell.
        for member in &front {
            for other in &cells {
                if key(&member.cell) != key(other) {
                    continue;
                }
                prop_assert!(
                    !Objectives::of_cell(other).dominates(&member.objectives),
                    "front cell {} is dominated by {}",
                    member.cell.scenario,
                    other.scenario
                );
            }
        }

        // 2. Every excluded well-defined cell is dominated by a front
        //    member of its group — and only members that replayed the same
        //    seed count.
        for row in &cells {
            let objectives = Objectives::of_cell(row);
            if objectives.has_nan() {
                prop_assert!(
                    front.iter().all(|m| m.cell.scenario != row.scenario),
                    "NaN cell {} must not be on the front",
                    row.scenario
                );
                continue;
            }
            let on_front = front.iter().any(|m| m.cell.scenario == row.scenario);
            if !on_front {
                prop_assert!(
                    front
                        .iter()
                        .filter(|m| key(&m.cell) == key(row))
                        .any(|m| m.objectives.dominates(&objectives)),
                    "excluded cell {} is not dominated by any same-seed front member",
                    row.scenario
                );
            }
        }

        // 3. Fixpoint.
        let front_rows: Vec<CellRow> = front.iter().map(|m| m.cell.clone()).collect();
        let refront = pareto_front_cells(&front_rows);
        prop_assert_eq!(refront.len(), front.len());
        for (a, b) in refront.iter().zip(front.iter()) {
            prop_assert_eq!(&a.cell.scenario, &b.cell.scenario);
        }
    }
}
