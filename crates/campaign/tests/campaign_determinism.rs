//! Campaign determinism: the aggregated CSV/JSON output must be
//! byte-identical for `--threads 1`, `2` and `8` on the same grid — the
//! executor's core guarantee, which the work-stealing scheduler must
//! uphold even though which worker runs which cell is now
//! scheduling-dependent. Checked for the in-memory path and the
//! store-backed path (rows round-tripping through the partitioned
//! on-disk store).

use apc_campaign::prelude::*;
use apc_core::PowercapPolicy;
use apc_workload::IntervalKind;

/// A small-but-representative grid: two seeds, two policies, one cap level,
/// plus the baseline, on a 1-rack platform with a light workload.
fn small_grid() -> CampaignSpec {
    CampaignSpec {
        racks: vec![1],
        intervals: vec![IntervalKind::MedianJob],
        seeds: vec![11, 12],
        policies: vec![PowercapPolicy::Shut, PowercapPolicy::Mix],
        cap_fractions: vec![0.6],
        load_factors: vec![0.6],
        backlog_factor: 0.3,
        ..CampaignSpec::default()
    }
}

fn rendered_outputs(threads: usize) -> [String; 4] {
    let outcome = CampaignRunner::new(small_grid())
        .with_threads(threads)
        .run()
        .unwrap();
    [
        render_cells_csv(&outcome.rows),
        render_summary_csv(&outcome.summaries),
        render_cells_json(&outcome.rows),
        render_summary_json(&outcome.summaries),
    ]
}

#[test]
fn output_is_byte_identical_across_thread_counts() {
    let one = rendered_outputs(1);
    let two = rendered_outputs(2);
    let eight = rendered_outputs(8);
    for (name, (a, b)) in ["cells.csv", "summary.csv", "cells.json", "summary.json"]
        .iter()
        .zip(one.iter().zip(two.iter()))
    {
        assert_eq!(a, b, "{name} differs between --threads 1 and 2");
    }
    for (name, (a, b)) in ["cells.csv", "summary.csv", "cells.json", "summary.json"]
        .iter()
        .zip(one.iter().zip(eight.iter()))
    {
        assert_eq!(a, b, "{name} differs between --threads 1 and 8");
    }
    // And the grid actually exercised something: 2 seeds × (1 baseline +
    // 2 capped) = 6 data lines plus the header.
    assert_eq!(one[0].lines().count(), 1 + 6);
}

#[test]
fn repeated_runs_are_byte_identical() {
    assert_eq!(rendered_outputs(2), rendered_outputs(2));
}

/// Run the small grid through the on-disk store and render with the sink
/// frontends, returning the four output files' bytes.
fn store_outputs(threads: usize) -> [Vec<u8>; 4] {
    let dir =
        std::env::temp_dir().join(format!("apc-determinism-{threads}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let runner = CampaignRunner::new(small_grid()).with_threads(threads);
    let mut store =
        ResultStore::create(&dir, runner.fingerprint(), runner.cells().unwrap().len()).unwrap();
    let outcome = runner.run_with_store(&mut store).unwrap();
    assert_eq!(outcome.rows.len(), runner.cells().unwrap().len());
    CsvSink::new(&dir).write_store(&store).unwrap();
    JsonSink::new(&dir).write_store(&store).unwrap();
    let outputs = ["cells.csv", "summary.csv", "cells.json", "summary.json"]
        .map(|name| std::fs::read(dir.join(name)).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
    outputs
}

/// A grid exercising the sweep axes: two window sets (the paper's centred
/// hour and an early/late multi-window pair) × two load factors, one seed.
fn sweep_grid() -> CampaignSpec {
    CampaignSpec {
        racks: vec![1],
        intervals: vec![IntervalKind::MedianJob],
        seeds: vec![11],
        policies: vec![PowercapPolicy::Shut, PowercapPolicy::Mix],
        cap_fractions: vec![0.6],
        cap_windows: vec![vec![SINGLE_PAPER_WINDOW], vec![(0.0, 1800), (1.0, 1800)]],
        load_factors: vec![0.5, 0.8],
        backlog_factor: 0.3,
        ..CampaignSpec::default()
    }
}

fn sweep_outputs(threads: usize) -> [String; 4] {
    let outcome = CampaignRunner::new(sweep_grid())
        .with_threads(threads)
        .run()
        .unwrap();
    [
        render_cells_csv(&outcome.rows),
        render_summary_csv(&outcome.summaries),
        render_cells_json(&outcome.rows),
        render_summary_json(&outcome.summaries),
    ]
}

#[test]
fn window_and_load_sweep_output_is_byte_identical_across_threads_and_strategies() {
    let reference = sweep_outputs(1);
    // 2 loads × (1 baseline + 2 windows × 1 cap × 2 policies) = 10 cells.
    assert_eq!(reference[0].lines().count(), 1 + 10);
    // Window sweeps must stay distinct summary groups: the two window sets
    // of one (load, policy) pair never fold together.
    assert_eq!(reference[1].lines().count(), 1 + 10);
    assert!(reference[0].contains("0+1800|16200+1800"));
    for (label, outputs) in [
        ("--threads 2", sweep_outputs(2)),
        ("--threads 8", sweep_outputs(8)),
    ] {
        for (name, (a, b)) in ["cells.csv", "summary.csv", "cells.json", "summary.json"]
            .iter()
            .zip(reference.iter().zip(outputs.iter()))
        {
            assert_eq!(a, b, "{name} differs between --threads 1 and {label}");
        }
    }
}

/// A grid exercising the scenario-engine axes: a day/night cap schedule on
/// top of the uniform `--caps` grid, crossed with a fault plan (3 seeded node
/// outages) and a clean run.
fn scenario_grid() -> CampaignSpec {
    use apc_replay::{CapSchedule, CapSegment, FaultPlan};
    CampaignSpec {
        cap_schedules: vec![CapSchedule::new(vec![
            CapSegment::new(0, 2 * 3600, 0.8),
            CapSegment::new(2 * 3600, 3 * 3600, 0.4),
        ])
        .unwrap()],
        faults: vec![None, Some(FaultPlan::new(3, 600, 7))],
        ..small_grid()
    }
}

fn scenario_outputs(threads: usize) -> [String; 4] {
    let outcome = CampaignRunner::new(scenario_grid())
        .with_threads(threads)
        .run()
        .unwrap();
    [
        render_cells_csv(&outcome.rows),
        render_summary_csv(&outcome.summaries),
        render_cells_json(&outcome.rows),
        render_summary_json(&outcome.summaries),
    ]
}

#[test]
fn schedule_and_fault_grid_is_byte_identical_across_threads_and_strategies() {
    let reference = scenario_outputs(1);
    // 2 seeds × (1 baseline + 2 capped + 1 schedule × 2 policies) × 2 fault
    // axis values = 20 cells; seeds collapse to 10 summary groups.
    assert_eq!(reference[0].lines().count(), 1 + 20);
    assert_eq!(reference[1].lines().count(), 1 + 10);
    // The labelled columns are rendered (the grid carries real labels)…
    assert!(reference[0]
        .lines()
        .next()
        .unwrap()
        .contains(",schedule,faults,"));
    assert!(reference[0].contains("0+7200@80|7200+10800@40"));
    assert!(reference[0].contains("3x600@7"));
    // …and fault injection actually perturbed the runs: some faulted cell
    // differs from its clean twin (same scenario and seed) in its outcome.
    let outcome = CampaignRunner::new(scenario_grid())
        .with_threads(1)
        .run()
        .unwrap();
    let clean: std::collections::HashMap<(String, Option<u64>), &CellRow> = outcome
        .rows
        .iter()
        .filter(|r| r.faults == "-")
        .map(|r| ((r.scenario.clone(), r.seed), r))
        .collect();
    let mut perturbed = false;
    let mut faulted_cells = 0usize;
    for row in outcome.rows.iter().filter(|r| r.faults != "-") {
        faulted_cells += 1;
        let twin = clean[&(row.scenario.clone(), row.seed)];
        perturbed |= row.energy_joules.to_bits() != twin.energy_joules.to_bits()
            || row.launched_jobs != twin.launched_jobs
            || row.killed_jobs != twin.killed_jobs;
    }
    assert_eq!(faulted_cells, 10);
    assert!(perturbed, "fault injection must perturb at least one cell");
    for (label, outputs) in [
        ("--threads 2", scenario_outputs(2)),
        ("--threads 8", scenario_outputs(8)),
    ] {
        for (name, (a, b)) in ["cells.csv", "summary.csv", "cells.json", "summary.json"]
            .iter()
            .zip(reference.iter().zip(outputs.iter()))
        {
            assert_eq!(a, b, "{name} differs between --threads 1 and {label}");
        }
    }
}

#[test]
fn store_backed_output_is_byte_identical_across_threads_and_strategies() {
    let reference = store_outputs(1);
    // The in-memory render and the store round-trip agree byte for byte.
    let in_memory = rendered_outputs(1);
    for (name, (mem, disk)) in ["cells.csv", "summary.csv", "cells.json", "summary.json"]
        .iter()
        .zip(in_memory.iter().zip(reference.iter()))
    {
        assert_eq!(
            mem.as_bytes(),
            disk.as_slice(),
            "{name} differs between the in-memory render and the store frontend"
        );
    }
    // Thread counts are invisible in the output.
    for (label, outputs) in [
        ("--threads 2", store_outputs(2)),
        ("--threads 8", store_outputs(8)),
    ] {
        for (name, (a, b)) in ["cells.csv", "summary.csv", "cells.json", "summary.json"]
            .iter()
            .zip(reference.iter().zip(outputs.iter()))
        {
            assert_eq!(a, b, "{name} differs between --threads 1 and {label}");
        }
    }
}
