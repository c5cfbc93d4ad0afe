//! Every rendered form of a cell row, pinned byte for byte.
//!
//! Two hand-built row sets go through every renderer the crate has: a
//! label-free set (no cap schedule, no fault plan) and a labelled one. Both
//! hold the values the renderers treat specially: NaN and ±inf metrics, a
//! fixed-trace row (no seed, NaN load factor), and labels that carry a
//! comma, a quote and a newline. The expected bytes in
//! `fixtures/renders/` were written once from these rows by the renderers
//! as they stood before the column table existed, and the stdout summary
//! tables (`*.table.txt`) when the table gained its grouping, rule,
//! schedule and fault columns; a change to any render, to `query`'s
//! projection and aggregation, to `campaign-diff`'s report or to the block
//! codec shows up here as a byte difference.

use std::path::Path;

use apc_campaign::prelude::*;

/// The 24 columns `query` knows, in `cells.csv` order.
const ALL_COLUMNS: [&str; 24] = [
    "index",
    "racks",
    "workload",
    "seed",
    "load_factor",
    "scenario",
    "window",
    "policy",
    "cap_percent",
    "grouping",
    "decision_rule",
    "schedule",
    "faults",
    "launched_jobs",
    "completed_jobs",
    "killed_jobs",
    "pending_jobs",
    "work_core_seconds",
    "energy_joules",
    "energy_normalized",
    "launched_jobs_normalized",
    "work_normalized",
    "mean_wait_seconds",
    "peak_power_watts",
];

/// The numeric columns, which `query --group-by` can aggregate.
const NUMERIC: [&str; 16] = [
    "index",
    "racks",
    "seed",
    "load_factor",
    "cap_percent",
    "launched_jobs",
    "completed_jobs",
    "killed_jobs",
    "pending_jobs",
    "work_core_seconds",
    "energy_joules",
    "energy_normalized",
    "launched_jobs_normalized",
    "work_normalized",
    "mean_wait_seconds",
    "peak_power_watts",
];

#[allow(clippy::too_many_arguments)]
fn row(
    index: usize,
    racks: usize,
    workload: &str,
    seed: Option<u64>,
    load_factor: f64,
    scenario: &str,
    policy: &str,
    objectives: (f64, f64, f64),
) -> CellRow {
    let (energy_normalized, work_normalized, mean_wait_seconds) = objectives;
    CellRow {
        index,
        racks,
        workload: workload.into(),
        seed,
        load_factor,
        scenario: scenario.into(),
        window: "7200+3600".into(),
        policy: policy.into(),
        cap_percent: 60.0,
        grouping: "grouped".into(),
        decision_rule: "paper-rho".into(),
        schedule: "-".into(),
        faults: "-".into(),
        launched_jobs: 100 + 7 * index,
        completed_jobs: 90 + 5 * index,
        killed_jobs: index % 3,
        pending_jobs: 10 + index,
        work_core_seconds: 123_456.789_012_345 + index as f64 / 3.0,
        energy_joules: 9.876_543_21e9 / (index as f64 + 1.0),
        energy_normalized,
        launched_jobs_normalized: 1.0 / (index as f64 + 3.0),
        work_normalized,
        mean_wait_seconds,
        peak_power_watts: 1.0e6 / 3.0 + index as f64,
    }
}

/// Label-free rows: NaN and ±inf metrics, a fixed-trace row, and labels
/// with a comma, a quote and a newline.
fn plain_rows() -> Vec<CellRow> {
    let odd_scenario = "40%/\"MIX\",odd";
    let mut rows = vec![
        row(
            0,
            2,
            "medianjob",
            Some(2012),
            1.8,
            "60%/SHUT",
            "shut",
            (0.5, 0.8, 120.0),
        ),
        row(
            1,
            2,
            "medianjob",
            Some(2013),
            1.8,
            "60%/SHUT",
            "shut",
            (0.55, 0.75, f64::NAN),
        ),
        row(
            2,
            2,
            "medianjob",
            Some(2012),
            1.8,
            odd_scenario,
            "mix",
            (0.1 + 0.2, 0.7, 60.5),
        ),
        row(
            3,
            10,
            "swf",
            None,
            f64::NAN,
            "100%/None",
            "none",
            (1.0, 1.0, 3.25),
        ),
        row(
            4,
            2,
            "multi\nline",
            Some(2012),
            1.0,
            "80%/DVFS",
            "dvfs",
            (0.9, 0.95, 10.0),
        ),
        row(
            5,
            2,
            "medianjob",
            Some(2013),
            1.8,
            odd_scenario,
            "mix",
            (0.35, 0.72, 61.0),
        ),
        row(
            6,
            2,
            "medianjob",
            Some(2012),
            1.8,
            "80%/DVFS",
            "dvfs",
            (0.6, 0.9, 200.0),
        ),
        row(
            7,
            2,
            "medianjob",
            Some(2013),
            1.8,
            "80%/DVFS",
            "dvfs",
            (0.6, 0.5, 90.0),
        ),
    ];
    rows[1].peak_power_watts = f64::INFINITY;
    rows[2].launched_jobs_normalized = f64::NEG_INFINITY;
    rows[3].window = "-".into();
    rows[3].cap_percent = 100.0;
    rows[4].cap_percent = 80.0;
    rows[4].grouping = "scattered".into();
    rows[4].decision_rule = "work-max".into();
    rows[6].work_core_seconds = f64::INFINITY;
    rows[7].energy_joules = f64::NEG_INFINITY;
    rows[7].cap_percent = 80.0;
    rows[6].cap_percent = 80.0;
    rows
}

/// Rows with cap-schedule and fault-plan labels (and label-free ones
/// beside them, rendered with `-`).
fn labelled_rows() -> Vec<CellRow> {
    let mut rows = plain_rows();
    let schedule = "0+7200@80|7200+10800@40";
    rows[0].schedule = schedule.into();
    rows[0].scenario = "SCHED/SHUT".into();
    rows[1].schedule = schedule.into();
    rows[1].scenario = "SCHED/SHUT".into();
    rows[2].faults = "3x600@7".into();
    rows[5].faults = "3x600@7".into();
    rows[4].schedule = "a,\"b\"\nc".into();
    rows[7].faults = "2x900@3".into();
    rows
}

fn check(name: &str, actual: impl AsRef<[u8]>) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/renders")
        .join(name);
    let expected = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let actual = actual.as_ref();
    assert!(
        actual == expected.as_slice(),
        "{name} differs from its recorded bytes\n--- recorded\n{}\n--- rendered\n{}",
        String::from_utf8_lossy(&expected),
        String::from_utf8_lossy(actual)
    );
}

/// `query DIR` output: the header, then all 24 projected columns per row.
fn projected(rows: &[CellRow]) -> String {
    let mut out = ALL_COLUMNS.join(",") + "\n";
    for r in rows {
        let fields: Vec<String> = ALL_COLUMNS.iter().map(|c| project(r, c).unwrap()).collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

/// `query DIR --group-by ... --agg KIND` output for two groupings.
fn aggregated(rows: &[CellRow], kind: AggKind) -> String {
    let mut out = String::new();
    for (group_by, columns) in [
        (&["policy", "faults"][..], &NUMERIC[..]),
        (
            &["racks", "workload", "scenario", "seed"][..],
            &["launched_jobs", "mean_wait_seconds", "peak_power_watts"][..],
        ),
    ] {
        let owned = |names: &[&str]| names.iter().map(|c| c.to_string()).collect::<Vec<_>>();
        let mut agg = GroupAggregator::new(&owned(group_by), &owned(columns), kind).unwrap();
        for r in rows {
            agg.fold(r).unwrap();
        }
        out.push_str(&agg.header());
        out.push('\n');
        for line in agg.rows(None) {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

fn check_set(tag: &str, rows: &[CellRow]) {
    let summaries = summarize(rows);
    check(&format!("{tag}.cells.csv"), render_cells_csv(rows));
    check(&format!("{tag}.cells.json"), render_cells_json(rows));
    check(
        &format!("{tag}.summary.csv"),
        render_summary_csv(&summaries),
    );
    check(
        &format!("{tag}.summary.json"),
        render_summary_json(&summaries),
    );
    check(
        &format!("{tag}.pareto.csv"),
        render_pareto_csv(&pareto_front(&summaries)),
    );
    check(
        &format!("{tag}.pareto-cells.csv"),
        render_pareto_cells_csv(&pareto_front_cells(rows)),
    );
    check(&format!("{tag}.query.csv"), projected(rows));
    for kind in [AggKind::Mean, AggKind::Min, AggKind::Max] {
        check(
            &format!("{tag}.agg-{}.csv", kind.name()),
            aggregated(rows, kind),
        );
    }
    check(&format!("{tag}.block.apc"), encode_block(rows));
    check(
        &format!("{tag}.table.txt"),
        render_summary_table(&summaries),
    );
}

#[test]
fn label_free_rows_render_their_recorded_bytes() {
    let rows = plain_rows();
    check_set("plain", &rows);
    assert_eq!(&encode_block(&rows)[..4], b"APC3");
}

#[test]
fn labelled_rows_render_their_recorded_bytes() {
    let rows = labelled_rows();
    check_set("labelled", &rows);
    assert_eq!(&encode_block(&rows)[..4], b"APC4");
}

#[test]
fn summary_diffs_render_their_recorded_report() {
    // `summary.csv` is line-based, so the diff inputs leave out the row
    // whose workload label holds a newline.
    let without_newline = |rows: Vec<CellRow>| -> Vec<CellRow> {
        rows.into_iter()
            .filter(|r| !r.workload.contains('\n'))
            .collect()
    };
    let a = without_newline(plain_rows());
    let mut b = a.clone();
    b[0].launched_jobs += 3;
    b[1].mean_wait_seconds = 7.0;
    b[2].energy_normalized = 0.3;
    b[3].scenario = "100%/Other".into();
    let mut report = String::new();
    for (a, b) in [(a.clone(), b), (a, without_newline(labelled_rows()))] {
        let a = render_summary_csv(&summarize(&a));
        let b = render_summary_csv(&summarize(&b));
        report.push_str(&diff_summary_csv(&a, &b).unwrap().render(0.0));
        report.push_str("--\n");
    }
    check("diff.txt", report);
}
