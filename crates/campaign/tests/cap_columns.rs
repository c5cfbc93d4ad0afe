//! The rendered cap columns, pinned across builds.
//!
//! Every capped scenario is one [`CapSchedule`]: `--caps × --windows` cells
//! are uniform schedules that keep their level, and `--cap-schedule` files
//! are schedules given segment by segment. The `scenario`, `window`,
//! `cap_percent` and `schedule` columns must read the same as they did when
//! these were separate cap forms, so existing stores, summaries and diffs
//! never relabel. The expected strings below were copied from a
//! `campaign` run of the same grid on the build that still had the
//! separate forms:
//!
//! ```text
//! campaign --seeds 1 --seed-base 1 --racks 1 --intervals medianjob \
//!   --policies mix --caps 60 --load 0.5 --backlog 0.3 \
//!   --windows 0.5x3600,1x1800+0x1800 \
//!   --cap-schedule tariff.txt --cap-schedule one-segment.txt \
//!   --faults none,3x600@7
//! ```

use apc_campaign::prelude::*;
use apc_core::PowercapPolicy;
use apc_replay::{CapSchedule, FaultPlan};
use apc_workload::IntervalKind;

/// `(scenario, window, cap_percent, schedule, faults)` of each row, in
/// cell-index order.
const EXPECTED: [(&str, &str, &str, &str, &str); 10] = [
    ("100%/None", "-", "100.000000", "-", "-"),
    ("60%/MIX", "7200+3600", "60.000000", "-", "-"),
    ("60%/MIX", "16200+1800|0+1800", "60.000000", "-", "-"),
    (
        "SCHED/MIX",
        "0+7200|7200+10800",
        "100.000000",
        "0+7200@80|7200+10800@40",
        "-",
    ),
    ("SCHED/MIX", "0+1800", "100.000000", "0+1800@60", "-"),
    ("100%/None", "-", "100.000000", "-", "3x600@7"),
    ("60%/MIX", "7200+3600", "60.000000", "-", "3x600@7"),
    ("60%/MIX", "16200+1800|0+1800", "60.000000", "-", "3x600@7"),
    (
        "SCHED/MIX",
        "0+7200|7200+10800",
        "100.000000",
        "0+7200@80|7200+10800@40",
        "3x600@7",
    ),
    ("SCHED/MIX", "0+1800", "100.000000", "0+1800@60", "3x600@7"),
];

fn table_grid() -> CampaignSpec {
    let parse = |text: &str| CapSchedule::parse(text).unwrap();
    CampaignSpec {
        racks: vec![1],
        intervals: vec![IntervalKind::MedianJob],
        seeds: vec![1],
        policies: vec![PowercapPolicy::Mix],
        cap_fractions: vec![0.6],
        // The paper's centred hour, then two half-hour windows written
        // late-first: the label keeps the written order.
        cap_windows: vec![vec![SINGLE_PAPER_WINDOW], vec![(1.0, 1800), (0.0, 1800)]],
        // The day/night tariff, and a one-segment file at the same 60 %
        // level as the uniform cells: still a schedule, labelled as one.
        cap_schedules: vec![
            parse("# day/night tariff\n0 7200 0.8\n7200 10800 0.4\n"),
            parse("0 1800 0.6\n"),
        ],
        faults: vec![None, Some(FaultPlan::parse("3x600@7").unwrap())],
        load_factors: vec![0.5],
        backlog_factor: 0.3,
        ..CampaignSpec::default()
    }
}

#[test]
fn cap_columns_match_the_recorded_table() {
    let outcome = CampaignRunner::new(table_grid()).run().unwrap();
    let csv = render_cells_csv(&outcome.rows);
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap().split(',').collect();
    let column = |name: &str| header.iter().position(|h| *h == name).unwrap();
    let picked = ["scenario", "window", "cap_percent", "schedule", "faults"].map(column);
    let actual: Vec<[String; 5]> = lines
        .map(|line| {
            let fields: Vec<&str> = line.split(',').collect();
            picked.map(|i| fields[i].to_string())
        })
        .collect();
    let expected: Vec<[String; 5]> = EXPECTED
        .iter()
        .map(|&(a, b, c, d, e)| [a, b, c, d, e].map(String::from))
        .collect();
    assert_eq!(actual, expected);
}
