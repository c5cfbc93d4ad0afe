//! A day/night tariff campaign through the real binary: a cap-schedule
//! file with a generous 80 % cap for the first two hours and a tight 40 %
//! cap for the next three, crossed with the flat 60 % grid, so scheduled
//! and flat scenarios compete on the same Pareto front.
//!
//! * `cells.csv` carries the `schedule`/`faults` key columns and the
//!   tariff's round-trip label;
//! * `pareto` writes a non-empty `pareto.csv` with those columns, and
//!   `pareto --cells` a per-replication front keyed by `seed`;
//! * a label-filtered projected `query` prints the four tariff
//!   replications (2 seeds × 2 policies) under its header.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

const CAMPAIGN: &str = env!("CARGO_BIN_EXE_campaign");

const TARIFF: &str = "# day/night tariff\n0 7200 0.8\n7200 10800 0.4\n";
const LABEL: &str = "0+7200@80|7200+10800@40";

/// The flat grid the schedule axis crosses: 2 seeds × SHUT/MIX at 60 %,
/// one rack.
const GRID: &str = "--threads 2 --seeds 2 --racks 1 --intervals medianjob \
                    --policies shut,mix --caps 60 --load 0.8 --backlog 0.3 --quiet";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apc-tariff-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Run `campaign args…`, failing on a non-zero exit.
fn campaign(args: &[&str]) -> Output {
    let output = Command::new(CAMPAIGN).args(args).output().unwrap();
    assert!(
        output.status.success(),
        "campaign {args:?} exited {:?}:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

/// The first line of `text`.
fn header(text: &str) -> &str {
    text.lines().next().unwrap_or("")
}

#[test]
fn tariff_schedule_renders_labels_fronts_and_a_filtered_query() {
    let work = temp_dir("run");
    fs::create_dir_all(&work).unwrap();
    let tariff = work.join("tariff.txt");
    fs::write(&tariff, TARIFF).unwrap();
    let store = work.join("store");
    let dir = store.to_str().unwrap();
    let mut args: Vec<&str> = GRID.split_whitespace().collect();
    args.extend(["--cap-schedule", tariff.to_str().unwrap(), "--out", dir]);
    campaign(&args);

    let cells = fs::read_to_string(store.join("cells.csv")).unwrap();
    assert!(
        header(&cells).contains(",schedule,faults,"),
        "{}",
        header(&cells)
    );
    assert!(cells.contains(LABEL), "no row carries the tariff label");

    campaign(&["pareto", dir, "--quiet"]);
    let pareto = fs::read_to_string(store.join("pareto.csv")).unwrap();
    assert!(!pareto.is_empty(), "pareto.csv is empty");
    assert!(
        header(&pareto).contains(",schedule,faults,"),
        "{}",
        header(&pareto)
    );

    campaign(&["pareto", dir, "--cells", "--quiet"]);
    let per_seed = fs::read_to_string(store.join("pareto-cells.csv")).unwrap();
    assert!(header(&per_seed).contains("seed"), "{}", header(&per_seed));

    let columns = "index,seed,schedule,energy_normalized";
    let query = campaign(&["query", dir, "--schedule", LABEL, "--columns", columns]);
    let stdout = String::from_utf8(query.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 5, "header and 4 rows:\n{stdout}");

    fs::remove_dir_all(work).unwrap();
}
