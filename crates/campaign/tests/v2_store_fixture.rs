//! Schema v2 stores stay readable, resumable and migratable.
//!
//! `fixtures/v2-store/` is a complete v2 store (text CSV partition) of the
//! CI fault grid — 12 cells, label-free rows in the 22-field layout and
//! fault-labelled rows in the 24-field layout. It was written by the last
//! version of the `campaign` binary that still had a v2 writer, with
//! `campaign --threads 1 --seeds 2 --racks 1 --intervals medianjob
//! --policies shut,mix --caps 60 --load 0.8 --backlog 0.3 --faults
//! none,3x600@7 --store-schema 2 --quiet --out D`; the fixture is
//! `D/manifest.txt` and `D/cells/part-0000.csv`. Nothing writes CSV
//! partitions any more, so this fixture is the only v2 input the tests
//! have.
//!
//! Every test drives the real binary on a copy of the fixture, as
//! `distributed.rs` does, and compares against a fresh run of the same
//! grid: a resume renders the same bytes, a resume of a partial v2 store
//! appends `.apc` partitions beside the CSV one and still renders the same
//! bytes, and `campaign compact` migrates the store to v3 without changing
//! a bit of any row.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use apc_campaign::colstore::rows_bit_identical;
use apc_campaign::prelude::*;

const BIN: &str = env!("CARGO_BIN_EXE_campaign");

/// The grid the fixture was recorded from (its spec fingerprint is
/// `a681656ab77a31c6`).
const GRID: &[&str] = &[
    "--threads",
    "1",
    "--seeds",
    "2",
    "--racks",
    "1",
    "--intervals",
    "medianjob",
    "--policies",
    "shut,mix",
    "--caps",
    "60",
    "--load",
    "0.8",
    "--backlog",
    "0.3",
    "--faults",
    "none,3x600@7",
    "--no-sync",
    "--quiet",
];

const RENDERS: [&str; 4] = ["cells.csv", "summary.csv", "cells.json", "summary.json"];

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2-store")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apc-v2-fixture-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A writable copy of the fixture store.
fn copy_fixture(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    fs::create_dir_all(dir.join("cells")).unwrap();
    for file in ["manifest.txt", "cells/part-0000.csv"] {
        fs::copy(fixture().join(file), dir.join(file)).unwrap();
    }
    dir
}

/// Run the `campaign` binary and insist it succeeds.
fn campaign(args: &[&str]) -> Output {
    let output = Command::new(BIN)
        .args(args)
        .output()
        .expect("cannot run campaign binary");
    assert!(
        output.status.success(),
        "campaign {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

/// Run the fixture's grid with `mode` (`--out` or `--resume`) on `dir`.
fn run_grid(mode: &str, dir: &Path) {
    let mut args = GRID.to_vec();
    args.extend([mode, dir.to_str().unwrap()]);
    campaign(&args);
}

/// A fresh `--out` run of the fixture's grid.
fn fresh(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    run_grid("--out", &dir);
    dir
}

fn renders(dir: &Path) -> [Vec<u8>; 4] {
    RENDERS.map(|name| {
        fs::read(dir.join(name))
            .unwrap_or_else(|e| panic!("missing {name} in {}: {e}", dir.display()))
    })
}

fn assert_renders_match(dir: &Path, reference: &Path) {
    for (name, (got, want)) in RENDERS
        .iter()
        .zip(renders(dir).iter().zip(&renders(reference)))
    {
        assert!(got == want, "{name} of {} differs", dir.display());
    }
}

/// `campaign query DIR`: every row, every column, full precision.
fn query(dir: &Path) -> Vec<u8> {
    campaign(&["query", dir.to_str().unwrap()]).stdout
}

fn scan_rows(dir: &Path) -> Vec<CellRow> {
    let mut rows = Vec::new();
    scan_store(dir, &RowFilter::default(), |row| {
        rows.push(row.clone());
        Ok(ScanFlow::Continue)
    })
    .unwrap();
    rows
}

fn assert_rows_bit_identical(got: &[CellRow], want: &[CellRow]) {
    assert_eq!(got.len(), want.len());
    for (a, b) in got.iter().zip(want) {
        assert!(rows_bit_identical(a, b), "cell {}: {a:?} vs {b:?}", a.index);
    }
}

/// The names of the partition files of a store.
fn part_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir.join("cells"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// Rewrite the manifest: set the schema on the header line and drop the
/// `done` lines of `undone`.
fn edit_manifest(dir: &Path, schema: u32, undone: &[usize]) {
    let path = dir.join("manifest.txt");
    let text = fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = vec![format!("apc-campaign-store {schema}")];
    lines.extend(
        text.lines()
            .skip(1)
            .filter(|l| !undone.iter().any(|i| *l == format!("done {i}")))
            .map(String::from),
    );
    fs::write(&path, lines.join("\n") + "\n").unwrap();
}

#[test]
fn v2_fixture_rows_are_bit_identical_to_a_fresh_run() {
    let reference = fresh("rows-ref");
    let scanner = StoreScanner::open(fixture()).unwrap();
    assert_eq!(scanner.schema(), STORE_SCHEMA_V2);
    assert!(scanner.is_complete());
    let rows = scan_rows(&fixture());
    assert_rows_bit_identical(&rows, &scan_rows(&reference));
    // Label-free rows come from 22-field lines and read "-" for both
    // label columns; the fault-labelled rows carry their 24-field labels.
    for row in &rows {
        assert_eq!(row.schedule, "-");
        let faulted = (3..6).contains(&(row.index % 6));
        assert_eq!(row.faults, if faulted { "3x600@7" } else { "-" });
    }
    // Filtered scans stream in index order; CSV partitions carry no zone
    // maps, so nothing is ever skipped.
    let filter = RowFilter {
        policy: Some("shut".into()),
        faults: Some("3x600@7".into()),
        ..RowFilter::default()
    };
    let mut seen = Vec::new();
    let stats = scanner
        .scan(&filter, |row| {
            seen.push(row.index);
            Ok(ScanFlow::Continue)
        })
        .unwrap();
    assert_eq!(seen, [4, 10]);
    assert_eq!((stats.partitions_scanned, stats.partitions_skipped), (1, 0));
    fs::remove_dir_all(&reference).unwrap();
}

#[test]
fn resumed_v2_fixture_renders_like_a_fresh_run() {
    let reference = fresh("resume-ref");
    let dir = copy_fixture("resume");
    // A complete v2 store: nothing reruns, nothing is written beside it.
    run_grid("--resume", &dir);
    assert_renders_match(&dir, &reference);
    assert_eq!(part_files(&dir), ["part-0000.csv"]);
    // A partial one: the missing cells rerun and land as v3 blocks beside
    // the CSV partition, and the mixed layout renders the same bytes, both
    // from memory and read back by a second resume.
    edit_manifest(&dir, STORE_SCHEMA_V2, &[1, 6, 7, 11]);
    run_grid("--resume", &dir);
    assert_eq!(part_files(&dir), ["part-0000.apc", "part-0000.csv"]);
    assert_renders_match(&dir, &reference);
    run_grid("--resume", &dir);
    assert_renders_match(&dir, &reference);
    assert_eq!(query(&dir), query(&reference));
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&reference).unwrap();
}

#[test]
fn compact_migrates_the_v2_fixture_to_v3_with_bit_identical_rows() {
    let reference = fresh("compact-ref");
    let dir = copy_fixture("compact");
    let before = scan_rows(&dir);
    let output = campaign(&["compact", dir.to_str().unwrap()]);
    let report = String::from_utf8_lossy(&output.stderr);
    assert!(report.contains("compacted v2 -> v3: 12 row(s)"), "{report}");
    assert_eq!(part_files(&dir), ["part-0000.apc"]);
    let manifest = fs::read_to_string(dir.join("manifest.txt")).unwrap();
    assert!(manifest.starts_with("apc-campaign-store 3\nspec a681656ab77a31c6\n"));
    assert_rows_bit_identical(&scan_rows(&dir), &before);
    assert_eq!(query(&dir), query(&reference));
    // The migrated store still resumes into the same renders.
    run_grid("--resume", &dir);
    assert_renders_match(&dir, &reference);
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&reference).unwrap();
}

/// A rerun `.apc` record must win over the torn CSV record of the same
/// cell, however the filesystem lists the two files. The torn record is
/// one whose cut still parses: cell 11's line loses its trailing `@7`,
/// leaving a well-formed row with faults `3x600`. Its `done` line never
/// landed, so the first resume reruns the cell into `part-0000.apc`; the
/// second resume, `query` and `compact` then read both files back. Header
/// `3` over CSV partitions is what a crash between compact's manifest
/// rename and its directory swap leaves behind.
#[test]
fn rerun_blocks_supersede_torn_csv_records_on_every_read_path() {
    let reference = fresh("mixed-ref");
    for schema in [STORE_SCHEMA_VERSION, STORE_SCHEMA_V2] {
        let dir = copy_fixture(&format!("mixed-v{schema}"));
        edit_manifest(&dir, schema, &[11]);
        let part = dir.join("cells/part-0000.csv");
        let text = fs::read_to_string(&part).unwrap();
        let head = text
            .strip_suffix("@7\n")
            .filter(|head| head.rsplit('\n').next().unwrap().starts_with("11,"))
            .expect("fixture layout changed: cell 11's faulted line must come last");
        fs::write(&part, format!("{head}\n")).unwrap();

        run_grid("--resume", &dir);
        assert_eq!(part_files(&dir), ["part-0000.apc", "part-0000.csv"]);
        assert_renders_match(&dir, &reference);
        run_grid("--resume", &dir);
        assert_renders_match(&dir, &reference);
        assert_eq!(query(&dir), query(&reference), "header {schema}");
        campaign(&["compact", dir.to_str().unwrap(), "--quiet"]);
        assert_eq!(part_files(&dir), ["part-0000.apc"]);
        assert_eq!(query(&dir), query(&reference), "header {schema}");
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::remove_dir_all(&reference).unwrap();
}
