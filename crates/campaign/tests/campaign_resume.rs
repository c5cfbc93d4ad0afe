//! Crash-resume: a campaign interrupted partway and resumed must produce
//! output **byte-identical** to an uninterrupted single-thread run, and a
//! store from a different spec must be rejected before anything executes.
//!
//! The interruption is simulated the way a real crash looks on disk: the
//! manifest's completion log is truncated to a prefix of `done` lines
//! (optionally tearing the last partition record in half), exactly the
//! state left behind by a kill between a row append and its `done` entry.

use std::fs;
use std::path::{Path, PathBuf};

use apc_campaign::prelude::*;
use apc_core::PowercapPolicy;
use apc_workload::IntervalKind;

/// A light grid: 2 seeds × (baseline + SHUT/MIX at 60 %) on one rack.
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

const OUTPUTS: [&str; 4] = ["cells.csv", "summary.csv", "cells.json", "summary.json"];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apc-resume-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Run the grid to completion through a store and render all four outputs.
fn run_full(dir: &Path, threads: usize) -> CampaignOutcome {
    let runner = CampaignRunner::new(small_grid()).with_threads(threads);
    let mut store =
        ResultStore::create(dir, runner.fingerprint(), runner.cells().unwrap().len()).unwrap();
    let outcome = runner.run_with_store(&mut store).unwrap();
    render(dir, &store);
    outcome
}

fn render(dir: &Path, store: &ResultStore) {
    let rows = store.rows();
    let summaries = summarize(&rows);
    CsvSink::new(dir).write(&rows, &summaries).unwrap();
    JsonSink::new(dir).write(&rows, &summaries).unwrap();
}

fn read_outputs(dir: &Path) -> [Vec<u8>; 4] {
    OUTPUTS.map(|name| fs::read(dir.join(name)).unwrap())
}

/// Simulate a crash after `keep` cells: truncate the manifest's completion
/// log to its first `keep` `done` lines (the 4-line header stays).
fn truncate_manifest(dir: &Path, keep: usize) {
    let path = dir.join("manifest.txt");
    let text = fs::read_to_string(&path).unwrap();
    let kept: Vec<&str> = text.lines().take(4 + keep).collect();
    assert!(
        kept.iter().filter(|l| l.starts_with("done ")).count() == keep,
        "manifest layout changed: expected a 4-line header then done lines"
    );
    fs::write(&path, kept.join("\n") + "\n").unwrap();
}

#[test]
fn resumed_campaign_output_is_byte_identical_to_uninterrupted() {
    // Reference: an uninterrupted single-thread run.
    let full_dir = temp_dir("full");
    let full = run_full(&full_dir, 1);
    let total = full.rows.len();
    assert_eq!(full.stats.skipped, 0);
    let expected = read_outputs(&full_dir);

    // "Crash" a single-thread run after 2 cells, then resume with 2
    // workers — different thread count on purpose.
    let crash_dir = temp_dir("crashed");
    run_full(&crash_dir, 1);
    truncate_manifest(&crash_dir, 2);
    let mut store = ResultStore::open(&crash_dir).unwrap();
    assert_eq!(store.completed_count(), 2);
    let runner = CampaignRunner::new(small_grid()).with_threads(2);
    let resumed = runner.run_with_store(&mut store).unwrap();
    assert_eq!(resumed.stats.skipped, 2);
    assert_eq!(resumed.stats.cells, total - 2);
    assert_eq!(resumed.rows.len(), total);
    render(&crash_dir, &store);

    assert_eq!(store.completed_count(), total);
    for (name, (a, b)) in OUTPUTS
        .iter()
        .zip(expected.iter().zip(read_outputs(&crash_dir).iter()))
    {
        assert_eq!(
            a, b,
            "{name} differs between uninterrupted and resumed runs"
        );
    }
    fs::remove_dir_all(&full_dir).unwrap();
    fs::remove_dir_all(&crash_dir).unwrap();
}

#[test]
fn resume_survives_a_record_torn_mid_write() {
    let full_dir = temp_dir("torn-full");
    run_full(&full_dir, 1);
    let expected = read_outputs(&full_dir);

    let crash_dir = temp_dir("torn-crashed");
    run_full(&crash_dir, 1);
    truncate_manifest(&crash_dir, 3);
    // Tear the last partition block in half too — the row whose `done`
    // entry never made it. The truncated v3 block fails its structural
    // check and checksum, so the reader's trusted region ends before it.
    let part = crash_dir.join("cells").join("part-0000.apc");
    let bytes = fs::read(&part).unwrap();
    fs::write(&part, &bytes[..bytes.len() - 25]).unwrap();

    let mut store = ResultStore::open(&crash_dir).unwrap();
    assert!(store.completed_count() <= 3);
    let runner = CampaignRunner::new(small_grid()).with_threads(2);
    runner.run_with_store(&mut store).unwrap();
    render(&crash_dir, &store);
    for (name, (a, b)) in OUTPUTS
        .iter()
        .zip(expected.iter().zip(read_outputs(&crash_dir).iter()))
    {
        assert_eq!(a, b, "{name} differs after resuming over a torn record");
    }
    fs::remove_dir_all(&full_dir).unwrap();
    fs::remove_dir_all(&crash_dir).unwrap();
}

#[test]
fn resuming_a_complete_store_runs_nothing() {
    let dir = temp_dir("complete");
    let full = run_full(&dir, 2);
    let expected = read_outputs(&dir);
    let mut store = ResultStore::open(&dir).unwrap();
    assert!(store.is_complete());
    let runner = CampaignRunner::new(small_grid()).with_threads(2);
    let again = runner.run_with_store(&mut store).unwrap();
    assert_eq!(again.stats.cells, 0);
    assert_eq!(again.stats.skipped, full.rows.len());
    assert!(again.stats.per_worker.is_empty());
    assert_eq!(again.rows, full.rows);
    render(&dir, &store);
    assert_eq!(expected, read_outputs(&dir));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_of_a_v1_schema_store_is_rejected_with_a_versioned_error() {
    // A store left behind by the pre-sweep (schema v1) code: same layout,
    // older version number in the manifest header. Resuming it must fail
    // with the schema-version error — not re-run cells into a store whose
    // rows have the old 20-field layout.
    let dir = temp_dir("v1-schema");
    run_full(&dir, 1);
    let manifest = dir.join("manifest.txt");
    let text = fs::read_to_string(&manifest).unwrap();
    let downgraded = text.replacen(
        &format!(
            "apc-campaign-store {}",
            apc_campaign::store::STORE_SCHEMA_VERSION
        ),
        "apc-campaign-store 1",
        1,
    );
    assert_ne!(text, downgraded, "header rewrite must take effect");
    fs::write(&manifest, downgraded).unwrap();
    let err = ResultStore::open(&dir).unwrap_err();
    assert!(
        err.contains("schema v1")
            && err.contains(&format!("v{}", apc_campaign::store::STORE_SCHEMA_VERSION)),
        "got: {err}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sweep_campaign_resumes_byte_identically() {
    // Crash-resume under schema v2 on a grid that uses the new axes: a
    // multi-window sweep × two load factors, interrupted after 3 cells.
    let grid = || CampaignSpec {
        cap_windows: vec![vec![SINGLE_PAPER_WINDOW], vec![(0.0, 1800), (1.0, 1800)]],
        load_factors: vec![0.5, 0.8],
        ..small_grid()
    };
    let full_dir = temp_dir("sweep-full");
    let runner = CampaignRunner::new(grid()).with_threads(1);
    let mut store = ResultStore::create(
        &full_dir,
        runner.fingerprint(),
        runner.cells().unwrap().len(),
    )
    .unwrap();
    runner.run_with_store(&mut store).unwrap();
    render(&full_dir, &store);
    let expected = read_outputs(&full_dir);

    let crash_dir = temp_dir("sweep-crashed");
    let runner = CampaignRunner::new(grid()).with_threads(1);
    let mut store = ResultStore::create(
        &crash_dir,
        runner.fingerprint(),
        runner.cells().unwrap().len(),
    )
    .unwrap();
    runner.run_with_store(&mut store).unwrap();
    drop(store);
    truncate_manifest(&crash_dir, 3);
    let mut store = ResultStore::open(&crash_dir).unwrap();
    assert_eq!(store.completed_count(), 3);
    let resumed = CampaignRunner::new(grid())
        .with_threads(2)
        .run_with_store(&mut store)
        .unwrap();
    assert_eq!(resumed.stats.skipped, 3);
    render(&crash_dir, &store);
    for (name, (a, b)) in OUTPUTS
        .iter()
        .zip(expected.iter().zip(read_outputs(&crash_dir).iter()))
    {
        assert_eq!(a, b, "{name} differs after resuming a sweep campaign");
    }
    fs::remove_dir_all(&full_dir).unwrap();
    fs::remove_dir_all(&crash_dir).unwrap();
}

#[test]
fn fault_axis_campaign_resumes_byte_identically_over_a_torn_record() {
    // Crash-resume on a grid that uses the scenario-engine axes: a
    // day/night cap schedule plus a fault-injection axis, with the last
    // recorded row torn mid-write (its `done` entry never landed).
    use apc_replay::{CapSchedule, CapSegment, FaultPlan};
    let grid = || CampaignSpec {
        cap_schedules: vec![CapSchedule::new(vec![
            CapSegment::new(0, 2 * 3600, 0.8),
            CapSegment::new(2 * 3600, 3 * 3600, 0.4),
        ])
        .unwrap()],
        faults: vec![None, Some(FaultPlan::new(3, 600, 7))],
        ..small_grid()
    };
    let full_dir = temp_dir("fault-full");
    let runner = CampaignRunner::new(grid()).with_threads(1);
    let mut store = ResultStore::create(
        &full_dir,
        runner.fingerprint(),
        runner.cells().unwrap().len(),
    )
    .unwrap();
    runner.run_with_store(&mut store).unwrap();
    render(&full_dir, &store);
    let expected = read_outputs(&full_dir);
    // The grid really is labelled: the rendered cells carry the new columns.
    let header = String::from_utf8(expected[0].clone()).unwrap();
    assert!(header.lines().next().unwrap().contains(",schedule,faults,"));

    let crash_dir = temp_dir("fault-crashed");
    let runner = CampaignRunner::new(grid()).with_threads(1);
    let mut store = ResultStore::create(
        &crash_dir,
        runner.fingerprint(),
        runner.cells().unwrap().len(),
    )
    .unwrap();
    runner.run_with_store(&mut store).unwrap();
    drop(store);
    truncate_manifest(&crash_dir, 5);
    // Tear the next (labelled, APC4) block in half on disk too.
    let part = crash_dir.join("cells").join("part-0000.apc");
    let bytes = fs::read(&part).unwrap();
    fs::write(&part, &bytes[..bytes.len() - 31]).unwrap();

    let mut store = ResultStore::open(&crash_dir).unwrap();
    assert!(store.completed_count() <= 5);
    let resumed = CampaignRunner::new(grid())
        .with_threads(2)
        .run_with_store(&mut store)
        .unwrap();
    assert!(resumed.stats.skipped <= 5);
    render(&crash_dir, &store);
    for (name, (a, b)) in OUTPUTS
        .iter()
        .zip(expected.iter().zip(read_outputs(&crash_dir).iter()))
    {
        assert_eq!(
            a, b,
            "{name} differs after resuming a fault-axis campaign over a torn record"
        );
    }
    fs::remove_dir_all(&full_dir).unwrap();
    fs::remove_dir_all(&crash_dir).unwrap();
}

#[test]
fn resume_with_a_mismatched_spec_is_rejected() {
    let dir = temp_dir("mismatch");
    run_full(&dir, 1);
    let mut store = ResultStore::open(&dir).unwrap();
    // Same shape, different seed axis ⇒ different campaign.
    let other = CampaignSpec {
        seeds: vec![11, 13],
        ..small_grid()
    };
    let err = CampaignRunner::new(other)
        .run_with_store(&mut store)
        .unwrap_err();
    assert!(err.contains("different campaign spec"), "got: {err}");
    // Nothing was appended by the rejected run.
    let untouched = ResultStore::open(&dir).unwrap();
    assert_eq!(untouched.completed_count(), store.completed_count());
    fs::remove_dir_all(&dir).unwrap();
}

/// A bit flipped in the middle of a live partition: the report must not
/// call the store complete, must name the logged cells it cannot read, and
/// `--resume` must re-run exactly those and render the intact bytes again.
/// Drives the real `campaign` binary, as users see the report.
#[test]
fn report_counts_only_the_rows_a_corrupted_store_can_read() {
    let campaign = env!("CARGO_BIN_EXE_campaign");
    let dir = temp_dir("report-corrupted");
    let run = |args: &[&str]| {
        let output = std::process::Command::new(campaign)
            .args(args)
            .output()
            .expect("run the campaign binary");
        assert!(
            output.status.success(),
            "campaign {args:?} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).unwrap()
    };
    let dir_arg = dir.to_str().unwrap();
    let grid = |mode: &'static str| -> Vec<&str> {
        vec![
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
            "--no-sync",
            "--quiet",
            mode,
            dir_arg,
        ]
    };
    run(&grid("--out"));
    let intact = read_outputs(&dir);
    let report = run(&["report", dir_arg]);
    assert!(report.contains("6/6 cells recorded (complete)"), "{report}");

    let part = dir.join("cells/part-0000.apc");
    let mut bytes = fs::read(&part).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x01;
    fs::write(&part, bytes).unwrap();
    for name in OUTPUTS {
        fs::remove_file(dir.join(name)).unwrap();
    }
    let report = run(&["report", dir_arg]);
    let head = report.lines().next().unwrap();
    assert!(!head.contains("(complete)"), "{report}");
    // Six one-row blocks; the flipped byte sits in the fourth, so three
    // rows stay readable and three logged cells do not.
    assert!(
        head.contains("3/6 cells recorded (3 logged but unreadable; finish it with --resume)"),
        "{report}"
    );

    run(&grid("--resume"));
    assert_eq!(
        read_outputs(&dir),
        intact,
        "resume re-rendered different bytes"
    );
    let report = run(&["report", dir_arg]);
    assert!(report.contains("6/6 cells recorded (complete)"), "{report}");
    fs::remove_dir_all(&dir).unwrap();
}
