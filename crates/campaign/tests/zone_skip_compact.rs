//! Zone-map skipping, a flipped byte mid-partition and compaction, through
//! the real `campaign` binary on one 160-cell store:
//!
//! * the workload axis is contiguous across cell indices, so the first
//!   64-cell partition holds only `smalljob` rows and a `medianjob` query
//!   skips it from its zone maps alone;
//! * a copy with the middle byte of `part-0000.apc` flipped (a bad block
//!   inside the file, not a torn tail) is never reported complete, and a
//!   resume re-runs its lost cells and renders the intact store's bytes;
//! * `compact` rewrites the completion log as the one line `done 0-159`,
//!   and the query output, `pareto.csv` and a resume's `cells.csv` and
//!   `summary.csv` stay byte-identical.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_campaign");

/// 2 intervals × 8 seeds × (baseline + 3 policies × 3 caps) = 160 cells.
const GRID: &[&str] = &[
    "--threads",
    "2",
    "--seeds",
    "8",
    "--racks",
    "1",
    "--intervals",
    "smalljob,medianjob",
    "--caps",
    "80,60,40",
    "--load",
    "0.8",
    "--backlog",
    "0.3",
];

const RENDERS: [&str; 4] = ["cells.csv", "summary.csv", "cells.json", "summary.json"];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apc-zone-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Run `campaign args…`; returns stdout and stderr, failing on a non-zero
/// exit.
fn campaign(args: &[&str]) -> (String, String) {
    let output = Command::new(BIN).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(
        output.status.success(),
        "campaign {args:?} failed:\n{stderr}"
    );
    (String::from_utf8(output.stdout).unwrap(), stderr)
}

/// Run the grid with `mode DIR` (`--out` or `--resume`).
fn grid(mode: &str, dir: &Path) {
    let mut args = GRID.to_vec();
    args.extend([mode, dir.to_str().unwrap(), "--quiet"]);
    campaign(&args);
}

fn read(dir: &Path, names: &[&str]) -> Vec<Vec<u8>> {
    names
        .iter()
        .map(|n| fs::read(dir.join(n)).unwrap())
        .collect()
}

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// The `medianjob` query's stdout, and how many partitions it skipped from
/// their zone maps.
fn medianjob_query(dir: &str) -> (String, usize) {
    let (stdout, stderr) = campaign(&[
        "query",
        dir,
        "--workload",
        "medianjob",
        "--columns",
        "index,workload",
    ]);
    let skipped = stderr
        .split(" partition(s) zone-skipped")
        .next()
        .and_then(|head| head.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no zone-skip count in {stderr:?}"));
    (stdout, skipped)
}

#[test]
fn zone_skip_bit_flip_and_compaction_keep_every_output() {
    let store = temp_dir("store");
    grid("--out", &store);
    let arg = store.to_str().unwrap();
    let (query, skipped) = medianjob_query(arg);
    assert!(skipped >= 1, "the smalljob-only partition was read");
    campaign(&["pareto", arg, "--quiet"]);
    let before = read(&store, &["pareto.csv", "cells.csv", "summary.csv"]);

    // Flip the middle byte of a copy's first partition: 64 one-row blocks,
    // so several four-block checksum groups precede it.
    let bad = temp_dir("bad");
    copy_dir(&store, &bad);
    let part = bad.join("cells").join("part-0000.apc");
    let mut bytes = fs::read(&part).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 1;
    fs::write(&part, bytes).unwrap();
    for name in RENDERS {
        fs::remove_file(bad.join(name)).unwrap();
    }
    let report = campaign(&["report", bad.to_str().unwrap()]).0;
    assert!(!report.contains("(complete)"), "{report}");
    assert!(report.contains("logged but unreadable"), "{report}");
    grid("--resume", &bad);
    assert!(
        read(&bad, &RENDERS) == read(&store, &RENDERS),
        "resumed renders differ"
    );

    campaign(&["compact", arg]);
    let manifest = fs::read_to_string(store.join("manifest.txt")).unwrap();
    let done: Vec<&str> = manifest.lines().filter(|l| l.starts_with("done")).collect();
    assert_eq!(done, ["done 0-159"], "{manifest}");
    let report = campaign(&["report", arg]).0;
    assert!(report.contains("cells recorded (complete)"), "{report}");
    assert_eq!(medianjob_query(arg).0, query);
    campaign(&["pareto", arg, "--quiet"]);
    assert!(
        read(&store, &["pareto.csv"])[0] == before[0],
        "pareto.csv moved"
    );

    // Resuming the compacted store finds every cell recorded and renders
    // the pre-compaction bytes again.
    fs::remove_file(store.join("cells.csv")).unwrap();
    fs::remove_file(store.join("summary.csv")).unwrap();
    grid("--resume", &store);
    assert!(
        read(&store, &["cells.csv", "summary.csv"]) == before[1..],
        "renders moved"
    );

    fs::remove_dir_all(&bad).unwrap();
    fs::remove_dir_all(&store).unwrap();
}
