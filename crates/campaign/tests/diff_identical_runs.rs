//! `campaign-diff` on two runs of one grid, through the real binaries:
//!
//! * the grid run with `--threads 2` and again with `--threads 1 --quiet`
//!   renders the same four files, byte for byte;
//! * `campaign-diff A/summary.csv B/summary.csv` exits 0;
//! * `campaign-diff A B/summary.csv --intersect`, with A a store
//!   directory, exits 0 and prints its `coverage:` line.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const CAMPAIGN: &str = env!("CARGO_BIN_EXE_campaign");
const DIFF: &str = env!("CARGO_BIN_EXE_campaign-diff");

/// The grid of the smoke campaign: 2 seeds × (baseline + SHUT/MIX at
/// 60 %), one rack, six cells.
const GRID: &[&str] = &[
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
];

const RENDERS: [&str; 4] = ["cells.csv", "summary.csv", "cells.json", "summary.json"];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apc-diff-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Run `bin args…`, failing on a non-zero exit.
fn run(bin: &str, args: &[&str]) -> Output {
    let output = Command::new(bin).args(args).output().unwrap();
    assert!(
        output.status.success(),
        "{bin} {args:?} exited {:?}:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

fn path(dir: &Path, name: &str) -> String {
    dir.join(name).to_str().unwrap().to_string()
}

#[test]
fn two_identical_runs_diff_clean() {
    let (a, b) = (temp_dir("a"), temp_dir("b"));
    for (dir, flags) in [
        (&a, &["--threads", "2"][..]),
        (&b, &["--threads", "1", "--quiet"]),
    ] {
        let mut args = GRID.to_vec();
        args.extend(flags);
        args.extend(["--out", dir.to_str().unwrap()]);
        run(CAMPAIGN, &args);
    }
    for name in RENDERS {
        assert!(
            fs::read(a.join(name)).unwrap() == fs::read(b.join(name)).unwrap(),
            "{name} differs between --threads 2 and --threads 1"
        );
    }
    run(DIFF, &[&path(&a, "summary.csv"), &path(&b, "summary.csv")]);
    let intersect = run(
        DIFF,
        &[a.to_str().unwrap(), &path(&b, "summary.csv"), "--intersect"],
    );
    let stdout = String::from_utf8(intersect.stdout).unwrap();
    assert!(stdout.contains("coverage:"), "{stdout}");
    fs::remove_dir_all(a).unwrap();
    fs::remove_dir_all(b).unwrap();
}
