//! Crash recovery through the real `campaign` binary.
//!
//! * A store whose manifest was cut after three `done` lines resumes to
//!   the four renders of the uninterrupted run, byte for byte — whether
//!   the cut fell on a line end or tore the next `done` line, whose torn
//!   tail is never trusted.
//! * A compaction that crashed between its two directory renames leaves no
//!   `cells/` directory. Its manifest rename had already committed it, so
//!   the first opener of the store finishes the swap: `--resume`,
//!   `report`, `query` and `compact` each succeed on that state and read
//!   what they read on the uncompacted store.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_campaign");

/// The grid of the smoke campaign: 2 seeds × (baseline + SHUT/MIX at
/// 60 %), one rack, six cells.
const GRID: &[&str] = &[
    "--threads",
    "2",
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
    let dir = std::env::temp_dir().join(format!("apc-crash-{tag}-{}", std::process::id()));
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
fn grid(mode: &str, dir: &Path) -> String {
    let mut args = GRID.to_vec();
    args.extend([mode, dir.to_str().unwrap(), "--quiet"]);
    campaign(&args).1
}

fn renders(dir: &Path) -> Vec<Vec<u8>> {
    RENDERS
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

/// Keep the 4-line manifest header and the first three `done` lines, and
/// with `torn` the fourth line too, without its newline.
fn cut_manifest(dir: &Path, torn: bool) {
    let path = dir.join("manifest.txt");
    let text = fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[4..8].iter().all(|l| l.starts_with("done ")), "{text}");
    let tail = if torn { lines[7] } else { "" };
    fs::write(&path, lines[..7].join("\n") + "\n" + tail).unwrap();
}

#[test]
fn a_resume_after_a_cut_manifest_renders_the_uninterrupted_bytes() {
    let reference = temp_dir("ref");
    grid("--out", &reference);
    let expected = renders(&reference);
    // The grid's cell indices are single digits, so the torn case cuts the
    // fourth line between its number and its newline: a reader cannot tell
    // that from a longer number cut short.
    for (case, torn) in [("clean", false), ("torn", true)] {
        let dir = temp_dir(case);
        copy_dir(&reference, &dir);
        cut_manifest(&dir, torn);
        let stderr = grid("--resume", &dir);
        assert!(
            stderr.contains("3 of 6 cells already recorded"),
            "{case}: {stderr}"
        );
        assert!(renders(&dir) == expected, "{case}: renders differ");
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::remove_dir_all(&reference).unwrap();
}

#[test]
fn every_opener_finishes_a_compaction_swap_cut_between_its_renames() {
    let reference = temp_dir("swap-ref");
    grid("--out", &reference);
    let expected = renders(&reference);
    let ref_arg = reference.to_str().unwrap();
    let query = campaign(&["query", ref_arg]).0;
    let report = campaign(&["report", ref_arg]).0.replace(ref_arg, "DIR");
    for opener in ["resume", "report", "query", "compact"] {
        // The state a crash leaves after `cells/` was retired and before
        // the compacted partitions were renamed into place.
        let dir = temp_dir(opener);
        copy_dir(&reference, &dir);
        campaign(&["compact", dir.to_str().unwrap(), "--quiet"]);
        fs::rename(dir.join("cells"), dir.join("cells.compact-tmp")).unwrap();
        copy_dir(&reference.join("cells"), &dir.join("cells.pre-compact"));
        for name in RENDERS {
            fs::remove_file(dir.join(name)).unwrap();
        }
        let arg = dir.to_str().unwrap();
        match opener {
            "resume" => {
                grid("--resume", &dir);
                assert!(renders(&dir) == expected, "resumed renders differ");
            }
            "report" => {
                let out = campaign(&["report", arg]).0.replace(arg, "DIR");
                assert_eq!(out, report);
            }
            "query" => assert_eq!(campaign(&["query", arg]).0, query),
            _ => {
                let stderr = campaign(&["compact", arg]).1;
                assert!(stderr.contains("6 row(s)"), "{stderr}");
                assert_eq!(campaign(&["query", arg]).0, query);
            }
        }
        assert!(dir.join("cells").is_dir(), "{opener}");
        for leftover in ["cells.compact-tmp", "cells.pre-compact"] {
            assert!(!dir.join(leftover).exists(), "{opener} left {leftover}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::remove_dir_all(&reference).unwrap();
}
