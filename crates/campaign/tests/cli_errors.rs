//! Malformed command lines exit 2 with a located message; well-formed ones
//! that fail at run time exit 1 without the usage text; a closed stdout is
//! no failure.
//!
//! Each case drives the real `campaign` or `campaign-diff` binary and pins
//! the exit status and the exact first line of stderr (the usage text
//! follows it on exit 2). The store directory named in the subcommand
//! cases does not exist: every malformed call must fail on its arguments
//! before it looks at the store, and every well-formed one fails on the
//! store.

use std::process::Command;

const CAMPAIGN: &str = env!("CARGO_BIN_EXE_campaign");
const DIFF: &str = env!("CARGO_BIN_EXE_campaign-diff");

const ALL_COLUMNS: &str = "index, racks, workload, seed, load_factor, scenario, window, policy, \
cap_percent, grouping, decision_rule, schedule, faults, launched_jobs, completed_jobs, \
killed_jobs, pending_jobs, work_core_seconds, energy_joules, energy_normalized, \
launched_jobs_normalized, work_normalized, mean_wait_seconds, peak_power_watts";

const NUMERIC_COLUMNS: &str = "index, racks, seed, load_factor, cap_percent, launched_jobs, \
completed_jobs, killed_jobs, pending_jobs, work_core_seconds, energy_joules, energy_normalized, \
launched_jobs_normalized, work_normalized, mean_wait_seconds, peak_power_watts";

fn first_error_line(bin: &str, args: &[&str]) -> String {
    let output = Command::new(bin)
        .args(args)
        .output()
        .expect("spawn the binary");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "{args:?} should be a usage error; stderr:\n{stderr}"
    );
    assert!(output.stdout.is_empty(), "{args:?} printed to stdout");
    stderr.lines().next().unwrap_or_default().to_string()
}

#[test]
fn malformed_campaign_calls_exit_2_with_their_message() {
    let dir = std::env::temp_dir().join(format!("apc-cli-errors-{}", std::process::id()));
    let dir = dir.to_str().expect("temp dir is UTF-8");
    let unknown_nope = format!("error: unknown column \"nope\" (valid: {ALL_COLUMNS})");
    let not_numeric = format!(
        "error: column \"workload\" is not numeric and cannot be aggregated \
         (numeric: {NUMERIC_COLUMNS})"
    );
    // 56 racks × 4 intervals × 100 loads × (the baseline + 2 groupings × 2
    // rules × 99 caps × 3 policies) cells per seed.
    let racks = (1..=56)
        .map(|r| r.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let loads = (1..=100)
        .map(|l| (l as f64 / 100.0).to_string())
        .collect::<Vec<_>>()
        .join(",");
    let caps = (1..100)
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let wide = vec![
        "--racks",
        &racks,
        "--load",
        &loads,
        "--caps",
        &caps,
        "--groupings",
        "grouped,scattered",
        "--rules",
        "paper-rho,work-max",
        "--seeds",
        "200",
    ];
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["--threads", "x"], "error: --threads needs an integer"),
        (vec!["--seeds", "0"], "error: --seeds must be >= 1"),
        (vec!["--seeds"], "error: --seeds needs a value"),
        (
            vec!["--seeds", "4294967296"],
            "error: --seeds must be at most 4294967295 (the cells a store holds), got 4294967296",
        ),
        (
            vec!["--seeds", "4294967295"],
            "error: --seeds 4294967295 with 40 cells per seed makes 171798691800 cells, more \
             than the 4294967295 a store holds",
        ),
        (
            wide,
            "error: --seeds 200 with 26633600 cells per seed makes 5326720000 cells, more \
             than the 4294967295 a store holds",
        ),
        (
            vec!["--seed-base", "18446744073709551615", "--seeds", "2"],
            "error: --seed-base 18446744073709551615 with --seeds 2 runs past the largest \
             seed, 18446744073709551615",
        ),
        (
            vec!["--faults", "none,1048577x600@7"],
            "error: --faults: fault plan \"1048577x600@7\": COUNT must be at most 1048576, \
             got 1048577",
        ),
        (vec!["--workers", "x"], "error: --workers needs an integer"),
        (vec!["--backlog", "x"], "error: --backlog needs a number"),
        (
            vec!["--lease-ttl", "0"],
            "error: --lease-ttl must be > 0 seconds",
        ),
        (
            vec!["--lease-ttl", "x"],
            "error: --lease-ttl needs a number of seconds",
        ),
        (
            vec!["--format", "xml"],
            "error: --format must be csv, json or both, got xml",
        ),
        (
            vec!["--caps", "100"],
            "error: --caps: cap percent must be in (0, 100), got 100 \
             (the 100% baseline is included unless --no-baseline)",
        ),
        (
            vec!["--racks", "1,x"],
            "error: --racks: invalid digit found in string",
        ),
        (
            vec!["query", dir, "--limit", "x"],
            "error: --limit needs an integer",
        ),
        (
            vec!["query", dir, "--load", "x"],
            "error: --load needs a number",
        ),
        (vec!["query", dir, "--seed"], "error: --seed needs a value"),
        (vec!["query", dir, "--columns", "nope"], &unknown_nope),
        (vec!["query", dir, "--group-by", "nope"], &unknown_nope),
        (
            vec!["query", dir, "--columns", ""],
            "error: --columns needs a non-empty comma-separated list",
        ),
        (
            vec!["query", dir, "--group-by", ""],
            "error: --group-by needs a non-empty comma-separated list",
        ),
        (
            vec!["query", dir, "--agg", "mean"],
            "error: --agg needs --group-by",
        ),
        (
            vec![
                "query",
                dir,
                "--group-by",
                "scenario",
                "--columns",
                "workload",
            ],
            &not_numeric,
        ),
        (
            vec!["compact", dir, "--per-part", "x"],
            "error: --per-part needs an integer",
        ),
        (
            vec!["compact", dir, "--per-part"],
            "error: --per-part needs a value",
        ),
        (
            vec!["worker", dir, "--worker-id", "x"],
            "error: --worker-id needs an integer",
        ),
        (
            vec!["worker", dir, "--worker-id"],
            "error: --worker-id needs a value",
        ),
        (
            vec!["pareto", dir, "--bogus"],
            "error: unknown option: --bogus",
        ),
        (vec!["pareto", dir, "--out"], "error: --out needs a value"),
    ];
    for (args, expected) in cases {
        assert_eq!(first_error_line(CAMPAIGN, &args), expected, "{args:?}");
    }
}

/// The exit status and stderr of a call expected to fail.
fn failure(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(CAMPAIGN).args(args).output().unwrap();
    assert!(output.stdout.is_empty(), "{args:?} printed to stdout");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    (output.status.code(), stderr)
}

#[test]
fn run_time_errors_exit_1_without_the_usage_text() {
    let dir = std::env::temp_dir().join(format!("apc-cli-runtime-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir = dir.to_str().expect("temp dir is UTF-8");
    let missing =
        format!("error: cannot read {dir}/manifest.txt: No such file or directory (os error 2)");
    for subcommand in ["report", "query", "pareto", "compact"] {
        let (code, stderr) = failure(&[subcommand, dir]);
        assert_eq!(code, Some(1), "{subcommand}: {stderr}");
        assert_eq!(stderr, format!("{missing}\n"), "{subcommand}");
    }
    // A worker whose grid is not the one the store was created for.
    let grid = [
        "--seeds",
        "1",
        "--racks",
        "1",
        "--intervals",
        "medianjob",
        "--policies",
        "shut",
        "--caps",
        "60",
        "--quiet",
    ];
    let status = Command::new(CAMPAIGN)
        .args(grid)
        .args(["--distributed", dir, "--workers", "0"])
        .output()
        .unwrap()
        .status;
    assert!(status.success());
    let (code, stderr) = failure(
        &[
            &["worker", dir, "--worker-id", "0"][..],
            &grid,
            &["--caps", "40"],
        ]
        .concat(),
    );
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.starts_with(&format!(
            "error: store at {dir} was produced by a different campaign spec"
        )),
        "{stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    std::fs::remove_dir_all(dir).unwrap();
}

/// A reader that closed its end of the pipe before the first write is no
/// error: the grid run, `query`, `report`, `pareto` and `--help` stop
/// writing to stdout and exit 0, with no panic; `campaign-diff` exits with
/// its verdict (0 for two copies of one run) on two summary files, on two
/// store directories, with `--intersect`, and for `--help`.
#[test]
fn a_closed_stdout_ends_quietly() {
    let dir = std::env::temp_dir().join(format!("apc-cli-closed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir = dir.to_str().expect("temp dir is UTF-8");
    let summary = format!("{dir}/summary.csv");
    let grid = [
        "--seeds",
        "1",
        "--racks",
        "1",
        "--intervals",
        "medianjob",
        "--policies",
        "shut",
        "--caps",
        "60",
        "--out",
        dir,
    ];
    for (bin, args) in [
        (CAMPAIGN, &grid[..]),
        (CAMPAIGN, &["query", dir]),
        (CAMPAIGN, &["report", dir]),
        (CAMPAIGN, &["pareto", dir]),
        (CAMPAIGN, &["--help"]),
        (DIFF, &[summary.as_str(), summary.as_str()]),
        (DIFF, &[dir, dir]),
        (DIFF, &[dir, dir, "--intersect"]),
        (DIFF, &["--help"]),
    ] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let output = Command::new(bin)
            .args(args)
            .stdout(writer)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn malformed_campaign_diff_calls_exit_2_with_their_message() {
    for (args, expected) in [
        (
            &["A", "--threshold", "-1"][..],
            "error: --threshold must be >= 0, got -1",
        ),
        (
            &["A", "--threshold", "x"][..],
            "error: --threshold needs a number (percent)",
        ),
        (
            &["A", "--threshold"][..],
            "error: --threshold needs a value",
        ),
    ] {
        assert_eq!(first_error_line(DIFF, args), expected, "{args:?}");
    }
}
