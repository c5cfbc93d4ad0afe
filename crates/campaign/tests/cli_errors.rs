//! Malformed command lines exit 2 with a located message.
//!
//! Each case drives the real `campaign` or `campaign-diff` binary and pins
//! the exit status and the exact first line of stderr (the usage text
//! follows it). The store directory named in the subcommand cases does not
//! exist: every one of these calls must fail on its arguments before it
//! looks at the store.

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
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["--threads", "x"], "error: --threads needs an integer"),
        (vec!["--seeds", "0"], "error: --seeds must be >= 1"),
        (vec!["--seeds"], "error: --seeds needs a value"),
        (
            vec!["--seeds", "4294967296"],
            "error: --seeds must be at most 4294967295 (the cells a store holds), got 4294967296",
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
