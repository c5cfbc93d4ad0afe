//! Compare two campaign summaries — rendered `summary.csv` files or result
//! store directories — from the same campaign grid.
//!
//! ```text
//! cargo run --release -p apc-campaign --bin campaign-diff -- A B [options]
//!
//! A and B are each either a rendered summary.csv file or a result store
//! directory (one containing manifest.txt); store inputs are scanned and
//! summarized in memory, so v2 CSV and v3 columnar stores both work and
//! no intermediate export file is needed.
//!
//! options:
//!   --threshold PCT    max tolerated relative change per metric, in percent
//!                      (default 0: any delta fails)
//!   --intersect        compare only the grid rows both sides have instead
//!                      of failing on a grid mismatch; prints a coverage
//!                      line so partial overlap stays visible. An empty
//!                      intersection still fails — nothing was compared.
//!   --quiet            only print breaches, not the full delta list
//!
//! exit status:
//!   0  same grid (or, with --intersect, a non-empty common subgrid) and
//!      no metric beyond the threshold
//!   1  grids differ (without --intersect), the intersection is empty, or
//!      at least one metric breached the threshold
//!   2  usage or input error
//! ```

use std::path::Path;
use std::process::ExitCode;

use apc_campaign::agg::summarize;
use apc_campaign::diff::diff_summary_csv;
use apc_campaign::query::StoreScanner;
use apc_campaign::sink::render_summary_csv;

const USAGE: &str =
    "usage: campaign-diff A B [--threshold PCT] [--intersect] [--quiet]  (A/B: summary.csv or store dir)";

struct Options {
    a_path: String,
    b_path: String,
    threshold_percent: f64,
    intersect: bool,
    quiet: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut paths: Vec<String> = Vec::new();
    let mut threshold_percent = 0.0f64;
    let mut intersect = false;
    let mut quiet = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--threshold" => {
                let raw = iter
                    .next()
                    .ok_or_else(|| "--threshold needs a value".to_string())?;
                threshold_percent = raw
                    .parse()
                    .map_err(|_| "--threshold needs a number (percent)".to_string())?;
                if threshold_percent.is_nan() || threshold_percent < 0.0 {
                    return Err(format!("--threshold must be >= 0, got {threshold_percent}"));
                }
            }
            "--intersect" => intersect = true,
            "--quiet" => quiet = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option: {flag}")),
            path => paths.push(path.to_string()),
        }
    }
    let [a_path, b_path] = <[String; 2]>::try_from(paths)
        .map_err(|got| format!("expected exactly 2 inputs, got {}", got.len()))?;
    Ok(Some(Options {
        a_path,
        b_path,
        threshold_percent,
        intersect,
        quiet,
    }))
}

/// Load one input as rendered summary.csv text: read the file directly, or
/// scan + summarize a result store directory in memory.
fn load_summary(path_str: &str) -> Result<String, String> {
    let path = Path::new(path_str);
    if path.is_dir() {
        let rows = StoreScanner::open(path)?.rows()?;
        return Ok(render_summary_csv(&summarize(&rows)));
    }
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path_str}: {e}"))
}

fn run(options: &Options) -> Result<bool, String> {
    let a = load_summary(&options.a_path)?;
    let b = load_summary(&options.b_path)?;
    let report = diff_summary_csv(&a, &b)?;
    let breaches = report.breaches(options.threshold_percent);
    if options.quiet {
        for d in &breaches {
            println!(
                "{} {}: {} -> {} ({:.3}% > {:.3}%)",
                d.key,
                d.metric,
                d.a,
                d.b,
                d.rel_percent(),
                options.threshold_percent
            );
        }
        if !report.grid_matches() && !options.intersect {
            println!(
                "grid mismatch: {} rows only in A, {} only in B",
                report.only_in_a.len(),
                report.only_in_b.len()
            );
        }
    } else {
        print!("{}", report.render(options.threshold_percent));
    }
    if options.intersect {
        print!("{}", report.coverage_summary());
    }
    eprintln!(
        "compared {} rows: {} metric deltas, {} beyond {}% threshold{}",
        report.compared_rows,
        report.deltas.len(),
        breaches.len(),
        options.threshold_percent,
        if report.grid_matches() {
            ""
        } else if options.intersect {
            " (partial grids, intersect mode)"
        } else {
            " (GRID MISMATCH)"
        },
    );
    let grid_ok = if options.intersect {
        // Comparing nothing proves nothing — an empty intersection is a
        // failure, not a vacuous pass.
        report.compared_rows > 0
    } else {
        report.grid_matches()
    };
    Ok(grid_ok && breaches.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Some(options)) => match run(&options) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::from(2)
            }
        },
        Ok(None) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
