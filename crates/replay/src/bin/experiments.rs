//! Command-line driver regenerating the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p apc-replay --bin experiments -- [targets] [options]
//!
//! targets: fig2 fig3 fig4 fig5 fig6 fig7a fig7b fig8 claims ablations model all
//!          (default: the static tables fig2..fig5 and the model sweep)
//! options: --racks N   replay scale in racks of 90 nodes (default 6)
//!          --full      replay at the full 56-rack / 5040-node Curie scale
//!          --seed S    workload generator seed (default 2012)
//!          --swf PATH  replay a Standard Workload Format trace (e.g. the
//!                      real CEA-Curie trace) instead of the synthetic
//!                      generator for fig6/fig7/fig8/claims/ablations
//!          --trace-out FILE
//!                      profile one replay of each paper scenario
//!                      (100%/None, 60%/SHUT, 60%/DVFS, 60%/MIX) at the
//!                      chosen scale and write the schedule-pass spans as
//!                      Chrome Trace Event JSON — load FILE at
//!                      chrome://tracing or ui.perfetto.dev, one lane per
//!                      scenario; runs after (or without) any targets
//! ```
//!
//! Exits 0 on success, 2 after the usage text for a bad command line, and
//! 1 for an error at run time (a failed write). A stdout whose reader has
//! gone (`experiments | head -1`) is no error: the remaining targets are
//! skipped and the command still exits 0.

use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::Arc;

use apc_replay::figures;
use apc_workload::{load_swf_file, Trace};

/// Every target this binary understands, in canonical output order.
const VALID_TARGETS: [&str; 11] = [
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "model",
    "fig6",
    "fig7a",
    "fig7b",
    "fig8",
    "claims",
    "ablations",
];

const USAGE: &str =
    "usage: experiments [fig2|fig3|fig4|fig5|fig6|fig7a|fig7b|fig8|claims|ablations|model|all]... \
     [--racks N|--full] [--seed S] [--swf PATH] [--trace-out FILE]";

fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut racks = figures::DEFAULT_RACKS;
    let mut seed = 2012u64;
    let mut swf_path: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--racks" => {
                racks = match iter.next().and_then(|v| v.parse().ok()) {
                    Some(0) => return fail("--racks must be >= 1, got 0"),
                    Some(r) => r,
                    None => return fail("--racks needs an integer argument"),
                };
            }
            "--seed" => {
                seed = match iter.next().and_then(|v| v.parse().ok()) {
                    Some(s) => s,
                    None => return fail("--seed needs an integer argument"),
                };
            }
            "--swf" => {
                swf_path = match iter.next() {
                    Some(p) => Some(p.clone()),
                    None => return fail("--swf needs a file path argument"),
                };
            }
            "--trace-out" => {
                trace_out = match iter.next() {
                    Some(p) => Some(p.clone()),
                    None => return fail("--trace-out needs a file path argument"),
                };
            }
            "--full" => racks = 56,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => targets.push(other.to_string()),
        }
    }

    // Validate every target up front: a typo like `fig9` aborts with the
    // valid list instead of silently running everything else first.
    let invalid: Vec<&String> = targets
        .iter()
        .filter(|t| t.as_str() != "all" && !VALID_TARGETS.contains(&t.as_str()))
        .collect();
    if !invalid.is_empty() {
        let unknown = invalid
            .iter()
            .map(|t| t.as_str())
            .collect::<Vec<_>>()
            .join(", ");
        return fail(&format!(
            "unknown target(s): {unknown}\nvalid targets: {} or all",
            VALID_TARGETS.join(", ")
        ));
    }

    // Bare `--trace-out FILE` means "just profile" — only fill in the
    // default static-table targets when no profile was requested either.
    if targets.is_empty() && trace_out.is_none() {
        targets = vec![
            "fig2".into(),
            "fig3".into(),
            "fig4".into(),
            "fig5".into(),
            "model".into(),
        ];
    }
    if targets.iter().any(|t| t == "all") {
        targets = VALID_TARGETS.iter().map(|s| s.to_string()).collect();
    }

    // Only load (and announce) the SWF trace when a requested target
    // actually replays a workload — fig2..fig5 and the model sweep are pure
    // model evaluations and never touch it.
    const REPLAY_TARGETS: [&str; 6] = ["fig6", "fig7a", "fig7b", "fig8", "claims", "ablations"];
    let replays_requested =
        targets.iter().any(|t| REPLAY_TARGETS.contains(&t.as_str())) || trace_out.is_some();
    let swf_trace: Option<Arc<Trace>> = match &swf_path {
        Some(path) if replays_requested => match load_swf_file(path) {
            Ok(trace) => {
                eprintln!(
                    "replaying {} jobs over {} s from {path} instead of the synthetic trace",
                    trace.len(),
                    trace.duration
                );
                Some(Arc::new(trace))
            }
            Err(e) => return fail(&e),
        },
        Some(path) => {
            eprintln!(
                "note: --swf {path} ignored — none of the requested targets replays a workload"
            );
            None
        }
        None => None,
    };
    let swf = swf_trace.as_ref();

    let mut out = io::stdout().lock();
    for target in targets {
        let output = match target.as_str() {
            "fig2" => figures::fig2(),
            "fig3" => figures::fig3(),
            "fig4" => figures::fig4(),
            "fig5" => figures::fig5(),
            "model" => figures::model_sweep(),
            "fig6" => figures::fig6(racks, seed, swf),
            "fig7a" => figures::fig7a(racks, seed, swf),
            "fig7b" => figures::fig7b(racks, seed, swf),
            "fig8" => figures::fig8(racks, seed, swf),
            "claims" => figures::claims(racks, seed, swf),
            "ablations" => {
                let mut s = figures::ablation_grouping(racks, seed, swf);
                s.push('\n');
                s.push_str(&figures::ablation_decision_rule(racks, seed, swf));
                s.push('\n');
                s.push_str(&figures::ablation_app_aware(racks, seed, swf));
                s
            }
            _ => unreachable!("targets were validated above"),
        };
        match writeln!(out, "{output}\n{}", "=".repeat(100)) {
            Ok(()) => {}
            // The reader has gone: nobody would read the other targets.
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => break,
            Err(e) => {
                eprintln!("error: cannot write to stdout: {e}");
                return ExitCode::from(1);
            }
        }
    }

    if let Some(path) = trace_out {
        let (json, span_count) = figures::profile_trace(racks, seed, swf);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        eprintln!(
            "profiled the 4 paper scenarios at {racks} rack(s): wrote {span_count} span(s) to \
             {path} (load at chrome://tracing or ui.perfetto.dev)"
        );
    }
    ExitCode::SUCCESS
}
