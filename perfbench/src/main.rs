//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]
//! ```
//!
//! Runs one workload (`paper-grid`, `tiny-leased`, `store-query`) in this
//! process, checks every output, and prints as its last line one JSON
//! object: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end ones with `--trace 0`, the per-layer ones with `--trace 1`. The program is driven only through its public crate APIs;
//! the traced run times those calls from this package's own files.

mod campaign;
mod layers;
mod query;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use crate::campaign::Kind;
use crate::trace::Tracer;

const USAGE: &str = "usage: perfbench --workload paper-grid|tiny-leased|store-query \
                     [--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]";

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 1;
/// The measuring time a run uses when none is given.
const DEFAULT_SECONDS: f64 = 20.0;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// What the value was computed over (printed, not reported).
    pub base: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            base: String::new(),
        }
    }
}

/// What a workload run produced.
pub struct Report {
    /// Items attempted: cells on campaign workloads, queries on `store-query`.
    pub attempted: usize,
    /// Items whose output failed a check.
    pub failed: usize,
    /// Digests of the outputs, one per round, each a function of the seed
    /// and the round number only.
    pub digests: Vec<u64>,
    pub metrics: Vec<Metric>,
    /// The span log of a traced run.
    pub spans: Option<Tracer>,
}

pub fn median(samples: &[f64]) -> f64 {
    util::percentile(samples, 0.5)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn run(args: &Args, work: &std::path::Path, start: Instant) -> Result<Report, String> {
    let kind = match args.workload.as_str() {
        "paper-grid" => Kind::PaperGrid,
        "tiny-leased" => Kind::TinyLeased,
        "store-query" => return query::run(args.seed, args.seconds, args.trace, work, start),
        other => return Err(format!("unknown workload {other}")),
    };
    campaign::run(kind, args.seed, args.seconds, args.trace, work, start)
}

fn json(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &report.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!("host: {}", util::host_fingerprint());
    match util::pin_to_last_cpu() {
        Some(cpu) => eprintln!("pinned to cpu {cpu}"),
        None => eprintln!("taskset failed: running unpinned, expect wider spreads"),
    }
    eprintln!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let work = args
        .work_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work, start));
    let _ = std::fs::remove_dir_all(&work);
    let (report, line) = match result.and_then(|r| json(&r).map(|j| (r, j))) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(tr) = &report.spans {
        let path = args.work_dir.join(format!("spans-{}.jsonl", args.workload));
        match tr.write(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
        }
    }
    for (round, digest) in report.digests.iter().enumerate() {
        eprintln!("digest round {round}: {digest:016x}");
    }
    println!(
        "output digest: {:016x} (seed {})",
        report.digests.first().copied().unwrap_or(0),
        args.seed
    );
    if !args.trace {
        for m in &report.metrics {
            println!("{:<22} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
    println!(
        "items: {} attempted, {} failed",
        report.attempted, report.failed
    );
    println!("{line}");
    ExitCode::SUCCESS
}
