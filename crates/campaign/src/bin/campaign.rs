//! Command-line driver for parallel experiment campaigns.
//!
//! ```text
//! cargo run --release -p apc-campaign --bin campaign -- [options]
//! cargo run --release -p apc-campaign --bin campaign -- worker DIR --worker-id N [options]
//! cargo run --release -p apc-campaign --bin campaign -- pareto DIR [options]
//! cargo run --release -p apc-campaign --bin campaign -- query DIR [options]
//! cargo run --release -p apc-campaign --bin campaign -- report DIR
//! cargo run --release -p apc-campaign --bin campaign -- compact DIR [options]
//!
//! campaign options:
//!   --threads N        worker threads (0 = all cores; default 1)
//!   --seeds K          seed replications per cell group (default 3; at
//!                      most the cells a store holds)
//!   --seed-base S      first seed; replications use S, S+1, … (default
//!                      2012; the last one must not pass 2^64 - 1)
//!   --racks LIST       rack scales, e.g. 1,2,6 (default 2; >= 56 = full Curie)
//!   --intervals LIST   smalljob,medianjob,bigjob,24h (default: all four)
//!   --policies LIST    shut,dvfs,mix (default: all three)
//!   --caps LIST        cap percentages, e.g. 80,60,40 (default)
//!   --no-baseline      skip the uncapped 100%/None rows
//!   --groupings LIST   grouped,scattered (default grouped)
//!   --rules LIST       paper-rho,work-max (default paper-rho)
//!   --windows LIST     cap-window sweep: FRACxSECONDS placements, `+` joins
//!                      the windows of one scenario, `,` separates axis
//!                      values — e.g. `0.5x3600` (paper) or
//!                      `0.5x3600,0x1800+1x1800` (default 0.5x3600); each
//!                      window set × --caps value is one uniform cap
//!                      schedule, registered in the written window order
//!   --cap-schedule PATH
//!                      add one cap schedule axis value read from PATH
//!                      (`START DURATION FRACTION` lines, `#` comments; see
//!                      README "Scenarios"); repeatable — these schedules
//!                      run in addition to the --caps × --windows grid
//!   --faults LIST      fault-plan axis values: `none` or `NxDUR@SEED`
//!                      (N node outages of DUR seconds each, placement
//!                      seeded by SEED), e.g. `none,3x600@7` — each value
//!                      crosses the whole scenario grid
//!   --load LIST        generator arrival load factors, e.g. 1.0,1.8
//!                      (default 1.8; each value is one workload axis entry)
//!   --backlog F        generator initial backlog factor (default 1.3)
//!   --swf PATH         replay an SWF trace instead of the synthetic grid
//!   --out DIR          results directory (default campaign-results)
//!   --resume DIR       resume the interrupted campaign stored in DIR
//!                      (grid flags must match; validated by spec hash; a
//!                      v2 CSV store resumes by appending .apc partitions)
//!   --distributed DIR  run the campaign as N independent worker *processes*
//!                      coordinating through DIR/leases.log (see README
//!                      "Distributed execution"); excludes --out/--resume
//!   --workers N        worker processes to launch (default 2; 0 = only
//!                      initialise the store and lease log, then exit — for
//!                      launching `campaign worker` processes by hand)
//!   --lease-cells N    cells per lease batch (default 4096)
//!   --lease-ttl SECS   lease time-to-live; a worker silent this long is
//!                      presumed dead and its batch stolen (default 30)
//!   --no-sync          skip the per-append fsyncs of the store and lease
//!                      log (tests/benches only: a crash may then lose or
//!                      reorder trailing records)
//!   --format WHICH     csv | json | both (default both)
//!   --quiet            suppress the per-group stdout table
//!   --progress         live top-style progress view on stderr (overall %,
//!                      cells/s, ETA, cells done per worker); with
//!                      --distributed, the lease summary `report` prints
//!   --metrics          dump the metrics registry snapshot to stderr at
//!                      the end of the run
//!   --trace-out FILE   record one span per cell and write them to FILE in
//!                      Chrome Trace Event JSON (load at chrome://tracing)
//!
//! worker DIR --worker-id N: one distributed worker process over the store
//!   and lease log in DIR (normally spawned by --distributed; run by hand
//!   with the exact grid flags the coordinator used — the spec fingerprint
//!   is checked against both the manifest and the lease-log header)
//!
//! pareto DIR: non-dominated (energy, work, wait) front per workload group
//!   --out FILE         where to write the CSV (default DIR/pareto.csv)
//!   --cells            front individual replications instead of across-seed
//!                      means — dominance is counted per seed, exposing
//!                      variance-driven trade-offs (default output
//!                      DIR/pareto-cells.csv)
//!   --quiet            suppress the stdout table
//!
//! query DIR: stream filtered rows out of the partitioned store
//!   --workload L | --scenario L | --window L | --policy P | --seed N |
//!   --load F | --racks R | --schedule L | --faults L
//!                      conjunctive row filters (`--schedule -` / `--faults -`
//!                      keep the rows without that axis)
//!   --columns LIST     columns to print (default: all, cells.csv order);
//!                      with --group-by, the numeric columns to aggregate.
//!                      v3 partitions decode only the requested columns
//!                      (projection pushdown), so narrow queries over wide
//!                      stores skip most of the decode work
//!   --limit N          stop the scan after N matching rows — remaining
//!                      partitions are never read; with --group-by, render
//!                      at most N groups (the fold still sees every row)
//!   --group-by LIST    fold matching rows into one output row per distinct
//!                      combination of these columns, aggregated in the
//!                      streaming scan (the row set is never materialised)
//!   --agg WHICH        mean | min | max (default mean; needs --group-by)
//!
//! report DIR: post-run summary of a (possibly partial) result store —
//!   completion state, axis coverage, and the across-seed summary table
//!
//! compact DIR: merge duplicate/superseded records and rewrite the store as
//!   4096-cell columnar v3 partitions of 256-row blocks (migrates v2 CSV
//!   stores to v3)
//!   --per-part N       change the partition width while compacting
//!   --quiet            suppress the stderr report
//! ```
//!
//! Results stream into an append-only partitioned store
//! (`DIR/cells/part-NNNN.apc` + `DIR/manifest.txt`) while cells run, so a
//! killed campaign can be picked up with `--resume DIR`; the rendered
//! `cells.*`/`summary.*` files are produced from the store at the end and
//! are byte-identical whether or not the campaign was interrupted (and
//! whether the store began as v2 CSV or v3). `query` streams the store
//! one partition at a time — skipping v3 partitions whose zone maps prove
//! no row can match — so very large campaigns are inspectable without
//! loading every partition into memory.

use std::process::ExitCode;
use std::sync::Arc;

use apc_campaign::prelude::*;
use apc_campaign::store::MAX_STORE_CELLS;
use apc_replay::{CapSchedule, FaultPlan};
use apc_workload::load_swf_file;

const USAGE: &str = "usage: campaign [--threads N] [--seeds K] [--seed-base S] [--racks LIST] \
[--intervals LIST] [--policies LIST] [--caps LIST] [--no-baseline] [--groupings LIST] \
[--rules LIST] [--windows LIST] [--cap-schedule PATH]... [--faults LIST] [--load LIST] \
[--backlog F] [--swf PATH] [--out DIR] [--resume DIR] \
[--distributed DIR [--workers N] [--lease-cells N] [--lease-ttl SECS]] [--no-sync] \
[--format csv|json|both] [--quiet] [--progress] [--metrics] [--trace-out FILE]
       campaign worker DIR --worker-id N [grid flags as the coordinator]
       campaign pareto DIR [--out FILE] [--cells] [--quiet]
       campaign query DIR [--workload L] [--scenario L] [--window L] [--policy P] [--seed N] \
[--load F] [--racks R] [--schedule L] [--faults L] [--columns LIST] [--limit N] \
[--group-by LIST [--agg mean|min|max]]
       campaign report DIR
       campaign compact DIR [--per-part N] [--quiet]";

/// Parse one `--windows` axis value: `FRACxSECONDS` placements joined by
/// `+` (several windows of one scenario).
fn parse_window_set(raw: &str) -> Result<WindowSet, String> {
    let mut set = WindowSet::new();
    for placement in raw.split('+') {
        let (frac, duration) = placement.split_once('x').ok_or_else(|| {
            format!("--windows: {placement:?} is not FRACxSECONDS (e.g. 0.5x3600)")
        })?;
        let frac: f64 = frac
            .trim()
            .parse()
            .map_err(|_| format!("--windows: bad start fraction {frac:?}"))?;
        let duration: u64 = duration
            .trim()
            .parse()
            .map_err(|_| format!("--windows: bad duration {duration:?} (seconds)"))?;
        set.push((frac, duration));
    }
    Ok(set)
}

/// Parse a comma-separated list, each item through `item`.
fn parse_list<T>(
    flag: &str,
    raw: &str,
    item: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let items = raw
        .split(',')
        .filter(|s| !s.is_empty())
        .map(item)
        .collect::<Result<Vec<T>, String>>()?;
    if items.is_empty() {
        return Err(format!("{flag} needs a non-empty comma-separated list"));
    }
    Ok(items)
}

/// A cursor over a subcommand's arguments. Every flag value is read
/// through it, so a missing or malformed value is reported as "FLAG needs
/// …" the same way everywhere.
struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
    /// The argument [`next_arg`](Args::next_arg) returned last: the flag
    /// whose value is read next.
    flag: &'a str,
}

impl<'a> Args<'a> {
    fn new(args: &'a [String]) -> Self {
        Args {
            rest: args.iter(),
            flag: "",
        }
    }

    fn next_arg(&mut self) -> Option<&'a str> {
        self.flag = self.rest.next()?;
        Some(self.flag)
    }

    /// The current flag's value.
    fn value(&mut self) -> Result<&'a str, String> {
        let flag = self.flag;
        self.rest
            .next()
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The current flag's value as a `T`; `what` names the expected form
    /// in the error ("an integer").
    fn parse<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, String> {
        let flag = self.flag;
        self.value()?
            .parse()
            .map_err(|_| format!("{flag} needs {what}"))
    }

    /// The current flag's value as a comma-separated list of `T`.
    fn list<T: std::str::FromStr>(&mut self) -> Result<Vec<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        let flag = self.flag;
        parse_list(flag, self.value()?, |s| {
            s.trim().parse().map_err(|e| format!("{flag}: {e}"))
        })
    }

    /// The current flag's value as a comma-separated list of columns.
    fn columns(&mut self) -> Result<Vec<Column>, String> {
        let flag = self.flag;
        parse_list(flag, self.value()?, |s| Column::from_name(s.trim()))
    }
}

struct Options {
    spec: CampaignSpec,
    threads: usize,
    source: TraceSource,
    out_dir: String,
    resume: bool,
    /// `--distributed DIR`: multi-process mode over this store directory.
    distributed: Option<String>,
    workers: usize,
    lease_cells: usize,
    lease_ttl_ms: u64,
    no_sync: bool,
    format: Format,
    quiet: bool,
    progress: bool,
    metrics: bool,
    trace_out: Option<String>,
}

#[derive(PartialEq, Clone, Copy)]
enum Format {
    Csv,
    Json,
    Both,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut spec = CampaignSpec::paper(2012, 3);
    let mut threads = 1usize;
    let mut seeds = 3usize;
    let mut seed_base = 2012u64;
    let mut swf = None;
    let mut out_dir: Option<String> = None;
    let mut resume_dir: Option<String> = None;
    let mut distributed: Option<String> = None;
    let mut workers = 2usize;
    let mut lease_cells = DEFAULT_LEASE_CELLS;
    let mut lease_ttl_ms = DEFAULT_LEASE_TTL_MS;
    let mut no_sync = false;
    let mut format = Format::Both;
    let mut quiet = false;
    let mut progress = false;
    let mut metrics = false;
    let mut trace_out: Option<String> = None;

    let mut args = Args::new(args);
    while let Some(arg) = args.next_arg() {
        match arg {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--threads" => threads = args.parse("an integer")?,
            "--seeds" => {
                seeds = args.parse("an integer")?;
                if seeds == 0 {
                    return Err("--seeds must be >= 1".into());
                }
                if seeds > MAX_STORE_CELLS {
                    return Err(format!(
                        "--seeds must be at most {MAX_STORE_CELLS} (the cells a store holds), \
                         got {seeds}"
                    ));
                }
            }
            "--seed-base" => seed_base = args.parse("an integer")?,
            "--racks" => spec.racks = args.list()?,
            "--intervals" => spec.intervals = args.list()?,
            "--policies" => spec.policies = args.list()?,
            "--caps" => {
                let percents: Vec<f64> = args.list()?;
                // Validate in the unit the user typed; the spec re-checks
                // the fractions for library callers.
                if let Some(p) = percents
                    .iter()
                    .find(|&&p| !(p.is_finite() && p > 0.0 && p < 100.0))
                {
                    return Err(format!(
                        "--caps: cap percent must be in (0, 100), got {p} \
                         (the 100% baseline is included unless --no-baseline)"
                    ));
                }
                spec.cap_fractions = percents.iter().map(|p| p / 100.0).collect();
            }
            "--no-baseline" => spec.include_baseline = false,
            "--groupings" => spec.groupings = args.list()?,
            "--rules" => spec.decision_rules = args.list()?,
            "--windows" => spec.cap_windows = parse_list(arg, args.value()?, parse_window_set)?,
            "--cap-schedule" => {
                let path = args.value()?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("--cap-schedule: cannot read {path}: {e}"))?;
                let schedule =
                    CapSchedule::parse(&text).map_err(|e| format!("--cap-schedule {path}: {e}"))?;
                spec.cap_schedules.push(schedule);
            }
            "--faults" => {
                let plans: Result<Vec<Option<FaultPlan>>, String> = args
                    .value()?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|item| match item.trim() {
                        "none" => Ok(None),
                        spec => FaultPlan::parse(spec)
                            .map(Some)
                            .map_err(|e| format!("--faults: {e}")),
                    })
                    .collect();
                let plans = plans?;
                if plans.is_empty() {
                    return Err("--faults needs a non-empty comma-separated list \
                                (`none` or NxDUR@SEED)"
                        .into());
                }
                spec.faults = plans;
            }
            "--load" => spec.load_factors = args.list()?,
            "--backlog" => spec.backlog_factor = args.parse("a number")?,
            "--swf" => swf = Some(args.value()?.to_string()),
            "--out" => out_dir = Some(args.value()?.to_string()),
            "--resume" => resume_dir = Some(args.value()?.to_string()),
            "--distributed" => distributed = Some(args.value()?.to_string()),
            "--workers" => workers = args.parse("an integer")?,
            "--lease-cells" => {
                lease_cells = args.parse("an integer")?;
                if lease_cells == 0 {
                    return Err("--lease-cells must be >= 1".into());
                }
            }
            "--lease-ttl" => {
                let secs: f64 = args.parse("a number of seconds")?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err("--lease-ttl must be > 0 seconds".into());
                }
                lease_ttl_ms = (secs * 1_000.0).round().max(1.0) as u64;
            }
            "--no-sync" => no_sync = true,
            "--format" => {
                format = match args.value()? {
                    "csv" => Format::Csv,
                    "json" => Format::Json,
                    "both" => Format::Both,
                    other => {
                        return Err(format!("--format must be csv, json or both, got {other}"))
                    }
                };
            }
            "--quiet" => quiet = true,
            "--progress" => progress = true,
            "--metrics" => metrics = true,
            "--trace-out" => trace_out = Some(args.value()?.to_string()),
            unknown => return Err(format!("unknown option: {unknown}")),
        }
    }
    if seed_base.checked_add(seeds as u64 - 1).is_none() {
        return Err(format!(
            "--seed-base {seed_base} with --seeds {seeds} runs past the largest seed, {}",
            u64::MAX
        ));
    }
    spec.seeds = (0..seeds as u64).map(|i| seed_base + i).collect();
    // Resuming means "continue the campaign stored in DIR" — the store is
    // both input and output, so a separate --out makes no sense. And a
    // distributed run names its directory through --distributed alone.
    if distributed.is_some() && (out_dir.is_some() || resume_dir.is_some()) {
        return Err(
            "--distributed DIR names the store directory itself and always starts \
             fresh — it excludes --out and --resume"
                .into(),
        );
    }
    let (out_dir, resume) = match (out_dir, resume_dir) {
        (Some(_), Some(_)) => {
            return Err("--out and --resume are mutually exclusive (results are \
                        appended into the resumed directory)"
                .into())
        }
        (None, Some(dir)) => (dir, true),
        (out, None) => (out.unwrap_or_else(|| "campaign-results".to_string()), false),
    };
    // Load the SWF here, in the parse phase, so a bad --swf value exits 2
    // with usage like every other bad flag value.
    let source = match swf {
        None => TraceSource::Synthetic,
        Some(path) => {
            let trace = load_swf_file(&path)?;
            eprintln!(
                "loaded {} jobs over {} s from {path}; interval/seed axes collapse to one workload",
                trace.len(),
                trace.duration
            );
            TraceSource::Fixed(Arc::new(trace))
        }
    };
    // Validate after the SWF is loaded: window placement is checked against
    // the durations the campaign will actually replay (a window set that
    // overlaps in a 5 h interval can be disjoint in a 24 h SWF trace).
    spec.validate_for(&source)?;
    Ok(Some(Options {
        spec,
        threads,
        source,
        out_dir,
        resume,
        distributed,
        workers,
        lease_cells,
        lease_ttl_ms,
        no_sync,
        format,
        quiet,
        progress,
        metrics,
        trace_out,
    }))
}

fn run(options: Options) -> Result<(), String> {
    // Instrumentation attachments. Spans are only recorded when asked for
    // (every cell would otherwise buffer an event); the metrics registry is
    // shared with the progress monitor. Neither changes the campaign's
    // stdout or result files — `instrumented_campaign_output_is_byte_identical`
    // pins that.
    let obs = if options.trace_out.is_some() {
        CampaignObs::full()
    } else if options.progress || options.metrics {
        CampaignObs::metrics()
    } else {
        CampaignObs::disabled()
    };
    let runner = CampaignRunner::new(options.spec.clone())
        .with_threads(options.threads)
        .with_source(options.source)
        .with_obs(obs.clone());

    let cells = runner.cells()?.len();
    // Open (resume) or create the append-only result store; every finished
    // cell streams into it, so a killed run can be resumed from here.
    let mut store = if options.resume {
        // A v2 store resumes too: its missing cells land as v3 blocks in
        // `.apc` partitions beside the CSV ones.
        let store = ResultStore::open(&options.out_dir)?;
        eprintln!(
            "resuming {}: {} of {} cells already recorded",
            options.out_dir,
            store.completed_count(),
            store.total_cells()
        );
        store
    } else {
        ResultStore::create(&options.out_dir, runner.fingerprint(), cells)
            .map_err(|e| format!("cannot create result store in {}: {e}", options.out_dir))?
    };
    if options.no_sync {
        store.set_sync(false);
    }
    let pending = cells - store.completed_count().min(cells);
    eprintln!(
        "campaign: {cells} cells ({pending} to run) on {} thread(s)",
        runner.resolved_threads().min(pending.max(1))
    );
    let monitor = options
        .progress
        .then(|| ProgressMonitor::start(obs.registry.clone(), pending));
    let outcome = runner.run_with_store(&mut store);
    if let Some(monitor) = monitor {
        monitor.stop();
    }
    let outcome = outcome?;

    if !options.quiet {
        print!("{}", summary_table(&outcome.summaries));
    }

    // Render the store-derived outcome: run_with_store reads every row —
    // including resumed ones — back out of the store, so these are the
    // store's rows, folded once for both sinks (`campaign_resume.rs` pins
    // a resumed store's renders to an uninterrupted run's bytes).
    let written = render_outputs(
        &options.out_dir,
        options.format,
        &outcome.rows,
        &outcome.summaries,
    )?;

    eprint!("{}", outcome.stats.render(outcome.wall));
    if options.metrics {
        eprint!("{}", obs.registry.snapshot());
    }
    if let Some(path) = &options.trace_out {
        let events = obs.spans.take_events();
        let json = apc_obs::write_chrome_trace(&events, "campaign");
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {} span(s) to {path}", events.len());
    }
    for path in written {
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

/// The flags a spawned worker inherits from the coordinator's own argv:
/// the grid flags (the spec fingerprint must match), `--threads` and
/// `--no-sync`. Coordinator-only flags are stripped —
/// mode/directory selection, lease geometry (recorded once in the
/// lease-log header, so workers cannot disagree) and render/monitor
/// options.
fn worker_passthrough_args(args: &[String]) -> Vec<String> {
    const DROP_WITH_VALUE: &[&str] = &[
        "--distributed",
        "--workers",
        "--lease-cells",
        "--lease-ttl",
        "--out",
        "--resume",
        "--format",
        "--trace-out",
    ];
    const DROP_BARE: &[&str] = &["--quiet", "--progress", "--metrics"];
    let mut out = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if DROP_WITH_VALUE.contains(&arg.as_str()) {
            iter.next();
            continue;
        }
        if DROP_BARE.contains(&arg.as_str()) {
            continue;
        }
        out.push(arg.clone());
    }
    out
}

/// `campaign --distributed DIR`: create the store and lease log, spawn
/// `--workers` worker processes of this same binary, supervise them, and
/// render the final outputs from the merged store. A worker that dies
/// (even `kill -9`) does not fail the campaign: the survivors steal its
/// expired lease, and the run only errors if the store ends incomplete.
fn run_distributed(options: Options, raw_args: &[String]) -> Result<(), String> {
    let dir = options
        .distributed
        .clone()
        .expect("caller dispatches on --distributed");
    let dir_path = std::path::Path::new(&dir).to_path_buf();
    let runner = CampaignRunner::new(options.spec.clone())
        .with_threads(options.threads)
        .with_source(options.source.clone());
    let cells = runner.cells()?.len();
    let fingerprint = runner.fingerprint();
    ResultStore::create(&dir, fingerprint, cells)
        .map_err(|e| format!("cannot create result store in {dir}: {e}"))?;
    LeaseLog::create(
        &dir_path,
        fingerprint,
        cells,
        options.lease_cells,
        options.lease_ttl_ms,
    )?;
    let batches = cells.div_ceil(options.lease_cells);
    eprintln!(
        "distributed campaign: {cells} cells in {batches} lease batch(es) of {} \
         (ttl {:.1} s) in {dir}",
        options.lease_cells,
        options.lease_ttl_ms as f64 / 1e3,
    );
    if options.workers == 0 {
        eprintln!(
            "initialised store and lease log only (--workers 0): launch \
             `campaign worker {dir} --worker-id N <grid flags>` processes to execute it, \
             then render with `campaign --resume {dir} <grid flags>`"
        );
        return Ok(());
    }

    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let pass = worker_passthrough_args(raw_args);
    let mut children = Vec::new();
    for w in 0..options.workers {
        let child = std::process::Command::new(&exe)
            .arg("worker")
            .arg(&dir)
            .arg("--worker-id")
            .arg(w.to_string())
            .args(&pass)
            .spawn()
            .map_err(|e| format!("cannot spawn worker {w}: {e}"))?;
        children.push((w, child));
    }
    let started = std::time::Instant::now();
    let mut failed: Vec<String> = Vec::new();
    let mut exited = vec![false; children.len()];
    loop {
        let mut running = false;
        for (i, (w, child)) in children.iter_mut().enumerate() {
            if exited[i] {
                continue;
            }
            match child.try_wait() {
                Ok(Some(status)) => {
                    exited[i] = true;
                    if !status.success() {
                        eprintln!("worker {w} exited abnormally ({status})");
                        failed.push(format!("worker {w}: {status}"));
                    }
                }
                Ok(None) => running = true,
                Err(e) => return Err(format!("cannot wait for worker {w}: {e}")),
            }
        }
        if !running {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(400));
        if options.progress {
            // The coordinator monitors through the same shared files the
            // workers coordinate through — no channel to the children.
            if let Ok(log) = LeaseLog::open(&dir_path) {
                eprint!(
                    "{:.1} s elapsed, {}",
                    started.elapsed().as_secs_f64(),
                    render_leases(&log)
                );
            }
        }
    }

    eprint!("{}", render_leases(&LeaseLog::open(&dir_path)?));
    let store = ResultStore::open(&dir)?;
    if !store.is_complete() {
        let why = if failed.is_empty() {
            "no worker reported failure".to_string()
        } else {
            failed.join(", ")
        };
        return Err(format!(
            "distributed campaign incomplete: {}/{} cells recorded ({why}) — \
             relaunch workers against {dir} or finish with --resume {dir}",
            store.completed_count(),
            store.total_cells(),
        ));
    }
    let rows = store.rows();
    let summaries = summarize(&rows);
    if !options.quiet {
        print!("{}", summary_table(&summaries));
    }
    let written = render_outputs(&dir, options.format, &rows, &summaries)?;
    eprintln!(
        "distributed campaign complete: {cells} cell(s) via {} worker process(es) in {:.2} s\
         {}",
        options.workers,
        started.elapsed().as_secs_f64(),
        if failed.is_empty() {
            String::new()
        } else {
            format!(" (survived: {})", failed.join(", "))
        },
    );
    for path in written {
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

/// The lease-state summary of `log` judged now: what `report` prints and
/// the `--distributed` coordinator shows while and after its workers run.
fn render_leases(log: &LeaseLog) -> String {
    let header = log.header();
    log.state()
        .render(header.lease_cells, header.total_cells, now_ms())
}

/// `campaign worker DIR --worker-id N [grid flags]`: one distributed
/// worker process. Normally spawned by `--distributed`; running it by hand
/// requires the coordinator's exact grid flags (fingerprint-checked).
fn run_worker_cli(args: &[String]) -> Result<(), String> {
    let mut dir: Option<String> = None;
    let mut worker_id: Option<usize> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut args = Args::new(args);
    while let Some(arg) = args.next_arg() {
        match arg {
            "--worker-id" => worker_id = Some(args.parse("an integer")?),
            path if !path.starts_with("--") && dir.is_none() && rest.is_empty() => {
                dir = Some(path.to_string());
            }
            other => rest.push(other.to_string()),
        }
    }
    let dir = dir.ok_or("worker needs a store directory (before any grid flags)")?;
    let worker = worker_id.ok_or("worker needs --worker-id N")?;
    let Some(options) = parse_args(&rest)? else {
        return Ok(());
    };
    let obs = if options.metrics {
        CampaignObs::metrics()
    } else {
        CampaignObs::disabled()
    };
    let runner = CampaignRunner::new(options.spec.clone())
        .with_threads(options.threads)
        .with_source(options.source)
        .with_obs(obs.clone());
    let outcome = runner.run_worker(std::path::Path::new(&dir), worker, !options.no_sync)?;
    eprint!("{}", outcome.render());
    if options.metrics {
        eprint!("{}", obs.registry.snapshot());
    }
    Ok(())
}

/// Write the requested `cells.*`/`summary.*` render files. One render
/// path for every mode — local, resumed, and distributed runs produce
/// byte-identical files from the same rows.
fn render_outputs(
    out_dir: &str,
    format: Format,
    rows: &[CellRow],
    summaries: &[SummaryRow],
) -> Result<Vec<std::path::PathBuf>, String> {
    let mut written = Vec::new();
    if format != Format::Json {
        written.extend(
            CsvSink::new(out_dir)
                .write(rows, summaries)
                .map_err(|e| format!("cannot write CSV results to {out_dir}: {e}"))?,
        );
    }
    if format != Format::Csv {
        written.extend(
            JsonSink::new(out_dir)
                .write(rows, summaries)
                .map_err(|e| format!("cannot write JSON results to {out_dir}: {e}"))?,
        );
    }
    Ok(written)
}

/// Aligned stdout table of the across-seed summaries. The `load` and
/// `window` columns carry the sweep axes — without them, the rows of a
/// window/load sweep would all print the same scenario label.
fn summary_table(summaries: &[SummaryRow]) -> String {
    let mut out = String::from(
        "racks  workload    load  scenario     window               n   \
         launched (mean±sd)   energy   work     wait(s)\n",
    );
    for s in summaries {
        let load = if s.load_factor.is_nan() {
            "-".to_string()
        } else {
            format!("{:.2}", s.load_factor)
        };
        out.push_str(&format!(
            "{:<6} {:<11} {:<5} {:<12} {:<20} {:>3} {:>10.1} ±{:<7.1} {:>7.3} {:>7.3} {:>9.0}\n",
            s.racks,
            s.workload,
            load,
            s.scenario,
            s.window,
            s.replications,
            s.launched_jobs.mean,
            s.launched_jobs.stddev,
            s.energy_normalized.mean,
            s.work_normalized.mean,
            s.mean_wait_seconds.mean,
        ));
    }
    out
}

/// `campaign pareto DIR [--out FILE] [--cells] [--quiet]`: summarize the
/// store and report the non-dominated (energy, work, wait) front per
/// workload group — or, with `--cells`, front the individual replications
/// (dominance counted per seed).
fn run_pareto(args: &[String]) -> Result<(), String> {
    let mut dir: Option<String> = None;
    let mut out: Option<String> = None;
    let mut cells = false;
    let mut quiet = false;
    let mut args = Args::new(args);
    while let Some(arg) = args.next_arg() {
        match arg {
            "--out" => out = Some(args.value()?.to_string()),
            "--cells" => cells = true,
            "--quiet" => quiet = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option: {flag}")),
            path if dir.is_none() => dir = Some(path.to_string()),
            extra => return Err(format!("unexpected argument: {extra}")),
        }
    }
    let dir = dir.ok_or("pareto needs a result-store directory")?;
    // Read the store through the scanner (columnar decode on v3) instead
    // of the full loader.
    let rows = StoreScanner::open(&dir)?.rows()?;
    if rows.is_empty() {
        return Err(format!("store at {dir} records no completed cells yet"));
    }
    if cells {
        let front = pareto_front_cells(&rows);
        let csv = render_pareto_cells_csv(&front);
        let out = out.unwrap_or_else(|| format!("{dir}/pareto-cells.csv"));
        std::fs::write(&out, &csv).map_err(|e| format!("cannot write {out}: {e}"))?;
        if !quiet {
            print!("{csv}");
        }
        eprintln!(
            "pareto cells front: {} of {} replication(s) non-dominated; wrote {out}",
            front.len(),
            rows.len(),
        );
        return Ok(());
    }
    let summaries = summarize(&rows);
    let front = pareto_front(&summaries);
    let csv = render_pareto_csv(&front);
    let out = out.unwrap_or_else(|| format!("{dir}/pareto.csv"));
    std::fs::write(&out, &csv).map_err(|e| format!("cannot write {out}: {e}"))?;
    if !quiet {
        print!("{csv}");
    }
    eprintln!(
        "pareto front: {} of {} summary rows non-dominated ({} cells); wrote {out}",
        front.len(),
        summaries.len(),
        rows.len(),
    );
    Ok(())
}

/// `campaign query DIR [filters] [--columns LIST] [--limit N]
/// [--group-by LIST [--agg mean|min|max]]`: stream matching rows out of
/// the partitioned store without loading it whole; with `--group-by` the
/// aggregation folds into the same streaming scan, so only one accumulator
/// per group is ever resident.
fn run_query(args: &[String]) -> Result<(), String> {
    let mut dir: Option<String> = None;
    let mut filter = RowFilter::default();
    let mut columns: Option<Vec<Column>> = None;
    let mut group_by: Vec<Column> = Vec::new();
    let mut agg: Option<AggKind> = None;
    let mut limit: Option<usize> = None;
    let mut args = Args::new(args);
    while let Some(arg) = args.next_arg() {
        match arg {
            "--workload" => filter.workload = Some(args.value()?.to_string()),
            "--scenario" => filter.scenario = Some(args.value()?.to_string()),
            "--window" => filter.window = Some(args.value()?.to_string()),
            "--load" => filter.load_factor = Some(args.parse("a number")?),
            "--policy" => filter.policy = Some(args.value()?.to_string()),
            "--seed" => filter.seed = Some(args.parse("an integer")?),
            "--racks" => filter.racks = Some(args.parse("an integer")?),
            "--schedule" => filter.schedule = Some(args.value()?.to_string()),
            "--faults" => filter.faults = Some(args.value()?.to_string()),
            "--columns" => columns = Some(args.columns()?),
            "--group-by" => group_by = args.columns()?,
            "--agg" => agg = Some(args.value()?.parse()?),
            "--limit" => limit = Some(args.parse("an integer")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option: {flag}")),
            path if dir.is_none() => dir = Some(path.to_string()),
            extra => return Err(format!("unexpected argument: {extra}")),
        }
    }
    let dir = dir.ok_or("query needs a result-store directory")?;
    if agg.is_some() && group_by.is_empty() {
        return Err("--agg needs --group-by".into());
    }

    if !group_by.is_empty() {
        // Aggregation pushdown: fold rows into per-group accumulators as
        // the partitions stream past — the row set is never materialised.
        let agg_columns =
            columns.unwrap_or_else(|| Column::ALL.into_iter().filter(|c| c.is_metric()).collect());
        let mut aggregator = GroupAggregator::of(&group_by, &agg_columns, agg.unwrap_or_default())?;
        // The fold only reads the group-by and aggregated columns, so v3
        // blocks need not decode anything else.
        let projection = group_by.iter().chain(&agg_columns).copied().collect();
        // Open (and thereby validate) the store before writing anything to
        // stdout — a bad directory must not leave a lone CSV header behind.
        let scanner = StoreScanner::open(&dir)?;
        let stats = scanner.scan_projected(&filter, projection, |row| {
            aggregator.fold(row)?;
            Ok(ScanFlow::Continue)
        })?;
        println!("{}", aggregator.header());
        for line in aggregator.rows(limit) {
            println!("{line}");
        }
        eprintln!(
            "{} row(s) matched; {} group(s); {} partition(s) zone-skipped",
            stats.matched,
            aggregator.group_count(),
            stats.partitions_skipped,
        );
        return Ok(());
    }

    // Projection pushdown: v3 blocks decode only the requested columns —
    // a narrow projection over a wide store skips most of the decode work.
    let columns = columns.unwrap_or_else(|| Column::ALL.to_vec());
    let projection = columns.iter().copied().collect();
    // Open (and thereby validate) the store before writing anything to
    // stdout — a bad directory must not leave a lone CSV header behind.
    let scanner = StoreScanner::open(&dir)?;
    let names: Vec<&str> = columns.iter().map(|c| c.name()).collect();
    println!("{}", names.join(","));
    if limit == Some(0) {
        eprintln!("0 row(s) matched; 0 printed; 0 partition(s) zone-skipped");
        return Ok(());
    }
    let mut printed = 0usize;
    let stats = scanner.scan_projected(&filter, projection, |row| {
        println!("{}", project_row(row, &columns));
        printed += 1;
        // --limit ends the scan here: partitions past the N-th match are
        // never opened.
        Ok(if limit.is_some_and(|n| printed >= n) {
            ScanFlow::Stop
        } else {
            ScanFlow::Continue
        })
    })?;
    eprintln!(
        "{} row(s) matched; {printed} printed; {} partition(s) zone-skipped{}",
        stats.matched,
        stats.partitions_skipped,
        if stats.stopped_early {
            " (scan stopped at --limit)"
        } else {
            ""
        },
    );
    Ok(())
}

/// `campaign compact DIR [--per-part N] [--quiet]`: merge duplicate and
/// superseded records, drop untrusted rows, and rewrite the store as
/// [`DEFAULT_COMPACT_CELLS_PER_PART`]-cell v3 partitions (unless
/// `--per-part` says otherwise), each a run of [`COMPACT_BLOCK_ROWS`]-row
/// columnar blocks — also the v2 → v3 migration path.
///
/// [`DEFAULT_COMPACT_CELLS_PER_PART`]: apc_campaign::compact::DEFAULT_COMPACT_CELLS_PER_PART
/// [`COMPACT_BLOCK_ROWS`]: apc_campaign::compact::COMPACT_BLOCK_ROWS
fn run_compact(args: &[String]) -> Result<(), String> {
    let mut dir: Option<String> = None;
    let mut per_part: Option<usize> = None;
    let mut quiet = false;
    let mut args = Args::new(args);
    while let Some(arg) = args.next_arg() {
        match arg {
            "--per-part" => per_part = Some(args.parse("an integer")?),
            "--quiet" => quiet = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option: {flag}")),
            path if dir.is_none() => dir = Some(path.to_string()),
            extra => return Err(format!("unexpected argument: {extra}")),
        }
    }
    let dir = dir.ok_or("compact needs a result-store directory")?;
    let stats = compact_store(std::path::Path::new(&dir), per_part)?;
    if !quiet {
        eprint!("{}", stats.render());
    }
    Ok(())
}

/// `campaign report DIR`: post-run summary of a (possibly partial) result
/// store — completion state, axis coverage, and the same across-seed table
/// a live run prints.
fn run_report(args: &[String]) -> Result<(), String> {
    let mut dir: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            flag if flag.starts_with("--") => return Err(format!("unknown option: {flag}")),
            path if dir.is_none() => dir = Some(path.to_string()),
            extra => return Err(format!("unexpected argument: {extra}")),
        }
    }
    let dir = dir.ok_or("report needs a result-store directory")?;
    let scanner = StoreScanner::open(&dir)?;
    let rows = scanner.rows()?;
    // Count the rows the scan could read, not the manifest's `done` log: a
    // logged cell whose row fails its checksum is not recorded, and
    // `--resume` runs it again.
    let unreadable = scanner.completed_count().saturating_sub(rows.len());
    let state = if unreadable > 0 {
        format!("{unreadable} logged but unreadable; finish it with --resume")
    } else if rows.len() == scanner.total_cells() {
        "complete".to_string()
    } else {
        "partial — finish it with --resume".to_string()
    };
    println!(
        "campaign {dir}: {}/{} cells recorded ({state}), spec {:016x}",
        rows.len(),
        scanner.total_cells(),
        scanner.spec_hash(),
    );
    let dir_path = std::path::Path::new(&dir);
    if dir_path.join(LEASES_NAME).exists() {
        match LeaseLog::open(dir_path) {
            Ok(log) => print!("{}", render_leases(&log)),
            Err(e) => println!("lease log unreadable: {e}"),
        }
    }
    if rows.is_empty() {
        println!("no completed cells yet — nothing to summarize");
        return Ok(());
    }
    let workloads: std::collections::BTreeSet<&str> =
        rows.iter().map(|r| r.workload.as_str()).collect();
    let scenarios: std::collections::BTreeSet<&str> =
        rows.iter().map(|r| r.scenario.as_str()).collect();
    let seeds: std::collections::BTreeSet<u64> = rows.iter().filter_map(|r| r.seed).collect();
    println!(
        "axes covered: {} workload(s) x {} scenario(s) x {} seed(s)",
        workloads.len(),
        scenarios.len(),
        seeds.len(),
    );
    print!("{}", summary_table(&summarize(&rows)));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(subcommand) = args.first().map(String::as_str) {
        if matches!(
            subcommand,
            "pareto" | "query" | "report" | "compact" | "worker"
        ) {
            let run = match subcommand {
                "pareto" => run_pareto(&args[1..]),
                "query" => run_query(&args[1..]),
                "compact" => run_compact(&args[1..]),
                "worker" => run_worker_cli(&args[1..]),
                _ => run_report(&args[1..]),
            };
            return match run {
                Ok(()) => ExitCode::SUCCESS,
                Err(message) => {
                    eprintln!("error: {message}");
                    eprintln!("{USAGE}");
                    ExitCode::from(2)
                }
            };
        }
    }
    match parse_args(&args) {
        Ok(Some(options)) => match if options.distributed.is_some() {
            run_distributed(options, &args)
        } else {
            run(options)
        } {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::from(1)
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
