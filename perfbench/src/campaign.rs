//! The two campaign workloads: `paper-grid` and `tiny-leased`.
//!
//! A run is a sequence of *rounds*. Each round is one complete campaign as
//! `campaign --out DIR` (or `campaign --distributed DIR` with one worker)
//! runs it: expand the grid, create a fresh store, execute every cell with
//! fsync on, then render `cells.*` and `summary.*`. Rounds repeat with fresh
//! seeds until the run's time is used, so every run averages many generated
//! workloads. After each round, outside the timed phase, the store is
//! re-read and checked.
//!
//! The traced run replays the executor's sequence of public calls from this
//! file, each inside a span, next to an untraced round on the same seeds.
//! Its counts come from the instruments the untraced `CampaignRunner`
//! publishes; the mirror's own counts must equal them, or the run fails.

use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use apc_campaign::colstore::{encode_block, rows_bit_identical};
use apc_campaign::prelude::*;
use apc_obs::{Registry, Snapshot, SpanRecorder};
use apc_replay::ReplayHarness;
use apc_rjms::obs::ControllerObs;
use apc_workload::{CurieTraceGenerator, IntervalKind, TraceCache};

use crate::layers::{LayerInputs, QueryTotals};
use crate::query::{run_query, Expected};
use crate::trace::{Span, Tracer, COORD, WORKER};
use crate::util::{fnv, mix, percentile, settle, tree_bytes, Calibration, FNV_START};
use crate::{Metric, Report};

/// Which campaign workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper grid at the 2-rack default scale, written like `campaign --out`.
    PaperGrid,
    /// Cheap 1-rack cells through the lease-log worker loop.
    TinyLeased,
}

/// The input sizes of one round.
struct Shape {
    racks: usize,
    intervals: &'static [IntervalKind],
    seeds_per_round: usize,
    /// Lease batch size; `Some` runs the round through `run_worker`.
    lease_cells: Option<usize>,
}

impl Kind {
    fn shape(self) -> Shape {
        match self {
            // 4 seeds x 4 intervals x 10 scenarios = 160 cells, ~0.8 s:
            // short rounds let the speed factor follow the host closely.
            Kind::PaperGrid => Shape {
                racks: 2,
                intervals: &IntervalKind::ALL,
                seeds_per_round: 4,
                lease_cells: None,
            },
            // 100 seeds x 10 scenarios = 1000 cells in 32-cell leases.
            Kind::TinyLeased => Shape {
                racks: 1,
                intervals: &[IntervalKind::BigJob],
                seeds_per_round: 100,
                lease_cells: Some(32),
            },
        }
    }
}

/// The grid one round runs: the paper's {SHUT, DVFS, MIX} x {80, 60, 40 %}
/// plus the baseline, at the workload's scale, over `seeds`.
fn spec(kind: Kind, seeds: Vec<u64>) -> CampaignSpec {
    let shape = kind.shape();
    CampaignSpec {
        racks: vec![shape.racks],
        intervals: shape.intervals.to_vec(),
        seeds,
        ..CampaignSpec::default()
    }
}

/// Generator seeds of round `round` of a run seeded with `run_seed`.
fn round_seeds(kind: Kind, run_seed: u64, round: u64) -> Vec<u64> {
    let n = kind.shape().seeds_per_round as u64;
    (0..n)
        .map(|i| mix(mix(run_seed) ^ (round * n + i)) >> 34)
        .collect()
}

/// Bytes of the store proper: partitions, manifest and lease log (not the
/// rendered files).
fn store_bytes(dir: &Path) -> u64 {
    tree_bytes(&dir.join("cells"))
        + tree_bytes(&dir.join("manifest.txt"))
        + tree_bytes(&dir.join(LEASES_NAME))
}

/// Write the four renders as `campaign --out` does.
fn render(dir: &Path, rows: &[CellRow], summaries: &[SummaryRow]) -> Result<(), String> {
    CsvSink::new(dir)
        .write(rows, summaries)
        .and_then(|_| JsonSink::new(dir).write(rows, summaries))
        .map(|_| ())
        .map_err(|e| format!("cannot render into {}: {e}", dir.display()))
}

/// FNV-1a digest of the four rendered files.
fn render_digest(dir: &Path) -> Result<u64, String> {
    let mut h = FNV_START;
    for name in ["cells.csv", "summary.csv", "cells.json", "summary.json"] {
        let bytes =
            std::fs::read(dir.join(name)).map_err(|e| format!("cannot read render {name}: {e}"))?;
        h = fnv(h, &bytes);
    }
    Ok(h)
}

/// What the executor did, as counts: traces generated, trace-cache hits,
/// cells executed, and on leased rounds the lease batches retired, claims
/// won and claim races lost.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecCounts {
    pub generated: u64,
    pub cache_hits: u64,
    pub cells: u64,
    pub batches: u64,
    pub claims: u64,
    pub conflicts: u64,
}

impl ExecCounts {
    /// The counts `CampaignRunner` published on its registry (worker 0).
    fn published(s: &Snapshot) -> Self {
        let c = |name: &str| s.counter(name).unwrap_or(0);
        ExecCounts {
            generated: c("campaign.trace_cache.misses"),
            cache_hits: c("campaign.trace_cache.hits"),
            cells: c("campaign.cells.completed"),
            batches: c("campaign.worker.0.lease.batches_done"),
            claims: c("campaign.worker.0.lease.claims"),
            conflicts: c("campaign.worker.0.lease.conflicts"),
        }
    }

    /// The same counts over the traced mirror's spans.
    fn traced(spans: &[Span]) -> Self {
        let c = |name: &str| spans.iter().filter(|s| s.name == name).count() as u64;
        ExecCounts {
            generated: c("workload.generate"),
            cache_hits: c("workload.cache_hit"),
            cells: c("exec.cell"),
            batches: c("lease.done"),
            claims: c("lease.claim"),
            conflicts: c("lease.claim_lost"),
        }
    }

    pub fn add(&mut self, o: ExecCounts) {
        self.generated += o.generated;
        self.cache_hits += o.cache_hits;
        self.cells += o.cells;
        self.batches += o.batches;
        self.claims += o.claims;
        self.conflicts += o.conflicts;
    }
}

/// What one untraced round produced.
pub struct Round {
    pub cells: usize,
    pub setup: Duration,
    pub setup_end: Instant,
    pub timed: Duration,
    pub rows: Vec<CellRow>,
    pub summaries: Vec<SummaryRow>,
    pub store_bytes: u64,
    /// Per-cell replay wall times from the executor's own `cell` spans.
    pub cell_ms: Vec<f64>,
    /// The executor's counts, read off its registry.
    pub exec: ExecCounts,
    pub digest: u64,
}

/// One round through the public campaign API, exactly as the `campaign`
/// binary drives it; `lease_cells` selects the one-worker lease path.
pub fn run_round(
    spec: CampaignSpec,
    lease_cells: Option<usize>,
    dir: &Path,
) -> Result<Round, String> {
    let setup_start = Instant::now();
    let obs = CampaignObs::full();
    let runner = CampaignRunner::new(spec)
        .with_threads(1)
        .with_obs(obs.clone());
    let cells = runner.cells()?.len();
    let fingerprint = runner.fingerprint();
    let mut store = ResultStore::create(dir, fingerprint, cells)
        .map_err(|e| format!("cannot create store in {}: {e}", dir.display()))?;
    if let Some(lease_cells) = lease_cells {
        LeaseLog::create(dir, fingerprint, cells, lease_cells, DEFAULT_LEASE_TTL_MS)?;
    }
    let setup_end = Instant::now();
    let (rows, summaries) = if lease_cells.is_some() {
        drop(store);
        runner.run_worker(dir, 0, true)?;
        // The coordinator's render step after its workers finish.
        let store = ResultStore::open(dir)?;
        if !store.is_complete() {
            return Err(format!(
                "leased round left {} of {cells} cells",
                store.completed_count()
            ));
        }
        let rows = store.rows();
        let summaries = summarize(&rows);
        (rows, summaries)
    } else {
        let outcome = runner.run_with_store(&mut store)?;
        (outcome.rows, outcome.summaries)
    };
    render(dir, &rows, &summaries)?;
    let timed = setup_end.elapsed();
    let cell_ms = obs
        .spans
        .take_events()
        .iter()
        .filter(|e| e.name == "cell")
        .map(|e| e.dur_us as f64 / 1e3)
        .collect();
    Ok(Round {
        cells,
        setup: setup_end - setup_start,
        setup_end,
        timed,
        store_bytes: store_bytes(dir),
        rows,
        summaries,
        cell_ms,
        exec: ExecCounts::published(&obs.registry.snapshot()),
        digest: render_digest(dir)?,
    })
}

/// How many of the `cells` cells the store in `dir` holds bit-identical to
/// the returned `rows`, and every row it holds.
fn identical_cells(
    dir: &Path,
    rows: &[CellRow],
    cells: usize,
) -> Result<(usize, Vec<CellRow>), String> {
    let mut ok = vec![false; cells];
    let mut scanned = Vec::with_capacity(cells);
    scan_store(dir, &RowFilter::default(), |row| {
        if row.index < cells
            && rows
                .get(row.index)
                .is_some_and(|e| e.index == row.index && rows_bit_identical(e, row))
        {
            ok[row.index] = true;
        }
        scanned.push(row.clone());
        Ok(ScanFlow::Continue)
    })?;
    Ok((ok.iter().filter(|ok| **ok).count(), scanned))
}

/// Re-read a finished round's store and check it against what the run
/// returned: every cell present and bit-identical, and `summarize`
/// agreeing. Then compact the store, check every row again, and run each
/// query kind of `store-query` against its brute-force answer. Returns the
/// number of cells whose output is wrong.
pub fn verify(
    dir: &Path,
    rows: &[CellRow],
    summaries: &[SummaryRow],
    cells: usize,
    tr: Option<&Tracer>,
    totals: &mut QueryTotals,
) -> Result<usize, String> {
    let (identical, scanned) = identical_cells(dir, rows, cells)?;
    // Compared as rendered text: a NaN metric never equals itself.
    let mut aggregate_ok =
        render_summary_csv(&summarize(&scanned)) == render_summary_csv(summaries);

    let stats = match tr {
        Some(tr) => tr.time("compact.run", None, 0, COORD, || compact_store(dir, None))?,
        None => compact_store(dir, None)?,
    };
    totals.compact_in += stats.bytes_in;
    totals.compact_out += stats.bytes_out;
    let (compacted, _) = identical_cells(dir, rows, cells)?;

    // The compacted store is in index order, as the brute-force fold is.
    let expected = Expected::of(rows);
    for q in expected.queries() {
        let answer = run_query(dir, &expected.labels, q, tr.map(|t| (t, None)), totals)?;
        aggregate_ok &= answer == expected.answer(q);
    }
    if !aggregate_ok {
        return Ok(cells);
    }
    Ok(cells - identical.min(compacted))
}

/// The trace generator the executor configures for `cell`.
fn generator_for(spec: &CampaignSpec, cell: &CampaignCell) -> CurieTraceGenerator {
    let CellWorkload::Synthetic {
        interval,
        seed,
        load_bits,
    } = cell.workload
    else {
        unreachable!("benchmark grids are synthetic");
    };
    CurieTraceGenerator::new(seed)
        .interval(interval)
        .load_factor(f64::from_bits(load_bits))
        .backlog_factor(spec.backlog_factor)
}

/// The replay harness the executor would build for `cell`.
fn harness_for(spec: &CampaignSpec, cell: &CampaignCell, cache: &TraceCache) -> ReplayHarness {
    let platform = platform_for(cell.racks);
    let trace = cache.get_or_generate(&generator_for(spec, cell), &platform);
    ReplayHarness::from_shared(platform, trace)
        .with_initial_fairshare(spec.initial_fairshare_core_hours)
}

/// The span name of a cell's replay, by policy.
fn replay_span(cell: &CampaignCell) -> &'static str {
    match cell.scenario.policy.name() {
        "SHUT" => "replay.shut",
        "DVFS" => "replay.dvfs",
        "MIX" => "replay.mix",
        _ => "replay.none",
    }
}

/// The executor's per-batch loop (`CampaignRunner::execute` with one
/// worker thread), each public call in a span: the worker thread looks the
/// trace up, builds or reuses the harness, replays and reduces; the
/// coordinator thread hands each row to `on_row`.
fn execute_traced(
    spec: &CampaignSpec,
    cells: &[CampaignCell],
    pending: &[usize],
    tr: &Tracer,
    parent: usize,
    mut on_row: impl FnMut(&CellRow) -> Result<(), String>,
) -> Result<(), String> {
    let cache = TraceCache::new();
    let (tx, rx) = mpsc::channel::<CellRow>();
    let mut sink_err = None;
    std::thread::scope(|scope| {
        let cache = &cache;
        let worker = scope.spawn(move || {
            let mut slot: Option<(usize, CellWorkload, ReplayHarness)> = None;
            for &idx in pending {
                let cell = &cells[idx];
                let item = idx as u64;
                let span = tr.begin("exec.cell", Some(parent), item, WORKER);
                let reusable = matches!(
                    &slot,
                    Some((racks, workload, _)) if *racks == cell.racks && *workload == cell.workload
                );
                if !reusable {
                    let platform = tr.time("replay.platform", Some(span), item, WORKER, || {
                        platform_for(cell.racks)
                    });
                    let generator = generator_for(spec, cell);
                    let lookup = tr.begin("workload.lookup", Some(span), item, WORKER);
                    let misses = cache.misses();
                    let trace = cache.get_or_generate(&generator, &platform);
                    let name = if cache.misses() > misses {
                        "workload.generate"
                    } else {
                        "workload.cache_hit"
                    };
                    tr.end_as(lookup, name);
                    let harness = tr.time("replay.harness", Some(span), item, WORKER, || {
                        ReplayHarness::from_shared(platform, trace)
                            .with_initial_fairshare(spec.initial_fairshare_core_hours)
                    });
                    slot = Some((cell.racks, cell.workload, harness));
                }
                let (_, _, harness) = slot.as_ref().expect("harness slot just filled");
                let summary = tr.time(replay_span(cell), Some(span), item, WORKER, || {
                    harness.run_summary(&cell.scenario)
                });
                let row = tr.time("agg.reduce", Some(span), item, WORKER, || {
                    CellRow::from_summary(cell, &summary)
                });
                tr.end(span);
                if tx.send(row).is_err() {
                    break;
                }
            }
        });
        for row in rx {
            if let Err(e) = on_row(&row) {
                sink_err = Some(e);
                break;
            }
        }
        worker.join().expect("traced worker panicked");
    });
    sink_err.map_or(Ok(()), Err)
}

/// Encode (timed on its own) and append one row, as the coordinator does.
fn append_traced(
    store: &mut ResultStore,
    row: &CellRow,
    tr: &Tracer,
    parent: usize,
) -> Result<(), String> {
    let item = row.index as u64;
    tr.time("store.encode", Some(parent), item, COORD, || {
        std::hint::black_box(encode_block(std::slice::from_ref(row)));
    });
    tr.time("store.append", Some(parent), item, COORD, || {
        store.append(row)
    })
    .map_err(|e| format!("cannot append cell {}: {e}", row.index))
}

/// What one traced round produced.
pub struct TracedRound {
    pub rows: Vec<CellRow>,
    pub summaries: Vec<SummaryRow>,
    pub cells: Vec<CampaignCell>,
    pub spec: CampaignSpec,
    pub store_bytes: u64,
    pub lease_bytes: u64,
}

/// One round with every public call the executor makes inside a span, in
/// the executor's order: `run_with_store` for plain workloads,
/// `run_worker` plus the coordinator's render for leased ones.
pub fn run_round_traced(
    spec: CampaignSpec,
    lease_cells: Option<usize>,
    dir: &Path,
    tr: &Tracer,
    round: u64,
) -> Result<TracedRound, String> {
    let root = tr.begin("exec.round", None, round, COORD);
    let source = TraceSource::Synthetic;
    let cells = tr.time("spec.expand", Some(root), round, COORD, || {
        spec.expand(&source)
    })?;
    let fingerprint = spec.fingerprint(&source);
    let n = cells.len();
    let mut store = tr
        .time("store.create", Some(root), round, COORD, || {
            ResultStore::create(dir, fingerprint, n)
        })
        .map_err(|e| format!("cannot create store in {}: {e}", dir.display()))?;
    let rows = if let Some(lease_cells) = lease_cells {
        tr.time("lease.create", Some(root), round, COORD, || {
            LeaseLog::create(dir, fingerprint, n, lease_cells, DEFAULT_LEASE_TTL_MS)
        })?;
        drop(store);
        // CampaignRunner::run_worker, worker 0.
        tr.time("spec.expand", Some(root), round, COORD, || {
            spec.validate_for(&source)
                .and_then(|()| spec.expand(&source))
        })?;
        let mut store = tr.time("store.open", Some(root), round, COORD, || {
            ResultStore::open_worker(dir, 0)
        })?;
        store.validate_spec(fingerprint, n)?;
        let mut lease = tr.time("lease.open", Some(root), round, COORD, || {
            LeaseLog::open(dir)
        })?;
        lease.validate_spec(fingerprint, n)?;
        let ttl_ms = lease.header().ttl_ms;
        loop {
            tr.time("lease.refresh", Some(root), round, COORD, || {
                lease.refresh()
            })?;
            match lease.state().next_action(0, now_ms()) {
                LeaseAction::Finished => break,
                LeaseAction::Wait { ms } => {
                    std::thread::sleep(Duration::from_millis(ms.min(1_000)))
                }
                LeaseAction::Claim { batch, .. } => {
                    let item = batch as u64;
                    let span = tr.begin("exec.batch", Some(root), item, COORD);
                    if lease.state().owner(batch) != Some(0) {
                        // Named once the re-read log says who won.
                        let claim = tr.begin("lease.claim", Some(span), item, COORD);
                        lease
                            .append_claim(batch, 0, now_ms())
                            .and_then(|()| lease.refresh())?;
                        let won = lease.state().owner(batch) == Some(0);
                        tr.end_as(
                            claim,
                            if won {
                                "lease.claim"
                            } else {
                                "lease.claim_lost"
                            },
                        );
                        if !won {
                            tr.end(span);
                            continue;
                        }
                    }
                    tr.time("store.refresh_done", Some(span), item, COORD, || {
                        store.refresh_done()
                    })?;
                    let pending: Vec<usize> = lease
                        .header()
                        .batch_range(batch)
                        .filter(|i| !store.contains(*i))
                        .collect();
                    let mut last_beat = now_ms();
                    {
                        let (store, lease) = (&mut store, &mut lease);
                        execute_traced(&spec, &cells, &pending, tr, span, |row| {
                            append_traced(store, row, tr, span)?;
                            let t = now_ms();
                            if t.saturating_sub(last_beat) >= ttl_ms / 2 {
                                tr.time("lease.renew", Some(span), item, COORD, || {
                                    lease.append_renew(batch, 0, t)
                                })?;
                                last_beat = t;
                            }
                            Ok(())
                        })?;
                    }
                    tr.time("lease.done", Some(span), item, COORD, || {
                        lease.append_done(batch, 0, now_ms())
                    })?;
                    tr.end(span);
                }
            }
        }
        let store = tr.time("store.open", Some(root), round, COORD, || {
            ResultStore::open(dir)
        })?;
        if !store.is_complete() {
            return Err(format!(
                "traced leased round left {} of {n} cells",
                store.completed_count()
            ));
        }
        tr.time("store.rows", Some(root), round, COORD, || store.rows())
    } else {
        // CampaignRunner::run_with_store.
        tr.time("spec.expand", Some(root), round, COORD, || {
            spec.validate_for(&source)
                .and_then(|()| spec.expand(&source))
        })?;
        store.validate_spec(fingerprint, n)?;
        let pending: Vec<usize> = (0..n).filter(|i| !store.contains(*i)).collect();
        {
            let store = &mut store;
            execute_traced(&spec, &cells, &pending, tr, root, |row| {
                append_traced(store, row, tr, root)
            })?;
        }
        tr.time("store.rows", Some(root), round, COORD, || store.rows())
    };
    let summaries = tr.time("agg.summarize", Some(root), round, COORD, || {
        summarize(&rows)
    });
    tr.time("sink.render", Some(root), round, COORD, || {
        render(dir, &rows, &summaries)
    })?;
    tr.end(root);
    Ok(TracedRound {
        rows,
        summaries,
        cells,
        spec,
        store_bytes: store_bytes(dir),
        lease_bytes: tree_bytes(&dir.join(LEASES_NAME)),
    })
}

/// The executor counts of the traced round whose spans start at `since`,
/// checked against what `CampaignRunner` published running the same seeds:
/// a mirror that no longer makes the executor's calls fails the run rather
/// than report numbers the program does not produce.
pub fn mirror_counts(
    tr: &Tracer,
    since: usize,
    published: ExecCounts,
    round: u64,
) -> Result<ExecCounts, String> {
    let mirrored = ExecCounts::traced(&tr.spans_since(since));
    if mirrored != published {
        return Err(format!(
            "round {round}: the traced executor mirror no longer follows CampaignRunner \
             (mirror {mirrored:?}, published {published:?})"
        ));
    }
    Ok(published)
}

/// Replay every cell again with the controller's `rjms.*` instruments on
/// `registry`; returns how many rows differ from the round's rows.
pub fn replay_with_obs(round: &TracedRound, registry: &Registry) -> usize {
    let cache = TraceCache::new();
    let mut harness: Option<(CellWorkload, ReplayHarness)> = None;
    let mut wrong = 0;
    for cell in &round.cells {
        if harness.as_ref().map(|(w, _)| *w) != Some(cell.workload) {
            harness = Some((cell.workload, harness_for(&round.spec, cell, &cache)));
        }
        let (_, h) = harness.as_ref().expect("harness just built");
        let obs = ControllerObs::new(registry, SpanRecorder::disabled());
        let outcome = h.run_with_obs(&cell.scenario, obs);
        let row = CellRow::from_outcome(cell, &outcome);
        if !round
            .rows
            .get(cell.index)
            .is_some_and(|r| rows_bit_identical(r, &row))
        {
            wrong += 1;
        }
    }
    wrong
}

/// Run a campaign workload for `seconds` and report its metrics.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    process_start: Instant,
) -> Result<Report, String> {
    if traced {
        return run_traced(kind, seed, seconds, work);
    }
    let (mut cells, mut failed) = (0usize, 0usize);
    // Wall time bounds the run; the metrics report reference time.
    let (mut wall, mut timed) = (0.0f64, 0.0f64);
    let (mut setups, mut cell_ms, mut bytes) = (Vec::new(), Vec::new(), 0u64);
    let mut digests = Vec::new();
    let mut totals = QueryTotals::default();
    let mut cal = Calibration::default();
    let mut round = 0u64;
    while round == 0 || wall < seconds {
        let dir = work.join(format!("round-{round}"));
        let r = run_round(
            spec(kind, round_seeds(kind, seed, round)),
            kind.shape().lease_cells,
            &dir,
        )?;
        let f = cal.factor();
        setups.push(
            f * if round == 0 {
                (r.setup_end - process_start).as_secs_f64()
            } else {
                r.setup.as_secs_f64()
            },
        );
        failed += verify(&dir, &r.rows, &r.summaries, r.cells, None, &mut totals)?;
        cells += r.cells;
        wall += r.timed.as_secs_f64();
        timed += f * r.timed.as_secs_f64();
        bytes += r.store_bytes;
        cell_ms.extend(r.cell_ms.iter().map(|ms| f * ms));
        digests.push(r.digest);
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
        settle(work)?;
        round += 1;
    }
    let shape = kind.shape();
    eprintln!(
        "{} rounds x {} cells ({} racks, {} interval(s), {} seeds/round): {:.2} s wall, \
         {:.1} cells/s wall; speed factor median {:.3} (range {:.3}-{:.3})",
        round,
        cells as u64 / round,
        shape.racks,
        shape.intervals.len(),
        shape.seeds_per_round,
        wall,
        cells as f64 / wall,
        crate::median(&cal.factors),
        cal.factors.iter().copied().fold(f64::INFINITY, f64::min),
        cal.factors.iter().copied().fold(0.0, f64::max),
    );
    Ok(Report {
        attempted: cells,
        failed,
        digests,
        metrics: vec![
            Metric::new("setup_s", crate::median(&setups), "s"),
            Metric::new("items_per_s", cells as f64 / timed, "1/s"),
            Metric::new("item_p50_ms", percentile(&cell_ms, 0.5), "ms"),
            Metric::new("item_p95_ms", percentile(&cell_ms, 0.95), "ms"),
            Metric::new("peak_rss_mb", crate::util::peak_rss_mb(), "MB"),
            Metric::new("store_bytes_per_item", bytes as f64 / cells as f64, "B"),
        ],
        spans: None,
    })
}

/// The traced run: per round, an untraced round and a traced one on the
/// same seeds (their rows must agree), then the `rjms.*` replays and the
/// checks, each under spans.
fn run_traced(kind: Kind, seed: u64, seconds: f64, work: &Path) -> Result<Report, String> {
    let tr = Tracer::new();
    let registry = Registry::new();
    let started = Instant::now();
    let mut inputs = LayerInputs::default();
    let (mut cells, mut failed, mut digests) = (0usize, 0usize, Vec::new());
    let mut round = 0u64;
    while round == 0 || started.elapsed().as_secs_f64() < seconds {
        let seeds = round_seeds(kind, seed, round);
        let plain_dir = work.join(format!("plain-{round}"));
        let lease_cells = kind.shape().lease_cells;
        let plain = run_round(spec(kind, seeds.clone()), lease_cells, &plain_dir)?;
        inputs.untraced_ms += (plain.setup + plain.timed).as_secs_f64() * 1e3;
        std::fs::remove_dir_all(&plain_dir).map_err(|e| format!("cannot remove store: {e}"))?;

        let dir = work.join(format!("traced-{round}"));
        let mark = tr.len();
        let t = run_round_traced(spec(kind, seeds), lease_cells, &dir, &tr, round)?;
        inputs
            .exec
            .add(mirror_counts(&tr, mark, plain.exec, round)?);
        digests.push(render_digest(&dir)?);
        let agree = plain.rows.len() == t.rows.len()
            && plain
                .rows
                .iter()
                .zip(&t.rows)
                .all(|(a, b)| rows_bit_identical(a, b));
        if !agree {
            failed += t.cells.len();
        }
        failed += replay_with_obs(&t, &registry);
        failed += verify(
            &dir,
            &t.rows,
            &t.summaries,
            t.cells.len(),
            Some(&tr),
            &mut inputs.query,
        )?;
        inputs.workloads += t.spec.seeds.len() * t.spec.intervals.len();
        inputs.store_bytes += t.store_bytes;
        inputs.lease_bytes += t.lease_bytes;
        cells += t.cells.len();
        std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove store: {e}"))?;
        round += 1;
    }
    inputs.cells = cells;
    inputs.rjms = Some(registry.snapshot());
    Ok(Report {
        attempted: cells,
        failed,
        digests,
        metrics: crate::layers::finish(&tr, inputs),
        spans: Some(tr),
    })
}
