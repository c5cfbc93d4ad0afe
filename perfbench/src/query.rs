//! The `store-query` workload: one client in a closed loop repeating a
//! fixed query mix over a compacted store, each query opened afresh as
//! `campaign query` does.
//!
//! Set-up builds the store the way `tiny-leased` writes one: a real 1-rack
//! campaign (all four intervals, two seeds, rendered like `campaign --out`)
//! provides template rows; [`ROWS`] rows derived from them are appended
//! through a distributed-worker store handle, then `compact_store` rewrites
//! the store into wide columnar partitions. The expected answer of every
//! query is folded by brute force while the rows are generated.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use apc_campaign::colstore::encode_block;
use apc_campaign::prelude::*;
use apc_obs::Registry;

use crate::campaign::{mirror_counts, replay_with_obs, run_round, run_round_traced};
use crate::layers::{LayerInputs, QueryTotals};
use crate::trace::{Tracer, COORD};
use crate::util::{fnv, mix, percentile, settle, tree_bytes, Calibration, FNV_START};
use crate::{median, Metric, Report};

/// Rows in the store: enough that the cheapest query (a workload filter
/// that zone-skips three quarters of the partitions) still takes several
/// milliseconds.
pub const ROWS: usize = 200_000;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One query kind.
#[derive(Debug, Clone, Copy)]
pub enum Query {
    /// Every row, fully decoded.
    Full,
    /// Rows of one workload label (by position in the store), which the
    /// zone maps let the scan skip to.
    Filter(usize),
    /// Two projected columns of every row.
    Project,
    /// Mean of two columns grouped by scenario.
    GroupBy,
}

/// The fixed mix one client repeats. The weights keep the 50th and 95th
/// percentiles inside one query kind's own distribution rather than on the
/// step between two kinds.
const MIX: [Query; 10] = [
    Query::Full,
    Query::Filter(0),
    Query::Project,
    Query::GroupBy,
    Query::Filter(1),
    Query::Project,
    Query::Filter(2),
    Query::Project,
    Query::Filter(3),
    Query::Project,
];

/// A query's answer, compared exactly against the brute-force one.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Matched rows and an order-sensitive checksum of them.
    Rows(usize, u64),
    /// Rows, summed index and the bit pattern of the summed energy.
    Sums(usize, usize, u64),
    /// The rendered group rows.
    Groups(Vec<String>),
}

/// Order-sensitive checksum step over the fields a decoder could get wrong.
fn row_hash(h: u64, r: &CellRow) -> u64 {
    let h = mix(h ^ r.index as u64 ^ ((r.launched_jobs as u64) << 32))
        ^ r.energy_joules.to_bits()
        ^ r.mean_wait_seconds.to_bits().rotate_left(17);
    fnv(fnv(h, r.workload.as_bytes()), r.scenario.as_bytes())
}

/// The brute-force answers, folded in index order as rows are generated.
pub struct Expected {
    /// Workload labels in order of first appearance; `Query::Filter(k)`
    /// selects `labels[k]`.
    pub labels: Vec<String>,
    full: (usize, u64),
    filter: Vec<(usize, u64)>,
    project: (usize, usize, f64),
    /// Per scenario: rows, then (count, sum) of each non-NaN column.
    groups: BTreeMap<String, (u64, [(u64, f64); 2])>,
}

impl Expected {
    fn new(labels: Vec<String>) -> Self {
        Expected {
            filter: vec![(0, FNV_START); labels.len()],
            labels,
            full: (0, FNV_START),
            project: (0, 0, 0.0),
            groups: BTreeMap::new(),
        }
    }

    fn fold(&mut self, r: &CellRow) {
        self.full = (self.full.0 + 1, row_hash(self.full.1, r));
        if let Some(k) = self.labels.iter().position(|l| *l == r.workload) {
            self.filter[k] = (self.filter[k].0 + 1, row_hash(self.filter[k].1, r));
        }
        self.project = (
            self.project.0 + 1,
            self.project.1 + r.index,
            self.project.2 + r.energy_joules,
        );
        let g = self.groups.entry(r.scenario.clone()).or_default();
        g.0 += 1;
        for (acc, v) in g.1.iter_mut().zip([r.energy_normalized, r.work_normalized]) {
            if !v.is_nan() {
                acc.0 += 1;
                acc.1 += v;
            }
        }
    }

    /// The answers over `rows`, given in index order.
    pub fn of(rows: &[CellRow]) -> Self {
        let mut labels: Vec<String> = Vec::new();
        for r in rows {
            if !labels.contains(&r.workload) {
                labels.push(r.workload.clone());
            }
        }
        let mut expected = Expected::new(labels);
        for r in rows {
            expected.fold(r);
        }
        expected
    }

    /// Every query kind once, filtering on each workload label.
    pub fn queries(&self) -> Vec<Query> {
        let mut queries = vec![Query::Full, Query::Project, Query::GroupBy];
        queries.extend((0..self.labels.len()).map(Query::Filter));
        queries
    }

    pub fn answer(&self, q: Query) -> Answer {
        match q {
            Query::Full => Answer::Rows(self.full.0, self.full.1),
            Query::Filter(k) => Answer::Rows(self.filter[k].0, self.filter[k].1),
            Query::Project => {
                Answer::Sums(self.project.0, self.project.1, self.project.2.to_bits())
            }
            Query::GroupBy => Answer::Groups(
                self.groups
                    .iter()
                    .map(|(s, (n, cols))| {
                        let mean = |(c, sum): (u64, f64)| {
                            if c == 0 {
                                String::new()
                            } else {
                                format!("{}", sum / c as f64)
                            }
                        };
                        format!("{s},{n},{},{}", mean(cols[0]), mean(cols[1]))
                    })
                    .collect(),
            ),
        }
    }
}

/// The real campaign whose rows seed the store.
fn template_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        racks: vec![1],
        seeds: vec![mix(seed) >> 34, mix(seed ^ 1) >> 34],
        ..CampaignSpec::default()
    }
}

/// Row `i` of the store: a template row of the `i`-th quarter's interval
/// (so each workload label fills a contiguous index range, as in a real
/// campaign's expansion order) with its index, seed and metrics varied.
fn synth_row(by_label: &[Vec<CellRow>], i: usize, seed: u64) -> CellRow {
    let tpl = &by_label[i * by_label.len() / ROWS];
    let h = mix(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let f = 1.0 + (h % 4096) as f64 * 1e-5;
    let mut r = tpl[i % tpl.len()].clone();
    r.index = i;
    r.seed = Some(h >> 40);
    r.launched_jobs += (h >> 12) as usize % 7;
    r.energy_joules *= f;
    r.work_core_seconds *= f;
    r.peak_power_watts *= f;
    r.energy_normalized *= f;
    r.work_normalized *= f;
    r.mean_wait_seconds *= f;
    r
}

/// What one set-up built.
struct Built {
    expected: Expected,
    live_bytes: u64,
    compact: CompactStats,
}

/// Append [`ROWS`] rows through a worker store handle (no fsync: the rows
/// are generated, not results anyone resumes), then compact.
fn build(
    dir: &Path,
    template: &[CellRow],
    seed: u64,
    tr: Option<&Tracer>,
) -> Result<Built, String> {
    let mut labels: Vec<String> = Vec::new();
    let mut by_label: Vec<Vec<CellRow>> = Vec::new();
    for r in template {
        match labels.iter().position(|l| *l == r.workload) {
            Some(k) => by_label[k].push(r.clone()),
            None => {
                labels.push(r.workload.clone());
                by_label.push(vec![r.clone()]);
            }
        }
    }
    ResultStore::create(dir, mix(seed ^ 0x5707e), ROWS)
        .map_err(|e| format!("cannot create store in {}: {e}", dir.display()))?;
    let mut store = ResultStore::open_worker(dir, 0)?;
    store.set_sync(false);
    let mut expected = Expected::new(labels);
    for i in 0..ROWS {
        let row = synth_row(&by_label, i, seed);
        expected.fold(&row);
        let appended = match tr {
            Some(tr) => {
                tr.time("store.encode", None, i as u64, COORD, || {
                    std::hint::black_box(encode_block(std::slice::from_ref(&row)));
                });
                tr.time("store.append", None, i as u64, COORD, || store.append(&row))
            }
            None => store.append(&row),
        };
        appended.map_err(|e| format!("cannot append row {i}: {e}"))?;
    }
    drop(store);
    let live_bytes = tree_bytes(dir);
    let compact = match tr {
        Some(tr) => tr.time("compact.run", None, 0, COORD, || compact_store(dir, None))?,
        None => compact_store(dir, None)?,
    };
    Ok(Built {
        expected,
        live_bytes,
        compact,
    })
}

/// Open the store and run one query; `tr` wraps the open and the scan in
/// spans under the given parent.
pub fn run_query(
    dir: &Path,
    labels: &[String],
    q: Query,
    tr: Option<(&Tracer, Option<usize>)>,
    totals: &mut QueryTotals,
) -> Result<Answer, String> {
    let span = |name: &'static str| tr.map(|(t, parent)| (t, t.begin(name, parent, 0, COORD)));
    let close = |s: Option<(&Tracer, usize)>| {
        if let Some((t, id)) = s {
            t.end(id);
        }
    };
    let s = span("query.open");
    let scanner = StoreScanner::open(dir)?;
    close(s);
    let (answer, stats) = match q {
        Query::Full | Query::Filter(_) => {
            let s = span(if matches!(q, Query::Full) {
                "query.full"
            } else {
                "query.filter"
            });
            let filter = match q {
                Query::Filter(k) => RowFilter {
                    workload: Some(labels[k].clone()),
                    ..RowFilter::default()
                },
                _ => RowFilter::default(),
            };
            let (mut n, mut h) = (0, FNV_START);
            let stats = scanner.scan(&filter, |row| {
                n += 1;
                h = row_hash(h, row);
                Ok(ScanFlow::Continue)
            })?;
            close(s);
            (Answer::Rows(n, h), stats)
        }
        Query::Project => {
            let s = span("query.project");
            let projection = Projection::of(&["index".to_string(), "energy_joules".to_string()])?;
            let (mut n, mut index_sum, mut energy) = (0, 0, 0.0f64);
            let stats = scanner.scan_projected(&RowFilter::default(), projection, |row| {
                n += 1;
                index_sum += row.index;
                energy += row.energy_joules;
                Ok(ScanFlow::Continue)
            })?;
            close(s);
            (Answer::Sums(n, index_sum, energy.to_bits()), stats)
        }
        Query::GroupBy => {
            let s = span("query.groupby");
            let mut agg = GroupAggregator::new(
                &["scenario".to_string()],
                &[
                    "energy_normalized".to_string(),
                    "work_normalized".to_string(),
                ],
                AggKind::Mean,
            )?;
            let stats = scanner.scan(&RowFilter::default(), |row| {
                agg.fold(row)?;
                Ok(ScanFlow::Continue)
            })?;
            let groups = agg.rows(None);
            close(s);
            (Answer::Groups(groups), stats)
        }
    };
    totals.add(&stats);
    Ok(answer)
}

/// Digest of one pass over the mix's answers.
fn answers_digest(answers: &[Answer]) -> u64 {
    answers
        .iter()
        .fold(FNV_START, |h, a| fnv(h, format!("{a:?}").as_bytes()))
}

/// Compacted store bytes (partitions and manifest) per row.
fn bytes_per_row(dir: &Path) -> f64 {
    (tree_bytes(&dir.join("cells")) + tree_bytes(&dir.join("manifest.txt"))) as f64 / ROWS as f64
}

/// Run the workload for `seconds` and report its metrics.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    process_start: Instant,
) -> Result<Report, String> {
    if traced {
        return run_traced(seed, seconds, work);
    }
    let mut setups = Vec::new();
    let mut cal = Calibration::default();
    let mut built = None;
    let mut dir = work.to_path_buf();
    for k in 0..SETUPS {
        if k > 0 {
            std::fs::remove_dir_all(work.join(format!("setup-{}", k - 1)))
                .map_err(|e| format!("cannot remove set-up: {e}"))?;
            settle(work)?;
        }
        let started = Instant::now();
        let setup_dir = work.join(format!("setup-{k}"));
        let template = run_round(template_spec(seed), None, &setup_dir.join("template"))?;
        let store_dir = setup_dir.join("store");
        let b = build(&store_dir, &template.rows, seed, None)?;
        let setup = if k == 0 {
            process_start.elapsed().as_secs_f64()
        } else {
            started.elapsed().as_secs_f64()
        };
        let f = cal.factor();
        eprintln!(
            "set-up {k}: {setup:.3} s wall (template campaign {:.3} s), factor {f:.3}",
            (template.setup + template.timed).as_secs_f64()
        );
        setups.push(setup * f);
        built = Some(b);
        dir = store_dir;
    }
    let built = built.expect("at least one set-up");
    eprintln!(
        "store: {ROWS} rows, {} B live -> {} B compacted ({} partitions)",
        built.live_bytes, built.compact.bytes_out, built.compact.partitions_out,
    );
    let expected = &built.expected;
    let mut totals = QueryTotals::default();
    let (mut latencies, mut failed, mut first) = (Vec::new(), 0usize, Vec::new());
    // Wall time bounds the run; the metrics report reference time.
    let (mut wall, mut timed) = (0.0f64, 0.0f64);
    while latencies.len() < MIX.len() || wall < seconds {
        let mut pass = Vec::with_capacity(MIX.len());
        for q in MIX {
            let t = Instant::now();
            let answer = run_query(&dir, &expected.labels, q, None, &mut totals)?;
            pass.push(t.elapsed().as_secs_f64());
            if answer != expected.answer(q) {
                failed += 1;
            }
            if first.len() < MIX.len() {
                first.push(answer);
            }
        }
        let f = cal.factor();
        wall += pass.iter().sum::<f64>();
        timed += f * pass.iter().sum::<f64>();
        latencies.extend(pass.iter().map(|s| f * s * 1e3));
    }
    eprintln!(
        "{} queries, {} partitions scanned, {} skipped: {:.2} s wall, {:.2} queries/s wall; \
         speed factor median {:.3} (range {:.3}-{:.3})",
        latencies.len(),
        totals.partitions_scanned,
        totals.partitions_skipped,
        wall,
        latencies.len() as f64 / wall,
        median(&cal.factors),
        cal.factors.iter().copied().fold(f64::INFINITY, f64::min),
        cal.factors.iter().copied().fold(0.0, f64::max),
    );
    Ok(Report {
        attempted: latencies.len(),
        failed,
        digests: vec![answers_digest(&first)],
        metrics: vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("items_per_s", latencies.len() as f64 / timed, "1/s"),
            Metric::new("item_p50_ms", percentile(&latencies, 0.5), "ms"),
            Metric::new("item_p95_ms", percentile(&latencies, 0.95), "ms"),
            Metric::new("peak_rss_mb", crate::util::peak_rss_mb(), "MB"),
            Metric::new("store_bytes_per_item", bytes_per_row(&dir), "B"),
        ],
        spans: None,
    })
}

/// The traced run: the template campaign through the traced executor
/// mirror, the build and compaction under spans, then alternating
/// untraced and traced passes over the query mix.
fn run_traced(seed: u64, seconds: f64, work: &Path) -> Result<Report, String> {
    let tr = Tracer::new();
    let registry = Registry::new();
    let started = Instant::now();
    let mut inputs = LayerInputs::default();
    let mut failed = 0usize;

    let plain = run_round(template_spec(seed), None, &work.join("plain"))?;
    inputs.untraced_ms += (plain.setup + plain.timed).as_secs_f64() * 1e3;
    let mark = tr.len();
    let template = run_round_traced(template_spec(seed), None, &work.join("template"), &tr, 0)?;
    inputs.exec = mirror_counts(&tr, mark, plain.exec, 0)?;
    let agree = plain.rows.len() == template.rows.len()
        && plain
            .rows
            .iter()
            .zip(&template.rows)
            .all(|(a, b)| apc_campaign::colstore::rows_bit_identical(a, b));
    failed += if agree { 0 } else { template.rows.len() };
    failed += replay_with_obs(&template, &registry);
    inputs.cells = template.cells.len();
    inputs.workloads = template.spec.seeds.len() * template.spec.intervals.len();

    let dir = work.join("store");
    let built = build(&dir, &template.rows, seed, Some(&tr))?;
    inputs.store_bytes = template.store_bytes + built.live_bytes;
    inputs.query.compact_in = built.compact.bytes_in;
    inputs.query.compact_out = built.compact.bytes_out;

    let expected = &built.expected;
    let (mut queries, mut first) = (0usize, Vec::new());
    let mut cycle = 1u64;
    while cycle == 1 || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        for q in MIX {
            let answer = run_query(&dir, &expected.labels, q, None, &mut QueryTotals::default())?;
            failed += usize::from(answer != expected.answer(q));
        }
        inputs.untraced_ms += t.elapsed().as_secs_f64() * 1e3;
        let root = tr.begin("exec.round", None, cycle, COORD);
        for q in MIX {
            let answer = run_query(
                &dir,
                &expected.labels,
                q,
                Some((&tr, Some(root))),
                &mut inputs.query,
            )?;
            failed += usize::from(answer != expected.answer(q));
            if first.len() < MIX.len() {
                first.push(answer);
            }
        }
        tr.end(root);
        queries += 2 * MIX.len();
        cycle += 1;
    }
    inputs.rjms = Some(registry.snapshot());
    Ok(Report {
        attempted: queries,
        failed,
        digests: vec![answers_digest(&first)],
        metrics: crate::layers::finish(&tr, inputs),
        spans: Some(tr),
    })
}
