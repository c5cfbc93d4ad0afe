//! `perf-baseline`: measure the simulator's hot paths and append the
//! numbers to the repo-root perf trajectory (`BENCH_replay.json`).
//!
//! This is the workspace's only benchmark harness besides the repository
//! benchmark under `perfbench/`. It records an *absolute* trajectory across
//! PRs so a hot-path regression is diffable in review, and its ratios gate
//! every change. Each run appends (or replaces, when the label already
//! exists) one entry with these families of numbers:
//!
//! * **replay** — one full scheduler replay of the reduced bench workload
//!   ([`bench_platform`], [`bench_trace`]) per policy, median-of-rounds wall
//!   time plus the controller's events/second over the capped replays; the
//!   paper grid's tight-cap tail: the seed-2012 24-hour 2-rack trace
//!   replayed uncapped and under DVFS at a 40 % cap; and the 60 % DVFS
//!   replay once more with a live metrics registry and span recorder
//!   attached, as `experiments --trace-out` attaches them
//!   (`cap60_dvfs_obs_ns`), so the instruments' cost is the gated ratio
//!   `cap60_dvfs_obs / cap60_dvfs`;
//! * **schedule_pass** — a pending-heavy microbench (thousands of queued
//!   jobs competing for a saturated cluster under a cap) isolating the cost
//!   of one scheduling pass;
//! * **campaign** — the paper grid (policies × caps × intervals × seeds)
//!   through the single-threaded campaign executor, in cells/second;
//! * **store** — a ~100k-row synthetic result store, appended and then
//!   compacted, timed four ways over interleaved rounds like the replay
//!   numbers: a full scan, a narrow two-column projected scan, a store
//!   open ([`StoreScanner::open`]: manifest read and parsed), and a
//!   read-and-validate pass ([`PartitionBuf::read`] of every partition
//!   file: file read, block framing and checksums, no row decoding); plus
//!   the zone-map partition-skip count of a filtered query. The scan cost
//!   over the read-and-validate cost joins the gated ratios. Its
//!   denominator is the read path every scan runs first, so a change that
//!   makes block validation faster raises the ratio even when the scan got
//!   faster too: compare both absolute times, and record such a change as
//!   a new baseline entry. `--check` additionally enforces two absolute
//!   ceilings:
//!   [`gate::STORE_SCAN_CEILING`] (a full scan may cost at most 7× reading
//!   the same bytes) and [`gate::STORE_OPEN_CEILING`] (an open at most a
//!   quarter of it).
//!
//! The replay and schedule-pass numbers feed the gate's ratios, so they are
//! measured as *medians over interleaved rounds* (every round times each of
//! them once, back to back): background-load drift then shifts all of them
//! together instead of inflating whichever one happened to own the slow
//! window, and typical per-round overhead cancels out of each ratio.
//!
//! ```text
//! cargo run --release -p apc-bench --bin perf-baseline -- \
//!     [--label NAME] [--out FILE] [--quick] \
//!     [--check] [--against FILE] [--threshold PCT] [--self-test]
//! ```
//!
//! With `--check`, after recording the fresh entry the tool gates it against
//! the last committed entry of `--against` (default: the `--out` file as it
//! was *before* this run) using host-independent policy-to-baseline ratios —
//! see [`apc_bench::gate`] — and exits nonzero on a regression beyond the
//! threshold (default 15 %). `--self-test` skips measurement entirely and
//! verifies the gate trips on fabricated regressions of the committed
//! entry (the DVFS replay, the 24-hour tail, the instrumented replay and
//! the store open), so CI can prove the gate is live.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use std::path::PathBuf;

use apc_bench::gate;
use apc_campaign::agg::CellRow;
use apc_campaign::colstore::PartitionBuf;
use apc_campaign::compact::compact_store;
use apc_campaign::prelude::{CampaignRunner, CampaignSpec};
use apc_campaign::query::{Projection, RowFilter, ScanFlow, StoreScanner};
use apc_campaign::store::{ResultStore, PARTS_DIR};
use apc_core::{PowercapConfig, PowercapHook, PowercapPolicy};
use apc_obs::{Registry, SpanRecorder};
use apc_replay::{ReplayHarness, Scenario};
use apc_rjms::cluster::Platform;
use apc_rjms::config::ControllerConfig;
use apc_rjms::controller::Controller;
use apc_rjms::job::JobSubmission;
use apc_rjms::obs::ControllerObs;
use apc_rjms::time::{SimTime, HOUR};
use apc_workload::{CurieTraceGenerator, IntervalKind, Trace};

const USAGE: &str = "usage: perf-baseline [--label NAME] [--out FILE] [--quick] \
                     [--check] [--against FILE] [--threshold PCT] [--self-test]";

/// The reduced-scale platform of the replay and pass benches (2 racks,
/// 180 nodes).
fn bench_platform() -> Platform {
    Platform::curie_scaled(2)
}

/// The deterministic reduced workload the gated replays run.
fn bench_trace(platform: &Platform) -> Trace {
    CurieTraceGenerator::new(1234)
        .interval(IntervalKind::MedianJob)
        .load_factor(0.8)
        .backlog_factor(0.4)
        .generate_for(platform)
}

/// Fingerprint of the recording host: CPU model (from `/proc/cpuinfo`, with
/// the architecture as fallback) plus the available core count. Recorded
/// next to each entry so `--check` can warn when a comparison crosses
/// hosts — the gated ratios are host-independent, absolute times are not.
fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':').map(|(_, v)| v.trim().to_string()))
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string());
    format!("{} x{cores}", model.replace('"', "'"))
}

/// Best-of-N wall time of `f`, warmed once, bounded by `budget`.
fn best_of(budget: Duration, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    let mut best = Duration::MAX;
    let started = Instant::now();
    let mut iters = 0u32;
    while started.elapsed() < budget || iters < 3 {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed());
        iters += 1;
        if iters >= 1000 {
            break;
        }
    }
    best
}

/// Per-closure *median* wall times over interleaved rounds: every round
/// times each closure once, back to back. The gate divides these numbers by
/// each other, so they must all see the same machine state — timing each
/// scenario in its own sequential window lets background-load drift inflate
/// one side of a ratio and fail (or mask) a check without any code change.
/// The median (not the minimum) is used because on a shared vCPU the
/// minimum occasionally catches a steal-free window for one quantity but
/// not another, skewing the ratio; typical per-round overhead cancels.
fn median_of_interleaved<const N: usize>(
    budget: Duration,
    mut fs: [&mut dyn FnMut(); N],
) -> [Duration; N] {
    for f in fs.iter_mut() {
        f(); // warm-up
    }
    let mut samples: [Vec<Duration>; N] = std::array::from_fn(|_| Vec::new());
    let started = Instant::now();
    let mut rounds = 0u32;
    while started.elapsed() < budget || rounds < 3 {
        for (f, samples) in fs.iter_mut().zip(samples.iter_mut()) {
            let t = Instant::now();
            f();
            samples.push(t.elapsed());
        }
        rounds += 1;
        if rounds >= 1000 {
            break;
        }
    }
    samples.map(|mut s| {
        s.sort_unstable();
        s[s.len() / 2]
    })
}

struct ReplayNumbers {
    baseline_ns: u128,
    shut_ns: u128,
    dvfs_ns: u128,
    dvfs_obs_ns: u128,
    mix_ns: u128,
    baseline_24h_ns: u128,
    cap40_dvfs_24h_ns: u128,
    events_per_sec: f64,
}

/// All eight gated quantities — the four per-policy replays, the DVFS
/// replay with the controller's instruments live, the 24-hour uncapped and
/// 40 % DVFS replays, and the schedule-pass microbench — timed over
/// interleaved rounds so every ratio's numerator and denominator sample the
/// same machine state, plus the controller's events/second (not gated,
/// measured separately after).
fn measure_gated(budget: Duration) -> (ReplayNumbers, u64, f64) {
    let platform = bench_platform();
    let trace = bench_trace(&platform);
    let harness = ReplayHarness::new(platform, trace);
    let duration = harness.trace().duration;
    // The paper grid's slowest cells: a tight cap over a 24-hour interval.
    let platform_24h = bench_platform();
    let trace_24h = CurieTraceGenerator::new(2012)
        .interval(IntervalKind::Day24h)
        .generate_for(&platform_24h);
    let harness_24h = ReplayHarness::new(platform_24h, trace_24h);
    let duration_24h = harness_24h.trace().duration;

    let scenarios = [
        (&harness, Scenario::baseline()),
        (
            &harness,
            Scenario::paper(PowercapPolicy::Shut, 0.6, duration),
        ),
        (
            &harness,
            Scenario::paper(PowercapPolicy::Dvfs, 0.6, duration),
        ),
        (
            &harness,
            Scenario::paper(PowercapPolicy::Mix, 0.6, duration),
        ),
        (&harness_24h, Scenario::baseline()),
        (
            &harness_24h,
            Scenario::paper(PowercapPolicy::Dvfs, 0.4, duration_24h),
        ),
    ];
    // `replay` captures only shared borrows, so the per-scenario closures
    // can all hold it at once.
    let replay = |i: usize| {
        let (harness, scenario) = &scenarios[i];
        std::hint::black_box(harness.run(scenario).report.launched_jobs);
    };
    let (mut r0, mut r1, mut r2, mut r3) = (|| replay(0), || replay(1), || replay(2), || replay(3));
    let (mut r4, mut r5) = (|| replay(4), || replay(5));
    // The DVFS replay again, with the live registry and span recorder that
    // `experiments --trace-out` attaches (`figures::profile_trace`); the
    // spans are drained inside the timing, so the buffer never outgrows
    // one replay.
    let registry = Registry::new();
    let spans = SpanRecorder::new();
    let mut dvfs_obs = || {
        let (harness, scenario) = &scenarios[2];
        let obs = ControllerObs::new(&registry, spans.clone());
        std::hint::black_box(harness.run_with_obs(scenario, obs).report.launched_jobs);
        std::hint::black_box(spans.take_events().len());
    };
    let pass_platform = bench_platform();
    let mut passes = 0u64;
    let mut pass_bench = || passes = run_pass_bench(&pass_platform);
    let [baseline, shut, dvfs, dvfs_obs, mix, baseline_24h, dvfs_24h, pass_wall] =
        median_of_interleaved(
            budget,
            [
                &mut r0,
                &mut r1,
                &mut r2,
                &mut dvfs_obs,
                &mut r3,
                &mut r4,
                &mut r5,
                &mut pass_bench,
            ],
        );
    assert!(
        registry
            .snapshot()
            .histogram("rjms.schedule_pass.duration_ns")
            .is_some_and(|h| h.count > 0),
        "the instrumented replay must publish its passes"
    );

    // Events/second through the raw controller (the harness hides it), on
    // the same workload under the MIX policy at the 60 % cap.
    let platform = bench_platform();
    let trace = bench_trace(&platform);
    let scenario = Scenario::paper(PowercapPolicy::Mix, 0.6, trace.duration);
    let mut events = 0u64;
    let wall = best_of(budget, || {
        let hook = PowercapHook::new(PowercapConfig::for_policy(PowercapPolicy::Mix), &platform);
        let mut controller = Controller::with_hook(
            platform.clone(),
            ControllerConfig::default(),
            Box::new(hook),
        );
        for (window, cap) in scenario.reservations(&platform) {
            controller.add_powercap_reservation(window, cap);
        }
        controller.submit_all(trace.to_submissions());
        controller.set_horizon(trace.duration);
        std::hint::black_box(controller.run().launched_jobs);
        events = controller.events_processed();
    });
    let events_per_sec = events as f64 / wall.as_secs_f64();
    let numbers = ReplayNumbers {
        baseline_ns: baseline.as_nanos(),
        shut_ns: shut.as_nanos(),
        dvfs_ns: dvfs.as_nanos(),
        dvfs_obs_ns: dvfs_obs.as_nanos(),
        mix_ns: mix.as_nanos(),
        baseline_24h_ns: baseline_24h.as_nanos(),
        cap40_dvfs_24h_ns: dvfs_24h.as_nanos(),
        events_per_sec,
    };
    let ns_per_pass = pass_wall.as_nanos() as f64 / passes.max(1) as f64;
    (numbers, passes, ns_per_pass)
}

/// One run of the pending-heavy microbench: a deep queue on a saturated,
/// capped cluster so every scheduling pass walks the full backfill depth.
/// Returns the number of scheduling passes the run took.
fn run_pass_bench(platform: &Platform) -> u64 {
    let hook = PowercapHook::new(PowercapConfig::for_policy(PowercapPolicy::Mix), platform);
    let mut controller = Controller::with_hook(
        platform.clone(),
        ControllerConfig::default(),
        Box::new(hook),
    );
    let cap = platform.power_fraction(0.6);
    controller.add_powercap_reservation(apc_rjms::time::TimeWindow::new(0, 4 * HOUR), cap);
    // 2 000 pending 10-node jobs on a 180-node machine: ~18 can run at
    // once, so the queue stays thousands deep for the whole interval.
    for i in 0..2_000u64 {
        controller.submit(JobSubmission::new(
            (i % 7) as usize,
            0,
            160,
            2 * HOUR,
            900 + (i % 13) as SimTime * 60,
        ));
    }
    controller.set_horizon(2 * HOUR);
    std::hint::black_box(controller.run().launched_jobs);
    controller.schedule_passes()
}

/// The paper grid through the single-threaded executor.
fn measure_campaign(runs: u32) -> (usize, f64, f64) {
    let spec = CampaignSpec::paper(2012, 3);
    let runner = CampaignRunner::new(spec).with_threads(1);
    let mut cells = 0usize;
    let mut best = Duration::MAX;
    for _ in 0..runs {
        let t = Instant::now();
        let outcome = runner.run().expect("paper grid runs");
        best = best.min(t.elapsed());
        cells = outcome.rows.len();
    }
    let wall_s = best.as_secs_f64();
    (cells, wall_s, cells as f64 / wall_s)
}

struct StoreNumbers {
    rows: usize,
    block_read_ns: u128,
    v3_scan_ns: u128,
    v3_narrow_scan_ns: u128,
    open_ns: u128,
    zone_skipped_parts: usize,
}

/// One synthetic store row. The workload label flips halfway through the
/// grid so the contiguous first-half partitions are zone-map skippable by a
/// second-half workload filter; everything else is cheap deterministic
/// filler with full-precision floats.
fn synthetic_row(i: usize, total: usize) -> CellRow {
    let x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    CellRow {
        index: i,
        racks: 1 + (i % 4),
        workload: if i < total / 2 {
            "smalljob"
        } else {
            "medianjob"
        }
        .to_string(),
        seed: Some(x % 32),
        load_factor: 0.6 + (i % 5) as f64 * 0.3,
        scenario: ["100%/None", "80%/SHUT", "60%/DVFS", "40%/MIX"][i % 4].to_string(),
        window: "7200+3600".to_string(),
        policy: ["none", "shut", "dvfs", "mix"][i % 4].to_string(),
        cap_percent: [100.0, 80.0, 60.0, 40.0][i % 4],
        grouping: "grouped".to_string(),
        decision_rule: "paper-rho".to_string(),
        // Label-free rows keep the store paper-shaped: APC3 blocks, as a
        // store of the paper's scenarios holds.
        schedule: "-".to_string(),
        faults: "-".to_string(),
        launched_jobs: (x % 10_000) as usize,
        completed_jobs: (x % 9_000) as usize,
        killed_jobs: (x % 50) as usize,
        pending_jobs: (x % 200) as usize,
        work_core_seconds: x as f64 * 1e-3,
        energy_joules: x as f64 * 7e-4,
        energy_normalized: (x % 1000) as f64 / 997.0,
        launched_jobs_normalized: (x % 100) as f64 / 101.0,
        work_normalized: (x % 500) as f64 / 499.0,
        mean_wait_seconds: (x % 7200) as f64 + 0.125,
        peak_power_watts: 900.0 + (x % 300) as f64,
    }
}

/// Build the synthetic store — appended one row per block, as a live
/// campaign writes it, then compacted — and time full scans of it
/// interleaved with a narrow two-column projected scan (the decoder
/// materialises only the requested columns), a store open and a
/// read-and-validate pass over the same partition files; also run one
/// zone-map-filtered query and record how many partitions its zone maps
/// let it skip.
fn measure_store(budget: Duration, rows: usize) -> StoreNumbers {
    let dir: PathBuf = std::env::temp_dir().join(format!("apc-perf-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    drop(ResultStore::create(&dir, 0xbe9c, rows).expect("create store"));
    // A worker handle appends without keeping every row in memory.
    let mut store = ResultStore::open_worker(&dir, 0).expect("open store");
    store.set_sync(false); // measuring scan throughput, not durability
    for i in 0..rows {
        store.append(&synthetic_row(i, rows)).expect("append row");
    }
    drop(store);
    compact_store(&dir, None).expect("compact store");

    let mut full_scan = || {
        let scanner = StoreScanner::open(&dir).expect("open store");
        let mut seen = 0usize;
        scanner
            .scan(&RowFilter::default(), |row| {
                std::hint::black_box(row.launched_jobs);
                seen += 1;
                Ok(ScanFlow::Continue)
            })
            .expect("scan store");
        assert_eq!(seen, rows, "scan must visit every row");
    };
    let narrow = Projection::of(&["index".to_string(), "launched_jobs".to_string()])
        .expect("projection columns");
    let mut narrow_scan = || {
        let scanner = StoreScanner::open(&dir).expect("open store");
        let mut seen = 0usize;
        scanner
            .scan_projected(&RowFilter::default(), narrow, |row| {
                std::hint::black_box(row.launched_jobs);
                seen += 1;
                Ok(ScanFlow::Continue)
            })
            .expect("projected scan");
        assert_eq!(seen, rows, "projected scan must visit every row");
    };
    // The floor every scan pays: read each partition file and validate its
    // block framing and checksums, decoding no row.
    let mut block_read = || {
        let parts = std::fs::read_dir(dir.join(PARTS_DIR)).expect("list partitions");
        let mut validated = 0usize;
        for entry in parts {
            let buf = PartitionBuf::read(&entry.expect("partition entry").path())
                .expect("read partition");
            validated += buf.total_rows();
        }
        assert_eq!(validated, rows, "every block must validate");
    };
    // What every query pays before its scan: read and parse the manifest.
    let mut open = || {
        let scanner = StoreScanner::open(&dir).expect("open store");
        assert_eq!(scanner.completed_count(), rows, "every cell is recorded");
    };
    let [v3_wall, v3_narrow_wall, open_wall, read_wall] = median_of_interleaved(
        budget,
        [&mut full_scan, &mut narrow_scan, &mut open, &mut block_read],
    );

    // A filtered query: the first-half partitions hold only "smalljob"
    // rows, so their zone maps prove them row-free for this filter.
    let filter = RowFilter {
        workload: Some("medianjob".to_string()),
        ..RowFilter::default()
    };
    let scanner = StoreScanner::open(&dir).expect("open store");
    let stats = scanner
        .scan(&filter, |_| Ok(ScanFlow::Continue))
        .expect("filtered scan");
    assert!(
        stats.partitions_skipped > 0,
        "the synthetic layout must exercise zone-map skipping"
    );
    let _ = std::fs::remove_dir_all(&dir);
    StoreNumbers {
        rows,
        block_read_ns: read_wall.as_nanos(),
        v3_scan_ns: v3_wall.as_nanos(),
        v3_narrow_scan_ns: v3_narrow_wall.as_nanos(),
        open_ns: open_wall.as_nanos(),
        zone_skipped_parts: stats.partitions_skipped,
    }
}

fn json_entry(label: &str) -> String {
    let quick = std::env::args().any(|a| a == "--quick");
    let budget = if quick {
        Duration::from_millis(300)
    } else {
        Duration::from_millis(1500)
    };
    eprintln!("measuring replay per policy + schedule-pass microbench (interleaved) …");
    let (replay, passes, ns_per_pass) = measure_gated(budget);
    eprintln!("measuring paper-grid campaign …");
    let (cells, wall_s, cells_per_sec) = measure_campaign(if quick { 1 } else { 2 });
    eprintln!("measuring result-store scans against a read-and-validate pass …");
    let store = measure_store(budget, if quick { 20_000 } else { 120_000 });
    let scan_over_read = store.v3_scan_ns as f64 / store.block_read_ns.max(1) as f64;
    let projection_speedup = store.v3_scan_ns as f64 / store.v3_narrow_scan_ns.max(1) as f64;
    let open_over_read = store.open_ns as f64 / store.block_read_ns.max(1) as f64;
    eprintln!(
        "  projection pushdown: narrow 2-column scan {projection_speedup:.2}x \
         faster than the full v3 decode"
    );
    let recorded = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let host = host_fingerprint();
    format!(
        "  {{\"label\": \"{label}\", \"recorded_unix\": {recorded}, \"host\": \"{host}\", \
         \"replay\": {{\"baseline_none_ns\": {}, \"cap60_shut_ns\": {}, \
         \"cap60_dvfs_ns\": {}, \"cap60_dvfs_obs_ns\": {}, \"cap60_mix_ns\": {}, \
         \"baseline_24h_ns\": {}, \"cap40_dvfs_24h_ns\": {}, \"events_per_sec\": {:.0}}}, \
         \"schedule_pass\": {{\"passes\": {passes}, \"ns_per_pass\": {:.1}}}, \
         \"store\": {{\"rows\": {}, \"block_read_ns\": {}, \"v3_scan_ns\": {}, \
         \"scan_over_read\": {scan_over_read:.2}, \"v3_narrow_scan_ns\": {}, \
         \"projection_speedup\": {projection_speedup:.1}, \"open_ns\": {}, \
         \"open_over_read\": {open_over_read:.3}, \"zone_skipped_parts\": {}}}, \
         \"campaign\": {{\"cells\": {cells}, \"wall_s\": {:.3}, \"cells_per_sec\": {:.1}}}}}",
        replay.baseline_ns,
        replay.shut_ns,
        replay.dvfs_ns,
        replay.dvfs_obs_ns,
        replay.mix_ns,
        replay.baseline_24h_ns,
        replay.cap40_dvfs_24h_ns,
        replay.events_per_sec,
        ns_per_pass,
        store.rows,
        store.block_read_ns,
        store.v3_scan_ns,
        store.v3_narrow_scan_ns,
        store.open_ns,
        store.zone_skipped_parts,
        wall_s,
        cells_per_sec,
    )
}

/// Rewrite `path` keeping previously recorded entries (identified by their
/// one-entry-per-line layout), replacing any entry with the same label.
fn write_trajectory(path: &str, label: &str, entry: String) -> Result<(), String> {
    let mut entries: Vec<String> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(path) {
        let needle = format!("\"label\": \"{label}\"");
        for line in existing.lines() {
            let trimmed = line.trim_start();
            if trimmed.starts_with("{\"label\":") && !trimmed.contains(&needle) {
                entries.push(format!("  {}", trimmed.trim_end_matches(',')));
            }
        }
    }
    entries.push(entry);
    let body = entries.join(",\n");
    let text = format!(
        "{{\n\"schema\": 1,\n\
         \"description\": \"Perf trajectory of the replay/campaign hot paths; \
         one entry per PR, appended by `cargo run --release -p apc-bench --bin \
         perf-baseline -- --label NAME`. Replay, schedule-pass, store-scan, \
         store-open and block-read times are medians of interleaved rounds; events_per_sec and the \
         campaign wall time are best-of-N. Compare entries recorded on the \
         same host only.\",\n\
         \"entries\": [\n{body}\n]\n}}\n"
    );
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// The committed reference for a gate run: the last entry of `text` that is
/// neither the fresh label nor a CI-appended (`ci-*`) entry from an earlier
/// run of this tool.
fn committed_reference(text: &str, fresh_label: &str) -> Option<gate::PerfEntry> {
    let entries = gate::parse_trajectory(text);
    gate::reference_entry(&entries, |label| {
        label == fresh_label || label.starts_with("ci-")
    })
    .cloned()
}

/// `--self-test`: prove the gate is live without measuring anything. The
/// committed reference must pass against itself, ceilings included, and
/// must *fail* against a fabricated 1.5× DVFS-replay regression, against
/// fabricated 1.5× regressions of the 24-hour tail and of the instrumented
/// DVFS replay when the reference recorded them, and against a fabricated
/// store open costing 2.4× its read-and-validate pass (what one `done` line
/// per cell cost a 200k-row store) when the reference recorded an open
/// time.
fn run_self_test(against: &str) -> ExitCode {
    let text = match std::fs::read_to_string(against) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("self-test: cannot read {against}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(committed) = committed_reference(&text, "") else {
        eprintln!("self-test: no committed entry in {against}");
        return ExitCode::FAILURE;
    };
    let clean = gate::check(&committed, &committed, gate::DEFAULT_THRESHOLD);
    let clean_ceilings = gate::ceiling_checks(&committed);
    let ceilings_clean = clean_ceilings.iter().all(|c| !c.breached());
    let regressed = committed.with_synthetic_regression(1.5);
    let tripped = gate::check(&committed, &regressed, gate::DEFAULT_THRESHOLD);
    eprintln!("{clean}");
    for ceiling in &clean_ceilings {
        eprintln!("  {ceiling}");
    }
    eprintln!("{tripped}");
    // A fabricated regression of a ratio the reference recorded must trip
    // the gate; a ratio it predates is skipped with a note.
    let trips = |regressed: Option<gate::PerfEntry>, ratio: &str| match regressed {
        Some(regressed) => {
            let report = gate::check(&committed, &regressed, gate::DEFAULT_THRESHOLD);
            eprintln!("{report}");
            !report.passed()
        }
        None => {
            eprintln!(
                "self-test: '{}' predates {ratio}; skipping its check",
                committed.label
            );
            true
        }
    };
    let tail_tripped = trips(
        committed.with_synthetic_tail_regression(1.5),
        "the 24h tail ratio",
    );
    let obs_tripped = trips(
        committed.with_synthetic_obs_regression(1.5),
        "the instrumented DVFS replay",
    );
    let open_tripped = match committed.with_synthetic_open_regression(2.4) {
        Some(regressed) => {
            let checks = gate::ceiling_checks(&regressed);
            eprintln!("ceilings of '{}':", regressed.label);
            for ceiling in &checks {
                eprintln!("  {ceiling}");
            }
            checks
                .iter()
                .any(|c| c.name == "store open" && c.breached())
        }
        None => {
            eprintln!(
                "self-test: '{}' predates the store open time; skipping its ceiling",
                committed.label
            );
            true
        }
    };
    if clean.passed()
        && ceilings_clean
        && !tripped.passed()
        && tail_tripped
        && obs_tripped
        && open_tripped
    {
        eprintln!("self-test: gate passes a clean entry and trips on a synthetic regression");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "self-test: gate is NOT live (clean={}, ceilings clean={ceilings_clean}, \
             tripped={}, tail tripped={tail_tripped}, obs tripped={obs_tripped}, \
             open tripped={open_tripped})",
            clean.passed(),
            !tripped.passed()
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut label = "dev".to_string();
    let mut out = "BENCH_replay.json".to_string();
    let mut against: Option<String> = None;
    let mut check = false;
    let mut self_test = false;
    let mut threshold = gate::DEFAULT_THRESHOLD;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--label" => match iter.next() {
                Some(v) => label = v.clone(),
                None => {
                    eprintln!("--label needs a value\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--out" => match iter.next() {
                Some(v) => out = v.clone(),
                None => {
                    eprintln!("--out needs a value\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--against" => match iter.next() {
                Some(v) => against = Some(v.clone()),
                None => {
                    eprintln!("--against needs a value\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--threshold" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 => threshold = v / 100.0,
                _ => {
                    eprintln!("--threshold needs a positive percentage\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--check" => check = true,
            "--self-test" => self_test = true,
            "--quick" => {}
            other => {
                eprintln!("unknown option: {other}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let against = against.unwrap_or_else(|| out.clone());
    if self_test {
        return run_self_test(&against);
    }
    // Snapshot the committed trajectory before the write below replaces it,
    // so `--check` against the default path still compares pre-run state.
    let committed = if check {
        match std::fs::read_to_string(&against) {
            Ok(text) => committed_reference(&text, &label),
            Err(e) => {
                eprintln!("error: --check: cannot read {against}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    if check && committed.is_none() {
        eprintln!("error: --check: no committed entry to gate against in {against}");
        return ExitCode::FAILURE;
    }
    let entry = json_entry(&label);
    println!("{}", entry.trim_start());
    if let Err(e) = write_trajectory(&out, &label, entry.clone()) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");
    if let Some(committed) = committed {
        let Some(fresh) = gate::parse_trajectory(&entry).pop() else {
            eprintln!("error: --check: fresh entry did not round-trip the parser");
            return ExitCode::FAILURE;
        };
        match (&committed.host, &fresh.host) {
            (Some(c), Some(f)) if c != f => eprintln!(
                "warning: cross-host comparison — '{}' was recorded on \"{c}\", this run on \
                 \"{f}\"; the gated ratios are host-independent, but treat close calls with care",
                committed.label
            ),
            (None, _) => eprintln!(
                "note: '{}' predates host fingerprints; cannot tell whether this comparison \
                 crosses hosts",
                committed.label
            ),
            _ => {}
        }
        let report = gate::check(&committed, &fresh, threshold);
        eprintln!("{report}");
        if !report.passed() {
            eprintln!(
                "perf gate failed: a tracked ratio grew more than {:.0} % over '{}'; \
                 if intentional, re-record the baseline (see README 'Performance')",
                threshold * 100.0,
                committed.label
            );
            return ExitCode::FAILURE;
        }
        // Absolute ceilings, independent of the committed baseline: a full
        // scan and a store open may each cost at most a fixed multiple of
        // reading and validating the same bytes, measured side by side in
        // this very run.
        let ceilings = gate::ceiling_checks(&fresh);
        for ceiling in &ceilings {
            eprintln!("{ceiling}");
        }
        if let Some(over) = ceilings.iter().find(|c| c.breached()) {
            eprintln!(
                "perf gate failed: {} costs {:.3}x a read-and-validate pass, above the \
                 {}x ceiling",
                over.name, over.over_read, over.ceiling
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
