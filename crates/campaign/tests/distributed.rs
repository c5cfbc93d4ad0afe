//! Multi-process distributed execution: the headline robustness invariant.
//!
//! The rendered `cells.csv`/`summary.csv` must be **byte-identical** for
//! (a) one local process, (b) an N-worker `--distributed` campaign, and
//! (c) N workers of which one is `kill -9`'d mid-lease — the survivors
//! steal the expired lease and re-execute the orphaned cells, and the
//! deterministic replay plus last-wins dedup make the re-execution
//! invisible in the output.
//!
//! Workers are real OS processes of the `campaign` binary coordinating
//! only through `leases.log` and the store manifest, exactly as in
//! production; the test reads the same files to time its kill.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use apc_campaign::prelude::*;

const BIN: &str = env!("CARGO_BIN_EXE_campaign");

/// Grid flags shared by every process in the test. 24h-interval cells are
/// slow enough (~100 ms each in debug) that a kill reliably lands while
/// the victim holds a lease.
const GRID: &[&str] = &[
    "--policies",
    "shut,mix",
    "--caps",
    "0.6",
    "--seeds",
    "3",
    "--racks",
    "1",
    "--intervals",
    "24h",
    "--threads",
    "1",
    "--no-sync",
    "--quiet",
];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apc-dist-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn run_ok(args: &[&str]) {
    let status = Command::new(BIN)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("cannot run campaign binary");
    assert!(status.success(), "campaign {args:?} failed");
}

fn spawn_worker(dir: &Path, worker: usize) -> Child {
    Command::new(BIN)
        .arg("worker")
        .arg(dir)
        .arg("--worker-id")
        .arg(worker.to_string())
        .args(GRID)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("cannot spawn worker process")
}

fn outputs(dir: &Path) -> [Vec<u8>; 2] {
    ["cells.csv", "summary.csv"].map(|name| {
        fs::read(dir.join(name))
            .unwrap_or_else(|e| panic!("missing {} in {}: {e}", name, dir.display()))
    })
}

/// The single-process reference rendering of the grid, in a directory of
/// the calling test's own: tests run concurrently.
fn reference(tag: &str) -> [Vec<u8>; 2] {
    let dir = temp_dir(&format!("ref-{tag}"));
    let mut args = GRID.to_vec();
    let dir_s = dir.to_str().unwrap().to_string();
    args.extend(["--out", &dir_s]);
    run_ok(&args);
    outputs(&dir)
}

#[test]
fn distributed_workers_match_single_process_bytes() {
    let dir = temp_dir("happy");
    let dir_s = dir.to_str().unwrap().to_string();
    let mut args = GRID.to_vec();
    args.extend([
        "--distributed",
        &dir_s,
        "--workers",
        "2",
        "--lease-cells",
        "2",
        "--lease-ttl",
        "10",
    ]);
    run_ok(&args);
    assert_eq!(outputs(&dir), reference("happy"), "2-worker output differs");
    // The lease log records the full campaign as done with no steals.
    let log = LeaseLog::open(&dir).unwrap();
    assert!(log.state().all_done());
    assert_eq!(log.state().total_steals(), 0);
}

#[test]
fn killed_worker_is_stolen_and_bytes_still_match() {
    let dir = temp_dir("chaos");
    let dir_s = dir.to_str().unwrap().to_string();
    // Initialise the store + lease log only (--workers 0), then launch the
    // worker processes ourselves so one of them can be murdered. A 1 s TTL
    // keeps the steal wait short.
    let mut args = GRID.to_vec();
    args.extend([
        "--distributed",
        &dir_s,
        "--workers",
        "0",
        "--lease-cells",
        "1",
        "--lease-ttl",
        "1",
    ]);
    run_ok(&args);

    let mut victim = spawn_worker(&dir, 0);
    let survivors: Vec<Child> = (1..3).map(|w| spawn_worker(&dir, w)).collect();

    // Wait (through the same lease log the workers use) until worker 0
    // holds a lease, then SIGKILL it mid-batch.
    let deadline = Instant::now() + Duration::from_secs(30);
    let held = loop {
        assert!(Instant::now() < deadline, "worker 0 never claimed a lease");
        if let Ok(log) = LeaseLog::open(&dir) {
            if log
                .state()
                .batches()
                .iter()
                .any(|b| matches!(b, BatchLease::Held { worker: 0, .. }))
            {
                break true;
            }
            if log.state().all_done() {
                break false; // campaign outran the poller; no kill today
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    victim.kill().expect("cannot kill worker 0");
    victim.wait().unwrap();
    // Whatever worker 0 held when it died must now be stolen, not lost.
    let stranded = LeaseLog::open(&dir)
        .unwrap()
        .state()
        .batches()
        .iter()
        .filter(|b| matches!(b, BatchLease::Held { worker: 0, .. }))
        .count();

    for mut child in survivors {
        let status = child.wait().unwrap();
        assert!(status.success(), "survivor worker failed: {status}");
    }

    let log = LeaseLog::open(&dir).unwrap();
    assert!(log.state().all_done(), "campaign did not complete");
    if held && stranded > 0 {
        assert!(
            log.state().total_steals() >= 1,
            "worker 0 died holding {stranded} lease(s) but nothing was stolen"
        );
    }
    // Every cell is recorded exactly once in the merged store…
    let store = ResultStore::open(&dir).unwrap();
    assert!(store.is_complete());
    // …and rendering it is byte-identical to the unkilled single process.
    let mut args = GRID.to_vec();
    args.extend(["--resume", &dir_s]);
    run_ok(&args);
    assert_eq!(
        outputs(&dir),
        reference("chaos"),
        "post-kill output differs"
    );
}
