//! Property tests for the lease-log replay core (`apc_campaign::lease`):
//! the crash-safety contract of the append-only coordination protocol.
//!
//! * Truncating the log file at **any byte** (a worker killed mid-append)
//!   and reopening yields exactly the replay of the longest clean prefix
//!   of complete records — a torn tail is never misparsed into a
//!   different record, because only newline-terminated lines are consumed.
//! * Incrementally refreshing a reader while the file grows in arbitrary
//!   byte-sized chunks (how concurrent appenders look to a poller)
//!   converges on the one-shot replay of the same records.
//! * Duplicating any record (a retried append) never changes any batch's
//!   owner/done projection, so re-delivery is harmless.
//! * A stale claim never shadows a newer renew: while a holder's renewed
//!   deadline is in the future a rival claim is void, and the moment the
//!   deadline passes the same claim is an accepted steal.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use apc_campaign::prelude::*;
use apc_campaign::store::MAX_STORE_CELLS;
use proptest::prelude::*;

const TTL_MS: u64 = 1_000;
const BATCHES: usize = 4;
const LEASE_CELLS: usize = 8;
const TOTAL_CELLS: usize = LEASE_CELLS * BATCHES;
const SPEC_HASH: u64 = 0xfeed_beef_dead_cafe;

static DIRS: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "apc-leaselog-{tag}-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// One sampled record before serialization; timestamps are assigned as a
/// running sum of `dt` so interleaved workers stay chronologically sane.
#[derive(Debug, Clone, Copy)]
struct Rec {
    kind: u8, // 0 = claim, 1 = renew, 2 = done
    batch: usize,
    worker: usize,
    dt: u64,
}

fn rec() -> impl Strategy<Value = Rec> {
    (0u8..3, 0usize..BATCHES, 0usize..3, 1u64..400).prop_map(|(kind, batch, worker, dt)| Rec {
        kind,
        batch,
        worker,
        dt,
    })
}

/// Serialize sampled records to the on-disk line format.
fn render_lines(recs: &[Rec]) -> Vec<String> {
    let mut t = 0u64;
    recs.iter()
        .map(|r| {
            t += r.dt;
            match r.kind {
                0 => format!("claim {} {} {t} {}", r.batch, r.worker, t + TTL_MS),
                1 => format!("renew {} {} {t} {}", r.batch, r.worker, t + TTL_MS),
                _ => format!("done {} {} {t}", r.batch, r.worker),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncation_at_any_byte_yields_clean_prefix(
        recs in proptest::collection::vec(rec(), 1..40),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = temp_dir("trunc");
        LeaseLog::create(&dir, SPEC_HASH, TOTAL_CELLS, LEASE_CELLS, TTL_MS).unwrap();
        let lines = render_lines(&recs);
        let mut file = OpenOptions::new()
            .append(true)
            .open(dir.join(LEASES_NAME))
            .unwrap();
        for line in &lines {
            writeln!(file, "{line}").unwrap();
        }
        drop(file);
        let full = fs::read(dir.join(LEASES_NAME)).unwrap();
        let header_len = full.iter().position(|&b| b == b'\n').unwrap() + 1;
        // Tear the file anywhere after the header — possibly mid-record,
        // possibly mid-number (which would parse as a *different* record
        // if the reader were line-splitting naively).
        let cut = header_len + ((full.len() - header_len) as f64 * cut_frac) as usize;
        fs::write(dir.join(LEASES_NAME), &full[..cut]).unwrap();
        let mut log = LeaseLog::open(&dir).unwrap();
        let body = &full[header_len..cut];
        let keep = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let text = std::str::from_utf8(&body[..keep]).unwrap();
        let expect = LeaseState::replay(BATCHES, text.lines());
        prop_assert_eq!(log.state(), &expect);
        // A writer on the reopened log is not glued to a torn tail: its
        // claim on a batch still open, stamped past every deadline, wins.
        let open = (0..BATCHES).find(|&b| !matches!(expect.batches()[b], BatchLease::Done { .. }));
        if let Some(batch) = open {
            log.append_claim(batch, 9, 1_000_000).unwrap();
            log.refresh().unwrap();
            prop_assert_eq!(log.state().owner(batch), Some(9));
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunked_refresh_matches_one_shot_replay(
        recs in proptest::collection::vec(rec(), 1..40),
        chunks in proptest::collection::vec(1usize..17, 1..60),
    ) {
        let dir = temp_dir("chunks");
        LeaseLog::create(&dir, SPEC_HASH, TOTAL_CELLS, LEASE_CELLS, TTL_MS).unwrap();
        let lines = render_lines(&recs);
        let body: Vec<u8> = lines
            .iter()
            .flat_map(|l| l.bytes().chain([b'\n']))
            .collect();
        let mut log = LeaseLog::open(&dir).unwrap();
        let mut file = OpenOptions::new()
            .append(true)
            .open(dir.join(LEASES_NAME))
            .unwrap();
        let mut pos = 0;
        let mut sizes = chunks.iter().cycle();
        while pos < body.len() {
            let n = (*sizes.next().unwrap()).min(body.len() - pos);
            file.write_all(&body[pos..pos + n]).unwrap();
            file.flush().unwrap();
            pos += n;
            // Refresh mid-record: the partial line must carry to the next
            // refresh, never apply early, never be dropped.
            log.refresh().unwrap();
        }
        let text = String::from_utf8(body).unwrap();
        let expect = LeaseState::replay(BATCHES, text.lines());
        prop_assert_eq!(log.state(), &expect);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicated_record_never_changes_the_lease_projection(
        recs in proptest::collection::vec(rec(), 1..40),
        dup in 0usize..40,
    ) {
        let lines = render_lines(&recs);
        let dup = dup % lines.len();
        let base = LeaseState::replay(BATCHES, lines.iter().map(String::as_str));
        let mut doubled = lines.clone();
        doubled.insert(dup + 1, lines[dup].clone());
        let redo = LeaseState::replay(BATCHES, doubled.iter().map(String::as_str));
        prop_assert_eq!(base.batches(), redo.batches());
    }

    #[test]
    fn stale_claim_never_shadows_a_newer_renew(
        t0 in 1u64..10_000,
        gaps in proptest::collection::vec(1u64..TTL_MS, 1..8),
        rival_dt in 0u64..TTL_MS,
    ) {
        let mut state = LeaseState::new(BATCHES);
        let mut t = t0;
        prop_assert!(state.apply_line(&format!("claim 0 0 {t} {}", t + TTL_MS)));
        for gap in &gaps {
            // Each heartbeat lands strictly before the previous deadline.
            t += gap;
            prop_assert!(state.apply_line(&format!("renew 0 0 {t} {}", t + TTL_MS)));
        }
        let deadline = t + TTL_MS;
        // A rival claim stamped before the renewed deadline is void even
        // though the *original* claim's deadline is long past…
        let rival_t = t + rival_dt;
        let void = format!("claim 0 1 {rival_t} {}", rival_t + TTL_MS);
        prop_assert!(!state.apply_line(&void));
        prop_assert_eq!(state.owner(0), Some(0));
        // …and the moment the renewed deadline passes, the same claim is
        // an accepted steal.
        let steal = format!("claim 0 1 {deadline} {}", deadline + TTL_MS);
        prop_assert!(state.apply_line(&steal));
        prop_assert_eq!(state.owner(0), Some(1));
        prop_assert_eq!(state.worker_stats()[&1].steals, 1);
        prop_assert_eq!(state.worker_stats()[&1].voided, 1);
    }
}

/// A header torn before its newline must be rejected, not replayed as an
/// empty campaign.
#[test]
fn torn_header_is_rejected() {
    let dir = temp_dir("torn-header");
    LeaseLog::create(&dir, SPEC_HASH, TOTAL_CELLS, LEASE_CELLS, TTL_MS).unwrap();
    let full = fs::read(dir.join(LEASES_NAME)).unwrap();
    fs::write(dir.join(LEASES_NAME), &full[..full.len() - 1]).unwrap();
    assert!(LeaseLog::open(&dir).is_err());
    fs::remove_dir_all(&dir).ok();
}

/// A record appended after a torn last line starts on a line of its own:
/// a writer that has read the fragment ends it with `~` in the same write.
#[test]
fn a_record_appended_after_a_torn_line_is_not_lost() {
    let dir = temp_dir("torn-tail");
    LeaseLog::create(&dir, SPEC_HASH, TOTAL_CELLS, LEASE_CELLS, TTL_MS).unwrap();
    let path = dir.join(LEASES_NAME);
    let header = fs::read_to_string(&path).unwrap();
    let mut file = OpenOptions::new().append(true).open(&path).unwrap();
    file.write_all(b"claim 0 1 12").unwrap();
    drop(file);
    let mut log = LeaseLog::open(&dir).unwrap();
    // Opening to read writes nothing.
    assert_eq!(fs::read_to_string(&path).unwrap(), header + "claim 0 1 12");
    log.append_claim(1, 2, 100).unwrap();
    log.refresh().unwrap();
    assert_eq!(log.state().owner(1), Some(2));
    // Once a refresh has read past the fragment, records carry no newline
    // before them.
    log.append_done(1, 2, 200).unwrap();
    log.refresh().unwrap();
    let body = fs::read_to_string(&path).unwrap();
    let body = body.split_once('\n').unwrap().1;
    assert_eq!(body, "claim 0 1 12~\nclaim 1 2 100 1100\ndone 1 2 200\n");
    assert_eq!(log.state().owner(0), None);
    assert!(matches!(log.state().batches()[1], BatchLease::Done { .. }));
    fs::remove_dir_all(&dir).ok();
}

/// A `claim 0 1 100 600` torn to `claim 0 1 100 60` is no claim, not even
/// after a later append ended it: the writer ends the fragment with `~`,
/// and no replay takes `claim 0 1 100 60~` for a lease.
#[test]
fn a_torn_claim_fragment_is_never_a_claim() {
    let dir = temp_dir("torn-claim");
    LeaseLog::create(&dir, SPEC_HASH, TOTAL_CELLS, LEASE_CELLS, TTL_MS).unwrap();
    let path = dir.join(LEASES_NAME);
    let mut file = OpenOptions::new().append(true).open(&path).unwrap();
    file.write_all(b"claim 0 1 100 60").unwrap();
    drop(file);
    let mut log = LeaseLog::open(&dir).unwrap();
    log.append_claim(1, 2, 100).unwrap();
    log.refresh().unwrap();
    let body = fs::read_to_string(&path).unwrap();
    let body = body.split_once('\n').unwrap().1;
    assert_eq!(body, "claim 0 1 100 60~\nclaim 1 2 100 1100\n");
    let reopened = LeaseLog::open(&dir).unwrap();
    for state in [log.state(), reopened.state()] {
        assert_eq!(state.owner(0), None);
        assert_eq!(state.owner(1), Some(2));
    }
    fs::remove_dir_all(&dir).ok();
}

/// Merged lines (two appends fused by a lost newline) fail to parse as a
/// record and are skipped — they never corrupt neighbouring state.
#[test]
fn merged_records_are_skipped() {
    let mut state = LeaseState::new(BATCHES);
    assert!(!state.apply_line("claim 0 0 5done 1 0 9"));
    assert!(!state.apply_line("claim 0 0"));
    assert!(!state.apply_line("lease 0 0 5 9"));
    assert!(state.apply_line("claim 0 0 5 1005"));
    assert_eq!(state.owner(0), Some(0));
    assert_eq!(state.owner(1), None);
}

/// The lease-log header's values, from well-formed to hostile.
fn header_value() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u64..5000).prop_map(|v| v.to_string()),
        (0usize..13).prop_map(|i| {
            [
                "0",
                "1",
                "4096",
                "1048576",
                "4294967295",
                "4294967296",
                "100000000000",
                "18446744073709551615",
                "18446744073709551616",
                "-1",
                "0x10",
                "",
                "feed",
            ][i]
                .to_string()
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mutated headers — huge or malformed numbers, fields dropped — open
    /// to `Ok` or a clean `Err`, never a panic or an abort, and an accepted
    /// header is within both the store's cell limit and the batch limit.
    #[test]
    fn lease_header_parsing_is_total(
        edits in proptest::collection::vec((0usize..3, header_value()), 6..7),
    ) {
        let defaults = ["apc-campaign-leases", "1", "feedbeefdeadcafe", "32", "8", "1000"];
        let words: Vec<String> = defaults
            .iter()
            .zip(&edits)
            .filter_map(|(default, (action, value))| match action {
                0 => Some(default.to_string()),
                1 => Some(value.clone()),
                _ => None, // the field is missing
            })
            .collect();
        let dir = temp_dir("header-fuzz");
        let text = format!("{}\nclaim 0 1 100 600\n", words.join(" "));
        fs::write(dir.join(LEASES_NAME), &text).unwrap();
        match LeaseLog::open(&dir) {
            Ok(log) => {
                let header = log.header();
                prop_assert!(header.total_cells <= MAX_STORE_CELLS, "{text}");
                prop_assert!(header.batch_count() <= MAX_LEASE_BATCHES, "{text}");
                prop_assert!(header.lease_cells >= 1 && header.ttl_ms >= 1, "{text}");
            }
            Err(err) => prop_assert!(!err.is_empty(), "{text}"),
        }
        fs::remove_dir_all(&dir).ok();
    }
}

/// `campaign report` prints an oversized lease header as unreadable and
/// goes on (exit 0) — it once panicked or aborted before the
/// `lease log unreadable` branch — and a worker refuses it with a clean
/// run-time error (exit 1). The report prints the spec fingerprint in hex,
/// as the manifest records it.
#[test]
fn oversized_lease_headers_are_reported_not_crashed_on() {
    const BIN: &str = env!("CARGO_BIN_EXE_campaign");
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
        "--no-sync",
        "--quiet",
    ];
    let dir = temp_dir("report-huge");
    let dir_arg = dir.to_str().unwrap();
    let status = Command::new(BIN)
        .args(grid)
        .args([
            "--distributed",
            dir_arg,
            "--workers",
            "0",
            "--lease-cells",
            "1",
        ])
        .output()
        .unwrap()
        .status;
    assert!(status.success());
    let manifest = fs::read_to_string(dir.join("manifest.txt")).unwrap();
    let spec = manifest
        .lines()
        .nth(1)
        .unwrap()
        .strip_prefix("spec ")
        .unwrap();
    for cells in ["18446744073709551615", "100000000000"] {
        let header = format!("apc-campaign-leases 1 {spec} {cells} 1 30000\n");
        fs::write(dir.join(LEASES_NAME), header).unwrap();
        let report = Command::new(BIN)
            .args(["report", dir_arg])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&report.stdout);
        assert_eq!(report.status.code(), Some(0), "{stdout}");
        assert!(stdout.contains("lease log unreadable:"), "{stdout}");
        assert!(stdout.contains(&format!(", spec {spec}\n")), "{stdout}");
        let worker = Command::new(BIN)
            .args(["worker", dir_arg, "--worker-id", "0"])
            .args(grid)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&worker.stderr);
        assert_eq!(worker.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains("cells exceed the limit"), "{stderr}");
    }
    fs::remove_dir_all(&dir).ok();
}
