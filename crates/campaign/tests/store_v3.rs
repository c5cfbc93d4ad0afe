//! Properties of the schema-v3 binary columnar store.
//!
//! Four guarantees the rest of the pipeline leans on, checked over random
//! inputs rather than hand-picked examples:
//!
//! * **round-trip** — encode → parse → decode reproduces every row with
//!   exact `f64` bit equality (NaN payloads and infinities included), so
//!   CSV/JSON exports rendered from a v3 store are byte-identical to those
//!   rendered from the v2 CSV rows;
//! * **truncation** — cutting a partition file at *any* byte yields a
//!   clean prefix of the original rows, never a garbled row;
//! * **corruption** — flipping any single bit is caught by the block
//!   checksum (or the structural checks) and confines the damage to a
//!   prefix, again never a garbled row;
//! * **zone maps** — a scan with partition skipping returns exactly the
//!   rows a brute-force filter over all decoded rows returns.
//!
//! Plus a deterministic crash-resume test mirroring `campaign_resume.rs`
//! at the store level: a torn v3 append is repaired on reopen and the
//! re-run row wins.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use apc_campaign::agg::CellRow;
use apc_campaign::colstore::{encode_block, rows_bit_identical, PartitionBuf};
use apc_campaign::query::{RowFilter, ScanFlow, StoreScanner};
use apc_campaign::store::ResultStore;
use proptest::prelude::*;

const WORKLOADS: [&str; 3] = ["smalljob", "medianjob", "24h"];
const SCENARIOS: [&str; 4] = ["100%/None", "80%/SHUT", "60%/DVFS", "40%/MIX"];
const WINDOWS: [&str; 2] = ["7200+3600", "-"];
const POLICIES: [&str; 4] = ["none", "shut", "dvfs", "mix"];

const SCHEDULES: [&str; 3] = ["-", "0+43200@80|43200+43200@40", "0+3600@60"];
const FAULTS: [&str; 3] = ["-", "3x600@7", "1x1800@2012"];

/// splitmix64: expand one sampled u64 into a stream of derived values so a
/// 4-tuple strategy can populate every row field.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Build a full row from one sampled (entropy, entropy, selector) triple.
/// Floats come straight from raw bit patterns, so subnormals, infinities
/// and NaNs with arbitrary payloads all occur; a few are forced so every
/// run exercises the special cases.
fn build_row(index: usize, a: u64, b: u64, sel: u8) -> CellRow {
    let mut s = a;
    let f = |s: &mut u64| f64::from_bits(mix(s));
    CellRow {
        index,
        racks: (mix(&mut s) % 64) as usize,
        workload: WORKLOADS[(sel as usize) % WORKLOADS.len()].to_string(),
        seed: if sel.is_multiple_of(3) { None } else { Some(b) },
        load_factor: if sel.is_multiple_of(11) {
            f64::NAN
        } else {
            (mix(&mut s) % 32) as f64 / 8.0
        },
        scenario: SCENARIOS[(sel as usize / 3) % SCENARIOS.len()].to_string(),
        window: WINDOWS[(sel as usize / 2) % WINDOWS.len()].to_string(),
        policy: POLICIES[(sel as usize / 5) % POLICIES.len()].to_string(),
        cap_percent: f(&mut s),
        grouping: if sel.is_multiple_of(2) {
            "grouped"
        } else {
            "ungrouped"
        }
        .to_string(),
        decision_rule: if sel.is_multiple_of(4) {
            "paper-rho"
        } else {
            "oracle"
        }
        .to_string(),
        // Mixing "-" with real labels makes the partitions interleave
        // label-free (APC3) and labelled (APC4) blocks, so the round-trip,
        // truncation and corruption properties cover both codecs.
        schedule: SCHEDULES[(sel as usize / 7) % SCHEDULES.len()].to_string(),
        faults: FAULTS[(sel as usize / 11) % FAULTS.len()].to_string(),
        launched_jobs: (mix(&mut s) % 10_000) as usize,
        completed_jobs: (mix(&mut s) % 10_000) as usize,
        killed_jobs: (mix(&mut s) % 100) as usize,
        pending_jobs: (mix(&mut s) % 100) as usize,
        work_core_seconds: f(&mut s),
        energy_joules: f(&mut s),
        energy_normalized: f(&mut s),
        launched_jobs_normalized: f(&mut s),
        work_normalized: f(&mut s),
        mean_wait_seconds: if sel.is_multiple_of(5) {
            f64::NAN
        } else {
            f(&mut s)
        },
        peak_power_watts: if sel.is_multiple_of(7) {
            f64::INFINITY
        } else {
            f(&mut s)
        },
    }
}

/// Encode `rows` as a partition: a sequence of appended blocks whose sizes
/// are driven by `chunk` (mirroring live appends of 1-row blocks and
/// compacted multi-row blocks in one file).
fn encode_partition(rows: &[CellRow], chunk: usize) -> Vec<u8> {
    let mut data = Vec::new();
    for block in rows.chunks(chunk.max(1)) {
        data.extend_from_slice(&encode_block(block));
    }
    data
}

fn assert_bit_identical_prefix(decoded: &[CellRow], original: &[CellRow]) {
    assert!(
        decoded.len() <= original.len(),
        "decoded more rows than were written"
    );
    for (d, o) in decoded.iter().zip(original) {
        assert!(
            rows_bit_identical(d, o),
            "decoded row {} is not bit-identical to the written row",
            d.index
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encode_decode_round_trips_every_row_bit_exactly(
        seeds in proptest::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX, 0u8..=255), 1..40),
        chunk in 1usize..9,
    ) {
        let rows: Vec<CellRow> = seeds
            .iter()
            .enumerate()
            .map(|(i, &(a, b, sel))| build_row(i, a, b, sel))
            .collect();
        let buf = PartitionBuf::parse(encode_partition(&rows, chunk));
        prop_assert_eq!(buf.total_rows(), rows.len());
        let decoded = buf.decode_all();
        prop_assert_eq!(decoded.len(), rows.len());
        for (d, o) in decoded.iter().zip(&rows) {
            prop_assert!(rows_bit_identical(d, o), "row {} lost bits", o.index);
        }
    }

    #[test]
    fn truncation_at_any_byte_yields_a_clean_prefix(
        seeds in proptest::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX, 0u8..=255), 1..20),
        chunk in 1usize..5,
        cut_entropy in 0u64..=u64::MAX,
    ) {
        let rows: Vec<CellRow> = seeds
            .iter()
            .enumerate()
            .map(|(i, &(a, b, sel))| build_row(i, a, b, sel))
            .collect();
        let data = encode_partition(&rows, chunk);
        let cut = (cut_entropy % (data.len() as u64 + 1)) as usize;
        let buf = PartitionBuf::parse(data[..cut].to_vec());
        prop_assert!(buf.trusted_len() <= cut);
        let decoded = buf.decode_all();
        assert_bit_identical_prefix(&decoded, &rows);
        // Whole blocks survive: the decoded count is a multiple of the
        // chunking that produced them, up to the cut.
        prop_assert!(decoded.len().is_multiple_of(chunk) || decoded.len() == rows.len());
    }

    #[test]
    fn any_single_bit_flip_is_rejected_not_decoded(
        seeds in proptest::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX, 0u8..=255), 1..12),
        chunk in 1usize..5,
        flip_entropy in (0u64..=u64::MAX, 0u8..8),
    ) {
        let rows: Vec<CellRow> = seeds
            .iter()
            .enumerate()
            .map(|(i, &(a, b, sel))| build_row(i, a, b, sel))
            .collect();
        let mut data = encode_partition(&rows, chunk);
        let (byte_entropy, bit) = flip_entropy;
        let byte = (byte_entropy % data.len() as u64) as usize;
        data[byte] ^= 1 << bit;
        let buf = PartitionBuf::parse(data);
        let decoded = buf.decode_all();
        // The flipped bit sits inside some block; that block and everything
        // after it must be dropped, so strictly fewer rows come back — and
        // the survivors are exactly the untouched prefix.
        prop_assert!(decoded.len() < rows.len(), "corruption went undetected");
        assert_bit_identical_prefix(&decoded, &rows);
    }

    #[test]
    fn zone_map_scans_agree_with_brute_force_filtering(
        seeds in proptest::collection::vec((0u64..=u64::MAX, 0u64..8, 0u8..=255), 1..150),
        filter_sel in (0u8..=255, 0u64..8),
    ) {
        // Small seed domain (0..8) so seed filters actually hit sometimes.
        let rows: Vec<CellRow> = seeds
            .iter()
            .enumerate()
            .map(|(i, &(a, b, sel))| build_row(i, a, b, sel))
            .collect();
        let dir = temp_dir("zonescan");
        let mut store = ResultStore::create(&dir, 0x5eed, rows.len()).unwrap();
        for row in &rows {
            store.append(row).unwrap();
        }
        drop(store);

        let (fsel, fseed) = filter_sel;
        let filter = RowFilter {
            workload: (fsel % 4 < 3).then(|| WORKLOADS[(fsel as usize) % 3].to_string()),
            scenario: fsel.is_multiple_of(5).then(|| SCENARIOS[(fsel as usize) % 4].to_string()),
            policy: fsel.is_multiple_of(7).then(|| POLICIES[(fsel as usize) % 4].to_string()),
            seed: fsel.is_multiple_of(3).then_some(fseed),
            schedule: fsel.is_multiple_of(4).then(|| SCHEDULES[(fsel as usize) % 3].to_string()),
            faults: fsel.is_multiple_of(6).then(|| FAULTS[(fsel as usize) % 3].to_string()),
            ..RowFilter::default()
        };
        let expected: Vec<usize> = rows
            .iter()
            .filter(|r| filter.matches(r))
            .map(|r| r.index)
            .collect();

        let scanner = StoreScanner::open(&dir).unwrap();
        let mut got = Vec::new();
        let stats = scanner
            .scan(&filter, |row| {
                got.push(row.index);
                Ok(ScanFlow::Continue)
            })
            .unwrap();
        fs::remove_dir_all(&dir).unwrap();
        prop_assert_eq!(&got, &expected, "zone-skipped scan disagrees with brute force");
        prop_assert_eq!(stats.matched, expected.len());
        prop_assert!(!stats.stopped_early);
    }
}

/// Unique scratch directory per call (the proptest harness runs many cases
/// through one test body).
fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("apc-store-v3-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Crash-resume at the store level, mirroring `campaign_resume.rs`: tear
/// the last v3 block mid-write (its `done` entry never landed), reopen,
/// re-append that cell plus the rest, and check the reader sees every row
/// exactly once with the re-run values winning.
#[test]
fn v3_store_resumes_after_a_torn_append() {
    let dir = temp_dir("resume");
    let rows: Vec<CellRow> = (0..6).map(|i| build_row(i, i as u64 + 1, 7, 42)).collect();

    let mut store = ResultStore::create(&dir, 0xfeed, rows.len()).unwrap();
    for row in &rows[..4] {
        store.append(row).unwrap();
    }
    drop(store);

    // Simulate the crash: drop cell 3's `done` line from the manifest and
    // tear its block in half on disk.
    let manifest = dir.join("manifest.txt");
    let text = fs::read_to_string(&manifest).unwrap();
    let kept: Vec<&str> = text.lines().take(4 + 3).collect();
    assert_eq!(
        kept.iter().filter(|l| l.starts_with("done ")).count(),
        3,
        "manifest layout changed: expected a 4-line header then done lines"
    );
    fs::write(&manifest, kept.join("\n") + "\n").unwrap();
    let part = dir.join("cells").join("part-0000.apc");
    let bytes = fs::read(&part).unwrap();
    fs::write(&part, &bytes[..bytes.len() - 19]).unwrap();

    // Resume: the store must repair the torn tail before appending.
    let mut store = ResultStore::open(&dir).unwrap();
    assert_eq!(store.completed_count(), 3);
    let mut rerun = rows[3].clone();
    rerun.launched_jobs = 4242; // the re-run's (authoritative) value
    store.append(&rerun).unwrap();
    for row in &rows[4..] {
        store.append(row).unwrap();
    }
    assert!(store.is_complete());
    drop(store);

    let scanner = StoreScanner::open(&dir).unwrap();
    let mut seen = Vec::new();
    scanner
        .scan(&RowFilter::default(), |row| {
            seen.push(row.clone());
            Ok(ScanFlow::Continue)
        })
        .unwrap();
    assert_eq!(seen.len(), rows.len(), "every cell exactly once");
    for (got, original) in seen.iter().zip(&rows) {
        assert_eq!(got.index, original.index);
        if got.index == 3 {
            assert_eq!(got.launched_jobs, 4242, "the re-run row must win");
        } else {
            assert!(rows_bit_identical(got, original));
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}
