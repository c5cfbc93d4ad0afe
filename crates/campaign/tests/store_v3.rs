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
//!   clean prefix of the original rows, never a garbled row: exactly the
//!   blocks that end at or before the cut;
//! * **corruption** — flipping any single bit is caught by the block
//!   checksum (or the structural checks) and confines the damage to a
//!   prefix, again never a garbled row: exactly the blocks before the one
//!   holding the flipped bit;
//! * **zone maps** — a scan with partition skipping returns exactly the
//!   rows a brute-force filter over all decoded rows returns;
//! * **one reader** — over random stores mixing plain, worker-suffixed and
//!   v2 CSV files per partition number, with duplicates, torn tails and
//!   lost `done` entries, the scan, `ResultStore::open` and
//!   `compact_store` all return exactly a brute-force model's rows: the
//!   last trusted record of each cell in sorted-file order.
//!
//! Plus a deterministic crash-resume test mirroring `campaign_resume.rs`
//! at the store level: a torn v3 append is repaired on reopen and the
//! re-run row wins; and one that takes a store with holes and a re-run
//! through compaction (range `done` lines) and a resume after it.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use apc_campaign::agg::{CellRow, Column, Field};
use apc_campaign::colstore::{encode_block, rows_bit_identical, PartitionBuf};
use apc_campaign::compact::compact_store;
use apc_campaign::query::{Projection, RowFilter, ScanFlow, ScanStats, StoreScanner};
use apc_campaign::store::ResultStore;
use apc_workload::rng::SplitMix64;
use proptest::prelude::*;

const WORKLOADS: [&str; 3] = ["smalljob", "medianjob", "24h"];
const SCENARIOS: [&str; 4] = ["100%/None", "80%/SHUT", "60%/DVFS", "40%/MIX"];
const WINDOWS: [&str; 2] = ["7200+3600", "-"];
const POLICIES: [&str; 4] = ["none", "shut", "dvfs", "mix"];

const SCHEDULES: [&str; 3] = ["-", "0+43200@80|43200+43200@40", "0+3600@60"];
const FAULTS: [&str; 3] = ["-", "3x600@7", "1x1800@2012"];

/// Build a full row from one sampled (entropy, entropy, selector) triple:
/// `a` seeds a SplitMix64 stream that populates every field. Floats come
/// straight from raw bit patterns, so subnormals, infinities and NaNs with
/// arbitrary payloads all occur; a few are forced so every run exercises
/// the special cases.
fn build_row(index: usize, a: u64, b: u64, sel: u8) -> CellRow {
    let mut s = SplitMix64::new(a);
    let f = |s: &mut SplitMix64| f64::from_bits(s.next_u64());
    CellRow {
        index,
        racks: s.range(0..64) as usize,
        workload: WORKLOADS[(sel as usize) % WORKLOADS.len()].to_string(),
        seed: if sel.is_multiple_of(3) { None } else { Some(b) },
        load_factor: if sel.is_multiple_of(11) {
            f64::NAN
        } else {
            s.range(0..32) as f64 / 8.0
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
        launched_jobs: s.range(0..10_000) as usize,
        completed_jobs: s.range(0..10_000) as usize,
        killed_jobs: s.range(0..100) as usize,
        pending_jobs: s.range(0..100) as usize,
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

/// The end offset of each block [`encode_partition`] writes for `rows`.
fn block_ends(rows: &[CellRow], chunk: usize) -> Vec<usize> {
    rows.chunks(chunk.max(1))
        .scan(0, |end, block| {
            *end += encode_block(block).len();
            Some(*end)
        })
        .collect()
}

/// The exact trusted prefix when block `kept` is the first one lost: its
/// byte length, and the rows of the blocks before it.
fn exact_prefix(ends: &[usize], chunk: usize, rows: usize, kept: usize) -> (usize, usize) {
    let len = kept.checked_sub(1).map_or(0, |last| ends[last]);
    (len, (kept * chunk.max(1)).min(rows))
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
        // Exactly the blocks that end at or before the cut survive.
        let ends = block_ends(&rows, chunk);
        let kept = ends.iter().take_while(|&&end| end <= cut).count();
        let (len, row_count) = exact_prefix(&ends, chunk, rows.len(), kept);
        prop_assert_eq!(buf.block_count(), kept, "cut at {}", cut);
        prop_assert_eq!(buf.trusted_len(), len, "cut at {}", cut);
        prop_assert_eq!(decoded.len(), row_count, "cut at {}", cut);
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
        // Exactly the blocks before the one holding the flipped bit survive.
        let ends = block_ends(&rows, chunk);
        let kept = ends.iter().take_while(|&&end| end <= byte).count();
        let (len, row_count) = exact_prefix(&ends, chunk, rows.len(), kept);
        prop_assert_eq!(buf.block_count(), kept, "bit {} of byte {}", bit, byte);
        prop_assert_eq!(buf.trusted_len(), len, "bit {} of byte {}", bit, byte);
        prop_assert_eq!(decoded.len(), row_count, "bit {} of byte {}", bit, byte);
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

/// Every trusted row of the store at `dir`, as the scanner delivers them.
fn scan_all(dir: &std::path::Path) -> Vec<CellRow> {
    let mut rows = Vec::new();
    StoreScanner::open(dir)
        .unwrap()
        .scan(&RowFilter::default(), |row| {
            rows.push(row.clone());
            Ok(ScanFlow::Continue)
        })
        .unwrap();
    rows
}

fn assert_rows_bit_identical(got: &[CellRow], want: &[CellRow]) {
    assert_eq!(got.len(), want.len());
    for (a, b) in got.iter().zip(want) {
        assert!(rows_bit_identical(a, b), "cell {}: {a:?} vs {b:?}", a.index);
    }
}

/// A live store with holes — cells appended in a shuffled completion
/// order, every 7th `done` line lost, one cell re-run — is compacted into
/// a manifest that mixes `done A-B` ranges with single `done N` lines,
/// without changing a bit of any scanned row. A resume then appends
/// single lines after the ranges, and the full loader, a worker handle and
/// the scanner agree on the completed set and the rows.
#[test]
fn compacted_done_ranges_survive_holes_a_rerun_and_a_resume() {
    let dir = temp_dir("done-ranges");
    let total = 448;
    let rows: Vec<CellRow> = (0..total)
        .map(|i| build_row(i, i as u64 * 31 + 5, i as u64 ^ 0xabc, (i % 11) as u8))
        .collect();
    let mut order: Vec<usize> = (0..total).collect();
    let mut rng = SplitMix64::new(0x0de5);
    for i in (1..total).rev() {
        order.swap(i, rng.range(0..i as u64 + 1) as usize);
    }
    let mut store = ResultStore::create(&dir, 0xd0e5, total).unwrap();
    store.set_sync(false);
    for &i in &order {
        store.append(&rows[i]).unwrap();
    }
    let mut rerun = rows[order[0]].clone();
    rerun.launched_jobs = 1010;
    store.append(&rerun).unwrap();
    drop(store);
    let mut expected = rows.clone();
    expected[order[0]] = rerun;

    let manifest = dir.join("manifest.txt");
    let text = fs::read_to_string(&manifest).unwrap();
    let mut kept = String::new();
    let mut holes = Vec::new();
    for (n, line) in text.lines().enumerate() {
        match line.strip_prefix("done ") {
            Some(cell) if (n - 3) % 7 == 0 => holes.push(cell.parse::<usize>().unwrap()),
            _ => kept.push_str(&format!("{line}\n")),
        }
    }
    fs::write(&manifest, kept).unwrap();
    holes.sort_unstable();
    assert!(!holes.contains(&order[0]), "the re-run stays trusted");
    let trusted: Vec<CellRow> = expected
        .iter()
        .filter(|r| holes.binary_search(&r.index).is_err())
        .cloned()
        .collect();

    let before = scan_all(&dir);
    assert_rows_bit_identical(&before, &trusted);
    let stats = compact_store(&dir, None).unwrap();
    assert_eq!(stats.rows, trusted.len());
    assert_eq!(stats.dropped_untrusted, holes.len());
    let text = fs::read_to_string(&manifest).unwrap();
    let done: Vec<&str> = text.lines().filter(|l| l.starts_with("done ")).collect();
    assert!(
        done.iter().any(|l| l.contains('-')),
        "no range line in {done:?}"
    );
    assert!(
        done.iter().any(|l| !l.contains('-')),
        "no single line in {done:?}"
    );
    assert_rows_bit_identical(&scan_all(&dir), &before);

    // Resume: the compacted store takes the holes back as single lines.
    let mut store = ResultStore::open(&dir).unwrap();
    let trusted_cells: Vec<usize> = trusted.iter().map(|r| r.index).collect();
    assert_eq!(store.completed().collect::<Vec<_>>(), trusted_cells);
    for &i in &holes {
        store.append(&expected[i]).unwrap();
    }
    assert!(store.is_complete());
    drop(store);
    let text = fs::read_to_string(&manifest).unwrap();
    let tail: Vec<&str> = text.lines().rev().take(holes.len()).collect();
    assert!(tail
        .iter()
        .all(|l| l.starts_with("done ") && !l.contains('-')));

    let all: Vec<usize> = (0..total).collect();
    let full = ResultStore::open(&dir).unwrap();
    assert_eq!(full.completed().collect::<Vec<_>>(), all);
    let worker = ResultStore::open_worker(&dir, 0).unwrap();
    assert_eq!(worker.completed().collect::<Vec<_>>(), all);
    let scanner = StoreScanner::open(&dir).unwrap();
    assert!(scanner.is_complete());
    assert_eq!(scanner.completed_count(), total);
    assert_rows_bit_identical(&full.rows(), &expected);
    assert_rows_bit_identical(&scan_all(&dir), &expected);
    fs::remove_dir_all(&dir).unwrap();
}

/// A store written for the one-reader property, and what a brute-force
/// reader makes of it.
struct ModelStore {
    /// The last trusted record of each cell, in index order.
    rows: Vec<CellRow>,
    /// Intact records of cells without a `done` entry.
    untrusted: usize,
    /// Trusted records a later record of the same cell replaced.
    superseded: usize,
}

/// A v2 partition line, 22 fields for a label-free row and 24 otherwise,
/// floats in shortest round-trip form.
fn v2_line(row: &CellRow) -> String {
    let labelled = row.schedule != "-" || row.faults != "-";
    Column::ALL
        .into_iter()
        .filter(|c| !c.is_optional_label())
        .chain(if labelled {
            vec![Column::Schedule, Column::Faults]
        } else {
            vec![]
        })
        .map(|c| match row.field(c) {
            Field::Int(v) => v.to_string(),
            Field::Seed(s) => s.map_or_else(String::new, |s| s.to_string()),
            Field::Float(v) => v.to_string(),
            Field::Label(s) => s.to_string(),
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// One sampled partition number: its own entropy, and its records as
/// (file, cell offset, row entropy, selector).
type ModelPart = (u64, Vec<(u8, usize, u64, u8)>);

/// Write a random store into `dir` and fold the model over what it wrote.
/// Each partition number `p` gets 1–3 files — kind 0 is the v2
/// `part-p.csv`, 1 the plain `part-p.apc`, 2 a worker's `part-p-wN.apc`,
/// the order readers take them in — and the records
/// `(file, cell offset, entropy, selector)` assigned to them; the
/// partition's own entropy decides the rest: per-file sorting, block
/// sizes, torn tails and lost `done` entries.
fn write_model_store(dir: &std::path::Path, parts: &[ModelPart]) -> ModelStore {
    let cells_dir = dir.join("cells");
    fs::create_dir_all(&cells_dir).unwrap();
    let total = parts.len() * 64;
    let mut intact: Vec<(usize, Vec<CellRow>)> = Vec::new(); // per file, in read order
    let mut logged = std::collections::BTreeSet::new();
    for (p, (entropy, records)) in parts.iter().enumerate() {
        let mut bits = SplitMix64::new(*entropy);
        let mask = 1 + bits.range(0..7) as usize; // a non-empty subset of the kinds
        let kinds: Vec<usize> = (0..3).filter(|k| mask >> k & 1 == 1).collect();
        let mut files: Vec<Vec<CellRow>> = vec![Vec::new(); kinds.len()];
        for &(file, offset, a, sel) in records {
            let index = p * 64 + offset;
            logged.insert(index);
            files[file as usize % kinds.len()].push(build_row(index, a, a.rotate_left(7) % 8, sel));
        }
        // Files sorted by index with no repeats make every file monotone on
        // its own while the group as a whole may not be.
        let sorted = bits.range(0..2) == 0;
        for (rows, &kind) in files.iter_mut().zip(&kinds) {
            if sorted {
                rows.reverse();
                rows.sort_by_key(|r| r.index); // stable: the later record first
                rows.dedup_by_key(|r| r.index);
            }
            let torn = !rows.is_empty() && bits.range(0..3) == 0;
            let kept = if kind == 0 {
                let mut text = String::from("index,racks,workload,…\n");
                let mut kept: Vec<CellRow> = Vec::new();
                for row in rows.iter() {
                    let line = v2_line(row);
                    text.push_str(&line);
                    text.push('\n');
                    kept.push(CellRow::parse_store_line(&line).unwrap());
                }
                if torn {
                    // Cut the last line before its tenth field: it cannot
                    // parse, and there is no newline after it.
                    text.pop();
                    let start = text.rfind('\n').unwrap() + 1;
                    let cut = text[start..].match_indices(',').nth(9).unwrap().0;
                    text.truncate(start + cut);
                    kept.pop();
                }
                fs::write(cells_dir.join(format!("part-{p:04}.csv")), text).unwrap();
                kept
            } else {
                let chunk = 1 + bits.range(0..3) as usize;
                let blocks: Vec<Vec<u8>> = rows.chunks(chunk).map(encode_block).collect();
                let mut data: Vec<u8> = blocks.concat();
                let mut kept = rows.clone();
                if torn {
                    let last = blocks.last().unwrap().len();
                    data.truncate(data.len() - 1 - bits.range(0..last as u64 - 1) as usize);
                    kept.truncate(rows.len() - rows.chunks(chunk).last().unwrap().len());
                }
                let name = if kind == 1 {
                    format!("part-{p:04}.apc")
                } else {
                    format!("part-{p:04}-w{}.apc", bits.range(0..3))
                };
                fs::write(cells_dir.join(name), data).unwrap();
                kept
            };
            intact.push((p, kept));
        }
        // A logged cell with no record at all is trusted by no reader.
        logged.insert(p * 64 + 63);
    }
    // Lose some `done` entries: those cells' records are untrusted.
    let done: Vec<usize> = logged
        .into_iter()
        .filter(|&i| SplitMix64::new(i as u64 ^ parts[0].0).range(0..5) != 0)
        .collect();
    let mut manifest = format!("apc-campaign-store 3\nspec 1\ncells {total}\nper-part 64\n");
    for i in &done {
        manifest.push_str(&format!("done {i}\n"));
    }
    fs::write(dir.join("manifest.txt"), manifest).unwrap();

    let mut model = ModelStore {
        rows: Vec::new(),
        untrusted: 0,
        superseded: 0,
    };
    let mut last = std::collections::BTreeMap::new();
    for (_, rows) in intact {
        for row in rows {
            if done.binary_search(&row.index).is_err() {
                model.untrusted += 1;
            } else if last.insert(row.index, row).is_some() {
                model.superseded += 1;
            }
        }
    }
    model.rows = last.into_values().collect();
    model
}

/// Field equality with floats compared by bit pattern.
fn same_field(a: Field, b: Field) -> bool {
    match (a, b) {
        (Field::Float(x), Field::Float(y)) => x.to_bits() == y.to_bits(),
        (x, y) => x == y,
    }
}

/// Every row `scan` delivers, with its stats.
fn scan_with(
    dir: &std::path::Path,
    filter: &RowFilter,
    projection: Projection,
) -> (Vec<CellRow>, ScanStats) {
    let mut rows = Vec::new();
    let stats = StoreScanner::open(dir)
        .unwrap()
        .scan_projected(filter, projection, |row| {
            rows.push(row.clone());
            Ok(ScanFlow::Continue)
        })
        .unwrap();
    (rows, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The scan, `ResultStore::open` and `compact_store` against the
    /// brute-force model of the same random store.
    #[test]
    fn the_one_reader_agrees_with_a_brute_force_model(
        parts in proptest::collection::vec(
            (
                0u64..=u64::MAX,
                proptest::collection::vec((0u8..3, 0usize..12, 0u64..=u64::MAX, 0u8..=255), 0..14),
            ),
            1..5,
        ),
        filter_sel in (0u8..=255, 0u64..8),
        projected in 0u32..1 << 24,
    ) {
        let dir = temp_dir("one-reader");
        let model = write_model_store(&dir, &parts);
        let all = |dir: &std::path::Path| scan_with(dir, &RowFilter::default(), Projection::ALL);

        let (rows, stats) = all(&dir);
        assert_rows_bit_identical(&rows, &model.rows);
        prop_assert_eq!(
            (stats.untrusted, stats.superseded),
            (model.untrusted, model.superseded)
        );

        let (fsel, fseed) = filter_sel;
        let filter = RowFilter {
            workload: (fsel % 4 < 3).then(|| WORKLOADS[(fsel as usize) % 3].to_string()),
            scenario: fsel.is_multiple_of(5).then(|| SCENARIOS[(fsel as usize) % 4].to_string()),
            policy: fsel.is_multiple_of(7).then(|| POLICIES[(fsel as usize) % 4].to_string()),
            seed: fsel.is_multiple_of(3).then_some(fseed),
            faults: fsel.is_multiple_of(6).then(|| FAULTS[(fsel as usize) % 3].to_string()),
            ..RowFilter::default()
        };
        let columns: Vec<Column> = Column::ALL
            .into_iter()
            .filter(|&c| projected >> c as u32 & 1 == 1)
            .collect();
        let (got, _) = scan_with(&dir, &filter, columns.iter().copied().collect());
        let want: Vec<&CellRow> = model.rows.iter().filter(|r| filter.matches(r)).collect();
        prop_assert_eq!(got.len(), want.len(), "{:?}", filter);
        for (g, w) in got.iter().zip(&want) {
            for &c in &columns {
                prop_assert!(same_field(g.field(c), w.field(c)), "cell {} {:?}", w.index, c);
            }
        }

        let store = ResultStore::open(&dir).unwrap();
        assert_rows_bit_identical(&store.rows(), &model.rows);
        let cells: Vec<usize> = model.rows.iter().map(|r| r.index).collect();
        prop_assert_eq!(store.completed().collect::<Vec<_>>(), cells);
        drop(store);

        let stats = compact_store(&dir, None).unwrap();
        prop_assert_eq!(stats.rows, model.rows.len());
        prop_assert_eq!(
            (stats.dropped_untrusted, stats.dropped_duplicates),
            (model.untrusted, model.superseded)
        );
        assert_rows_bit_identical(&all(&dir).0, &model.rows);
        fs::remove_dir_all(&dir).unwrap();
    }
}
