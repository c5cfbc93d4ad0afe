//! Property tests for the manifest's completion log, the twin of
//! `lease_log.rs`'s truncation property:
//!
//! * truncating `manifest.txt` at **any byte** past its header makes every
//!   reader trust exactly the `done` set of its complete lines — never a
//!   torn tail, which may be a longer entry cut short (`done 1` of
//!   `done 123`, `done 0-1` of `done 0-15`) — and a `done` appended after
//!   the cut starts a line of its own, so every reader trusts it, while the
//!   torn tail it ends (with `~`) stays untrusted;
//! * arbitrary or mutated bytes in place of the manifest open to `Ok` or a
//!   clean error naming the manifest, never a panic.
//!
//! The logs are built from real appends, and from the range lines
//! `compact_store` writes followed by live appends.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use apc_campaign::prelude::*;
use proptest::prelude::*;

const CELLS: usize = 140;
const SPEC_HASH: u64 = 0x5eed;
const HEADER_LINES: usize = 4;

static DIRS: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "apc-manifestlog-{tag}-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn row(index: usize) -> CellRow {
    CellRow {
        index,
        workload: "medianjob".into(),
        scenario: "60%/SHUT".into(),
        launched_jobs: index,
        ..CellRow::default()
    }
}

/// The `done` set of a manifest's complete lines, parsed independently of
/// the store: `done N` and `done A-B` entries within the store's cells.
fn model_done(bytes: &[u8]) -> BTreeSet<usize> {
    let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let text = String::from_utf8_lossy(&bytes[..complete]);
    let mut done = BTreeSet::new();
    for line in text.lines().skip(HEADER_LINES) {
        let Some(value) = line.strip_prefix("done ") else {
            continue;
        };
        let (first, last) = value.split_once('-').unwrap_or((value, value));
        if let (Ok(first), Ok(last)) = (first.parse::<usize>(), last.parse::<usize>()) {
            if first <= last && last < CELLS {
                done.extend(first..=last);
            }
        }
    }
    done
}

/// Every reader against the `logged` set: a worker handle and the
/// scanner's count trust it as is, while the full loader and the scanner's
/// rows keep the logged cells that have a row.
fn assert_readers_trust(dir: &Path, logged: &BTreeSet<usize>, with_rows: &BTreeSet<usize>) {
    let listed = |store: &ResultStore| store.completed().collect::<BTreeSet<_>>();
    let readable: BTreeSet<usize> = logged.intersection(with_rows).copied().collect();
    assert_eq!(&listed(&ResultStore::open_worker(dir, 7).unwrap()), logged);
    assert_eq!(listed(&ResultStore::open(dir).unwrap()), readable);
    let scanner = StoreScanner::open(dir).unwrap();
    assert_eq!(scanner.completed_count(), logged.len());
    let rows: BTreeSet<usize> = scanner.rows().unwrap().iter().map(|r| r.index).collect();
    assert_eq!(rows, readable);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncation_at_any_byte_trusts_exactly_the_complete_lines(
        cells in proptest::collection::vec(0usize..CELLS, 1..30),
        compacted in 0usize..2,
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = temp_dir("trunc");
        let mut store = ResultStore::create(&dir, SPEC_HASH, CELLS).unwrap();
        store.set_sync(false);
        let (before, after) = cells.split_at(cells.len() / 2);
        for &i in before {
            store.append(&row(i)).unwrap();
        }
        drop(store);
        if compacted == 1 {
            // Range lines, then live appends after them.
            compact_store(&dir, None).unwrap();
        }
        let mut store = ResultStore::open(&dir).unwrap();
        store.set_sync(false);
        for &i in after {
            store.append(&row(i)).unwrap();
        }
        drop(store);
        let path = dir.join("manifest.txt");
        let full = fs::read(&path).unwrap();
        let header_len = full
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .nth(HEADER_LINES - 1)
            .unwrap()
            .0
            + 1;
        let cut = header_len + ((full.len() - header_len) as f64 * cut_frac) as usize;
        fs::write(&path, &full[..cut]).unwrap();
        let mut with_rows: BTreeSet<usize> = cells.iter().copied().collect();
        assert_readers_trust(&dir, &model_done(&full[..cut]), &with_rows);
        // Opening wrote nothing.
        prop_assert_eq!(&fs::read(&path).unwrap()[..], &full[..cut]);

        // A cell no line names, appended after the cut, lands on a line of
        // its own. The torn tail before it ends in `~` now, and stays
        // untrusted: readers trust the lines complete at the cut, and the
        // fresh cell.
        let fresh = (0..CELLS).find(|c| !with_rows.contains(c)).unwrap();
        let mut worker = ResultStore::open_worker(&dir, 3).unwrap();
        worker.set_sync(false);
        worker.append(&row(fresh)).unwrap();
        drop(worker);
        with_rows.insert(fresh);
        let mut terminated = full[..cut].to_vec();
        if terminated.last() != Some(&b'\n') {
            terminated.extend_from_slice(b"~\n");
        }
        terminated.extend_from_slice(format!("done {fresh}\n").as_bytes());
        prop_assert_eq!(&fs::read(&path).unwrap()[..], &terminated[..]);
        let mut logged = model_done(&full[..cut]);
        logged.insert(fresh);
        prop_assert_eq!(&model_done(&terminated), &logged);
        assert_readers_trust(&dir, &logged, &with_rows);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn arbitrary_and_mutated_manifests_open_or_fail_cleanly(
        done in proptest::collection::vec((0usize..CELLS, 0usize..3), 0..12),
        edits in proptest::collection::vec((0usize..3, 0usize..400, 0u8..=255), 0..10),
        random in proptest::collection::vec(0u8..=255, 0..120),
        whole in 0usize..4,
    ) {
        let dir = temp_dir("mutate");
        let mut store = ResultStore::create(&dir, SPEC_HASH, CELLS).unwrap();
        store.set_sync(false);
        store.append(&row(0)).unwrap();
        drop(store);
        let bytes = if whole == 0 {
            random
        } else {
            let mut text = fs::read_to_string(dir.join("manifest.txt")).unwrap();
            for &(cell, span) in &done {
                if span == 0 {
                    text.push_str(&format!("done {cell}\n"));
                } else {
                    text.push_str(&format!("done {cell}-{}\n", cell + span));
                }
            }
            let mut bytes = text.into_bytes();
            // Overwrite, insert or delete single bytes anywhere.
            for &(kind, at, byte) in &edits {
                let at = at % (bytes.len() + 1);
                match kind {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    _ if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => {}
                }
            }
            bytes
        };
        fs::write(dir.join("manifest.txt"), &bytes).unwrap();
        let counts = [
            ResultStore::open(&dir).map(|s| (s.completed_count(), s.total_cells())),
            ResultStore::open_worker(&dir, 0).map(|s| (s.completed_count(), s.total_cells())),
            StoreScanner::open(&dir).map(|s| (s.completed_count(), s.total_cells())),
        ];
        for count in counts {
            match count {
                Ok((done, total)) => prop_assert!(done <= total, "{done} of {total}"),
                Err(err) => prop_assert!(err.contains("manifest.txt"), "{err}"),
            }
        }
        fs::remove_dir_all(&dir).ok();
    }
}
