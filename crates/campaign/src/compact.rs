//! `campaign compact` — store compaction and v2 → v3 migration.
//!
//! A live campaign appends one record per finished cell: a v3 partition
//! accumulates single-row blocks (each with its own header, dictionaries
//! and checksum), a resumed campaign leaves superseded duplicates behind,
//! and a v2 store is text CSV (plus the `.apc` blocks a resume appended
//! beside it). [`compact_store`] rewrites the partitions into their ideal
//! form — **wide partitions of
//! [`DEFAULT_COMPACT_CELLS_PER_PART`] cells, each a run of
//! [`COMPACT_BLOCK_ROWS`]-row columnar blocks** — duplicates resolved to
//! the last trusted occurrence, untrusted records dropped, everything v3.
//! That is both smaller (shared dictionaries, no per-row framing) and
//! faster to scan: wide partitions amortize the per-file open cost that
//! dominates a scan over thousands of 64-cell live partitions, while the
//! moderate block size keeps zone maps fine-grained enough to skip
//! unmatchable row ranges *within* a partition, not just whole files.
//!
//! The swap is crash-tolerant without ever leaving the store unreadable:
//! the new partitions are fully written to a temp directory first, then the
//! new manifest replaces the old one (readers dispatch on the partition
//! *file extension*, so a v3 manifest over not-yet-swapped old partitions
//! still reads correctly — the manifest's `done` set and the records agree
//! at every instant), and only then are the partition directories renamed.
//! A crash mid-swap leaves either the old store, the new store, or the new
//! manifest over the old partitions — all three open fine; rerunning
//! `compact` converges. Every new file and the temp partition directory are
//! synced before the first rename, and the store directory after the last,
//! so the old partitions are deleted only once the swap is durable: a power
//! loss cannot leave renamed-but-empty files with the old copies gone.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::Write;
use std::path::Path;

use crate::agg::CellRow;
use crate::colstore::encode_block;
use crate::store::{
    load_part_rows, sorted_part_paths, ParsedManifest, MANIFEST_NAME, PARTS_DIR,
    STORE_SCHEMA_VERSION,
};

/// Temp names used during the swap; left-over copies from a crashed run
/// are removed before reuse.
const TMP_PARTS: &str = "cells.compact-tmp";
const TMP_MANIFEST: &str = "manifest.compact-tmp";
const OLD_PARTS: &str = "cells.pre-compact";

/// Partition width a compacted store defaults to (unless the store is
/// already wider): big enough that file-open overhead vanishes from scans,
/// small enough that one partition is still a modest read.
pub const DEFAULT_COMPACT_CELLS_PER_PART: usize = 4096;

/// Rows per columnar block inside a compacted partition — the zone-map
/// skip granularity within a file.
pub const COMPACT_BLOCK_ROWS: usize = 256;

/// What [`compact_store`] did, for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Schema version the store had before compaction (2 or 3).
    pub from_schema: u32,
    /// Trusted rows kept (one per completed cell).
    pub rows: usize,
    /// Superseded duplicate records dropped (torn-then-rerun cells).
    pub dropped_duplicates: usize,
    /// Records dropped for lacking a `done` manifest entry.
    pub dropped_untrusted: usize,
    /// Partition files read.
    pub partitions_in: usize,
    /// Partition files written.
    pub partitions_out: usize,
    /// Total bytes of the input partitions.
    pub bytes_in: u64,
    /// Total bytes of the output partitions.
    pub bytes_out: u64,
    /// Cells-per-partition width of the compacted store.
    pub cells_per_part: usize,
}

impl CompactStats {
    /// Human-readable multi-line report (for the CLI's stderr).
    pub fn render(&self) -> String {
        format!(
            "compacted v{} -> v{STORE_SCHEMA_VERSION}: {} row(s) into {} partition(s) \
             of {} cell(s) ({} -> {} bytes)\ndropped: {} duplicate record(s), \
             {} untrusted record(s)\n",
            self.from_schema,
            self.rows,
            self.partitions_out,
            self.cells_per_part,
            self.bytes_in,
            self.bytes_out,
            self.dropped_duplicates,
            self.dropped_untrusted,
        )
    }
}

/// Compact the store at `dir` in place: merge duplicate/superseded records
/// (last trusted occurrence wins, exactly the read-side rule), drop
/// untrusted rows, and rewrite the partitions as wide v3 columnar files
/// ([`COMPACT_BLOCK_ROWS`]-row blocks). A v2 store migrates to v3; a v3
/// store's single-row append blocks merge. `cells_per_part` overrides the
/// partition width (default: widen to
/// [`DEFAULT_COMPACT_CELLS_PER_PART`], or keep the store's width if it is
/// already wider).
pub fn compact_store(dir: &Path, cells_per_part: Option<usize>) -> Result<CompactStats, String> {
    let manifest_path = dir.join(MANIFEST_NAME);
    let text = fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let manifest = ParsedManifest::parse(dir, &text)?;
    let width = cells_per_part
        .unwrap_or_else(|| manifest.cells_per_part.max(DEFAULT_COMPACT_CELLS_PER_PART));
    if width == 0 {
        return Err("--per-part width must be >= 1".into());
    }

    let parts_dir = dir.join(PARTS_DIR);
    let tmp_parts = dir.join(TMP_PARTS);
    remove_stale(&tmp_parts)?;
    fs::create_dir_all(&tmp_parts)
        .map_err(|e| format!("cannot create {}: {e}", tmp_parts.display()))?;

    let mut stats = CompactStats {
        from_schema: manifest.schema,
        cells_per_part: width,
        ..CompactStats::default()
    };

    // Stream input partitions in index order, buffering one *output*
    // partition of rows at a time. Input partitions hold contiguous index
    // ranges in file-number order, so output partitions fill strictly left
    // to right whatever the old and new widths are.
    let mut out_rows: Vec<CellRow> = Vec::new();
    let mut out_part: Option<usize> = None;
    let mut done_sorted: Vec<usize> = Vec::new();
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    let flush = |part: usize, rows: &mut Vec<CellRow>, stats: &mut CompactStats| {
        let path = tmp_parts.join(format!("part-{part:04}.apc"));
        let mut data = Vec::new();
        for chunk in rows.chunks(COMPACT_BLOCK_ROWS) {
            data.extend_from_slice(&encode_block(chunk));
        }
        stats.bytes_out += data.len() as u64;
        stats.partitions_out += 1;
        rows.clear();
        write_synced(&path, &data)
    };
    let parts = sorted_part_paths(&parts_dir)?;
    for group in parts.chunk_by(|a, b| a.0 == b.0) {
        // Last-wins over the trusted records of every file of one partition
        // number, in sorted-file order — the rule every reader applies
        // (cells of one index share a partition number, but a resumed v2
        // store or a bounced lease spreads them over several files).
        let mut keep: BTreeMap<usize, CellRow> = BTreeMap::new();
        for (_, path) in group {
            stats.partitions_in += 1;
            if let Ok(meta) = fs::metadata(path) {
                stats.bytes_in += meta.len();
            }
            for row in load_part_rows(path)? {
                if !manifest.done.contains(&row.index) {
                    stats.dropped_untrusted += 1;
                } else if keep.insert(row.index, row).is_some() {
                    stats.dropped_duplicates += 1;
                }
            }
        }
        for (idx, row) in keep {
            if !seen.insert(idx) {
                // A foreign store could repeat an index across partitions;
                // first partition wins rather than corrupting the output.
                stats.dropped_duplicates += 1;
                continue;
            }
            let part = idx / width;
            if let Some(current) = out_part {
                if part != current {
                    if part < current {
                        return Err(format!(
                            "store partitions at {} are not index-ordered \
                             (cell {idx} after partition {current})",
                            dir.display()
                        ));
                    }
                    flush(current, &mut out_rows, &mut stats)?;
                }
            }
            out_part = Some(part);
            out_rows.push(row);
            done_sorted.push(idx);
            stats.rows += 1;
        }
    }
    if let Some(current) = out_part {
        flush(current, &mut out_rows, &mut stats)?;
    }

    // New manifest: v3 header plus one done line per kept row. A done
    // entry whose record was lost (torn beyond repair) drops out here,
    // exactly as the read side already refuses to trust it.
    done_sorted.sort_unstable();
    let mut m = String::new();
    m.push_str(&format!(
        "apc-campaign-store {STORE_SCHEMA_VERSION}\nspec {:016x}\ncells {}\nper-part {width}\n",
        manifest.spec_hash, manifest.total_cells
    ));
    for idx in &done_sorted {
        m.push_str(&format!("done {idx}\n"));
    }
    let tmp_manifest = dir.join(TMP_MANIFEST);
    write_synced(&tmp_manifest, m.as_bytes())?;
    sync_dir(&tmp_parts)?;

    // Swap, crash-tolerant at every point: manifest first (readers dispatch
    // per partition-file extension, so the new manifest over the old
    // partitions still reads), then the partition directories.
    fs::rename(&tmp_manifest, &manifest_path)
        .map_err(|e| format!("cannot swap in {}: {e}", manifest_path.display()))?;
    let old_parts = dir.join(OLD_PARTS);
    remove_stale(&old_parts)?;
    fs::rename(&parts_dir, &old_parts)
        .map_err(|e| format!("cannot retire {}: {e}", parts_dir.display()))?;
    fs::rename(&tmp_parts, &parts_dir)
        .map_err(|e| format!("cannot swap in {}: {e}", parts_dir.display()))?;
    // The renames must be durable before the only other copy goes.
    sync_dir(dir)?;
    fs::remove_dir_all(&old_parts)
        .map_err(|e| format!("cannot remove {}: {e}", old_parts.display()))?;
    Ok(stats)
}

/// Create `path` holding `data` and sync it to disk.
fn write_synced(path: &Path, data: &[u8]) -> Result<(), String> {
    let mut file =
        fs::File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    file.write_all(data)
        .and_then(|()| file.sync_all())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Sync a directory, making the creations and renames inside it durable.
fn sync_dir(dir: &Path) -> Result<(), String> {
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| format!("cannot sync {}: {e}", dir.display()))
}

/// Remove a left-over temp directory from a crashed run, if there is one.
fn remove_stale(dir: &Path) -> Result<(), String> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot remove {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{scan_store, RowFilter, ScanFlow};
    use crate::store::ResultStore;
    use std::path::PathBuf;

    fn row(index: usize) -> CellRow {
        CellRow {
            index,
            racks: 1 + index % 2,
            workload: if index.is_multiple_of(2) {
                "medianjob"
            } else {
                "24h"
            }
            .into(),
            seed: Some(index as u64),
            load_factor: 1.8,
            scenario: "60%/SHUT".into(),
            window: "7200+3600".into(),
            policy: "shut".into(),
            cap_percent: 60.0,
            grouping: "grouped".into(),
            decision_rule: "paper-rho".into(),
            schedule: if index.is_multiple_of(5) {
                "0+43200@80|43200+43200@40"
            } else {
                "-"
            }
            .into(),
            faults: "-".into(),
            launched_jobs: 10 + index,
            completed_jobs: 9,
            killed_jobs: 0,
            pending_jobs: 1,
            work_core_seconds: 0.1 + index as f64 / 3.0,
            energy_joules: 1e9 / 7.0,
            energy_normalized: 0.5,
            launched_jobs_normalized: 0.25,
            work_normalized: 0.125,
            mean_wait_seconds: if index.is_multiple_of(2) {
                12.5
            } else {
                f64::NAN
            },
            peak_power_watts: 1000.0,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("apc-compact-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn scan_all(dir: &Path) -> Vec<CellRow> {
        let mut rows = Vec::new();
        scan_store(dir, &RowFilter::default(), |r| {
            rows.push(r.clone());
            Ok(ScanFlow::Continue)
        })
        .unwrap();
        rows
    }

    #[test]
    fn compact_merges_duplicates_and_drops_untrusted_records() {
        let dir = temp_dir("dedup");
        let mut store = ResultStore::create(&dir, 1, 100).unwrap();
        for i in 0..80 {
            store.append(&row(i)).unwrap();
        }
        // Rerun cell 7 with a different payload: two records, last wins.
        let mut rerun = row(7);
        rerun.launched_jobs = 777;
        store.append(&rerun).unwrap();
        drop(store);
        // Untrust cell 9 (crash between row and done append).
        let manifest = dir.join(MANIFEST_NAME);
        let text = fs::read_to_string(&manifest).unwrap();
        let kept: Vec<&str> = text.lines().filter(|l| *l != "done 9").collect();
        fs::write(&manifest, kept.join("\n") + "\n").unwrap();

        let stats = compact_store(&dir, None).unwrap();
        assert_eq!(stats.rows, 79);
        assert_eq!(stats.dropped_duplicates, 1);
        assert_eq!(stats.dropped_untrusted, 1);
        assert!(
            stats.bytes_out < stats.bytes_in,
            "merging single-row blocks must shrink the store \
             ({} -> {} bytes)",
            stats.bytes_in,
            stats.bytes_out
        );
        let rows = scan_all(&dir);
        assert_eq!(rows.len(), 79);
        assert!(rows.iter().all(|r| r.index != 9));
        assert_eq!(
            rows.iter().find(|r| r.index == 7).unwrap().launched_jobs,
            777
        );
        // Compacting again is a no-op on the content.
        let again = compact_store(&dir, None).unwrap();
        assert_eq!(again.rows, 79);
        assert_eq!(again.dropped_duplicates, 0);
        assert_eq!(scan_all(&dir).len(), 79);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicates_resolve_last_wins_across_the_files_of_one_partition() {
        let dir = temp_dir("multi-file");
        drop(ResultStore::create(&dir, 1, 10).unwrap());
        // A lease stolen mid-batch: both workers recorded cell 2, and
        // readers take worker 1's record, the last file in sorted order.
        let mut w0 = ResultStore::open_worker(&dir, 0).unwrap();
        let mut w1 = ResultStore::open_worker(&dir, 1).unwrap();
        w0.set_sync(false);
        w1.set_sync(false);
        let mut stolen = row(2);
        stolen.launched_jobs = 111;
        w0.append(&stolen).unwrap();
        w0.append(&row(3)).unwrap();
        stolen.launched_jobs = 222;
        w1.append(&stolen).unwrap();
        drop((w0, w1));
        assert_eq!(scan_all(&dir)[0].launched_jobs, 222);
        let stats = compact_store(&dir, None).unwrap();
        assert_eq!((stats.rows, stats.dropped_duplicates), (2, 1));
        let rows = scan_all(&dir);
        assert_eq!(rows.iter().map(|r| r.index).collect::<Vec<_>>(), [2, 3]);
        assert_eq!(
            rows[0].launched_jobs, 222,
            "compact keeps what readers read"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_can_rewidth_partitions() {
        let dir = temp_dir("rewidth");
        let mut store = ResultStore::create(&dir, 1, 100).unwrap();
        for i in 0..100 {
            store.append(&row(i)).unwrap();
        }
        drop(store);
        let stats = compact_store(&dir, Some(25)).unwrap();
        assert_eq!(stats.cells_per_part, 25);
        assert_eq!(stats.partitions_out, 4);
        let rows = scan_all(&dir);
        assert_eq!(rows.len(), 100);
        assert!(rows.windows(2).all(|w| w[0].index < w[1].index));
        // Resume honours the new width recorded in the manifest.
        assert!(compact_store(&dir, Some(0)).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Left-over temp directories from a crashed run are replaced, but a
    /// stale entry that cannot be removed is an error, reported before the
    /// old partitions are touched: the store still reads every row.
    #[test]
    fn compact_clears_crash_leftovers_and_reports_what_it_cannot_remove() {
        let dir = temp_dir("leftovers");
        let mut store = ResultStore::create(&dir, 1, 40).unwrap();
        for i in 0..40 {
            store.append(&row(i)).unwrap();
        }
        drop(store);
        fs::create_dir_all(dir.join(TMP_PARTS).join("part-0009.apc")).unwrap();
        fs::create_dir_all(dir.join(OLD_PARTS)).unwrap();
        fs::write(dir.join(OLD_PARTS).join("part-0000.apc"), b"stale").unwrap();
        assert_eq!(compact_store(&dir, None).unwrap().rows, 40);
        assert!(!dir.join(TMP_PARTS).exists() && !dir.join(OLD_PARTS).exists());
        // A file where the retired-partitions directory goes.
        fs::write(dir.join(OLD_PARTS), b"not a directory").unwrap();
        let err = compact_store(&dir, None).unwrap_err();
        assert!(err.contains(OLD_PARTS), "{err}");
        assert_eq!(scan_all(&dir).len(), 40);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_rejects_foreign_directories() {
        let dir = temp_dir("foreign");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(MANIFEST_NAME), "not a store\n").unwrap();
        assert!(compact_store(&dir, None).unwrap_err().contains("bad magic"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
