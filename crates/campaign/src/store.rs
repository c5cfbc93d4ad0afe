//! The append-only, partitioned on-disk result store.
//!
//! A campaign's results live in a directory the executor appends to while
//! cells are still running, instead of one whole file written at the end:
//!
//! ```text
//! <dir>/
//!   manifest.txt            # header + one `done <index>` line per cell
//!   cells/part-0000.apc     # binary columnar rows for cells [0, 64)
//!   cells/part-0001.apc     # cells [64, 128), …
//! ```
//!
//! The manifest header records a format magic, the schema version, the
//! spec fingerprint ([`CampaignSpec::fingerprint`]), the total cell count
//! and the partition width. After the header comes the completion log: a
//! `done <index>` line is appended **after** the cell's row has been
//! written to its partition, so a row without a matching `done` entry (a
//! crash between the two writes, or a record torn mid-write) is simply not
//! trusted and the cell reruns on resume.
//!
//! Partitions (`part-NNNN.apc`) are sequences of self-contained columnar
//! blocks (see [`crate::colstore`]): the executor appends one single-row
//! block per finished cell, each carrying its own dictionaries, zone maps
//! and checksum; `campaign compact` later rewrites the store into
//! partitions of [`DEFAULT_COMPACT_CELLS_PER_PART`] cells, each a run of
//! [`COMPACT_BLOCK_ROWS`]-row blocks. Floats are stored as raw bit
//! patterns, so a campaign resumed from disk renders byte-identical
//! CSV/JSON. Duplicate records for one index (a torn record followed by
//! its rerun) resolve to the **last** intact occurrence.
//!
//! Schema v2 stores (`part-NNNN.csv`, text rows written by older versions)
//! stay readable, resumable and migratable: every reader dispatches on the
//! partition file's extension, never on the manifest, and decodes CSV
//! partitions through [`CellRow::parse_store_line`], whose shortest
//! round-trip floats are bit-exact too. A resumed v2 store appends its
//! missing cells as `.apc` partitions beside the CSV ones, and
//! `campaign compact` migrates it to v3. Extension dispatch also keeps the
//! compact swap crash-tolerant.
//!
//! Appends are fsync'd by default — the partition file before the `done`
//! line, the manifest after it — so a crash cannot reorder a completion
//! entry ahead of its row ([`ResultStore::set_sync`] turns this off for
//! tests and benches). Distributed workers
//! ([`ResultStore::open_worker`]) write worker-owned
//! `cells/part-NNNN-wW.apc` partitions and share only the manifest, whose
//! `done` lines are single atomic `O_APPEND` writes; readers merge all
//! files of one partition number in one fixed order (plain before
//! worker-suffixed, CSV before `.apc`) with the same last-wins rule.
//!
//! [`CampaignSpec::fingerprint`]: crate::spec::CampaignSpec::fingerprint
//! [`DEFAULT_COMPACT_CELLS_PER_PART`]: crate::compact::DEFAULT_COMPACT_CELLS_PER_PART
//! [`COMPACT_BLOCK_ROWS`]: crate::compact::COMPACT_BLOCK_ROWS

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::agg::CellRow;
use crate::colstore::{self, PartitionBuf};

/// Store format magic + schema version, the first manifest line.
const MANIFEST_MAGIC: &str = "apc-campaign-store";

/// On-disk schema version; bump when the row layout changes.
///
/// v1 (PR 3) rows had 20 fields; v2 added the `load_factor` and `window`
/// columns (and an optional `seed`) for the cap-window / load-factor sweep
/// axes; v3 (PR 8) keeps the 22-column row but stores partitions as binary
/// columnar blocks with dictionaries, zone maps and checksums
/// ([`crate::colstore`]). The scenario-engine refactor adds the optional
/// `schedule`/`faults` label columns *within* v3: label-free rows keep the
/// exact pre-refactor bytes (`"APC3"` blocks, 22-field v2 lines), labelled
/// rows extend them (`"APC4"` blocks, 24-field v2 lines), and readers fill
/// `"-"` for the missing columns — so no schema bump, and stores written
/// before the refactor open unchanged. v2 stores stay readable and
/// resumable — readers dispatch on the partition file extension — but a
/// v1 store cannot be opened: the row codec and the spec fingerprint both
/// changed, so [`ResultStore::open`] rejects it with a versioned error
/// instead of re-running cells into a mixed-layout store.
pub const STORE_SCHEMA_VERSION: u32 = 3;

/// The previous (text CSV partition) schema. Nothing writes it any more;
/// its stores stay readable, resumable and migratable by
/// `campaign compact`.
pub const STORE_SCHEMA_V2: u32 = 2;

/// Default number of cells per partition file.
pub const DEFAULT_CELLS_PER_PART: usize = 64;

/// Name of the manifest file inside a store directory.
pub const MANIFEST_NAME: &str = "manifest.txt";

/// Name of the partition subdirectory inside a store directory.
pub const PARTS_DIR: &str = "cells";

/// The partition files of a store, sorted by **partition number** (parsed
/// from the `part-N.csv` / `part-N.apc` name, not lexically — `part-10000`
/// must come after `part-9999`, where a lexical sort would interleave them
/// once grids grow past 640 k cells). Distributed workers write
/// worker-owned `part-N-wW.apc` partitions; those sort after the plain
/// file of the same number, then by worker id. Between a `.csv` and an
/// `.apc` file of the same number and worker the CSV comes first: the
/// `.apc` one holds the cells a resume of a v2 store appended, which
/// supersede any torn CSV record of the same cell. Replaying files in this
/// order with last-wins duplicate resolution is therefore deterministic —
/// whatever order the filesystem lists them in, and however a lease
/// bounced between workers. Files that do not look like partitions are
/// ignored.
pub(crate) fn sorted_part_paths(parts_dir: &Path) -> Result<Vec<(usize, PathBuf)>, String> {
    let entries =
        fs::read_dir(parts_dir).map_err(|e| format!("cannot read {}: {e}", parts_dir.display()))?;
    let mut parts: Vec<(usize, Option<usize>, bool, PathBuf)> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter_map(|p| {
            let stem = p
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix("part-"))?;
            let (rest, v3) = match stem.strip_suffix(".csv") {
                Some(rest) => (rest, false),
                None => (stem.strip_suffix(".apc")?, true),
            };
            let (number, worker) = match rest.split_once("-w") {
                Some((n, w)) => (n.parse::<usize>().ok()?, Some(w.parse::<usize>().ok()?)),
                None => (rest.parse::<usize>().ok()?, None),
            };
            Some((number, worker, v3, p))
        })
        .collect();
    parts.sort_by_key(|(number, worker, v3, _)| {
        (*number, worker.is_some(), worker.unwrap_or(0), *v3)
    });
    Ok(parts
        .into_iter()
        .map(|(number, _, _, p)| (number, p))
        .collect())
}

/// Is this partition path a v3 (binary columnar) file? Readers dispatch on
/// the extension, not the manifest schema, so a directory mixing `.csv` and
/// `.apc` partitions (a resumed v2 store, or one mid-migration) reads
/// correctly.
pub(crate) fn is_v3_part(path: &Path) -> bool {
    path.extension().and_then(|e| e.to_str()) == Some(colstore::PART_EXT_V3)
}

/// Decode every record of one partition file, whatever its codec, in file
/// order. Torn records are dropped by the codec (unparseable CSV line /
/// checksum-failing block); `done`-set filtering and last-wins duplicate
/// resolution are the caller's, exactly as before.
pub(crate) fn load_part_rows(path: &Path) -> Result<Vec<CellRow>, String> {
    if is_v3_part(path) {
        Ok(PartitionBuf::read(path)?.decode_all())
    } else {
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Ok(text
            .lines()
            .skip(1)
            .filter_map(|line| CellRow::parse_store_line(line).ok())
            .collect())
    }
}

/// A parsed `manifest.txt`: the header fields plus the trusted `done` set.
/// Shared by the full loader ([`ResultStore::open`]), the streaming query
/// path ([`crate::query::scan_store`]) and [`crate::compact`] so all three
/// validate the magic and schema version identically.
#[derive(Debug)]
pub(crate) struct ParsedManifest {
    pub(crate) schema: u32,
    pub(crate) spec_hash: u64,
    pub(crate) total_cells: usize,
    pub(crate) cells_per_part: usize,
    pub(crate) done: std::collections::BTreeSet<usize>,
}

impl ParsedManifest {
    /// Parse a manifest's text; `dir` only labels error messages.
    pub(crate) fn parse(dir: &Path, text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("");
        let mut magic = header.split_whitespace();
        if magic.next() != Some(MANIFEST_MAGIC) {
            return Err(format!(
                "{} is not a campaign result store (bad magic line {header:?})",
                dir.display()
            ));
        }
        let schema: u32 = magic
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("manifest header {header:?} has no schema version"))?;
        if schema != STORE_SCHEMA_VERSION && schema != STORE_SCHEMA_V2 {
            return Err(format!(
                "store schema v{schema} is not the supported v{STORE_SCHEMA_VERSION} \
                 (or the read-compatible v{STORE_SCHEMA_V2}) — this store was written \
                 by an incompatible version; rerun the campaign into a fresh --out \
                 directory"
            ));
        }
        let mut spec_hash = None;
        let mut total_cells = None;
        let mut cells_per_part = DEFAULT_CELLS_PER_PART;
        let mut done = std::collections::BTreeSet::new();
        for line in lines {
            let mut words = line.split_whitespace();
            match (words.next(), words.next()) {
                (Some("spec"), Some(v)) => {
                    spec_hash = Some(
                        u64::from_str_radix(v, 16)
                            .map_err(|_| format!("bad spec hash in manifest: {v:?}"))?,
                    );
                }
                (Some("cells"), Some(v)) => {
                    total_cells = Some(
                        v.parse()
                            .map_err(|_| format!("bad cell count in manifest: {v:?}"))?,
                    );
                }
                (Some("per-part"), Some(v)) => {
                    cells_per_part = v
                        .parse()
                        .map_err(|_| format!("bad per-part width in manifest: {v:?}"))?;
                    if cells_per_part == 0 {
                        return Err("per-part width must be >= 1".into());
                    }
                }
                // A torn trailing `done` line (no index, or a half-written
                // number) means that cell never finished — skip it.
                (Some("done"), Some(v)) => {
                    if let Ok(idx) = v.parse::<usize>() {
                        done.insert(idx);
                    }
                }
                // Anything else is a line torn by a crash (or a future
                // extension): skip it rather than refusing to resume.
                _ => {}
            }
        }
        Ok(ParsedManifest {
            schema,
            spec_hash: spec_hash.ok_or("manifest has no spec hash")?,
            total_cells: total_cells.ok_or("manifest has no cell count")?,
            cells_per_part,
            done,
        })
    }
}

/// An append-only, crash-resumable campaign result store.
///
/// Create one with [`ResultStore::create`] for a fresh campaign or
/// [`ResultStore::open`] to resume (a v2 store included); the executor
/// calls [`append`](ResultStore::append) once per finished cell, which
/// always writes a v3 block.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    spec_hash: u64,
    total_cells: usize,
    cells_per_part: usize,
    /// Completed rows by cell index (trusted: listed in the manifest).
    /// Empty for [`open_worker`](Self::open_worker) handles, which track
    /// completion through `done` alone and never render.
    rows: BTreeMap<usize, CellRow>,
    /// Completed cell indices. For full opens this mirrors `rows`; a
    /// worker handle seeds it from the raw manifest `done` log and
    /// [`refresh_done`](Self::refresh_done) merges completions other
    /// workers appended since.
    done: std::collections::BTreeSet<usize>,
    /// Append handle for the manifest completion log.
    manifest: fs::File,
    /// Cached append handle for the most recently written partition.
    current_part: Option<(usize, fs::File)>,
    /// Worker id recorded in this handle's partition file names
    /// (`part-NNNN-wW.apc`), so concurrent worker processes never append
    /// to one another's partition files. `None` for single-process stores.
    worker_tag: Option<usize>,
    /// fsync the partition file before the `done` append and the manifest
    /// after it (the ordering a crash cannot reorder). On by default;
    /// `--no-sync` clears it for tests and benches.
    sync: bool,
}

impl ResultStore {
    /// Create a fresh store at `dir`, wiping any previous store files there.
    ///
    /// `spec_hash` is the campaign's [`fingerprint`] and `total_cells` its
    /// expanded grid size; both are recorded in the manifest and re-checked
    /// on [`open`](Self::open)+[`validate_spec`](Self::validate_spec).
    ///
    /// [`fingerprint`]: crate::spec::CampaignSpec::fingerprint
    pub fn create(dir: impl Into<PathBuf>, spec_hash: u64, total_cells: usize) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let parts = dir.join(PARTS_DIR);
        if parts.is_dir() {
            fs::remove_dir_all(&parts)?;
        }
        fs::create_dir_all(&parts)?;
        let manifest_path = dir.join(MANIFEST_NAME);
        let mut manifest = fs::File::create(&manifest_path)?;
        writeln!(manifest, "{MANIFEST_MAGIC} {STORE_SCHEMA_VERSION}")?;
        writeln!(manifest, "spec {spec_hash:016x}")?;
        writeln!(manifest, "cells {total_cells}")?;
        writeln!(manifest, "per-part {DEFAULT_CELLS_PER_PART}")?;
        manifest.flush()?;
        // One-off: make the header durable before any worker trusts it.
        manifest.sync_data()?;
        Ok(ResultStore {
            dir,
            spec_hash,
            total_cells,
            cells_per_part: DEFAULT_CELLS_PER_PART,
            rows: BTreeMap::new(),
            done: std::collections::BTreeSet::new(),
            manifest,
            current_part: None,
            worker_tag: None,
            sync: true,
        })
    }

    /// Open an existing store, parsing the manifest and loading every
    /// trusted row from the partition files.
    ///
    /// Untrusted data is skipped, never fatal: rows without a `done`
    /// manifest entry (crash between row and log append), records that fail
    /// to parse (a line or block torn by a crash), and trailing torn `done`
    /// lines.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        let manifest_path = dir.join(MANIFEST_NAME);
        let text = fs::read_to_string(&manifest_path)
            .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
        let manifest = ParsedManifest::parse(&dir, &text)?;
        let ParsedManifest {
            spec_hash,
            total_cells,
            cells_per_part,
            done,
            ..
        } = manifest;

        // Load rows from the partitions, trusting only indices in the done
        // set and keeping the last intact record per index.
        let mut rows = BTreeMap::new();
        for (_, path) in sorted_part_paths(&dir.join(PARTS_DIR))? {
            for row in load_part_rows(&path)? {
                if done.contains(&row.index) {
                    rows.insert(row.index, row);
                }
            }
        }
        // A done entry whose row is missing or unreadable is dropped from
        // the trusted set; the executor will simply rerun that cell.
        let mut manifest = fs::OpenOptions::new()
            .append(true)
            .open(&manifest_path)
            .map_err(|e| format!("cannot reopen {}: {e}", manifest_path.display()))?;
        // If the previous run died mid-line, terminate the torn line so the
        // next `done` append starts on a fresh one.
        if !text.is_empty() && !text.ends_with('\n') {
            manifest
                .write_all(b"\n")
                .map_err(|e| format!("cannot repair {}: {e}", manifest_path.display()))?;
        }
        let done = rows.keys().copied().collect();
        Ok(ResultStore {
            dir,
            spec_hash,
            total_cells,
            cells_per_part,
            rows,
            done,
            manifest,
            current_part: None,
            worker_tag: None,
            sync: true,
        })
    }

    /// Open the store as distributed worker `worker`: the manifest's raw
    /// `done` log is trusted as-is (under fsync'd appends a `done` entry
    /// implies its row is durable) and **no rows are loaded** — a worker
    /// only needs the completion set to skip recorded cells, and N workers
    /// each deserializing the whole store would defeat the point. All
    /// partition files this handle writes carry a `-w<worker>` name suffix,
    /// so concurrent workers never append to the same file; the manifest's
    /// `done` appends are single `O_APPEND` writes, atomic between
    /// processes on a local filesystem.
    pub fn open_worker(dir: impl Into<PathBuf>, worker: usize) -> Result<Self, String> {
        let dir = dir.into();
        let manifest_path = dir.join(MANIFEST_NAME);
        let text = fs::read_to_string(&manifest_path)
            .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
        let parsed = ParsedManifest::parse(&dir, &text)?;
        let mut manifest = fs::OpenOptions::new()
            .append(true)
            .open(&manifest_path)
            .map_err(|e| format!("cannot reopen {}: {e}", manifest_path.display()))?;
        if !text.is_empty() && !text.ends_with('\n') {
            manifest
                .write_all(b"\n")
                .map_err(|e| format!("cannot repair {}: {e}", manifest_path.display()))?;
        }
        Ok(ResultStore {
            dir,
            spec_hash: parsed.spec_hash,
            total_cells: parsed.total_cells,
            cells_per_part: parsed.cells_per_part,
            rows: BTreeMap::new(),
            done: parsed.done,
            manifest,
            current_part: None,
            worker_tag: Some(worker),
            sync: true,
        })
    }

    /// Re-read the manifest's completion log and merge `done` entries other
    /// workers appended since this handle last looked. Returns the total
    /// completed count. Torn trailing lines are skipped exactly as on open.
    pub fn refresh_done(&mut self) -> Result<usize, String> {
        let manifest_path = self.dir.join(MANIFEST_NAME);
        let text = fs::read_to_string(&manifest_path)
            .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
        for line in text.lines() {
            let mut words = line.split_whitespace();
            if let (Some("done"), Some(v)) = (words.next(), words.next()) {
                if let Ok(idx) = v.parse::<usize>() {
                    self.done.insert(idx);
                }
            }
        }
        Ok(self.done.len())
    }

    /// Disable (or re-enable) the per-append fsyncs. With `sync` off a
    /// crash can reorder the row write and its `done` entry across the
    /// page cache — acceptable for tests and benches, not for campaigns
    /// anyone intends to resume or distribute.
    pub fn set_sync(&mut self, sync: bool) {
        self.sync = sync;
    }

    /// Check the store belongs to this campaign before resuming into it.
    pub fn validate_spec(&self, spec_hash: u64, total_cells: usize) -> Result<(), String> {
        if self.spec_hash != spec_hash {
            return Err(format!(
                "store at {} was produced by a different campaign spec \
                 (stored fingerprint {:016x}, current {spec_hash:016x}) — \
                 rerun with the original grid flags or start a fresh --out",
                self.dir.display(),
                self.spec_hash,
            ));
        }
        if self.total_cells != total_cells {
            return Err(format!(
                "store at {} records {} cells but the spec expands to {total_cells}",
                self.dir.display(),
                self.total_cells,
            ));
        }
        Ok(())
    }

    /// Append one finished cell as a single-row v3 block: the row goes to
    /// its partition file first (fsync'd, unless
    /// [`set_sync`](Self::set_sync) turned syncing off), then the `done`
    /// line to the manifest (fsync'd likewise) — the ordering that makes a
    /// crash at any point safe: a `done` entry is only ever durable *after*
    /// the row it vouches for.
    pub fn append(&mut self, row: &CellRow) -> io::Result<()> {
        let part_no = row.index / self.cells_per_part;
        if self.current_part.as_ref().map(|(n, _)| *n) != Some(part_no) {
            let path = self.part_path(part_no);
            // If the previous run died mid-block, truncate the file to its
            // trusted prefix so the new block is reachable (a block after
            // torn bytes would never parse).
            match fs::read(&path) {
                Ok(data) => {
                    let len = data.len();
                    let trusted = PartitionBuf::parse(data).trusted_len();
                    if trusted < len {
                        let file = fs::OpenOptions::new().write(true).open(&path)?;
                        file.set_len(trusted as u64)?;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
            let file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)?;
            self.current_part = Some((part_no, file));
        }
        let (_, file) = self.current_part.as_mut().expect("part handle just set");
        file.write_all(&colstore::encode_block(std::slice::from_ref(row)))?;
        file.flush()?;
        if self.sync {
            file.sync_data()?;
        }
        // One write_all, not writeln!'s several: concurrent worker
        // processes share the manifest via O_APPEND, and a single write of
        // a whole line is atomic between them on a local filesystem.
        self.manifest
            .write_all(format!("done {}\n", row.index).as_bytes())?;
        self.manifest.flush()?;
        if self.sync {
            self.manifest.sync_data()?;
        }
        self.done.insert(row.index);
        if self.worker_tag.is_none() {
            self.rows.insert(row.index, row.clone());
        }
        Ok(())
    }

    /// Path of partition `part_no` (with the owning worker's suffix on
    /// distributed handles).
    fn part_path(&self, part_no: usize) -> PathBuf {
        let ext = colstore::PART_EXT_V3;
        let name = match self.worker_tag {
            Some(w) => format!("part-{part_no:04}-w{w}.{ext}"),
            None => format!("part-{part_no:04}.{ext}"),
        };
        self.dir.join(PARTS_DIR).join(name)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The recorded spec fingerprint.
    pub fn spec_hash(&self) -> u64 {
        self.spec_hash
    }

    /// The campaign's total cell count.
    pub fn total_cells(&self) -> usize {
        self.total_cells
    }

    /// Indices of the cells recorded so far (trusted entries only).
    pub fn completed(&self) -> impl Iterator<Item = usize> + '_ {
        self.done.iter().copied()
    }

    /// Number of trusted recorded cells.
    pub fn completed_count(&self) -> usize {
        self.done.len()
    }

    /// Whether a cell's result is already recorded.
    pub fn contains(&self, index: usize) -> bool {
        self.done.contains(&index)
    }

    /// Has every cell of the campaign been recorded?
    pub fn is_complete(&self) -> bool {
        self.done.len() == self.total_cells
    }

    /// All recorded rows, sorted by cell index — the input every render
    /// frontend ([`CsvSink`](crate::sink::CsvSink) /
    /// [`JsonSink`](crate::sink::JsonSink)) consumes.
    pub fn rows(&self) -> Vec<CellRow> {
        self.rows.values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(index: usize) -> CellRow {
        CellRow {
            index,
            racks: 1,
            workload: "medianjob".into(),
            seed: Some(index as u64),
            load_factor: 1.8,
            scenario: "60%/SHUT".into(),
            window: "7200+3600".into(),
            policy: "shut".into(),
            cap_percent: 60.0,
            grouping: "grouped".into(),
            decision_rule: "paper-rho".into(),
            schedule: "-".into(),
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
        let dir = std::env::temp_dir().join(format!("apc-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_then_open_recovers_exact_rows() {
        let dir = temp_dir("roundtrip");
        let mut store = ResultStore::create(&dir, 0xfeed, 200).unwrap();
        let manifest = fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap();
        assert!(manifest.starts_with(&format!("{MANIFEST_MAGIC} {STORE_SCHEMA_VERSION}\n")));
        // Out-of-order appends across several partitions, as a work-stealing
        // run produces them.
        for i in [150usize, 3, 64, 0, 199, 65] {
            store.append(&row(i)).unwrap();
        }
        assert_eq!(store.completed_count(), 6);
        assert!(!store.is_complete());
        drop(store);

        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.spec_hash(), 0xfeed);
        assert_eq!(reopened.total_cells(), 200);
        let rows = reopened.rows();
        assert_eq!(
            rows.iter().map(|r| r.index).collect::<Vec<_>>(),
            [0, 3, 64, 65, 150, 199],
            "rows come back sorted by index"
        );
        for r in &rows {
            let expect = row(r.index);
            assert_eq!(
                r.work_core_seconds.to_bits(),
                expect.work_core_seconds.to_bits()
            );
            assert_eq!(
                r.mean_wait_seconds.is_nan(),
                expect.mean_wait_seconds.is_nan()
            );
        }
        // Partitioning: indices 0,3 → part 0; 64,65 → part 1; 150 → part 2;
        // 199 → part 3.
        for part in 0..4 {
            assert!(dir
                .join(PARTS_DIR)
                .join(format!("part-{part:04}.apc"))
                .exists());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn labelled_rows_round_trip_through_the_store() {
        let dir = temp_dir("labels");
        let mut store = ResultStore::create(&dir, 0xfeed, 10).unwrap();
        let mut labelled = row(0);
        labelled.scenario = "SCHED/SHUT".into();
        labelled.schedule = "0+7200@80|7200+10800@40".into();
        labelled.faults = "3x600@7".into();
        store.append(&labelled).unwrap();
        store.append(&row(1)).unwrap();
        drop(store);
        let rows = ResultStore::open(&dir).unwrap().rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].schedule, "0+7200@80|7200+10800@40");
        assert_eq!(rows[0].faults, "3x600@7");
        assert_eq!(rows[1].schedule, "-");
        assert_eq!(rows[1].faults, "-");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rows_without_done_entries_are_untrusted() {
        let dir = temp_dir("untrusted");
        let mut store = ResultStore::create(&dir, 1, 10).unwrap();
        store.append(&row(0)).unwrap();
        store.append(&row(1)).unwrap();
        drop(store);
        // Simulate a crash after the row write but before the manifest
        // append: drop row 1's done line.
        let manifest_path = dir.join(MANIFEST_NAME);
        let text = fs::read_to_string(&manifest_path).unwrap();
        let kept: Vec<&str> = text.lines().filter(|l| *l != "done 1").collect();
        fs::write(&manifest_path, kept.join("\n") + "\n").unwrap();

        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.completed().collect::<Vec<_>>(), [0]);
        assert!(!reopened.contains(1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_part_blocks_and_duplicate_records_resolve_safely() {
        let dir = temp_dir("torn");
        let mut store = ResultStore::create(&dir, 1, 10).unwrap();
        store.append(&row(0)).unwrap();
        store.append(&row(1)).unwrap();
        drop(store);
        // Tear the last block in half (crash mid-write) …
        let part = dir.join(PARTS_DIR).join("part-0000.apc");
        let data = fs::read(&part).unwrap();
        fs::write(&part, &data[..data.len() - 30]).unwrap();
        // … then "rerun" cell 1: reopen and append a fresh record.
        let mut reopened = ResultStore::open(&dir).unwrap();
        assert!(!reopened.contains(1), "torn record must not be trusted");
        let mut fresh = row(1);
        fresh.launched_jobs = 999;
        reopened.append(&fresh).unwrap();
        drop(reopened);
        // The torn tail was truncated before the append, so the fresh block
        // parses; the duplicate resolves to the last intact record.
        let last = ResultStore::open(&dir).unwrap();
        let rows = last.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].launched_jobs, 999);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_manifest_done_line_is_skipped() {
        let dir = temp_dir("torn-manifest");
        let mut store = ResultStore::create(&dir, 1, 10).unwrap();
        store.append(&row(0)).unwrap();
        drop(store);
        let manifest_path = dir.join(MANIFEST_NAME);
        let mut text = fs::read_to_string(&manifest_path).unwrap();
        text.push_str("done"); // interrupted mid-line, no index, no newline
        fs::write(&manifest_path, text).unwrap();
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.completed_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validate_spec_rejects_mismatches() {
        let dir = temp_dir("validate");
        let store = ResultStore::create(&dir, 0xabc, 40).unwrap();
        store.validate_spec(0xabc, 40).unwrap();
        let err = store.validate_spec(0xdef, 40).unwrap_err();
        assert!(err.contains("different campaign spec"), "got: {err}");
        let err = store.validate_spec(0xabc, 41).unwrap_err();
        assert!(err.contains("records 40 cells"), "got: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_a_v1_schema_store_with_a_versioned_error() {
        let dir = temp_dir("schema-v1");
        // Write a store, then rewrite its manifest header to schema v1 —
        // exactly what a store produced by the pre-sweep code looks like.
        let mut store = ResultStore::create(&dir, 0xbeef, 10).unwrap();
        store.append(&row(0)).unwrap();
        drop(store);
        let manifest_path = dir.join(MANIFEST_NAME);
        let text = fs::read_to_string(&manifest_path).unwrap();
        let downgraded = text.replacen(
            &format!("{MANIFEST_MAGIC} {STORE_SCHEMA_VERSION}"),
            &format!("{MANIFEST_MAGIC} 1"),
            1,
        );
        assert_ne!(text, downgraded, "header rewrite must take effect");
        fs::write(&manifest_path, downgraded).unwrap();
        let err = ResultStore::open(&dir).unwrap_err();
        assert!(
            err.contains("schema v1") && err.contains(&format!("v{STORE_SCHEMA_VERSION}")),
            "got: {err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partitions_are_ordered_numerically_not_lexically() {
        let dir = temp_dir("part-order");
        fs::create_dir_all(&dir).unwrap();
        // Simulate a grid large enough for 5-digit partition numbers next
        // to 4-digit ones: lexically "part-10000" sorts before "part-9999".
        // Both codec extensions participate in one ordering.
        for name in ["part-10000.apc", "part-9999.csv", "part-0002.apc"] {
            fs::write(dir.join(name), "x\n").unwrap();
        }
        fs::write(dir.join("not-a-part.txt"), "y\n").unwrap();
        let parts = sorted_part_paths(&dir).unwrap();
        let numbers: Vec<usize> = parts.iter().map(|(n, _)| *n).collect();
        assert_eq!(numbers, [2, 9999, 10000]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn worker_handles_merge_into_one_store() {
        let dir = temp_dir("workers");
        drop(ResultStore::create(&dir, 0xfeed, 200).unwrap());
        let mut w0 = ResultStore::open_worker(&dir, 0).unwrap();
        let mut w1 = ResultStore::open_worker(&dir, 1).unwrap();
        w0.set_sync(false);
        w1.set_sync(false);
        w0.append(&row(0)).unwrap();
        w1.append(&row(1)).unwrap();
        w0.append(&row(64)).unwrap();
        // Worker handles observe each other's completions only through the
        // shared manifest, on refresh.
        assert!(!w1.contains(64));
        w1.refresh_done().unwrap();
        assert!(w1.contains(64));
        assert_eq!(w1.completed_count(), 3);
        // A stolen lease re-executes a cell into a second worker's file;
        // readers resolve to the highest worker id (rows of a real rerun
        // are byte-identical anyway — replay is deterministic).
        let mut stolen = row(2);
        stolen.launched_jobs = 111;
        w0.append(&stolen).unwrap();
        stolen.launched_jobs = 222;
        w1.append(&stolen).unwrap();
        drop(w0);
        drop(w1);
        for name in ["part-0000-w0.apc", "part-0000-w1.apc", "part-0001-w0.apc"] {
            assert!(dir.join(PARTS_DIR).join(name).exists(), "missing {name}");
        }
        let merged = ResultStore::open(&dir).unwrap();
        let rows = merged.rows();
        assert_eq!(
            rows.iter().map(|r| r.index).collect::<Vec<_>>(),
            [0, 1, 2, 64]
        );
        assert_eq!(rows[2].launched_jobs, 222);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn worker_suffixed_partitions_sort_after_plain_files_of_same_number() {
        let dir = temp_dir("worker-order");
        fs::create_dir_all(&dir).unwrap();
        // A CSV file sorts before the `.apc` file of the same number and
        // worker, whichever the directory lists first: a resumed v2 store
        // appends its reruns beside its CSV partitions, and they must win.
        for name in [
            "part-0002-w1.apc",
            "part-0002.apc",
            "part-0002-w0.apc",
            "part-0002.csv",
            "part-0001-w10.csv",
            "part-0001-w2.apc",
            "part-0001-w2.csv",
        ] {
            fs::write(dir.join(name), "x\n").unwrap();
        }
        let parts = sorted_part_paths(&dir).unwrap();
        let names: Vec<String> = parts
            .iter()
            .map(|(_, p)| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(
            names,
            [
                "part-0001-w2.csv",
                "part-0001-w2.apc",
                "part-0001-w10.csv",
                "part-0002.csv",
                "part-0002.apc",
                "part-0002-w0.apc",
                "part-0002-w1.apc",
            ]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_foreign_directories() {
        let dir = temp_dir("foreign");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(MANIFEST_NAME), "not a store\n").unwrap();
        let err = ResultStore::open(&dir).unwrap_err();
        assert!(err.contains("bad magic"), "got: {err}");
        let err = ResultStore::open(dir.join("missing")).unwrap_err();
        assert!(err.contains("cannot read"), "got: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_wipes_a_previous_store() {
        let dir = temp_dir("wipe");
        let mut store = ResultStore::create(&dir, 1, 10).unwrap();
        store.append(&row(0)).unwrap();
        drop(store);
        let fresh = ResultStore::create(&dir, 2, 10).unwrap();
        assert_eq!(fresh.completed_count(), 0);
        drop(fresh);
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.spec_hash(), 2);
        assert_eq!(reopened.completed_count(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
