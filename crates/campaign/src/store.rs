//! The append-only, partitioned on-disk result store.
//!
//! A campaign's results live in a directory the executor appends to while
//! cells are still running, instead of one whole file written at the end:
//!
//! ```text
//! <dir>/
//!   manifest.txt            # header + the completion log (`done` lines)
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
//! The manifest is a line log like the lease log ([`crate::lease`]), with
//! one torn-tail rule: readers take complete lines only, so `done 123` cut
//! to `done 1` is not cell 1; opening writes nothing; and a `done` appended
//! after a torn tail first ends the fragment with `~` (`done 1~`, which no
//! reader trusts), then starts a fresh line.
//!
//! A log entry may also name an inclusive range, `done <first>-<last>`.
//! `campaign compact` writes the completed set that way, one line per
//! maximal run of consecutive cells, so a compacted store's manifest is
//! its header plus a handful of lines and opens in microseconds. Readers
//! accept both forms in any mix: live appends stay one `done <index>` line
//! per cell, and manifests written before ranges existed read unchanged.
//! The row layout is the same, so there is no schema bump; a binary older
//! than range lines reads one as torn and sees its cells as missing.
//! Every reader holds the set as one `DoneSet` bitmap bounded by the
//! header's cell count: an entry naming a cell at or past it is skipped
//! like a torn line, so no entry can make a reader allocate beyond the
//! header. The header itself is bounded too: a store holds at most
//! [`MAX_STORE_CELLS`] (`u32::MAX`) cells, so a completed set never needs
//! more than a 512 MiB bitmap. [`ResultStore::create`] refuses a larger
//! grid, and every reader rejects a manifest that claims one before it
//! allocates anything.
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
//! stay readable, resumable and migratable: the reader dispatches on the
//! partition file's extension, never on the manifest, and re-encodes a CSV
//! partition as one in-memory block of the lines
//! [`CellRow::parse_store_line`] accepts (bit-exact too). A resumed v2
//! store appends its missing cells as `.apc` partitions beside the CSV
//! ones, and `campaign compact` migrates it to v3. Extension dispatch also
//! keeps the compact swap crash-tolerant, and every opener finishes a swap
//! that a crash interrupted before it reads ([`crate::compact`]).
//!
//! Appends are fsync'd by default — the partition file before the `done`
//! line, the manifest after it — so a crash cannot reorder a completion
//! entry ahead of its row ([`ResultStore::set_sync`] turns this off for
//! tests and benches). Distributed workers
//! ([`ResultStore::open_worker`]) write worker-owned
//! `cells/part-NNNN-wW.apc` partitions and share only the manifest, whose
//! `done` lines are single atomic `O_APPEND` writes. The one reader behind
//! every path ([`crate::query`]) merges all files of one partition number
//! in one fixed order (plain before worker-suffixed, CSV before `.apc`)
//! with the same last-wins rule.
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
use crate::compact::finish_swap;
use crate::linelog::LineLog;
use crate::query::{scan_parts, Projection, RowFilter, ScanFlow};

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

/// The most cells one store holds: the bound on a manifest's `cells`
/// header, and so on its completion bitmap (512 MiB at worst).
pub const MAX_STORE_CELLS: usize = u32::MAX as usize;

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

/// Read one partition file as v3 blocks, dispatching on its extension (not
/// the manifest's schema, so a store mixing `.csv` and `.apc` files reads
/// correctly). A v2 CSV file becomes one in-memory block of the lines that
/// parse: a line torn by a crash drops out like a block failing its
/// checksum.
pub(crate) fn read_part(path: &Path) -> Result<PartitionBuf, String> {
    if path.extension().and_then(|e| e.to_str()) == Some(colstore::PART_EXT_V3) {
        return PartitionBuf::read(path);
    }
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let rows: Vec<CellRow> = text
        .lines()
        .skip(1)
        .filter_map(|line| CellRow::parse_store_line(line).ok())
        .collect();
    Ok(PartitionBuf::parse(colstore::encode_block(&rows)))
}

/// A set of completed cell indices: one bit per cell, plus a count.
///
/// Its capacity is fixed at construction — the manifest's `cells` header —
/// and nothing can insert at or past it, so no manifest entry grows the
/// set beyond the header. Words are allocated up to the highest inserted
/// cell only. Iteration is in ascending index order.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct DoneSet {
    words: Vec<u64>,
    cells: usize,
    len: usize,
}

impl DoneSet {
    /// An empty set over the cells `[0, cells)`.
    pub(crate) fn new(cells: usize) -> Self {
        DoneSet {
            words: Vec::new(),
            cells,
            len: 0,
        }
    }

    /// Number of cells in the set.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Is cell `idx` in the set? False for any index past the capacity.
    pub(crate) fn contains(&self, idx: usize) -> bool {
        self.words
            .get(idx / 64)
            .is_some_and(|w| w >> (idx % 64) & 1 == 1)
    }

    /// Add cell `idx`; returns whether it was absent.
    ///
    /// # Panics
    /// If `idx` is at or past the set's capacity.
    pub(crate) fn insert(&mut self, idx: usize) -> bool {
        let before = self.len;
        self.insert_range(idx, idx);
        self.len > before
    }

    /// Add every cell of the inclusive range `[first, last]`, a whole word
    /// at a time.
    ///
    /// # Panics
    /// If the range is reversed or reaches the set's capacity.
    fn insert_range(&mut self, first: usize, last: usize) {
        assert!(
            first <= last && last < self.cells,
            "cells {first}-{last} outside a {}-cell done set",
            self.cells
        );
        let (lo_word, hi_word) = (first / 64, last / 64);
        if self.words.len() <= hi_word {
            self.words.resize(hi_word + 1, 0);
        }
        for (w, word) in self.words[lo_word..=hi_word].iter_mut().enumerate() {
            let w = lo_word + w;
            let from = if w == lo_word { first % 64 } else { 0 };
            let to = if w == hi_word { last % 64 } else { 63 };
            let mask = (u64::MAX << from) & (u64::MAX >> (63 - to));
            self.len += (mask & !*word).count_ones() as usize;
            *word |= mask;
        }
    }

    /// Apply the value of one manifest `done` entry: a cell index `N` or an
    /// inclusive range `A-B`. An entry that does not parse, is reversed or
    /// names a cell at or past the capacity changes nothing: like a torn
    /// line, it is not trusted.
    fn insert_entry(&mut self, value: &str) {
        let (first, last) = value.split_once('-').unwrap_or((value, value));
        if let (Ok(first), Ok(last)) = (first.parse::<usize>(), last.parse::<usize>()) {
            if first <= last && last < self.cells {
                self.insert_range(first, last);
            }
        }
    }

    /// The cells in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + bit
                })
            })
        })
    }

    /// Append the set to `out` as manifest lines, one per maximal run of
    /// consecutive cells: `done A-B`, or `done N` for a run of one.
    pub(crate) fn write_manifest_lines(&self, out: &mut String) {
        let mut cells = self.iter().peekable();
        while let Some(first) = cells.next() {
            let mut last = first;
            while cells.next_if_eq(&(last + 1)).is_some() {
                last += 1;
            }
            if first == last {
                out.push_str(&format!("done {first}\n"));
            } else {
                out.push_str(&format!("done {first}-{last}\n"));
            }
        }
    }
}

/// The 4-line manifest header of a v3 store: format magic and schema
/// version, spec fingerprint, cell count and partition width.
pub(crate) fn manifest_header(spec_hash: u64, total_cells: usize, cells_per_part: usize) -> String {
    format!(
        "{MANIFEST_MAGIC} {STORE_SCHEMA_VERSION}\nspec {spec_hash:016x}\ncells {total_cells}\n\
         per-part {cells_per_part}\n"
    )
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
    pub(crate) done: DoneSet,
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
        let mut cells_per_part = DEFAULT_CELLS_PER_PART;
        // Created by the `cells` header line, which bounds every entry.
        let mut done: Option<DoneSet> = None;
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
                    let cells: usize = v
                        .parse()
                        .map_err(|_| format!("bad cell count in manifest: {v:?}"))?;
                    if cells > MAX_STORE_CELLS {
                        return Err(format!(
                            "manifest cell count {cells} exceeds the limit of \
                             {MAX_STORE_CELLS} cells per store"
                        ));
                    }
                    match &done {
                        Some(set) if set.cells != cells => {
                            return Err(format!(
                                "manifest records two cell counts ({} and {cells})",
                                set.cells
                            ));
                        }
                        Some(_) => {}
                        None => done = Some(DoneSet::new(cells)),
                    }
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
                // `insert_entry` skips an entry outside the header's cells
                // the same way; one before the `cells` line has no bound
                // and is skipped too.
                (Some("done"), Some(v)) => {
                    if let Some(set) = done.as_mut() {
                        set.insert_entry(v);
                    }
                }
                // Anything else is a line torn by a crash (or a future
                // extension): skip it rather than refusing to resume.
                _ => {}
            }
        }
        let spec_hash = spec_hash.ok_or("manifest has no spec hash")?;
        let done = done.ok_or("manifest has no cell count")?;
        Ok(ParsedManifest {
            schema,
            spec_hash,
            total_cells: done.cells,
            cells_per_part,
            done,
        })
    }

    /// [`parse`](Self::parse) the manifest text of the store at `dir`,
    /// naming the manifest in any error.
    fn parse_of(dir: &Path, text: &str) -> Result<Self, String> {
        Self::parse(dir, text).map_err(|e| format!("{}: {e}", dir.join(MANIFEST_NAME).display()))
    }

    /// Parse the complete lines of the manifest of the store at `dir`, for
    /// a reader that never appends. Like every opener of a store, it first
    /// finishes a compaction swap that a crash interrupted.
    pub(crate) fn read(dir: &Path) -> Result<Self, String> {
        finish_swap(dir)?;
        Self::parse_of(dir, &LineLog::read_file(&dir.join(MANIFEST_NAME))?)
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
    done: DoneSet,
    /// The manifest's completion log: this handle's `done` appends, and
    /// the lines [`refresh_done`](Self::refresh_done) reads after them.
    /// Its `sync` flag also covers the partition files: fsync the
    /// partition before the `done` append and the manifest after it (the
    /// ordering a crash cannot reorder). On by default; `--no-sync` clears
    /// it for tests and benches.
    manifest: LineLog,
    /// Cached append handle for the most recently written partition.
    current_part: Option<(usize, fs::File)>,
    /// Worker id recorded in this handle's partition file names
    /// (`part-NNNN-wW.apc`), so concurrent worker processes never append
    /// to one another's partition files. `None` for single-process stores.
    worker_tag: Option<usize>,
}

impl ResultStore {
    /// Create a fresh store at `dir`, wiping any previous store files there.
    ///
    /// `spec_hash` is the campaign's [`fingerprint`] and `total_cells` its
    /// expanded grid size; both are recorded in the manifest and re-checked
    /// on [`open`](Self::open)+[`validate_spec`](Self::validate_spec).
    ///
    /// A grid of more than [`MAX_STORE_CELLS`] cells is refused with
    /// [`io::ErrorKind::InvalidInput`] before anything is written, so every
    /// store this writes opens again.
    ///
    /// [`fingerprint`]: crate::spec::CampaignSpec::fingerprint
    pub fn create(dir: impl Into<PathBuf>, spec_hash: u64, total_cells: usize) -> io::Result<Self> {
        if total_cells > MAX_STORE_CELLS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("a store holds at most {MAX_STORE_CELLS} cells, not {total_cells}"),
            ));
        }
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let parts = dir.join(PARTS_DIR);
        if parts.is_dir() {
            fs::remove_dir_all(&parts)?;
        }
        fs::create_dir_all(&parts)?;
        let header = manifest_header(spec_hash, total_cells, DEFAULT_CELLS_PER_PART);
        // Synced: the header is durable before any worker trusts it.
        LineLog::create(&dir.join(MANIFEST_NAME), &header)?;
        Self::open_log(dir, None).map_err(io::Error::other)
    }

    /// Open an existing store, parsing the manifest and loading every
    /// trusted row from the partition files.
    ///
    /// Untrusted data is skipped, never fatal: rows without a `done`
    /// manifest entry (crash between row and log append), records that fail
    /// to parse (a line or block torn by a crash), a torn last manifest
    /// line, and `done` entries outside the header's cell count.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let mut store = Self::open_log(dir.into(), None)?;
        // Every trusted row, as the one store reader resolves it. A done
        // entry whose row is missing or unreadable is dropped from the
        // trusted set; the executor will simply rerun that cell.
        let logged = std::mem::replace(&mut store.done, DoneSet::new(store.total_cells));
        let all = RowFilter::default();
        scan_parts(&store.dir, &logged, &all, Projection::ALL, |row| {
            store.done.insert(row.index);
            store.rows.insert(row.index, row.clone());
            Ok(ScanFlow::Continue)
        })?;
        Ok(store)
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
        Self::open_log(dir.into(), Some(worker))
    }

    /// A handle on the store at `dir` that trusts the manifest's `done` log
    /// as is and holds no rows, once a compaction swap that a crash
    /// interrupted is finished.
    fn open_log(dir: PathBuf, worker_tag: Option<usize>) -> Result<Self, String> {
        finish_swap(&dir)?;
        let (manifest, text) = LineLog::open(&dir.join(MANIFEST_NAME))?;
        let parsed = ParsedManifest::parse_of(&dir, &text)?;
        Ok(ResultStore {
            dir,
            spec_hash: parsed.spec_hash,
            total_cells: parsed.total_cells,
            cells_per_part: parsed.cells_per_part,
            rows: BTreeMap::new(),
            done: parsed.done,
            manifest,
            current_part: None,
            worker_tag,
        })
    }

    /// Merge the complete `done` lines appended to the manifest since this
    /// handle last read it — by other workers or by this handle — so a
    /// refresh costs the appends since the previous one, not the whole log.
    /// Returns the total completed count. A manifest replaced by a shorter
    /// one (by `campaign compact`) is re-read whole, and its completed set
    /// replaces this handle's; this handle's own appends still go to the
    /// file it opened, so compact a store only while no worker is running.
    pub fn refresh_done(&mut self) -> Result<usize, String> {
        let (replaced, text) = self.manifest.read()?;
        if replaced {
            let parsed = ParsedManifest::parse_of(&self.dir, &text)?;
            if parsed.spec_hash != self.spec_hash || parsed.total_cells != self.total_cells {
                return Err(format!(
                    "{} was replaced by the manifest of a different store",
                    self.manifest.path.display()
                ));
            }
            self.done = parsed.done;
        } else {
            for line in text.lines() {
                let mut words = line.split_whitespace();
                if let (Some("done"), Some(v)) = (words.next(), words.next()) {
                    self.done.insert_entry(v);
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
        self.manifest.sync = sync;
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
    ///
    /// A row whose index is outside the store's cells is refused before
    /// anything is written: no reader would trust its `done` entry.
    pub fn append(&mut self, row: &CellRow) -> io::Result<()> {
        if row.index >= self.total_cells {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "cell {} is outside the store's {} cells",
                    row.index, self.total_cells
                ),
            ));
        }
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
        if self.manifest.sync {
            file.sync_data()?;
        }
        // One write of the whole line: concurrent worker processes share
        // the manifest via O_APPEND, and a single write is atomic between
        // them on a local filesystem.
        self.manifest.append(format_args!("done {}", row.index))?;
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

    /// Whether this is an [`open_worker`](Self::open_worker) handle, which
    /// holds no rows.
    pub(crate) fn is_worker(&self) -> bool {
        self.worker_tag.is_some()
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
        self.done.iter()
    }

    /// Number of trusted recorded cells.
    pub fn completed_count(&self) -> usize {
        self.done.len()
    }

    /// Whether a cell's result is already recorded.
    pub fn contains(&self, index: usize) -> bool {
        self.done.contains(index)
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
    use apc_workload::rng::SplitMix64;
    use proptest::prelude::*;

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
        // Out-of-order appends across several partitions, as a
        // multi-threaded run produces them.
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

    /// `done 123` cut to `done 1` is a torn line, not cell 1, for every
    /// reader, and opening the store writes nothing to repair it.
    #[test]
    fn a_done_line_cut_mid_number_is_not_read_as_a_shorter_index() {
        let dir = temp_dir("torn-prefix");
        let mut store = ResultStore::create(&dir, 1, 200).unwrap();
        store.set_sync(false);
        for i in [0, 2, 3, 123] {
            store.append(&row(i)).unwrap();
        }
        drop(store);
        let manifest_path = dir.join(MANIFEST_NAME);
        let text = fs::read_to_string(&manifest_path).unwrap();
        let torn = text.strip_suffix("done 123\n").unwrap().to_string() + "done 1";
        fs::write(&manifest_path, &torn).unwrap();
        let worker = ResultStore::open_worker(&dir, 0).unwrap();
        let full = ResultStore::open(&dir).unwrap();
        let scanner = crate::query::StoreScanner::open(&dir).unwrap();
        for store in [&worker, &full] {
            assert_eq!(store.completed().collect::<Vec<_>>(), [0, 2, 3]);
            assert!(!store.contains(1) && !store.contains(123));
        }
        assert_eq!(scanner.completed_count(), 3);
        assert_eq!(scanner.rows().unwrap().len(), 3);
        assert_eq!(fs::read_to_string(&manifest_path).unwrap(), torn);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A worker that has read another writer's torn `done 7` starts its own
    /// `done 9` on a fresh line, and every reader trusts it. The fragment
    /// stays untrusted.
    #[test]
    fn a_done_appended_after_a_torn_line_is_not_glued_to_it() {
        let dir = temp_dir("torn-glue");
        drop(ResultStore::create(&dir, 1, 20).unwrap());
        let mut w0 = ResultStore::open_worker(&dir, 0).unwrap();
        let mut w1 = ResultStore::open_worker(&dir, 1).unwrap();
        w0.set_sync(false);
        w1.set_sync(false);
        for i in 0..3 {
            w1.append(&row(i)).unwrap();
        }
        w1.append(&row(7)).unwrap();
        // w1 died writing its last line: the newline never landed.
        let manifest_path = dir.join(MANIFEST_NAME);
        let text = fs::read_to_string(&manifest_path).unwrap();
        fs::write(&manifest_path, text.strip_suffix('\n').unwrap()).unwrap();
        assert_eq!(w0.refresh_done().unwrap(), 3);
        w0.append(&row(9)).unwrap();
        let text = fs::read_to_string(&manifest_path).unwrap();
        assert!(text.ends_with("\ndone 7~\ndone 9\n"), "{text:?}");
        let full = ResultStore::open(&dir).unwrap();
        let fresh = ResultStore::open_worker(&dir, 2).unwrap();
        assert_eq!(w1.refresh_done().unwrap(), 5);
        for store in [&full, &fresh, &w1] {
            assert!(
                store.contains(9),
                "{:?}",
                store.completed().collect::<Vec<_>>()
            );
        }
        assert!(!full.contains(7) && !fresh.contains(7));
        let scanner = crate::query::StoreScanner::open(&dir).unwrap();
        assert!(scanner.rows().unwrap().iter().any(|r| r.index == 9));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A `done 13` torn to `done 1` stays untrusted after another writer
    /// appends behind it: the append ends the fragment as `done 1~`, which
    /// no reader takes for cell 1.
    #[test]
    fn a_torn_done_fragment_is_never_trusted() {
        let dir = temp_dir("torn-fragment");
        let mut store = ResultStore::create(&dir, 1, 20).unwrap();
        store.set_sync(false);
        for i in [0, 13] {
            store.append(&row(i)).unwrap();
        }
        drop(store);
        let manifest_path = dir.join(MANIFEST_NAME);
        let text = fs::read_to_string(&manifest_path).unwrap();
        fs::write(&manifest_path, text.strip_suffix("3\n").unwrap()).unwrap();
        let mut worker = ResultStore::open_worker(&dir, 0).unwrap();
        worker.set_sync(false);
        worker.append(&row(9)).unwrap();
        let text = fs::read_to_string(&manifest_path).unwrap();
        assert!(text.ends_with("\ndone 0\ndone 1~\ndone 9\n"), "{text:?}");
        let fresh = ResultStore::open_worker(&dir, 1).unwrap();
        let full = ResultStore::open(&dir).unwrap();
        for store in [&fresh, &full] {
            assert_eq!(store.completed().collect::<Vec<_>>(), [0, 9]);
        }
        let scanner = crate::query::StoreScanner::open(&dir).unwrap();
        assert_eq!(scanner.completed_count(), 2);
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

    /// `DoneSet` against a `BTreeSet` reference: inserts, range inserts,
    /// membership, length, ascending iteration, and the manifest lines the
    /// set renders parsing back to the same set.
    #[test]
    fn done_set_matches_a_btreeset_model() {
        let mut rng = SplitMix64::new(0x5eed_d0e5);
        for case in 0..300 {
            let cells = 1 + rng.range(0..400) as usize;
            let mut set = DoneSet::new(cells);
            let mut model = std::collections::BTreeSet::new();
            for _ in 0..rng.range(0..40) {
                let a = rng.range(0..cells as u64) as usize;
                let b = rng.range(0..cells as u64) as usize;
                match rng.range(0..3) {
                    0 => assert_eq!(set.insert(a), model.insert(a), "case {case}"),
                    1 => {
                        let (lo, hi) = (a.min(b), a.max(b));
                        set.insert_entry(&format!("{lo}-{hi}"));
                        model.extend(lo..=hi);
                    }
                    // Short runs exercise word edges as well as long ones.
                    _ => {
                        let hi = (a + (b % 70)).min(cells - 1);
                        set.insert_entry(&format!("{a}-{hi}"));
                        model.extend(a..=hi);
                    }
                }
                assert_eq!(set.len(), model.len(), "case {case}");
            }
            for idx in 0..cells + 70 {
                assert_eq!(
                    set.contains(idx),
                    model.contains(&idx),
                    "case {case} cell {idx}"
                );
            }
            let listed: Vec<usize> = set.iter().collect();
            assert_eq!(listed, model.iter().copied().collect::<Vec<_>>());

            let mut text = format!("{MANIFEST_MAGIC} 3\nspec 1\ncells {cells}\n");
            set.write_manifest_lines(&mut text);
            for line in text.lines().skip(3) {
                let value = line.strip_prefix("done ").expect("a done line");
                let (first, last) = value.split_once('-').unwrap_or((value, value));
                let (first, last): (usize, usize) = (first.parse().unwrap(), last.parse().unwrap());
                assert!(first < last || value == first.to_string(), "{line}");
                assert!((first..=last).all(|c| model.contains(&c)), "{line}");
                assert!(
                    first == 0 || !model.contains(&(first - 1)),
                    "{line} not maximal"
                );
                assert!(!model.contains(&(last + 1)), "{line} not maximal");
            }
            let parsed = ParsedManifest::parse(Path::new("model"), &text).unwrap();
            assert_eq!(parsed.done, set, "case {case}: rendered runs parse back");
        }
    }

    /// Entries no reader may trust are skipped like torn lines, and none
    /// allocates past the `cells` header; every reader counts the rest.
    #[test]
    fn done_entries_outside_the_header_are_skipped_by_every_reader() {
        let dir = temp_dir("bounded-done");
        let mut store = ResultStore::create(&dir, 1, 10).unwrap();
        for i in 0..3 {
            store.append(&row(i)).unwrap();
        }
        drop(store);
        let manifest_path = dir.join(MANIFEST_NAME);
        let mut text = fs::read_to_string(&manifest_path).unwrap();
        for bad in [
            "done 10",
            "done 99",
            "done 5-3",
            "done 7-",
            "done -3",
            "done 0-18446744073709551615",
            "done 18446744073709551615",
        ] {
            text.push_str(bad);
            text.push('\n');
        }
        fs::write(&manifest_path, &text).unwrap();
        let full = ResultStore::open(&dir).unwrap();
        assert_eq!(full.completed().collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(full.rows().len(), 3);
        let worker = ResultStore::open_worker(&dir, 0).unwrap();
        assert_eq!(worker.completed().collect::<Vec<_>>(), [0, 1, 2]);
        let scanner = crate::query::StoreScanner::open(&dir).unwrap();
        assert_eq!(scanner.completed_count(), 3);
        assert_eq!(scanner.rows().unwrap().len(), 3);
        // A store append cannot name a cell the header does not have.
        let mut worker = worker;
        let err = worker.append(&row(10)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // An entry before the `cells` line has no bound and is skipped; a
        // second, different cell count is an error.
        let reordered = format!("{MANIFEST_MAGIC} 3\nspec 1\ndone 1\ncells 10\ndone 2\n");
        let parsed = ParsedManifest::parse(&dir, &reordered).unwrap();
        assert_eq!(parsed.done.iter().collect::<Vec<_>>(), [2]);
        let err = ParsedManifest::parse(&dir, &format!("{reordered}cells 11\n")).unwrap_err();
        assert!(err.contains("two cell counts"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refresh_reads_only_complete_appended_lines() {
        let dir = temp_dir("refresh");
        drop(ResultStore::create(&dir, 0xfeed, 200).unwrap());
        let mut w0 = ResultStore::open_worker(&dir, 0).unwrap();
        let mut w1 = ResultStore::open_worker(&dir, 1).unwrap();
        w1.set_sync(false);
        for i in [3, 70, 4] {
            w1.append(&row(i)).unwrap();
        }
        assert_eq!(w0.refresh_done().unwrap(), 3);
        assert!(w0.contains(70));
        // A line still being written: `done 12` may yet become `done 123`.
        let manifest_path = dir.join(MANIFEST_NAME);
        let mut log = fs::OpenOptions::new()
            .append(true)
            .open(&manifest_path)
            .unwrap();
        log.write_all(b"done 12").unwrap();
        assert_eq!(w0.refresh_done().unwrap(), 3);
        assert!(!w0.contains(12));
        log.write_all(b"3\n").unwrap();
        assert_eq!(w0.refresh_done().unwrap(), 4);
        assert!(w0.contains(123) && !w0.contains(12));
        // Appends after a refresh are read from where it stopped.
        w1.append(&row(5)).unwrap();
        assert_eq!(w0.refresh_done().unwrap(), 5);
        assert_eq!(w0.completed().collect::<Vec<_>>(), [3, 4, 5, 70, 123]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refresh_rereads_a_manifest_replaced_by_a_shorter_one() {
        let dir = temp_dir("refresh-replaced");
        let mut store = ResultStore::create(&dir, 0xfeed, 20).unwrap();
        store.set_sync(false);
        for i in 0..10 {
            store.append(&row(i)).unwrap();
        }
        drop(store);
        let mut w0 = ResultStore::open_worker(&dir, 0).unwrap();
        assert_eq!(w0.completed_count(), 10);
        // Swap in a shorter manifest with a different completed set, as a
        // compaction's rename does: read from the old offset it would
        // yield nothing, so the refresh must start over.
        let manifest_path = dir.join(MANIFEST_NAME);
        let text = fs::read_to_string(&manifest_path).unwrap();
        let header: String = text.lines().take(4).map(|l| format!("{l}\n")).collect();
        let replacement = format!("{header}done 0-3\ndone 6-11\n");
        assert!(replacement.len() < text.len());
        fs::write(dir.join("manifest.new"), &replacement).unwrap();
        fs::rename(dir.join("manifest.new"), &manifest_path).unwrap();
        assert_eq!(w0.refresh_done().unwrap(), 10);
        assert_eq!(
            w0.completed().collect::<Vec<_>>(),
            [0, 1, 2, 3, 6, 7, 8, 9, 10, 11]
        );
        // A replacement belonging to another store is an error.
        fs::write(&manifest_path, header.replace("cells 20", "cells 21")).unwrap();
        let err = w0.refresh_done().unwrap_err();
        assert!(err.contains("different store"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A `cells` header past the limit is refused by every reader before
    /// anything is allocated — these two once asked for 12.5 GB and
    /// 2.3 EB — and `create` refuses the same count.
    #[test]
    fn cell_counts_past_the_limit_are_refused_by_every_reader() {
        let dir = temp_dir("huge-header");
        for (cells, done) in [
            ("100000000000", "0-99999999999"),
            ("18446744073709551615", "0-18446744073709551614"),
        ] {
            drop(ResultStore::create(&dir, 1, 10).unwrap());
            let manifest = format!(
                "{MANIFEST_MAGIC} {STORE_SCHEMA_VERSION}\nspec 1\ncells {cells}\n\
                 per-part 64\ndone {done}\n"
            );
            fs::write(dir.join(MANIFEST_NAME), manifest).unwrap();
            let errors = [
                crate::query::StoreScanner::open(&dir).unwrap_err(),
                ResultStore::open(&dir).unwrap_err(),
                ResultStore::open_worker(&dir, 0).unwrap_err(),
            ];
            for err in errors {
                assert!(
                    err.contains(&format!("cell count {cells} exceeds the limit")),
                    "{err}"
                );
            }
        }
        let before = fs::read(dir.join(MANIFEST_NAME)).unwrap();
        let err = ResultStore::create(&dir, 1, MAX_STORE_CELLS + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(
            err.to_string().contains("at most 4294967295 cells"),
            "{err}"
        );
        // Refused before it wrote anything.
        assert_eq!(fs::read(dir.join(MANIFEST_NAME)).unwrap(), before);
        let limit = format!("{MANIFEST_MAGIC} 3\nspec 1\ncells {MAX_STORE_CELLS}\n");
        let parsed = ParsedManifest::parse(&dir, &limit).unwrap();
        assert_eq!(parsed.total_cells, MAX_STORE_CELLS);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The manifest header's values, from well-formed to hostile.
    fn header_value() -> impl Strategy<Value = String> {
        prop_oneof![
            (0u64..200).prop_map(|v| v.to_string()),
            (0usize..10).prop_map(|i| {
                [
                    "4294967295",
                    "4294967296",
                    "100000000000",
                    "18446744073709551615",
                    "18446744073709551616",
                    "-1",
                    "0x10",
                    "",
                    "3 3",
                    "feed",
                ][i]
                    .to_string()
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Mutated 4-line headers — huge or malformed numbers, fields
        /// dropped or repeated — parse to `Ok` or a clean `Err`, never a
        /// panic, and an accepted count is within the limit. The `done`
        /// entries stay small: an accepted header may legitimately size a
        /// bitmap for up to `u32::MAX` cells.
        #[test]
        fn manifest_header_parsing_is_total(
            edits in proptest::collection::vec((0usize..4, header_value()), 4..5),
            done in (0u64..300, 0u64..300),
        ) {
            let header = [
                ("apc-campaign-store", "3"),
                ("spec", "1"),
                ("cells", "100"),
                ("per-part", "64"),
            ];
            let mut lines = Vec::new();
            for ((field, default), (action, value)) in header.into_iter().zip(&edits) {
                match action {
                    0 => lines.push(format!("{field} {default}")),
                    1 => lines.push(format!("{field} {value}")),
                    2 => {
                        lines.push(format!("{field} {default}"));
                        lines.push(format!("{field} {value}"));
                    }
                    _ => {} // the field is missing
                }
            }
            lines.push(format!("done {}-{}", done.0, done.1));
            lines.push(format!("done {}", done.0));
            let text = lines.join("\n") + "\n";
            match ParsedManifest::parse(Path::new("fuzz"), &text) {
                Ok(parsed) => {
                    prop_assert!(parsed.total_cells <= MAX_STORE_CELLS, "{text}");
                    prop_assert!(parsed.done.len() <= parsed.total_cells, "{text}");
                    prop_assert!(parsed.cells_per_part >= 1, "{text}");
                }
                Err(err) => prop_assert!(!err.is_empty(), "{text}"),
            }
        }
    }
}
