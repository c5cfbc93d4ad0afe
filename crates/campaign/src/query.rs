//! Streaming queries over a partitioned result store.
//!
//! [`ResultStore::open`](crate::store::ResultStore::open) loads every
//! trusted row into memory — right for resuming, wrong for *inspecting* a
//! huge campaign. The query path instead reads the manifest's completion
//! log once and then streams the partition files **one at a time**, keeping
//! only the current partition resident: a million-cell store is filtered
//! with the memory footprint of one partition plus the matches the caller
//! retains.
//!
//! On schema v3 partitions the scan never materialises non-matching rows at
//! all: each block's [`RowFilter`] is resolved once against the block's
//! dictionaries and zone maps ([`crate::colstore`]) — a partition every one
//! of whose blocks provably holds no matching row is **skipped** without
//! touching its column data, and within scanned blocks rows are matched by
//! integer compares on the raw columns, decoding only the matches into a
//! reused scratch row. Partition numbers held by several files (worker
//! partitions, or a resumed v2 store's `.apc` reruns beside its CSV file)
//! and lone v2 CSV partitions stream through the same [`StoreScanner`] as
//! fully decoded rows merged per partition number. The callback steers the
//! scan: returning [`ScanFlow::Stop`] ends it early (`--limit`), and the
//! returned [`ScanStats`] report matches plus partitions scanned/skipped.
//!
//! Duplicate records for a cell (a torn record followed by its rerun)
//! resolve to the last intact occurrence, exactly as the full loader does;
//! this stays correct under streaming because a cell's records always live
//! in the one partition its index maps to — and stays correct under
//! zone-map skipping because skipping never changes *which* occurrence is
//! last, only whether a partition provably contains no match at all.
//!
//! Column names resolve through [`Column`], the one table next to
//! [`CellRow`]: [`project`], [`numeric`], [`Projection::of`] and
//! [`GroupAggregator::new`] share its "unknown column" and "not numeric"
//! errors, and an aggregator resolves its names once when it is built, so
//! [`GroupAggregator::fold`] reads fields by column, never by name.
//! `campaign query` prints floats in shortest round-trip form (`inf` as
//! `inf`, NaN as an empty field), unlike the six-decimal renders.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::agg::{CellRow, Column, Field};
use crate::colstore::PartitionBuf;
use crate::store::{
    is_v3_part, load_part_rows, sorted_part_paths, ParsedManifest, MANIFEST_NAME, PARTS_DIR,
};

/// A conjunctive row filter: every populated field must match.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowFilter {
    /// Keep rows of this workload label ("medianjob", "24h", "swf", …).
    pub workload: Option<String>,
    /// Keep rows of this scenario label ("60%/SHUT", "100%/None", …).
    pub scenario: Option<String>,
    /// Keep rows of this cap-window label ("7200+3600",
    /// "0+1800|16200+1800", "-" for the baseline).
    pub window: Option<String>,
    /// Keep rows of this policy name ("shut", "dvfs", "mix", "none").
    pub policy: Option<String>,
    /// Keep rows of this generator seed.
    pub seed: Option<u64>,
    /// Keep rows of this arrival load factor (matched by bit pattern, so
    /// the value parsed from a `--load` flag matches exactly what the spec
    /// recorded).
    pub load_factor: Option<f64>,
    /// Keep rows of this rack scale.
    pub racks: Option<usize>,
    /// Keep rows of this cap-schedule label (`"-"` keeps the rows without
    /// a time-varying schedule, including every row of a pre-schedule
    /// store).
    pub schedule: Option<String>,
    /// Keep rows of this fault-plan label (`"-"` keeps the fault-free
    /// rows, including every row of a pre-fault store).
    pub faults: Option<String>,
}

impl RowFilter {
    /// Does `row` pass every populated criterion?
    pub fn matches(&self, row: &CellRow) -> bool {
        self.workload.as_ref().is_none_or(|w| *w == row.workload)
            && self.scenario.as_ref().is_none_or(|s| *s == row.scenario)
            && self.window.as_ref().is_none_or(|w| *w == row.window)
            && self.policy.as_ref().is_none_or(|p| *p == row.policy)
            && self.seed.is_none_or(|s| row.seed == Some(s))
            && self
                .load_factor
                .is_none_or(|l| l.to_bits() == row.load_factor.to_bits())
            && self.racks.is_none_or(|r| r == row.racks)
            && self.schedule.as_ref().is_none_or(|s| *s == row.schedule)
            && self.faults.as_ref().is_none_or(|f| *f == row.faults)
    }
}

/// The set of [`Column`]s a scan needs decoded — the column projection the
/// v3 codec pushes down into each block: unprojected columns are never read
/// from the column arrays, so `query --columns index,energy_joules` skips
/// every dictionary-string copy per row.
///
/// Projection is an *optimisation hint*: rows delivered from a v2 (CSV)
/// partition or a multi-file partition group are always fully decoded, so
/// callers must treat unprojected fields as unspecified, never as
/// guaranteed-blank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Projection(u32);

impl Projection {
    /// Every column.
    pub const ALL: Projection = Projection((1 << Column::ALL.len()) - 1);

    /// The projection selecting exactly the columns named `columns`.
    /// Unknown names are an error listing the valid columns.
    pub fn of(columns: &[String]) -> Result<Projection, String> {
        columns.iter().map(|c| Column::from_name(c)).collect()
    }

    /// Is `column` selected?
    pub(crate) fn bit(self, column: Column) -> bool {
        self.0 >> column as u32 & 1 != 0
    }

    /// Does the projection select every column?
    pub fn is_all(self) -> bool {
        self == Self::ALL
    }

    /// Number of selected columns.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Is the projection empty?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl FromIterator<Column> for Projection {
    fn from_iter<I: IntoIterator<Item = Column>>(columns: I) -> Self {
        Projection(columns.into_iter().fold(0, |bits, c| bits | 1 << c as u32))
    }
}

/// A field as `campaign query` prints it: floats in shortest round-trip
/// form (`inf` included), and an empty field for NaN or an absent seed.
/// Labels are quoted like every other CSV writer's.
fn query_field(field: Field) -> String {
    match field {
        Field::Int(v) => v.to_string(),
        Field::Seed(s) => s.map_or_else(String::new, |s| s.to_string()),
        Field::Float(v) if v.is_nan() => String::new(),
        Field::Float(v) => v.to_string(),
        Field::Label(s) => crate::sink::csv_field(s),
    }
}

/// Render one named column of a row as a CSV-safe field, as `campaign
/// query` prints it. Unknown names are an error listing the valid columns.
pub fn project(row: &CellRow, column: &str) -> Result<String, String> {
    Ok(query_field(row.field(Column::from_name(column)?)))
}

/// One `campaign query` output line: `columns` of `row`, comma-separated.
pub fn project_row(row: &CellRow, columns: &[Column]) -> String {
    let fields: Vec<String> = columns.iter().map(|&c| query_field(row.field(c))).collect();
    fields.join(",")
}

/// Extract one named column of a row as a number, or `None` when the value
/// is absent (a fixed-trace seed/load, a NaN metric). Non-numeric columns
/// are an error listing the foldable ones.
pub fn numeric(row: &CellRow, column: &str) -> Result<Option<f64>, String> {
    let column = Column::from_name(column)?.numeric()?;
    Ok(row.field(column).number())
}

/// The aggregation functions `campaign query --agg` supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggKind {
    /// Arithmetic mean of the non-missing values.
    #[default]
    Mean,
    /// Minimum of the non-missing values.
    Min,
    /// Maximum of the non-missing values.
    Max,
}

impl AggKind {
    /// The CSV column prefix ("mean_energy_joules", …).
    pub fn name(self) -> &'static str {
        match self {
            AggKind::Mean => "mean",
            AggKind::Min => "min",
            AggKind::Max => "max",
        }
    }
}

impl std::str::FromStr for AggKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "mean" => Ok(AggKind::Mean),
            "min" => Ok(AggKind::Min),
            "max" => Ok(AggKind::Max),
            other => Err(format!("--agg must be mean, min or max, got {other}")),
        }
    }
}

/// One column's running reduction (count of non-missing values, their sum
/// and extrema — enough for every [`AggKind`]).
#[derive(Debug, Clone, Copy)]
struct ColAcc {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for ColAcc {
    fn default() -> Self {
        ColAcc {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl ColAcc {
    fn push(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn render(&self, kind: AggKind) -> String {
        if self.count == 0 {
            return String::new(); // all values missing, like an empty field
        }
        let v = match kind {
            AggKind::Mean => self.sum / self.count as f64,
            AggKind::Min => self.min,
            AggKind::Max => self.max,
        };
        format!("{v}")
    }
}

/// Separator between the rendered key fields inside a group's map key.
/// Projected fields never contain it (labels are CSV-escaped printable
/// text), so keys round-trip to fields by splitting.
const KEY_SEP: char = '\u{1f}';

/// Field-wise group-key ordering: fields that parse as numbers compare
/// numerically (so `racks` 2 sorts before 10), ties and non-numeric
/// fields compare as strings, and numbers sort before labels/empties.
/// Total, and `Equal` only for identical key strings — safe as a sort key
/// over distinct map keys.
fn compare_keys(a: &str, b: &str) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let (mut fa, mut fb) = (a.split(KEY_SEP), b.split(KEY_SEP));
    loop {
        let ord = match (fa.next(), fb.next()) {
            (None, None) => return Ordering::Equal,
            (None, Some(_)) => return Ordering::Less,
            (Some(_), None) => return Ordering::Greater,
            (Some(x), Some(y)) => match (x.parse::<f64>(), y.parse::<f64>()) {
                (Ok(nx), Ok(ny)) => nx
                    .partial_cmp(&ny)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| x.cmp(y)),
                (Ok(_), Err(_)) => Ordering::Less,
                (Err(_), Ok(_)) => Ordering::Greater,
                (Err(_), Err(_)) => x.cmp(y),
            },
        };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
}

/// Streaming `GROUP BY` over a store scan: rows fold into per-group
/// accumulators as the partitions stream past, so summarising a
/// million-cell store holds one accumulator per *group* — never the row
/// set (the ROADMAP's "query aggregation pushdown"). The group key is
/// probed through a reusable scratch buffer, so the steady state (a row
/// hitting an existing group) allocates only the projected field strings.
#[derive(Debug)]
pub struct GroupAggregator {
    group_by: Vec<Column>,
    columns: Vec<Column>,
    kind: AggKind,
    groups: std::collections::HashMap<String, (u64, Vec<ColAcc>)>,
    key_scratch: String,
}

impl GroupAggregator {
    /// Build an aggregator grouping on the columns named `group_by` and
    /// folding the numeric columns named `columns` (both validated up
    /// front).
    pub fn new(group_by: &[String], columns: &[String], kind: AggKind) -> Result<Self, String> {
        let resolve = |names: &[String]| -> Result<Vec<Column>, String> {
            names.iter().map(|c| Column::from_name(c)).collect()
        };
        Self::of(&resolve(group_by)?, &resolve(columns)?, kind)
    }

    /// Build an aggregator grouping on `group_by` and folding the numeric
    /// `columns`; a column in both is only a group key.
    pub fn of(group_by: &[Column], columns: &[Column], kind: AggKind) -> Result<Self, String> {
        if group_by.is_empty() {
            return Err("--group-by needs at least one column".into());
        }
        // Check every aggregated column is numeric up front so errors
        // surface before any output.
        let columns = columns
            .iter()
            .filter(|c| !group_by.contains(c))
            .map(|c| c.numeric())
            .collect::<Result<_, _>>()?;
        Ok(GroupAggregator {
            group_by: group_by.to_vec(),
            columns,
            kind,
            groups: std::collections::HashMap::new(),
            key_scratch: String::new(),
        })
    }

    /// Fold one row into its group.
    pub fn fold(&mut self, row: &CellRow) -> Result<(), String> {
        self.key_scratch.clear();
        for (i, &column) in self.group_by.iter().enumerate() {
            if i > 0 {
                self.key_scratch.push(KEY_SEP);
            }
            self.key_scratch.push_str(&query_field(row.field(column)));
        }
        let (n, accs) = match self.groups.get_mut(self.key_scratch.as_str()) {
            Some(entry) => entry,
            None => self
                .groups
                .entry(self.key_scratch.clone())
                .or_insert_with(|| (0, vec![ColAcc::default(); self.columns.len()])),
        };
        *n += 1;
        for (acc, &column) in accs.iter_mut().zip(&self.columns) {
            if let Some(v) = row.field(column).number() {
                acc.push(v);
            }
        }
        Ok(())
    }

    /// Number of groups seen so far.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// CSV header: group columns, the group size, then one
    /// `<agg>_<column>` per folded column.
    pub fn header(&self) -> String {
        let mut fields: Vec<String> = self.group_by.iter().map(|c| c.name().into()).collect();
        fields.push("n".into());
        for column in &self.columns {
            fields.push(format!("{}_{}", self.kind.name(), column.name()));
        }
        fields.join(",")
    }

    /// The aggregated rows in group-key order (numeric-aware per field, so
    /// `racks` 2 precedes 10), capped at `limit` when given.
    pub fn rows(&self, limit: Option<usize>) -> Vec<String> {
        let mut keys: Vec<&String> = self.groups.keys().collect();
        keys.sort_by(|a, b| compare_keys(a, b));
        keys.into_iter()
            .take(limit.unwrap_or(usize::MAX))
            .map(|key| {
                let (n, accs) = &self.groups[key];
                let mut fields: Vec<String> = key.split(KEY_SEP).map(|f| f.to_string()).collect();
                fields.push(n.to_string());
                for acc in accs {
                    fields.push(acc.render(self.kind));
                }
                fields.join(",")
            })
            .collect()
    }
}

/// The scan callback's verdict: keep streaming or end the scan now.
///
/// `Stop` is how `campaign query --limit N` avoids reading partitions past
/// the N-th match — the scan returns immediately with
/// [`ScanStats::stopped_early`] set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanFlow {
    /// Deliver the next matching row.
    Continue,
    /// End the scan after this row.
    Stop,
}

/// What a [`StoreScanner::scan`] did: matches delivered and, on v3 stores,
/// how much work the zone maps saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Rows that passed the filter and were delivered to the callback.
    pub matched: usize,
    /// Partitions whose records were actually read.
    pub partitions_scanned: usize,
    /// Partitions proven row-free for this filter by their blocks'
    /// dictionaries/zone maps and skipped without reading column data
    /// (always 0 on v2 CSV partitions, which carry no zone maps).
    pub partitions_skipped: usize,
    /// Did the callback end the scan with [`ScanFlow::Stop`]?
    pub stopped_early: bool,
}

/// A validated handle for streaming reads of a store directory.
///
/// [`open`](StoreScanner::open) parses the manifest up front — magic,
/// schema version, completion log — exactly as
/// [`ResultStore::open`](crate::store::ResultStore::open) does, so a v1
/// store or a foreign directory is rejected *before* the caller produces
/// any output; [`scan`](StoreScanner::scan) then streams the partitions,
/// dispatching per file on the v2 (CSV) or v3 (columnar) codec.
#[derive(Debug)]
pub struct StoreScanner {
    dir: PathBuf,
    manifest: ParsedManifest,
}

impl StoreScanner {
    /// Validate the manifest of the store at `dir` and prepare a scanner.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        let manifest_path = dir.join(MANIFEST_NAME);
        let text = fs::read_to_string(&manifest_path)
            .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
        let manifest = ParsedManifest::parse(&dir, &text)?;
        Ok(StoreScanner { dir, manifest })
    }

    /// Number of cells the completion log trusts.
    pub fn completed_count(&self) -> usize {
        self.manifest.done.len()
    }

    /// The campaign's total cell count, from the manifest header.
    pub fn total_cells(&self) -> usize {
        self.manifest.total_cells
    }

    /// The recorded spec fingerprint, from the manifest header.
    pub fn spec_hash(&self) -> u64 {
        self.manifest.spec_hash
    }

    /// The store's schema version (v2 text or v3 columnar).
    pub fn schema(&self) -> u32 {
        self.manifest.schema
    }

    /// Has every cell of the campaign been recorded?
    pub fn is_complete(&self) -> bool {
        self.manifest.done.len() == self.manifest.total_cells
    }

    /// Every trusted row, in cell-index order, read into memory at once —
    /// for the reports (`pareto`, `report`, `campaign-diff`) that need the
    /// whole row set.
    pub fn rows(&self) -> Result<Vec<CellRow>, String> {
        let mut rows = Vec::with_capacity(self.completed_count());
        self.scan(&RowFilter::default(), |row| {
            rows.push(row.clone());
            Ok(ScanFlow::Continue)
        })?;
        Ok(rows)
    }

    /// Stream every trusted, filter-matching row to `on_row`, in cell-index
    /// order, without ever holding more than one partition in memory.
    pub fn scan(
        &self,
        filter: &RowFilter,
        on_row: impl FnMut(&CellRow) -> Result<ScanFlow, String>,
    ) -> Result<ScanStats, String> {
        self.scan_projected(filter, Projection::ALL, on_row)
    }

    /// [`scan`](Self::scan) with a column projection pushed down into the
    /// v3 block decoder: only the projected columns of matching rows are
    /// read from the column arrays (filtering and duplicate resolution
    /// still run on the raw columns, so the match set is identical to an
    /// unprojected scan). Unprojected fields of the delivered row are
    /// unspecified — the callback must only read projected columns. Rows of
    /// v2 CSV partitions and multi-file groups are fully decoded regardless.
    pub fn scan_projected(
        &self,
        filter: &RowFilter,
        projection: Projection,
        mut on_row: impl FnMut(&CellRow) -> Result<ScanFlow, String>,
    ) -> Result<ScanStats, String> {
        let mut stats = ScanStats::default();
        let mut scratch = CellRow::default();
        // Flatten the manifest's completion set into a bit-per-cell lookup
        // once per scan: the per-row trust check runs for every record of
        // every partition, and an O(log n) set probe there dominates large
        // scans.
        let done_len = self
            .manifest
            .done
            .iter()
            .next_back()
            .map_or(0, |&last| last + 1);
        let mut done = vec![false; done_len];
        for &idx in &self.manifest.done {
            done[idx] = true;
        }
        let is_done = |idx: usize| idx < done.len() && done[idx];
        let parts = sorted_part_paths(&self.dir.join(PARTS_DIR))?;
        for group in parts.chunk_by(|a, b| a.0 == b.0) {
            let path = &group[0].1;
            if group.len() > 1 || !is_v3_part(path) {
                // Several files share this partition number — a distributed
                // campaign whose lease bounced between workers
                // (`part-N-wW.apc`), or a resumed v2 store whose reruns sit
                // in `part-N.apc` beside `part-N.csv` — or the partition is
                // a lone v2 CSV file. A cell's duplicate records can then
                // span files, so merge the whole group in sorted-file order
                // before last-wins resolution (per-file resolution would
                // emit such a cell once per file), trading the zone-map
                // machinery for a plain merge on these small, rare groups.
                let mut merged: BTreeMap<usize, CellRow> = BTreeMap::new();
                for (_, path) in group {
                    stats.partitions_scanned += 1;
                    for row in load_part_rows(path)? {
                        if is_done(row.index) {
                            merged.insert(row.index, row);
                        }
                    }
                }
                for row in merged.values() {
                    if filter.matches(row) {
                        stats.matched += 1;
                        if on_row(row)? == ScanFlow::Stop {
                            stats.stopped_early = true;
                            return Ok(stats);
                        }
                    }
                }
                continue;
            }
            let buf = PartitionBuf::read(path)?;
            let blocks = buf.block_count();
            if blocks == 0 {
                continue; // fully torn or empty file: nothing trusted
            }
            // Resolve the filter once per block: string criteria become
            // dictionary codes, numeric criteria check the zone maps. A
            // block that resolves to None provably holds no match.
            let resolved: Vec<_> = (0..blocks).map(|b| buf.resolve_filter(b, filter)).collect();
            if resolved.iter().all(|r| r.is_none()) {
                // Every block of this partition is proven row-free for
                // the filter: skip the partition without touching any
                // column data. (Unreachable for an empty filter, which
                // always resolves.)
                stats.partitions_skipped += 1;
                continue;
            }
            stats.partitions_scanned += 1;
            // Cells of one index always land in the same partition, so
            // last-wins duplicate resolution needs only the (block, row)
            // of each index's final trusted occurrence — found by
            // reading the index column alone. The common case (any
            // compacted store, and every live store that never re-ran a
            // cell) has strictly increasing indexes, which proves there
            // are no duplicates and the file order *is* index order: emit
            // directly, no dedup map. A last occurrence inside an
            // unmatchable block still wins (and simply emits nothing),
            // keeping skip decisions and duplicate resolution
            // independent.
            let mut monotone = true;
            let mut prev: Option<usize> = None;
            'check: for b in 0..blocks {
                for r in 0..buf.block_rows(b) {
                    let idx = buf.cell_index(b, r);
                    if prev.is_some_and(|p| p >= idx) {
                        monotone = false;
                        break 'check;
                    }
                    prev = Some(idx);
                }
            }
            if monotone {
                for (b, rf) in resolved.iter().enumerate() {
                    let Some(rf) = rf else { continue };
                    // An unconstrained filter passes every row, so the
                    // per-row match call is pure overhead on full scans.
                    let check = !rf.is_unconstrained();
                    for r in 0..buf.block_rows(b) {
                        if is_done(buf.cell_index(b, r)) && (!check || buf.matches(b, r, rf)) {
                            buf.decode_into_projected(b, r, &mut scratch, projection);
                            stats.matched += 1;
                            if on_row(&scratch)? == ScanFlow::Stop {
                                stats.stopped_early = true;
                                return Ok(stats);
                            }
                        }
                    }
                }
                continue;
            }
            let mut last: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
            for b in 0..blocks {
                for r in 0..buf.block_rows(b) {
                    let idx = buf.cell_index(b, r);
                    if is_done(idx) {
                        last.insert(idx, (b, r));
                    }
                }
            }
            for &(b, r) in last.values() {
                let Some(rf) = &resolved[b] else { continue };
                if buf.matches(b, r, rf) {
                    buf.decode_into_projected(b, r, &mut scratch, projection);
                    stats.matched += 1;
                    if on_row(&scratch)? == ScanFlow::Stop {
                        stats.stopped_early = true;
                        return Ok(stats);
                    }
                }
            }
        }
        Ok(stats)
    }
}

/// One-shot convenience over [`StoreScanner`]: validate, then stream.
pub fn scan_store(
    dir: &Path,
    filter: &RowFilter,
    on_row: impl FnMut(&CellRow) -> Result<ScanFlow, String>,
) -> Result<ScanStats, String> {
    StoreScanner::open(dir)?.scan(filter, on_row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn row(index: usize, workload: &str, scenario: &str) -> CellRow {
        CellRow {
            index,
            racks: 1,
            workload: workload.into(),
            seed: Some(index as u64 % 3),
            load_factor: 1.8,
            scenario: scenario.into(),
            window: "7200+3600".into(),
            policy: if scenario.contains("SHUT") {
                "shut".into()
            } else {
                "none".into()
            },
            cap_percent: 60.0,
            grouping: "grouped".into(),
            decision_rule: "paper-rho".into(),
            schedule: "-".into(),
            faults: "-".into(),
            launched_jobs: index,
            completed_jobs: index,
            killed_jobs: 0,
            pending_jobs: 0,
            work_core_seconds: index as f64,
            energy_joules: 1.0,
            energy_normalized: 0.5,
            launched_jobs_normalized: 0.5,
            work_normalized: 0.25,
            mean_wait_seconds: f64::NAN,
            peak_power_watts: 900.0,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("apc-query-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A 200-cell store spanning several partitions, alternating workloads.
    fn build_store(dir: &Path) {
        let mut store = crate::store::ResultStore::create(dir, 0xabcd, 200).unwrap();
        for i in 0..200 {
            let workload = if i % 2 == 0 { "medianjob" } else { "24h" };
            let scenario = if i % 4 == 0 { "60%/SHUT" } else { "100%/None" };
            store.append(&row(i, workload, scenario)).unwrap();
        }
    }

    #[test]
    fn scan_streams_matching_rows_in_index_order() {
        let dir = temp_dir("scan");
        build_store(&dir);
        let filter = RowFilter {
            workload: Some("medianjob".into()),
            scenario: Some("60%/SHUT".into()),
            ..RowFilter::default()
        };
        let mut seen = Vec::new();
        let stats = scan_store(&dir, &filter, |r| {
            seen.push(r.index);
            Ok(ScanFlow::Continue)
        })
        .unwrap();
        assert_eq!(stats.matched, 50);
        assert!(!stats.stopped_early);
        assert_eq!(seen.len(), 50);
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "index-sorted");
        assert!(seen.iter().all(|i| i % 4 == 0));
        // Workloads alternate within every partition, so nothing is
        // provably row-free here.
        assert_eq!(stats.partitions_skipped, 0);
        assert_eq!(stats.partitions_scanned, 200usize.div_ceil(64));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zone_maps_skip_partitions_that_cannot_match() {
        let dir = temp_dir("zone-skip");
        // Workloads in contiguous index ranges: cells [0, 100) medianjob,
        // [100, 200) 24h. With 64-cell partitions: part 0 all-medianjob,
        // part 1 mixed, parts 2 and 3 all-24h.
        let mut store = crate::store::ResultStore::create(&dir, 0xabcd, 200).unwrap();
        for i in 0..200 {
            let workload = if i < 100 { "medianjob" } else { "24h" };
            store.append(&row(i, workload, "60%/SHUT")).unwrap();
        }
        drop(store);
        let filter = RowFilter {
            workload: Some("24h".into()),
            ..RowFilter::default()
        };
        let mut seen = Vec::new();
        let stats = scan_store(&dir, &filter, |r| {
            seen.push(r.index);
            Ok(ScanFlow::Continue)
        })
        .unwrap();
        assert_eq!(stats.matched, 100);
        assert_eq!(stats.partitions_skipped, 1, "part 0 is provably 24h-free");
        assert_eq!(stats.partitions_scanned, 3);
        // The skip is provably sound: a brute-force pass over *all* rows
        // finds exactly the matches the skipping scan delivered.
        let mut brute = Vec::new();
        scan_store(&dir, &RowFilter::default(), |r| {
            if filter.matches(r) {
                brute.push(r.index);
            }
            Ok(ScanFlow::Continue)
        })
        .unwrap();
        assert_eq!(seen, brute);
        // The opposite filter skips the two all-24h partitions.
        let inverse = RowFilter {
            workload: Some("medianjob".into()),
            ..RowFilter::default()
        };
        let stats = scan_store(&dir, &inverse, |_| Ok(ScanFlow::Continue)).unwrap();
        assert_eq!((stats.matched, stats.partitions_skipped), (100, 2));
        // A filter matching nothing anywhere skips every partition.
        let nothing = RowFilter {
            workload: Some("bigjob".into()),
            ..RowFilter::default()
        };
        let stats = scan_store(&dir, &nothing, |_| Ok(ScanFlow::Continue)).unwrap();
        assert_eq!((stats.matched, stats.partitions_skipped), (0, 4));
        assert_eq!(stats.partitions_scanned, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_flow_stop_ends_the_scan_early() {
        let dir = temp_dir("early-exit");
        build_store(&dir);
        let mut seen = Vec::new();
        let limit = 5usize;
        let stats = scan_store(&dir, &RowFilter::default(), |r| {
            seen.push(r.index);
            Ok(if seen.len() == limit {
                ScanFlow::Stop
            } else {
                ScanFlow::Continue
            })
        })
        .unwrap();
        assert!(stats.stopped_early);
        assert_eq!(stats.matched, limit);
        assert_eq!(seen, [0, 1, 2, 3, 4]);
        assert_eq!(
            stats.partitions_scanned, 1,
            "remaining partitions are never opened"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_skips_untrusted_rows_like_the_full_loader() {
        let dir = temp_dir("untrusted");
        build_store(&dir);
        // Drop one done entry: that cell must disappear from scans too.
        let manifest = dir.join(MANIFEST_NAME);
        let text = fs::read_to_string(&manifest).unwrap();
        let kept: Vec<&str> = text.lines().filter(|l| *l != "done 8").collect();
        fs::write(&manifest, kept.join("\n") + "\n").unwrap();
        let stats = scan_store(&dir, &RowFilter::default(), |_| Ok(ScanFlow::Continue)).unwrap();
        assert_eq!(stats.matched, 199);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn filters_compose_conjunctively() {
        let r = row(4, "medianjob", "60%/SHUT");
        assert!(RowFilter::default().matches(&r));
        let hit = RowFilter {
            workload: Some("medianjob".into()),
            policy: Some("shut".into()),
            seed: Some(1),
            racks: Some(1),
            ..RowFilter::default()
        };
        assert!(hit.matches(&r));
        let sweep_hit = RowFilter {
            window: Some("7200+3600".into()),
            load_factor: Some(1.8),
            ..hit.clone()
        };
        assert!(sweep_hit.matches(&r));
        for miss in [
            RowFilter {
                workload: Some("24h".into()),
                ..hit.clone()
            },
            RowFilter {
                seed: Some(2),
                ..hit.clone()
            },
            RowFilter {
                racks: Some(2),
                ..hit.clone()
            },
            RowFilter {
                window: Some("0+1800|16200+1800".into()),
                ..hit.clone()
            },
            RowFilter {
                load_factor: Some(1.0),
                ..hit.clone()
            },
        ] {
            assert!(!miss.matches(&r));
        }
        // A fixed-trace row (no seed) never matches a seed filter.
        let mut fixed = row(4, "swf", "60%/SHUT");
        fixed.seed = None;
        assert!(!hit.matches(&fixed));
    }

    #[test]
    fn projection_covers_every_column_and_rejects_unknown_ones() {
        let r = row(4, "medianjob", "60%/SHUT");
        for column in Column::ALL {
            let value = project(&r, column.name()).unwrap();
            if column == Column::MeanWaitSeconds {
                assert!(value.is_empty(), "NaN renders empty");
            }
        }
        assert_eq!(project(&r, "index").unwrap(), "4");
        assert_eq!(project(&r, "seed").unwrap(), "1");
        assert_eq!(project(&r, "window").unwrap(), "7200+3600");
        let err = project(&r, "nope").unwrap_err();
        assert!(err.contains("unknown column") && err.contains("work_normalized"));
        // Labels go through csv_field like every other CSV writer, so a
        // separator-carrying label cannot tear query output.
        let mut odd = r.clone();
        odd.scenario = "a,b".into();
        assert_eq!(project(&odd, "scenario").unwrap(), "\"a,b\"");
    }

    #[test]
    fn group_aggregation_folds_in_the_streaming_scan() {
        let dir = temp_dir("agg");
        build_store(&dir);
        let mut agg = GroupAggregator::new(
            &["workload".to_string(), "scenario".to_string()],
            &["launched_jobs".to_string(), "mean_wait_seconds".to_string()],
            AggKind::Mean,
        )
        .unwrap();
        let stats = scan_store(&dir, &RowFilter::default(), |row| {
            agg.fold(row)?;
            Ok(ScanFlow::Continue)
        })
        .unwrap();
        assert_eq!(stats.matched, 200);
        // Groups: (medianjob, 60%/SHUT) = indices ≡ 0 (mod 4),
        // (medianjob, 100%/None) = 2 (mod 4), (24h, 100%/None) = odd.
        assert_eq!(agg.group_count(), 3);
        assert_eq!(
            agg.header(),
            "workload,scenario,n,mean_launched_jobs,mean_mean_wait_seconds"
        );
        let rows = agg.rows(None);
        assert_eq!(rows.len(), 3);
        // BTreeMap order: "24h" < "medianjob"; launched_jobs == index, so
        // the odd indices 1..199 average to 100.
        assert_eq!(rows[0], "24h,100%/None,100,100,");
        // Even-but-not-multiple-of-4 indices 2,6,…,198 average to 100; the
        // all-NaN wait column renders empty.
        assert_eq!(rows[1], "medianjob,100%/None,50,100,");
        assert_eq!(rows[2], "medianjob,60%/SHUT,50,98,");
        // Limit caps the rendered groups, not the fold.
        assert_eq!(agg.rows(Some(2)).len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aggregation_kinds_and_validation() {
        let rows: Vec<CellRow> = (0..4).map(|i| row(i, "medianjob", "60%/SHUT")).collect();
        for (kind, expected) in [
            (AggKind::Min, "medianjob,4,0"),
            (AggKind::Max, "medianjob,4,3"),
            (AggKind::Mean, "medianjob,4,1.5"),
        ] {
            let mut agg = GroupAggregator::new(
                &["workload".to_string()],
                &["launched_jobs".to_string()],
                kind,
            )
            .unwrap();
            for r in &rows {
                agg.fold(r).unwrap();
            }
            assert_eq!(agg.rows(None), vec![expected.to_string()], "{kind:?}");
        }
        // Validation: empty key list, unknown key, non-numeric column.
        assert!(GroupAggregator::new(&[], &[], AggKind::Mean).is_err());
        let err = GroupAggregator::new(&["nope".to_string()], &[], AggKind::Mean).unwrap_err();
        assert!(err.contains("unknown column"));
        let err = GroupAggregator::new(
            &["workload".to_string()],
            &["scenario".to_string()],
            AggKind::Mean,
        )
        .unwrap_err();
        assert!(err.contains("not numeric"));
        // Group-by columns are dropped from the aggregated set, not
        // double-counted.
        let agg = GroupAggregator::new(
            &["racks".to_string()],
            &["racks".to_string(), "launched_jobs".to_string()],
            AggKind::Mean,
        )
        .unwrap();
        assert_eq!(agg.header(), "racks,n,mean_launched_jobs");
        // Agg kind parsing.
        assert_eq!("mean".parse::<AggKind>().unwrap(), AggKind::Mean);
        assert_eq!("max".parse::<AggKind>().unwrap().name(), "max");
        assert!("median".parse::<AggKind>().is_err());
    }

    #[test]
    fn numeric_group_keys_sort_by_value_not_lexicographically() {
        let mut agg = GroupAggregator::new(
            &["racks".to_string()],
            &["launched_jobs".to_string()],
            AggKind::Mean,
        )
        .unwrap();
        for racks in [10usize, 2, 33] {
            let mut r = row(1, "medianjob", "60%/SHUT");
            r.racks = racks;
            agg.fold(&r).unwrap();
        }
        // Lexicographic order would put "10" before "2".
        assert_eq!(agg.rows(None), vec!["2,1,1", "10,1,1", "33,1,1"]);
        // --limit keeps the numerically-first groups.
        assert_eq!(agg.rows(Some(1)), vec!["2,1,1"]);
    }

    #[test]
    fn numeric_extraction_handles_missing_values() {
        let mut r = row(4, "medianjob", "60%/SHUT");
        assert_eq!(numeric(&r, "launched_jobs").unwrap(), Some(4.0));
        assert_eq!(numeric(&r, "mean_wait_seconds").unwrap(), None, "NaN");
        assert_eq!(numeric(&r, "seed").unwrap(), Some(1.0));
        r.seed = None;
        assert_eq!(numeric(&r, "seed").unwrap(), None);
        assert!(numeric(&r, "workload").is_err());
        for column in Column::ALL {
            let is_label = column.kind() == crate::agg::ColumnKind::Label;
            assert_eq!(numeric(&r, column.name()).is_err(), is_label, "{column:?}");
        }
    }

    #[test]
    fn schedule_and_fault_filters_compose_like_the_others() {
        let mut r = row(4, "medianjob", "SCHED/SHUT");
        r.schedule = "0+7200@80|7200+10800@40".into();
        r.faults = "3x600@7".into();
        let hit = RowFilter {
            schedule: Some("0+7200@80|7200+10800@40".into()),
            faults: Some("3x600@7".into()),
            ..RowFilter::default()
        };
        assert!(hit.matches(&r));
        for miss in [
            RowFilter {
                schedule: Some("-".into()),
                ..RowFilter::default()
            },
            RowFilter {
                faults: Some("2x600@7".into()),
                ..RowFilter::default()
            },
        ] {
            assert!(!miss.matches(&r));
        }
        // A legacy row matches the "-" filters.
        let legacy = row(5, "medianjob", "60%/SHUT");
        let dashes = RowFilter {
            schedule: Some("-".into()),
            faults: Some("-".into()),
            ..RowFilter::default()
        };
        assert!(dashes.matches(&legacy));
    }

    #[test]
    fn projected_scans_match_full_scans_on_the_projected_columns() {
        let dir = temp_dir("projected");
        build_store(&dir);
        let projection =
            Projection::of(&["index".to_string(), "energy_joules".to_string()]).unwrap();
        let mut narrow = Vec::new();
        let scanner = StoreScanner::open(&dir).unwrap();
        let stats = scanner
            .scan_projected(&RowFilter::default(), projection, |r| {
                narrow.push((r.index, r.energy_joules.to_bits()));
                Ok(ScanFlow::Continue)
            })
            .unwrap();
        assert_eq!(stats.matched, 200);
        let mut full = Vec::new();
        scan_store(&dir, &RowFilter::default(), |r| {
            full.push((r.index, r.energy_joules.to_bits()));
            Ok(ScanFlow::Continue)
        })
        .unwrap();
        assert_eq!(narrow, full);
        // Projection never changes the match set under a filter either.
        let filter = RowFilter {
            scenario: Some("60%/SHUT".into()),
            ..RowFilter::default()
        };
        let mut filtered = Vec::new();
        scanner
            .scan_projected(&filter, projection, |r| {
                filtered.push(r.index);
                Ok(ScanFlow::Continue)
            })
            .unwrap();
        assert!(filtered.iter().all(|i| i % 4 == 0));
        assert_eq!(filtered.len(), 50);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_rejects_foreign_and_mismatched_stores() {
        let dir = temp_dir("foreign");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(MANIFEST_NAME), "not a store\n").unwrap();
        let err = scan_store(&dir, &RowFilter::default(), |_| Ok(ScanFlow::Continue)).unwrap_err();
        assert!(err.contains("bad magic"), "got: {err}");
        // Validation happens at open(), before any row callback could run —
        // the query CLI relies on this to keep stdout clean on error.
        assert!(StoreScanner::open(&dir).is_err());
        assert!(StoreScanner::open(dir.join("missing")).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scanner_reports_the_completion_count() {
        let dir = temp_dir("count");
        build_store(&dir);
        let scanner = StoreScanner::open(&dir).unwrap();
        assert_eq!(scanner.completed_count(), 200);
        assert_eq!(scanner.total_cells(), 200);
        assert_eq!(scanner.spec_hash(), 0xabcd);
        assert_eq!(scanner.schema(), crate::store::STORE_SCHEMA_VERSION);
        assert!(scanner.is_complete());
        fs::remove_dir_all(&dir).unwrap();
    }
}
