//! Schema v3: the binary columnar partition codec (`cells/part-NNNN.apc`).
//!
//! A v3 partition file is a sequence of self-contained **blocks**. The live
//! executor appends one single-row block per finished cell — the file stays
//! append-only, so a torn tail fails its checksum and is dropped, never
//! trusted — and `campaign compact` rewrites a store into 4096-cell
//! partitions, each a run of 256-row blocks
//! ([`DEFAULT_COMPACT_CELLS_PER_PART`], [`COMPACT_BLOCK_ROWS`]), where the
//! columnar layout, the shared dictionaries and the per-block zone maps pay
//! off.
//!
//! Block layout (all integers little-endian):
//!
//! ```text
//! 0             magic "APC3" | "APC4"
//! 4             block_len: u32     total block size, magic through checksum
//! 8             row_count: u32
//! 12            cols_offset: u32   where the column arrays start
//! 16            dictionaries       6 ("APC3") or 8 ("APC4") string columns
//!                                  × [count: u32, count × (len: u32,
//!                                  utf-8 bytes)]
//! cols_offset   column arrays      7 × u64 ints, 9 × u64 float bits,
//!                                  6|8 × u32 dictionary codes, 1 × u8 flags
//! …             zone maps          (min, max) per numeric column
//! block_len-8   checksum: u64      FNV-1a over the preceding block bytes
//!                                  as LE u64 words (zero-padded tail)
//! ```
//!
//! `"APC3"` is the original six-dictionary layout; `"APC4"` (the
//! scenario-engine refactor) appends the `schedule` and `faults`
//! dictionary columns. The writer only emits `"APC4"` for blocks that
//! carry at least one labelled row, so a store of paper-shaped scenarios
//! is byte-identical to one written before schedules and fault plans
//! existed, and a reader decoding an `"APC3"` block fills both labels
//! with `"-"` — the two magics are one schema with an optional column
//! group, not two schemas.
//!
//! Floats are stored as raw `f64` bit patterns, so every value — including
//! NaN — round-trips exactly and the rendered CSV/JSON exports are
//! byte-identical whether the rows come from a v2 or a v3 store. The
//! reader parses a fully-read buffer in place: filters are resolved to
//! dictionary codes once per block and evaluated as integer compares, the
//! zone maps (and, for strings, dictionary membership) prove whole blocks
//! can hold no matching row before any column is decoded, and only
//! matching rows are ever materialised as [`CellRow`]s.
//!
//! The column arrays keep the codec's own slot order (integer, float, then
//! dictionary columns), not the `cells.csv` order of [`Column`]: that order
//! is the on-disk format. The decoder names each column it fills through
//! [`Column`], but its per-column code stays written out by hand: a loop
//! over the table in the decode path made full scans measurably slower.
//!
//! [`DEFAULT_COMPACT_CELLS_PER_PART`]: crate::compact::DEFAULT_COMPACT_CELLS_PER_PART
//! [`COMPACT_BLOCK_ROWS`]: crate::compact::COMPACT_BLOCK_ROWS

use std::fs;
use std::path::Path;

use crate::agg::{is_labelled, CellRow, Column};
use crate::query::RowFilter;

/// File extension of a v3 partition.
pub const PART_EXT_V3: &str = "apc";

const MAGIC: &[u8; 4] = b"APC3";
/// Magic of a labelled block: the same layout with the `schedule` and
/// `faults` dictionary columns appended after `decision_rule`.
const MAGIC_LABELLED: &[u8; 4] = b"APC4";
const HEADER_BYTES: usize = 16;
/// Fixed-width integer columns: index, racks, seed, launched, completed,
/// killed, pending.
const INT_COLS: usize = 7;
const COL_INDEX: usize = 0;
const COL_RACKS: usize = 1;
const COL_SEED: usize = 2;
/// Float columns (stored as bit patterns): load_factor, cap_percent,
/// work_core_seconds, energy_joules, energy_normalized,
/// launched_jobs_normalized, work_normalized, mean_wait_seconds,
/// peak_power_watts.
const FLOAT_COLS: usize = 9;
const FCOL_LOAD: usize = 0;
/// Dictionary-encoded string columns of an `"APC3"` block: workload,
/// scenario, window, policy, grouping, decision_rule.
const DICT_COLS: usize = 6;
/// Dictionary columns of an `"APC4"` block: the six above plus schedule
/// and faults.
const DICT_COLS_LABELLED: usize = 8;
const DCOL_WORKLOAD: usize = 0;
const DCOL_SCENARIO: usize = 1;
const DCOL_WINDOW: usize = 2;
const DCOL_POLICY: usize = 3;
const DCOL_SCHEDULE: usize = 6;
const DCOL_FAULTS: usize = 7;
/// Bytes per row across all column arrays of a block with `dict_cols`
/// dictionary columns.
const fn row_bytes(dict_cols: usize) -> usize {
    INT_COLS * 8 + FLOAT_COLS * 8 + dict_cols * 4 + 1
}
/// Bytes of the zone-map section: (min, max) per numeric column.
const ZONE_BYTES: usize = (INT_COLS + FLOAT_COLS) * 16;
/// Row flag bit: the seed column holds a value (vs. a fixed-trace row).
const FLAG_SEED_PRESENT: u8 = 1;

/// 64-bit FNV-1a over `bytes` taken as little-endian u64 words (the tail
/// zero-padded to a full word) — the block checksum.
///
/// Word-wise rather than the classic byte-wise FNV: one xor-multiply per 8
/// bytes instead of per byte, which matters because every scan validates
/// every block it reads and the multiply chain is strictly serial. The
/// xor-then-odd-multiply step is a bijection on u64, so any change to any
/// single word still changes the hash; the zero-padding is unambiguous
/// because the checksummed bytes start with the block's own `block_len`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        hash ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        hash ^= u64::from_le_bytes(word);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn int_fields(row: &CellRow) -> [u64; INT_COLS] {
    [
        row.index as u64,
        row.racks as u64,
        row.seed.unwrap_or(0),
        row.launched_jobs as u64,
        row.completed_jobs as u64,
        row.killed_jobs as u64,
        row.pending_jobs as u64,
    ]
}

fn float_fields(row: &CellRow) -> [f64; FLOAT_COLS] {
    [
        row.load_factor,
        row.cap_percent,
        row.work_core_seconds,
        row.energy_joules,
        row.energy_normalized,
        row.launched_jobs_normalized,
        row.work_normalized,
        row.mean_wait_seconds,
        row.peak_power_watts,
    ]
}

fn dict_fields(row: &CellRow) -> [&str; DICT_COLS_LABELLED] {
    [
        &row.workload,
        &row.scenario,
        &row.window,
        &row.policy,
        &row.grouping,
        &row.decision_rule,
        &row.schedule,
        &row.faults,
    ]
}

/// Encode `rows` as one self-contained v3 block.
///
/// Dictionaries are built in first-occurrence order, numeric zone maps are
/// computed over the rows (seed over present seeds only, floats over
/// non-NaN values only), and the trailing checksum covers every preceding
/// byte, so a write torn anywhere inside the block is detected on read.
pub fn encode_block(rows: &[CellRow]) -> Vec<u8> {
    assert!(
        u32::try_from(rows.len()).is_ok(),
        "a block holds at most u32::MAX rows"
    );
    let n = rows.len();
    // Label-free rows encode as classic "APC3" blocks — byte-identical to
    // what the codec wrote before cap schedules and fault plans existed —
    // and any labelled row switches the whole block to the "APC4" layout
    // with the two extra dictionary columns.
    let labelled = rows.iter().any(|r| is_labelled(&r.schedule, &r.faults));
    let dict_cols = if labelled {
        DICT_COLS_LABELLED
    } else {
        DICT_COLS
    };
    // Dictionaries in first-occurrence order. Labels per block are few
    // (policies, scenarios, …), so linear probing beats hashing here.
    let mut dicts: Vec<Vec<&str>> = vec![Vec::new(); dict_cols];
    let mut codes = vec![[0u32; DICT_COLS_LABELLED]; n];
    for (r, row) in rows.iter().enumerate() {
        let fields = dict_fields(row);
        for (c, value) in fields[..dict_cols].iter().copied().enumerate() {
            let code = match dicts[c].iter().position(|v| *v == value) {
                Some(i) => i,
                None => {
                    dicts[c].push(value);
                    dicts[c].len() - 1
                }
            };
            codes[r][c] = code as u32;
        }
    }
    let dict_bytes: usize = dicts
        .iter()
        .map(|d| 4 + d.iter().map(|v| 4 + v.len()).sum::<usize>())
        .sum();
    let cols_offset = HEADER_BYTES + dict_bytes;
    let block_len = cols_offset + n * row_bytes(dict_cols) + ZONE_BYTES + 8;
    let mut out = Vec::with_capacity(block_len);
    out.extend_from_slice(if labelled { MAGIC_LABELLED } else { MAGIC });
    out.extend_from_slice(&(block_len as u32).to_le_bytes());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&(cols_offset as u32).to_le_bytes());
    for dict in &dicts {
        out.extend_from_slice(&(dict.len() as u32).to_le_bytes());
        for v in dict {
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(v.as_bytes());
        }
    }
    let mut int_zones = [(u64::MAX, 0u64); INT_COLS];
    for (c, zone) in int_zones.iter_mut().enumerate() {
        for row in rows {
            let v = int_fields(row)[c];
            out.extend_from_slice(&v.to_le_bytes());
            if c != COL_SEED || row.seed.is_some() {
                zone.0 = zone.0.min(v);
                zone.1 = zone.1.max(v);
            }
        }
    }
    let mut float_zones = [(f64::INFINITY, f64::NEG_INFINITY); FLOAT_COLS];
    for (c, zone) in float_zones.iter_mut().enumerate() {
        for row in rows {
            let v = float_fields(row)[c];
            out.extend_from_slice(&v.to_bits().to_le_bytes());
            if !v.is_nan() {
                zone.0 = zone.0.min(v);
                zone.1 = zone.1.max(v);
            }
        }
    }
    for c in 0..dict_cols {
        for code in &codes {
            out.extend_from_slice(&code[c].to_le_bytes());
        }
    }
    for row in rows {
        out.push(if row.seed.is_some() {
            FLAG_SEED_PRESENT
        } else {
            0
        });
    }
    for (lo, hi) in int_zones {
        out.extend_from_slice(&lo.to_le_bytes());
        out.extend_from_slice(&hi.to_le_bytes());
    }
    for (lo, hi) in float_zones {
        out.extend_from_slice(&lo.to_bits().to_le_bytes());
        out.extend_from_slice(&hi.to_bits().to_le_bytes());
    }
    debug_assert_eq!(out.len(), block_len - 8);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// One parsed block: offsets into the partition buffer.
#[derive(Debug)]
struct BlockMeta {
    /// Row count.
    rows: usize,
    /// Absolute offset of the column arrays.
    cols: usize,
    /// Absolute offset of the zone-map section.
    zone: usize,
    /// Per dictionary column: the decoded entries — six for an `"APC3"`
    /// block, eight for an `"APC4"` one (the length doubles as the
    /// block's dictionary-column count). Materialised at parse time
    /// (dictionaries are tiny — a handful of entries per block) so
    /// per-row string access is a plain indexed borrow with no repeated
    /// UTF-8 validation on the hot decode path.
    dicts: Vec<Vec<String>>,
}

impl BlockMeta {
    /// Does the block carry the schedule/faults dictionary columns?
    fn is_labelled(&self) -> bool {
        self.dicts.len() == DICT_COLS_LABELLED
    }
}

/// A fully-read v3 partition file, scanned in place.
///
/// [`parse`](PartitionBuf::parse) walks the buffer block by block; the
/// first block that fails framing, structure, UTF-8 or checksum validation
/// ends the trusted region (an append-only file can only be torn at its
/// tail), and everything after it is ignored — the binary equivalent of
/// skipping a torn CSV line.
#[derive(Debug)]
pub struct PartitionBuf {
    data: Vec<u8>,
    blocks: Vec<BlockMeta>,
    trusted_len: usize,
}

/// A [`RowFilter`] resolved against one block: string criteria become
/// dictionary codes, so per-row evaluation is pure integer compares.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedRowFilter {
    workload: Option<u32>,
    scenario: Option<u32>,
    window: Option<u32>,
    policy: Option<u32>,
    seed: Option<u64>,
    load_bits: Option<u64>,
    racks: Option<u64>,
    /// `None` also for a `"-"` criterion on an `"APC3"` block, whose rows
    /// all carry the implicit `"-"` label — the criterion is vacuously
    /// true there, not absent from the dictionary.
    schedule: Option<u32>,
    faults: Option<u32>,
}

impl ResolvedRowFilter {
    /// No populated criterion: every row passes, so a scan can skip the
    /// per-row [`PartitionBuf::matches`] calls for this block entirely.
    pub(crate) fn is_unconstrained(&self) -> bool {
        self.workload.is_none()
            && self.scenario.is_none()
            && self.window.is_none()
            && self.policy.is_none()
            && self.seed.is_none()
            && self.load_bits.is_none()
            && self.racks.is_none()
            && self.schedule.is_none()
            && self.faults.is_none()
    }
}

fn u32_le(data: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(data[off..off + 4].try_into().expect("4 bytes"))
}

fn u64_le(data: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(data[off..off + 8].try_into().expect("8 bytes"))
}

/// Parse the block starting at `start`; `None` when it is torn, truncated
/// or corrupted (checksum mismatch).
fn parse_block(data: &[u8], start: usize) -> Option<BlockMeta> {
    let header = data.get(start..start.checked_add(HEADER_BYTES)?)?;
    let dict_cols = if &header[0..4] == MAGIC {
        DICT_COLS
    } else if &header[0..4] == MAGIC_LABELLED {
        DICT_COLS_LABELLED
    } else {
        return None;
    };
    let block_len = u32_le(header, 4) as usize;
    let rows = u32_le(header, 8) as usize;
    let cols_rel = u32_le(header, 12) as usize;
    let end = start.checked_add(block_len)?;
    // The smallest structurally possible block: empty dictionaries, no rows.
    let min_block_bytes = HEADER_BYTES + dict_cols * 4 + ZONE_BYTES + 8;
    if block_len < min_block_bytes || end > data.len() {
        return None;
    }
    // The column arrays, zone maps and checksum have fixed sizes, so the
    // whole layout is checkable from the header alone.
    if cols_rel < HEADER_BYTES
        || cols_rel
            .checked_add(rows.checked_mul(row_bytes(dict_cols))?)?
            .checked_add(ZONE_BYTES + 8)?
            != block_len
    {
        return None;
    }
    let sum = u64_le(data, end - 8);
    if fnv1a(&data[start..end - 8]) != sum {
        return None;
    }
    // Dictionary section: must end exactly where the columns start, every
    // entry must be valid UTF-8, and every code in the code columns must
    // index into its dictionary — validated once here so the accessors are
    // infallible.
    let dict_end = start + cols_rel;
    let mut pos = start + HEADER_BYTES;
    let mut dicts: Vec<Vec<String>> = vec![Vec::new(); dict_cols];
    for dict in dicts.iter_mut() {
        if pos + 4 > dict_end {
            return None;
        }
        let count = u32_le(data, pos) as usize;
        pos += 4;
        for _ in 0..count {
            if pos + 4 > dict_end {
                return None;
            }
            let len = u32_le(data, pos) as usize;
            pos += 4;
            if pos.checked_add(len)? > dict_end {
                return None;
            }
            dict.push(std::str::from_utf8(&data[pos..pos + len]).ok()?.to_string());
            pos += len;
        }
    }
    if pos != dict_end {
        return None;
    }
    let codes_base = dict_end + (INT_COLS + FLOAT_COLS) * 8 * rows;
    for (c, dict) in dicts.iter().enumerate() {
        for r in 0..rows {
            if u32_le(data, codes_base + (c * rows + r) * 4) as usize >= dict.len() {
                return None;
            }
        }
    }
    Some(BlockMeta {
        rows,
        cols: dict_end,
        zone: end - 8 - ZONE_BYTES,
        dicts,
    })
}

impl PartitionBuf {
    /// Parse a partition buffer. Never fails: an invalid or torn block ends
    /// the trusted region and everything before it stays readable.
    pub fn parse(data: Vec<u8>) -> Self {
        let mut blocks = Vec::new();
        let mut pos = 0usize;
        while let Some(meta) = parse_block(&data, pos) {
            pos = meta.zone + ZONE_BYTES + 8;
            blocks.push(meta);
        }
        PartitionBuf {
            data,
            blocks,
            trusted_len: pos,
        }
    }

    /// Read and parse a partition file.
    pub fn read(path: &Path) -> Result<Self, String> {
        let data = fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Ok(Self::parse(data))
    }

    /// Number of intact blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Rows in block `b`.
    pub fn block_rows(&self, b: usize) -> usize {
        self.blocks[b].rows
    }

    /// Total rows across all intact blocks.
    pub fn total_rows(&self) -> usize {
        self.blocks.iter().map(|m| m.rows).sum()
    }

    /// Byte length of the trusted prefix — where a crashed append tore the
    /// file. The writer truncates to this before appending again, so the
    /// next block is reachable.
    pub fn trusted_len(&self) -> usize {
        self.trusted_len
    }

    fn int_value(&self, b: usize, col: usize, r: usize) -> u64 {
        let m = &self.blocks[b];
        u64_le(&self.data, m.cols + (col * m.rows + r) * 8)
    }

    fn float_value(&self, b: usize, col: usize, r: usize) -> f64 {
        let m = &self.blocks[b];
        f64::from_bits(u64_le(
            &self.data,
            m.cols + ((INT_COLS + col) * m.rows + r) * 8,
        ))
    }

    fn dict_code(&self, b: usize, col: usize, r: usize) -> u32 {
        let m = &self.blocks[b];
        let base = m.cols + (INT_COLS + FLOAT_COLS) * 8 * m.rows;
        u32_le(&self.data, base + (col * m.rows + r) * 4)
    }

    fn flags(&self, b: usize, r: usize) -> u8 {
        let m = &self.blocks[b];
        self.data[m.cols + (INT_COLS + FLOAT_COLS) * 8 * m.rows + m.dicts.len() * 4 * m.rows + r]
    }

    fn dict_str(&self, b: usize, col: usize, code: u32) -> &str {
        &self.blocks[b].dicts[col][code as usize]
    }

    fn int_zone(&self, b: usize, col: usize) -> (u64, u64) {
        let off = self.blocks[b].zone + col * 16;
        (u64_le(&self.data, off), u64_le(&self.data, off + 8))
    }

    fn float_zone(&self, b: usize, col: usize) -> (f64, f64) {
        let off = self.blocks[b].zone + (INT_COLS + col) * 16;
        (
            f64::from_bits(u64_le(&self.data, off)),
            f64::from_bits(u64_le(&self.data, off + 8)),
        )
    }

    /// The cell index of row `r` in block `b` — the only column the scanner
    /// touches for rows it never decodes.
    pub fn cell_index(&self, b: usize, r: usize) -> usize {
        self.int_value(b, COL_INDEX, r) as usize
    }

    /// Resolve `filter` against block `b`'s dictionaries and zone maps.
    ///
    /// `None` proves **no row of the block can match**: a string criterion
    /// absent from the block's dictionary, or a numeric criterion outside
    /// the column's (min, max) zone. The conjunctive filter semantics make
    /// any single failing criterion sufficient.
    pub(crate) fn resolve_filter(&self, b: usize, filter: &RowFilter) -> Option<ResolvedRowFilter> {
        let find = |col: usize, needle: &str| -> Option<u32> {
            self.blocks[b].dicts[col]
                .iter()
                .position(|entry| entry == needle)
                .map(|i| i as u32)
        };
        let workload = match &filter.workload {
            None => None,
            Some(w) => Some(find(DCOL_WORKLOAD, w)?),
        };
        let scenario = match &filter.scenario {
            None => None,
            Some(s) => Some(find(DCOL_SCENARIO, s)?),
        };
        let window = match &filter.window {
            None => None,
            Some(w) => Some(find(DCOL_WINDOW, w)?),
        };
        let policy = match &filter.policy {
            None => None,
            Some(p) => Some(find(DCOL_POLICY, p)?),
        };
        // Schedule/faults criteria against an "APC3" block: every row of
        // such a block implicitly carries the "-" label, so a "-" criterion
        // is vacuously satisfied (unconstrained) and any other value proves
        // the block match-free. "APC4" blocks resolve through their
        // dictionaries like every other string column ("-" included — a
        // labelled block lists it whenever it holds label-free rows).
        let labelled = self.blocks[b].is_labelled();
        let schedule = match &filter.schedule {
            None => None,
            Some(s) if !labelled => {
                if s == "-" {
                    None
                } else {
                    return None;
                }
            }
            Some(s) => Some(find(DCOL_SCHEDULE, s)?),
        };
        let faults = match &filter.faults {
            None => None,
            Some(f) if !labelled => {
                if f == "-" {
                    None
                } else {
                    return None;
                }
            }
            Some(f) => Some(find(DCOL_FAULTS, f)?),
        };
        if let Some(r) = filter.racks {
            let (lo, hi) = self.int_zone(b, COL_RACKS);
            if lo > hi || (r as u64) < lo || (r as u64) > hi {
                return None;
            }
        }
        if let Some(s) = filter.seed {
            // The seed zone covers only rows whose seed is present; an
            // all-fixed-trace block has the empty (MAX, 0) zone.
            let (lo, hi) = self.int_zone(b, COL_SEED);
            if lo > hi || s < lo || s > hi {
                return None;
            }
        }
        if let Some(l) = filter.load_factor {
            // Load filters match by bit pattern; the zone map orders real
            // values, so it can only prune finite (non-NaN) criteria.
            if !l.is_nan() {
                let (lo, hi) = self.float_zone(b, FCOL_LOAD);
                if !(lo <= l && l <= hi) {
                    return None;
                }
            }
        }
        Some(ResolvedRowFilter {
            workload,
            scenario,
            window,
            policy,
            seed: filter.seed,
            load_bits: filter.load_factor.map(f64::to_bits),
            racks: filter.racks.map(|r| r as u64),
            schedule,
            faults,
        })
    }

    /// Does row `r` of block `b` pass the resolved filter? Equivalent to
    /// [`RowFilter::matches`] on the decoded row, without decoding it.
    pub(crate) fn matches(&self, b: usize, r: usize, rf: &ResolvedRowFilter) -> bool {
        rf.workload
            .is_none_or(|c| self.dict_code(b, DCOL_WORKLOAD, r) == c)
            && rf
                .scenario
                .is_none_or(|c| self.dict_code(b, DCOL_SCENARIO, r) == c)
            && rf
                .window
                .is_none_or(|c| self.dict_code(b, DCOL_WINDOW, r) == c)
            && rf
                .policy
                .is_none_or(|c| self.dict_code(b, DCOL_POLICY, r) == c)
            && rf.seed.is_none_or(|s| {
                self.flags(b, r) & FLAG_SEED_PRESENT != 0 && self.int_value(b, COL_SEED, r) == s
            })
            && rf
                .load_bits
                .is_none_or(|bits| self.float_value(b, FCOL_LOAD, r).to_bits() == bits)
            && rf
                .racks
                .is_none_or(|k| self.int_value(b, COL_RACKS, r) == k)
            && rf
                .schedule
                .is_none_or(|c| self.dict_code(b, DCOL_SCHEDULE, r) == c)
            && rf
                .faults
                .is_none_or(|c| self.dict_code(b, DCOL_FAULTS, r) == c)
    }

    /// Decode row `r` of block `b` into `row`, reusing its string buffers.
    pub fn decode_into(&self, b: usize, r: usize, row: &mut CellRow) {
        self.decode_into_projected(b, r, row, crate::query::Projection::ALL);
    }

    /// Decode only the columns `proj` selects into `row` — the column
    /// projection pushdown. Unprojected columns are never read from the
    /// column arrays and the corresponding fields of `row` keep whatever
    /// they held, so callers must only read projected fields.
    pub fn decode_into_projected(
        &self,
        b: usize,
        r: usize,
        row: &mut CellRow,
        proj: crate::query::Projection,
    ) {
        if proj.bit(Column::Index) {
            row.index = self.int_value(b, COL_INDEX, r) as usize;
        }
        if proj.bit(Column::Racks) {
            row.racks = self.int_value(b, COL_RACKS, r) as usize;
        }
        if proj.bit(Column::Seed) {
            row.seed =
                (self.flags(b, r) & FLAG_SEED_PRESENT != 0).then(|| self.int_value(b, COL_SEED, r));
        }
        if proj.bit(Column::LaunchedJobs) {
            row.launched_jobs = self.int_value(b, 3, r) as usize;
        }
        if proj.bit(Column::CompletedJobs) {
            row.completed_jobs = self.int_value(b, 4, r) as usize;
        }
        if proj.bit(Column::KilledJobs) {
            row.killed_jobs = self.int_value(b, 5, r) as usize;
        }
        if proj.bit(Column::PendingJobs) {
            row.pending_jobs = self.int_value(b, 6, r) as usize;
        }
        if proj.bit(Column::LoadFactor) {
            row.load_factor = self.float_value(b, 0, r);
        }
        if proj.bit(Column::CapPercent) {
            row.cap_percent = self.float_value(b, 1, r);
        }
        if proj.bit(Column::WorkCoreSeconds) {
            row.work_core_seconds = self.float_value(b, 2, r);
        }
        if proj.bit(Column::EnergyJoules) {
            row.energy_joules = self.float_value(b, 3, r);
        }
        if proj.bit(Column::EnergyNormalized) {
            row.energy_normalized = self.float_value(b, 4, r);
        }
        if proj.bit(Column::LaunchedJobsNormalized) {
            row.launched_jobs_normalized = self.float_value(b, 5, r);
        }
        if proj.bit(Column::WorkNormalized) {
            row.work_normalized = self.float_value(b, 6, r);
        }
        if proj.bit(Column::MeanWaitSeconds) {
            row.mean_wait_seconds = self.float_value(b, 7, r);
        }
        if proj.bit(Column::PeakPowerWatts) {
            row.peak_power_watts = self.float_value(b, 8, r);
        }
        // Skip the copy when the reused buffer already holds the value —
        // dictionary columns repeat heavily, so across a scan this is the
        // common case and the equality probe is cheaper than the write.
        let set = |dst: &mut String, src: &str| {
            if dst != src {
                dst.clear();
                dst.push_str(src);
            }
        };
        if proj.bit(Column::Workload) {
            set(
                &mut row.workload,
                self.dict_str(b, DCOL_WORKLOAD, self.dict_code(b, DCOL_WORKLOAD, r)),
            );
        }
        if proj.bit(Column::Scenario) {
            set(
                &mut row.scenario,
                self.dict_str(b, DCOL_SCENARIO, self.dict_code(b, DCOL_SCENARIO, r)),
            );
        }
        if proj.bit(Column::Window) {
            set(
                &mut row.window,
                self.dict_str(b, DCOL_WINDOW, self.dict_code(b, DCOL_WINDOW, r)),
            );
        }
        if proj.bit(Column::Policy) {
            set(
                &mut row.policy,
                self.dict_str(b, DCOL_POLICY, self.dict_code(b, DCOL_POLICY, r)),
            );
        }
        if proj.bit(Column::Grouping) {
            set(
                &mut row.grouping,
                self.dict_str(b, 4, self.dict_code(b, 4, r)),
            );
        }
        if proj.bit(Column::DecisionRule) {
            set(
                &mut row.decision_rule,
                self.dict_str(b, 5, self.dict_code(b, 5, r)),
            );
        }
        // An "APC3" block predates the label columns: every row carries
        // the implicit "-" labels.
        let labelled = self.blocks[b].is_labelled();
        if proj.bit(Column::Schedule) {
            set(
                &mut row.schedule,
                if labelled {
                    self.dict_str(b, DCOL_SCHEDULE, self.dict_code(b, DCOL_SCHEDULE, r))
                } else {
                    "-"
                },
            );
        }
        if proj.bit(Column::Faults) {
            set(
                &mut row.faults,
                if labelled {
                    self.dict_str(b, DCOL_FAULTS, self.dict_code(b, DCOL_FAULTS, r))
                } else {
                    "-"
                },
            );
        }
    }

    /// Decode row `r` of block `b` as a fresh [`CellRow`].
    pub fn decode(&self, b: usize, r: usize) -> CellRow {
        let mut row = CellRow::default();
        self.decode_into(b, r, &mut row);
        row
    }

    /// Decode every row of every intact block, in file order. Duplicate and
    /// untrusted-row filtering is the caller's job, exactly as with CSV
    /// partition lines.
    pub fn decode_all(&self) -> Vec<CellRow> {
        let mut rows = Vec::with_capacity(self.total_rows());
        for b in 0..self.block_count() {
            for r in 0..self.block_rows(b) {
                rows.push(self.decode(b, r));
            }
        }
        rows
    }
}

/// Field-by-field equality with floats compared by bit pattern (so NaN
/// payloads count) — the round-trip contract of the codec. Test helper.
pub fn rows_bit_identical(a: &CellRow, b: &CellRow) -> bool {
    Column::ALL
        .into_iter()
        .all(|c| a.field(c).same_bits(b.field(c)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(index: usize) -> CellRow {
        CellRow {
            index,
            racks: 1 + index % 3,
            workload: if index.is_multiple_of(2) {
                "medianjob"
            } else {
                "24h"
            }
            .into(),
            seed: (!index.is_multiple_of(5)).then_some(2012 + index as u64),
            load_factor: if index.is_multiple_of(7) {
                f64::NAN
            } else {
                1.8
            },
            scenario: format!("{}%/SHUT", 40 + 20 * (index % 3)),
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
            peak_power_watts: f64::INFINITY,
        }
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let rows: Vec<CellRow> = (0..40).map(row).collect();
        let block = encode_block(&rows);
        let buf = PartitionBuf::parse(block);
        assert_eq!(buf.block_count(), 1);
        assert_eq!(buf.block_rows(0), 40);
        assert_eq!(buf.trusted_len(), buf.data.len());
        for (r, original) in rows.iter().enumerate() {
            let decoded = buf.decode(0, r);
            assert!(
                rows_bit_identical(original, &decoded),
                "row {r}: {original:?} vs {decoded:?}"
            );
        }
    }

    #[test]
    fn multiple_appended_blocks_parse_as_a_sequence() {
        let mut data = Vec::new();
        for i in 0..5 {
            data.extend_from_slice(&encode_block(std::slice::from_ref(&row(i))));
        }
        let buf = PartitionBuf::parse(data);
        assert_eq!(buf.block_count(), 5);
        assert_eq!(buf.total_rows(), 5);
        for b in 0..5 {
            assert!(rows_bit_identical(&row(b), &buf.decode(b, 0)));
        }
    }

    #[test]
    fn truncation_at_any_length_drops_only_the_torn_tail() {
        let first = encode_block(&[row(0), row(1)]);
        let second = encode_block(&[row(2)]);
        let full: Vec<u8> = [first.clone(), second].concat();
        for keep in 0..full.len() {
            let buf = PartitionBuf::parse(full[..keep].to_vec());
            if keep < first.len() {
                assert_eq!(buf.block_count(), 0, "torn first block at {keep}");
                assert_eq!(buf.trusted_len(), 0);
            } else if keep < full.len() {
                assert_eq!(buf.block_count(), 1, "torn second block at {keep}");
                assert_eq!(buf.trusted_len(), first.len());
                assert!(rows_bit_identical(&row(1), &buf.decode(0, 1)));
            }
        }
        assert_eq!(PartitionBuf::parse(full).block_count(), 2);
    }

    #[test]
    fn corruption_anywhere_fails_the_checksum() {
        let block = encode_block(&[row(0), row(1), row(2)]);
        // Flip one bit at a sample of positions across the block: header,
        // dictionaries, columns, zone maps and checksum itself.
        for pos in (0..block.len()).step_by(7) {
            let mut bad = block.clone();
            bad[pos] ^= 0x10;
            let buf = PartitionBuf::parse(bad);
            assert_eq!(buf.block_count(), 0, "corruption at byte {pos} accepted");
        }
    }

    #[test]
    fn zone_maps_prune_blocks_that_cannot_match() {
        let rows: Vec<CellRow> = (0..10).map(row).collect();
        let buf = PartitionBuf::parse(encode_block(&rows));
        // Present label resolves; absent label proves no match.
        let hit = RowFilter {
            workload: Some("medianjob".into()),
            ..RowFilter::default()
        };
        assert!(buf.resolve_filter(0, &hit).is_some());
        let miss = RowFilter {
            workload: Some("bigjob".into()),
            ..RowFilter::default()
        };
        assert!(buf.resolve_filter(0, &miss).is_none());
        // Numeric zones: racks ∈ [1, 3], seeds ∈ [2013, 2021], load 1.8.
        for (filter, expect) in [
            (
                RowFilter {
                    racks: Some(2),
                    ..RowFilter::default()
                },
                true,
            ),
            (
                RowFilter {
                    racks: Some(9),
                    ..RowFilter::default()
                },
                false,
            ),
            (
                RowFilter {
                    seed: Some(2013),
                    ..RowFilter::default()
                },
                true,
            ),
            (
                RowFilter {
                    seed: Some(1),
                    ..RowFilter::default()
                },
                false,
            ),
            (
                RowFilter {
                    load_factor: Some(1.8),
                    ..RowFilter::default()
                },
                true,
            ),
            (
                RowFilter {
                    load_factor: Some(2.5),
                    ..RowFilter::default()
                },
                false,
            ),
        ] {
            assert_eq!(
                buf.resolve_filter(0, &filter).is_some(),
                expect,
                "{filter:?}"
            );
        }
        // An all-fixed-trace block has an empty seed zone: any seed filter
        // prunes it.
        let mut fixed = row(1);
        fixed.seed = None;
        let buf = PartitionBuf::parse(encode_block(&[fixed]));
        let by_seed = RowFilter {
            seed: Some(0),
            ..RowFilter::default()
        };
        assert!(buf.resolve_filter(0, &by_seed).is_none());
    }

    #[test]
    fn resolved_matches_agrees_with_row_filter_matches() {
        let rows: Vec<CellRow> = (0..20).map(row).collect();
        let buf = PartitionBuf::parse(encode_block(&rows));
        let filters = [
            RowFilter::default(),
            RowFilter {
                workload: Some("24h".into()),
                ..RowFilter::default()
            },
            RowFilter {
                seed: Some(2015),
                racks: Some(1),
                ..RowFilter::default()
            },
            RowFilter {
                load_factor: Some(1.8),
                policy: Some("shut".into()),
                ..RowFilter::default()
            },
            RowFilter {
                scenario: Some("60%/SHUT".into()),
                window: Some("7200+3600".into()),
                ..RowFilter::default()
            },
        ];
        for filter in &filters {
            match buf.resolve_filter(0, filter) {
                Some(rf) => {
                    for (r, original) in rows.iter().enumerate() {
                        assert_eq!(
                            buf.matches(0, r, &rf),
                            filter.matches(original),
                            "row {r} under {filter:?}"
                        );
                    }
                }
                None => {
                    assert!(
                        rows.iter().all(|r| !filter.matches(r)),
                        "pruned block contains a matching row for {filter:?}"
                    );
                }
            }
        }
    }

    fn labelled_row(index: usize) -> CellRow {
        let mut r = row(index);
        r.scenario = "SCHED/SHUT".into();
        r.schedule = if index.is_multiple_of(2) {
            "0+7200@80|7200+10800@40"
        } else {
            "-"
        }
        .into();
        r.faults = if index.is_multiple_of(3) {
            "-"
        } else {
            "3x600@7"
        }
        .into();
        r
    }

    #[test]
    fn label_free_blocks_keep_the_apc3_magic_and_labelled_ones_switch() {
        let legacy = encode_block(&[row(0), row(1)]);
        assert_eq!(&legacy[0..4], b"APC3");
        // The label columns contribute nothing to a label-free block: its
        // length is exactly the pre-refactor layout equation.
        let buf = PartitionBuf::parse(legacy.clone());
        assert_eq!(buf.block_count(), 1);
        assert_eq!(buf.blocks[0].dicts.len(), DICT_COLS);
        let labelled = encode_block(&[labelled_row(0)]);
        assert_eq!(&labelled[0..4], b"APC4");
        let buf = PartitionBuf::parse(labelled);
        assert_eq!(buf.blocks[0].dicts.len(), DICT_COLS_LABELLED);
    }

    #[test]
    fn labelled_blocks_round_trip_and_coexist_with_legacy_ones() {
        let mut data = encode_block(&[row(0), row(1)]);
        let labelled: Vec<CellRow> = (2..12).map(labelled_row).collect();
        data.extend_from_slice(&encode_block(&labelled));
        let buf = PartitionBuf::parse(data);
        assert_eq!(buf.block_count(), 2);
        // Legacy rows decode with "-" labels filled in…
        for r in 0..2 {
            let decoded = buf.decode(0, r);
            assert_eq!(decoded.schedule, "-");
            assert_eq!(decoded.faults, "-");
            assert!(rows_bit_identical(&row(r), &decoded));
        }
        // …and labelled rows round-trip bit-exactly, "-" entries included.
        for (r, original) in labelled.iter().enumerate() {
            let decoded = buf.decode(1, r);
            assert!(
                rows_bit_identical(original, &decoded),
                "row {r}: {original:?} vs {decoded:?}"
            );
        }
    }

    #[test]
    fn truncated_labelled_blocks_drop_like_legacy_ones() {
        let first = encode_block(&[labelled_row(0), labelled_row(1)]);
        let second = encode_block(&[labelled_row(2)]);
        let full: Vec<u8> = [first.clone(), second].concat();
        for keep in (0..full.len()).step_by(3) {
            let buf = PartitionBuf::parse(full[..keep].to_vec());
            if keep < first.len() {
                assert_eq!(buf.block_count(), 0, "torn first block at {keep}");
            } else {
                assert_eq!(buf.block_count(), 1, "torn second block at {keep}");
                assert_eq!(buf.trusted_len(), first.len());
            }
        }
    }

    #[test]
    fn schedule_and_fault_filters_resolve_per_block_kind() {
        // On an "APC3" block: "-" is vacuously true, anything else prunes.
        let legacy = PartitionBuf::parse(encode_block(&[row(0), row(1)]));
        let dash = RowFilter {
            schedule: Some("-".into()),
            faults: Some("-".into()),
            ..RowFilter::default()
        };
        let rf = legacy.resolve_filter(0, &dash).expect("dash resolves");
        assert!(rf.is_unconstrained());
        assert!(legacy.matches(0, 0, &rf));
        let sched = RowFilter {
            schedule: Some("0+7200@80".into()),
            ..RowFilter::default()
        };
        assert!(legacy.resolve_filter(0, &sched).is_none());
        let fault = RowFilter {
            faults: Some("3x600@7".into()),
            ..RowFilter::default()
        };
        assert!(legacy.resolve_filter(0, &fault).is_none());
        // On an "APC4" block the resolved matches agree with the decoded
        // RowFilter::matches for every row.
        let rows: Vec<CellRow> = (0..12).map(labelled_row).collect();
        let buf = PartitionBuf::parse(encode_block(&rows));
        for filter in [
            dash,
            RowFilter {
                schedule: Some("0+7200@80|7200+10800@40".into()),
                ..RowFilter::default()
            },
            RowFilter {
                faults: Some("3x600@7".into()),
                ..RowFilter::default()
            },
            RowFilter {
                schedule: Some("absent".into()),
                ..RowFilter::default()
            },
        ] {
            match buf.resolve_filter(0, &filter) {
                Some(rf) => {
                    for (r, original) in rows.iter().enumerate() {
                        assert_eq!(
                            buf.matches(0, r, &rf),
                            filter.matches(original),
                            "row {r} under {filter:?}"
                        );
                    }
                }
                None => assert!(
                    rows.iter().all(|r| !filter.matches(r)),
                    "pruned block contains a match for {filter:?}"
                ),
            }
        }
    }

    #[test]
    fn projected_decode_touches_only_the_selected_columns() {
        let rows: Vec<CellRow> = (0..4).map(labelled_row).collect();
        let buf = PartitionBuf::parse(encode_block(&rows));
        let proj = crate::query::Projection::of(&[
            "index".to_string(),
            "energy_joules".to_string(),
            "schedule".to_string(),
        ])
        .unwrap();
        let mut scratch = CellRow {
            workload: "sentinel".into(),
            launched_jobs: usize::MAX,
            ..CellRow::default()
        };
        for (r, original) in rows.iter().enumerate() {
            buf.decode_into_projected(0, r, &mut scratch, proj);
            assert_eq!(scratch.index, original.index);
            assert_eq!(
                scratch.energy_joules.to_bits(),
                original.energy_joules.to_bits()
            );
            assert_eq!(scratch.schedule, original.schedule);
            // Unprojected fields are untouched.
            assert_eq!(scratch.workload, "sentinel");
            assert_eq!(scratch.launched_jobs, usize::MAX);
        }
        // Projection::ALL is exactly decode_into.
        let mut full = CellRow::default();
        buf.decode_into_projected(0, 2, &mut full, crate::query::Projection::ALL);
        assert!(rows_bit_identical(&rows[2], &full));
    }

    #[test]
    fn each_column_decodes_alone_and_leaves_the_other_23_untouched() {
        use crate::query::Projection;
        // A row differing from every encoded row in every column.
        let sentinel = CellRow {
            index: usize::MAX,
            racks: usize::MAX,
            workload: "sentinel".into(),
            seed: Some(u64::MAX),
            load_factor: -1.0,
            scenario: "sentinel".into(),
            window: "sentinel".into(),
            policy: "sentinel".into(),
            cap_percent: -1.0,
            grouping: "sentinel".into(),
            decision_rule: "sentinel".into(),
            schedule: "sentinel".into(),
            faults: "sentinel".into(),
            launched_jobs: usize::MAX,
            completed_jobs: usize::MAX,
            killed_jobs: usize::MAX,
            pending_jobs: usize::MAX,
            work_core_seconds: -1.0,
            energy_joules: -1.0,
            energy_normalized: -1.0,
            launched_jobs_normalized: -1.0,
            work_normalized: -1.0,
            mean_wait_seconds: -1.0,
            peak_power_watts: -1.0,
        };
        // Both block layouts: "APC3" (labels implicit) and "APC4".
        let plain: Vec<CellRow> = (0..6).map(row).collect();
        let labelled: Vec<CellRow> = (0..6).map(labelled_row).collect();
        for rows in [plain, labelled] {
            let buf = PartitionBuf::parse(encode_block(&rows));
            for column in Column::ALL {
                let proj: Projection = [column].into_iter().collect();
                assert_eq!(proj.len(), 1);
                assert!(proj.bit(column) && !proj.is_all());
                for (r, original) in rows.iter().enumerate() {
                    let mut scratch = sentinel.clone();
                    buf.decode_into_projected(0, r, &mut scratch, proj);
                    assert!(
                        !sentinel.field(column).same_bits(original.field(column)),
                        "the sentinel must differ in {column:?}"
                    );
                    assert!(
                        scratch.field(column).same_bits(original.field(column)),
                        "{column:?} of row {r} decoded as {:?}",
                        scratch.field(column)
                    );
                    for other in Column::ALL.into_iter().filter(|&c| c != column) {
                        assert!(
                            scratch.field(other).same_bits(sentinel.field(other)),
                            "projecting {column:?} overwrote {other:?}"
                        );
                    }
                }
            }
        }
        // The projection API over the same table.
        let all = Projection::ALL;
        assert!(all.is_all());
        assert_eq!(all.len(), Column::ALL.len());
        assert!(Column::ALL.into_iter().all(|c| all.bit(c)));
        let narrow = Projection::of(&["index".to_string(), "faults".to_string()]).unwrap();
        assert!(narrow.bit(Column::Index) && narrow.bit(Column::Faults));
        assert!(!narrow.bit(Column::Workload) && !narrow.is_all());
        assert_eq!(narrow.len(), 2);
        assert!(Projection::of(&[]).unwrap().is_empty());
        assert!(Projection::of(&["nope".to_string()])
            .unwrap_err()
            .contains("unknown column"));
    }

    #[test]
    fn foreign_bytes_parse_as_zero_blocks() {
        assert_eq!(PartitionBuf::parse(Vec::new()).block_count(), 0);
        assert_eq!(
            PartitionBuf::parse(b"not a partition".to_vec()).block_count(),
            0
        );
        let csvish = b"index,racks,workload\n1,2,medianjob\n".to_vec();
        assert_eq!(PartitionBuf::parse(csvish).block_count(), 0);
    }
}
