//! The append-only batch-lease log coordinating multi-process campaigns.
//!
//! `campaign --distributed` runs N independent OS processes over one result
//! store. They coordinate through `leases.log` beside the manifest: the
//! cell grid is cut into fixed-aligned batches of `lease_cells` contiguous
//! indices (batch `b` covers `[b * lease_cells, (b+1) * lease_cells)`), and
//! every batch moves through a tiny lease protocol recorded as append-only
//! text lines:
//!
//! ```text
//! apc-campaign-leases 1 <spec-hash> <total-cells> <lease-cells> <ttl-ms>
//! claim <batch> <worker> <t-ms> <deadline-ms>
//! renew <batch> <worker> <t-ms> <deadline-ms>
//! done <batch> <worker> <t-ms>
//! ```
//!
//! The log is the *only* shared mutable state, and its semantics are a
//! deterministic replay of the records in file order (every process parses
//! the same bytes, so every process agrees on ownership):
//!
//! * `claim` takes effect iff the batch is free, or its current lease had
//!   **already expired at the claim's own timestamp** (that claim is a
//!   *steal*). A claim against a live lease is void — in particular, a
//!   stale claim can never shadow a newer `renew`, because the renew moved
//!   the deadline past the claim's timestamp *earlier in the file*.
//! * `renew` (the heartbeat) extends the deadline iff it comes from the
//!   batch's current holder; anyone else's renew is void.
//! * `done` retires the batch permanently iff it comes from the current
//!   holder. Done is terminal: later claims are void.
//!
//! Writers never coordinate: each appends one complete line per record with
//! a single `O_APPEND` write (atomic on local Linux filesystems), then
//! re-reads the log to learn whether its claim actually took effect —
//! losing the race is detected, not prevented, and answered with jittered
//! exponential [`Backoff`]. The log follows the store manifest's torn-tail
//! rule ([`crate::store`]): truncation at any byte replays as a clean
//! prefix of intact records (pinned by `tests/lease_log.rs`), and a line
//! that is no intact record (fused with another) is skipped.
//!
//! Liveness: a worker that is `kill -9`'d or hangs stops renewing, its
//! lease's deadline passes, and any other worker steals the batch. The
//! cells the dead worker already recorded are in the manifest `done` set,
//! so the stealer re-executes only the unrecorded remainder — and because
//! every cell's row is a pure function of the cell, even a duplicated
//! execution (an alive-but-slow holder racing its stealer) appends
//! byte-identical rows, which last-wins duplicate resolution collapses.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use apc_workload::rng::SplitMix64;

use crate::linelog::LineLog;
use crate::store::MAX_STORE_CELLS;

/// Name of the lease log inside a store directory.
pub const LEASES_NAME: &str = "leases.log";

/// Lease-log format magic + version, the first line.
const LEASES_MAGIC: &str = "apc-campaign-leases";

/// Lease-log format version.
const LEASES_VERSION: u32 = 1;

/// Default batch size: thousands of ~9 ms cells per lease, so coordination
/// (one claim + a few renews per batch) is amortised over tens of seconds
/// of execution.
pub const DEFAULT_LEASE_CELLS: usize = 4096;

/// The most batches one lease log tracks: the bound on the per-batch table
/// every reader sizes from the header (40 B a batch, so 40 MiB). It admits
/// the largest store, [`MAX_STORE_CELLS`] cells, at the default
/// [`DEFAULT_LEASE_CELLS`]-cell lease.
pub const MAX_LEASE_BATCHES: usize = 1 << 20;

/// Default lease TTL. Workers heartbeat at half the TTL, so a lease is
/// stolen between one and one-and-a-half TTLs after its holder dies.
pub const DEFAULT_LEASE_TTL_MS: u64 = 30_000;

/// Milliseconds since the UNIX epoch — the lease clock. All workers run on
/// one host (or a shared-clock cluster), so wall-clock comparisons between
/// records are meaningful.
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The lease state of one batch, after replaying the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchLease {
    /// Never successfully claimed (or every claim so far was void).
    Free,
    /// Currently leased.
    Held {
        /// The holder's worker id.
        worker: usize,
        /// When the current holder acquired it (claim timestamp, ms).
        since_ms: u64,
        /// Lease expiry (ms); a claim at `t >= deadline_ms` steals it.
        deadline_ms: u64,
        /// Timestamp of the holder's last claim/renew (heartbeat age).
        beat_ms: u64,
        /// How many times this batch's lease has been stolen so far.
        steals: u32,
    },
    /// Executed to completion and retired.
    Done {
        /// The worker that completed it.
        worker: usize,
        /// How many times the lease was stolen before completion.
        steals: u32,
    },
}

/// Per-worker activity counters derived from the log replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerLeaseStats {
    /// Claims that took effect (fresh batches plus steals).
    pub claims: usize,
    /// Of those, claims over an expired lease (steals).
    pub steals: usize,
    /// Accepted heartbeat renews.
    pub renews: usize,
    /// Claims that were void (lost race against a live lease).
    pub voided: usize,
    /// Batches this worker marked done.
    pub batches_done: usize,
    /// Timestamp of the worker's last accepted record (ms).
    pub last_seen_ms: u64,
}

/// The deterministic replay of a lease log's records: every reader of the
/// same byte prefix computes the same state. This is the pure core — no
/// I/O — that `tests/lease_log.rs` property-tests directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseState {
    batches: Vec<BatchLease>,
    workers: BTreeMap<usize, WorkerLeaseStats>,
}

impl LeaseState {
    /// A fresh state of `batch_count` free batches.
    pub fn new(batch_count: usize) -> Self {
        LeaseState {
            batches: vec![BatchLease::Free; batch_count],
            workers: BTreeMap::new(),
        }
    }

    /// Replay complete record lines in order (unparseable lines are
    /// skipped, like torn manifest lines).
    pub fn replay<'a>(batch_count: usize, lines: impl IntoIterator<Item = &'a str>) -> Self {
        let mut state = LeaseState::new(batch_count);
        for line in lines {
            state.apply_line(line);
        }
        state
    }

    /// Apply one record line; returns `false` when the line is not an
    /// intact record (torn/merged/unknown — skipped) or the record was
    /// void under the replay rules.
    pub fn apply_line(&mut self, line: &str) -> bool {
        let mut words = line.split_whitespace();
        let kind = words.next();
        let mut num = |_: &str| words.next().and_then(|w| w.parse::<u64>().ok());
        match kind {
            Some("claim") => {
                let (Some(batch), Some(worker), Some(t), Some(deadline)) =
                    (num("batch"), num("worker"), num("t"), num("deadline"))
                else {
                    return false;
                };
                self.apply_claim(batch as usize, worker as usize, t, deadline)
            }
            Some("renew") => {
                let (Some(batch), Some(worker), Some(t), Some(deadline)) =
                    (num("batch"), num("worker"), num("t"), num("deadline"))
                else {
                    return false;
                };
                self.apply_renew(batch as usize, worker as usize, t, deadline)
            }
            Some("done") => {
                let (Some(batch), Some(worker), Some(t)) = (num("batch"), num("worker"), num("t"))
                else {
                    return false;
                };
                self.apply_done(batch as usize, worker as usize, t)
            }
            _ => false,
        }
    }

    fn stats(&mut self, worker: usize) -> &mut WorkerLeaseStats {
        self.workers.entry(worker).or_default()
    }

    fn apply_claim(&mut self, batch: usize, worker: usize, t: u64, deadline: u64) -> bool {
        let Some(lease) = self.batches.get_mut(batch) else {
            return false;
        };
        let (accepted, stolen) = match *lease {
            BatchLease::Free => (true, false),
            // The holder re-claiming its own batch is a heartbeat.
            BatchLease::Held { worker: w, .. } if w == worker => (true, false),
            // Expired at the claim's own timestamp: the claim is a steal.
            BatchLease::Held { deadline_ms, .. } => (deadline_ms <= t, deadline_ms <= t),
            BatchLease::Done { .. } => (false, false),
        };
        if !accepted {
            let s = self.stats(worker);
            s.voided += 1;
            return false;
        }
        let steals = match *lease {
            BatchLease::Held { steals, .. } => steals + u32::from(stolen),
            _ => 0,
        };
        *lease = BatchLease::Held {
            worker,
            since_ms: t,
            deadline_ms: deadline,
            beat_ms: t,
            steals,
        };
        let s = self.stats(worker);
        s.claims += 1;
        s.steals += usize::from(stolen);
        s.last_seen_ms = s.last_seen_ms.max(t);
        true
    }

    fn apply_renew(&mut self, batch: usize, worker: usize, t: u64, deadline: u64) -> bool {
        let Some(lease) = self.batches.get_mut(batch) else {
            return false;
        };
        match lease {
            BatchLease::Held {
                worker: w,
                deadline_ms,
                beat_ms,
                ..
            } if *w == worker => {
                *deadline_ms = deadline;
                *beat_ms = t;
                let s = self.stats(worker);
                s.renews += 1;
                s.last_seen_ms = s.last_seen_ms.max(t);
                true
            }
            _ => false,
        }
    }

    fn apply_done(&mut self, batch: usize, worker: usize, t: u64) -> bool {
        let Some(lease) = self.batches.get_mut(batch) else {
            return false;
        };
        match *lease {
            BatchLease::Held {
                worker: w, steals, ..
            } if w == worker => {
                *lease = BatchLease::Done { worker, steals };
                let s = self.stats(worker);
                s.batches_done += 1;
                s.last_seen_ms = s.last_seen_ms.max(t);
                true
            }
            _ => false,
        }
    }

    /// The per-batch lease states, indexed by batch.
    pub fn batches(&self) -> &[BatchLease] {
        &self.batches
    }

    /// The current holder of `batch`, if it is held.
    pub fn owner(&self, batch: usize) -> Option<usize> {
        match self.batches.get(batch) {
            Some(BatchLease::Held { worker, .. }) => Some(*worker),
            _ => None,
        }
    }

    /// Every batch retired?
    pub fn all_done(&self) -> bool {
        self.batches
            .iter()
            .all(|b| matches!(b, BatchLease::Done { .. }))
    }

    /// Count of retired batches.
    pub fn done_count(&self) -> usize {
        self.batches
            .iter()
            .filter(|b| matches!(b, BatchLease::Done { .. }))
            .count()
    }

    /// Total accepted steals across all batches (live and retired).
    pub fn total_steals(&self) -> usize {
        self.workers.values().map(|w| w.steals).sum()
    }

    /// Per-worker counters, keyed by worker id.
    pub fn worker_stats(&self) -> &BTreeMap<usize, WorkerLeaseStats> {
        &self.workers
    }

    /// What `worker` should do next, judged at time `now_ms`.
    ///
    /// Preference order: finish a batch it already holds; claim a free
    /// batch; steal an expired one; otherwise wait for the earliest live
    /// deadline. Free/expired candidates are picked at a worker-dependent
    /// offset so concurrent workers spread over different batches instead
    /// of all racing for the lowest index (losers would back off and retry
    /// — correct, just slower).
    pub fn next_action(&self, worker: usize, now_ms: u64) -> LeaseAction {
        let mut free = Vec::new();
        let mut expired = Vec::new();
        let mut earliest_live: Option<u64> = None;
        for (b, lease) in self.batches.iter().enumerate() {
            match *lease {
                BatchLease::Free => free.push(b),
                BatchLease::Held {
                    worker: w,
                    deadline_ms,
                    ..
                } => {
                    if w == worker {
                        // Our own live lease (a retried loop iteration):
                        // go finish it, no new claim record needed.
                        return LeaseAction::Claim {
                            batch: b,
                            steal: false,
                        };
                    }
                    if deadline_ms <= now_ms {
                        expired.push(b);
                    } else {
                        earliest_live =
                            Some(earliest_live.map_or(deadline_ms, |e| e.min(deadline_ms)));
                    }
                }
                BatchLease::Done { .. } => {}
            }
        }
        if !free.is_empty() {
            return LeaseAction::Claim {
                batch: free[worker % free.len()],
                steal: false,
            };
        }
        if !expired.is_empty() {
            return LeaseAction::Claim {
                batch: expired[worker % expired.len()],
                steal: true,
            };
        }
        match earliest_live {
            Some(deadline) => LeaseAction::Wait {
                ms: deadline.saturating_sub(now_ms).max(50),
            },
            None => LeaseAction::Finished,
        }
    }

    /// The human lease-state summary `campaign report` and the distributed
    /// coordinator print: batch totals, stolen ranges, and per-worker
    /// heartbeat ages judged at `now_ms`.
    pub fn render(&self, lease_cells: usize, total_cells: usize, now_ms: u64) -> String {
        let mut active = 0usize;
        let mut expired = 0usize;
        let mut stolen_ranges: Vec<String> = Vec::new();
        for (b, lease) in self.batches.iter().enumerate() {
            let range_label = |b: usize| {
                format!(
                    "[{}, {})",
                    b * lease_cells,
                    ((b + 1) * lease_cells).min(total_cells)
                )
            };
            match *lease {
                BatchLease::Held {
                    deadline_ms,
                    steals,
                    ..
                } => {
                    if deadline_ms <= now_ms {
                        expired += 1;
                    } else {
                        active += 1;
                    }
                    if steals > 0 {
                        stolen_ranges.push(range_label(b));
                    }
                }
                BatchLease::Done { steals, .. } if steals > 0 => {
                    stolen_ranges.push(range_label(b));
                }
                _ => {}
            }
        }
        let mut out = format!(
            "leases: {} batch(es) of {} cell(s): {} done, {active} active, \
             {expired} expired, {} steal(s)\n",
            self.batches.len(),
            lease_cells,
            self.done_count(),
            self.total_steals(),
        );
        if !stolen_ranges.is_empty() {
            out.push_str(&format!(
                "  stolen cell range(s): {}\n",
                stolen_ranges.join(", ")
            ));
        }
        for (worker, s) in &self.workers {
            let beat = if s.last_seen_ms == 0 {
                "never".to_string()
            } else {
                format!(
                    "{:.1} s ago",
                    now_ms.saturating_sub(s.last_seen_ms) as f64 / 1e3
                )
            };
            out.push_str(&format!(
                "  w{worker}: {} claim(s) ({} stolen, {} voided), {} renew(s), \
                 {} batch(es) done, heartbeat {beat}\n",
                s.claims, s.steals, s.voided, s.renews, s.batches_done,
            ));
        }
        out
    }
}

/// What a worker's lease loop should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseAction {
    /// Append a claim for this batch (a steal when `steal`), verify, and
    /// execute it on success.
    Claim {
        /// The batch to claim.
        batch: usize,
        /// Whether the claim rides over an expired lease.
        steal: bool,
    },
    /// Every batch is leased and live: sleep about this long and re-check.
    Wait {
        /// Suggested sleep, ms (until the earliest live deadline).
        ms: u64,
    },
    /// Every batch is done: the campaign is complete.
    Finished,
}

/// The parsed lease-log header: the geometry every worker must agree on.
/// `lease_cells` and `ttl_ms` live here (written once by the coordinator),
/// not in per-worker flags, so workers cannot disagree about batch
/// boundaries or expiry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseHeader {
    /// The campaign's spec fingerprint; every worker validates its own
    /// grid against it before claiming anything.
    pub spec_hash: u64,
    /// Total cells of the expanded grid.
    pub total_cells: usize,
    /// Cells per lease batch.
    pub lease_cells: usize,
    /// Lease time-to-live, ms.
    pub ttl_ms: u64,
}

impl LeaseHeader {
    /// Number of lease batches (the last one may be short).
    pub fn batch_count(&self) -> usize {
        self.total_cells.div_ceil(self.lease_cells)
    }

    /// The cell-index range of `batch`.
    pub fn batch_range(&self, batch: usize) -> std::ops::Range<usize> {
        let start = batch * self.lease_cells;
        start..((start + self.lease_cells).min(self.total_cells))
    }
}

/// Refuse a geometry past the store's cell limit or the lease log's batch
/// limit, before anything is sized from it. `lease_cells` is at least 1.
fn check_geometry(total_cells: usize, lease_cells: usize) -> Result<(), String> {
    let batches = total_cells.div_ceil(lease_cells);
    if total_cells > MAX_STORE_CELLS {
        Err(format!(
            "{total_cells} cells exceed the limit of {MAX_STORE_CELLS} cells per store"
        ))
    } else if batches > MAX_LEASE_BATCHES {
        Err(format!(
            "{total_cells} cells in {lease_cells}-cell leases are {batches} batches, more than \
             the {MAX_LEASE_BATCHES} a lease log tracks (leases of {} cells or more fit)",
            total_cells.div_ceil(MAX_LEASE_BATCHES)
        ))
    } else {
        Ok(())
    }
}

/// A handle on `leases.log`: an `O_APPEND` writer plus an incremental
/// reader that replays new records into a [`LeaseState`].
#[derive(Debug)]
pub struct LeaseLog {
    log: LineLog,
    header: LeaseHeader,
    state: LeaseState,
}

impl LeaseLog {
    /// Create a fresh lease log in `dir` (truncating any previous one —
    /// stale leases from an earlier run must not outlive it; completed
    /// cells are protected by the manifest, not the lease log).
    ///
    /// A geometry [`open`](Self::open) would refuse — more than
    /// [`MAX_STORE_CELLS`] cells, or more than [`MAX_LEASE_BATCHES`]
    /// batches — is refused before anything is written, so every log this
    /// writes opens again.
    pub fn create(
        dir: &Path,
        spec_hash: u64,
        total_cells: usize,
        lease_cells: usize,
        ttl_ms: u64,
    ) -> Result<(), String> {
        if lease_cells == 0 {
            return Err("--lease-cells must be >= 1".into());
        }
        if ttl_ms == 0 {
            return Err("--lease-ttl must be > 0".into());
        }
        check_geometry(total_cells, lease_cells)
            .map_err(|e| format!("--lease-cells {lease_cells}: {e}"))?;
        let path = dir.join(LEASES_NAME);
        let header = format!(
            "{LEASES_MAGIC} {LEASES_VERSION} {spec_hash:016x} {total_cells} {lease_cells} {ttl_ms}\n"
        );
        LineLog::create(&path, &header)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(())
    }

    /// Open an existing lease log, parse its header, and replay the
    /// records present so far. A header whose geometry
    /// [`create`](Self::create) would refuse is an error before the
    /// per-batch table is sized from it, and so is a header torn before
    /// its newline.
    pub fn open(dir: &Path) -> Result<Self, String> {
        let (log, text) = LineLog::open(&dir.join(LEASES_NAME))?;
        let mut lines = text.lines();
        let header_line = lines.next().unwrap_or("");
        let mut words = header_line.split_whitespace();
        if words.next() != Some(LEASES_MAGIC) {
            return Err(format!(
                "{} is not a campaign lease log (bad magic line {header_line:?})",
                log.path.display()
            ));
        }
        let version: u32 = words
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("lease log header {header_line:?} has no version"))?;
        if version != LEASES_VERSION {
            return Err(format!(
                "lease log version {version} is not the supported {LEASES_VERSION}"
            ));
        }
        let spec_hash = words
            .next()
            .and_then(|v| u64::from_str_radix(v, 16).ok())
            .ok_or_else(|| format!("lease log header {header_line:?} has no spec hash"))?;
        let mut num = || words.next().and_then(|v| v.parse::<u64>().ok());
        let (Some(total_cells), Some(lease_cells), Some(ttl_ms)) = (num(), num(), num()) else {
            return Err(format!(
                "lease log header {header_line:?} is missing geometry fields"
            ));
        };
        if lease_cells == 0 || ttl_ms == 0 {
            return Err(format!(
                "lease log header {header_line:?} has zero geometry"
            ));
        }
        let header = LeaseHeader {
            spec_hash,
            total_cells: total_cells as usize,
            lease_cells: lease_cells as usize,
            ttl_ms,
        };
        check_geometry(header.total_cells, header.lease_cells)
            .map_err(|e| format!("lease log header {header_line:?}: {e}"))?;
        Ok(LeaseLog {
            state: LeaseState::replay(header.batch_count(), lines),
            header,
            log,
        })
    }

    /// Disable (or re-enable) fsync on record appends — the `--no-sync`
    /// escape hatch for tests and benches.
    pub fn set_sync(&mut self, sync: bool) {
        self.log.sync = sync;
    }

    /// The header geometry.
    pub fn header(&self) -> &LeaseHeader {
        &self.header
    }

    /// Check the lease log belongs to this campaign before claiming into it.
    pub fn validate_spec(&self, spec_hash: u64, total_cells: usize) -> Result<(), String> {
        if self.header.spec_hash != spec_hash {
            return Err(format!(
                "lease log at {} was created for a different campaign spec \
                 (recorded fingerprint {:016x}, this worker's grid {spec_hash:016x}) — \
                 every worker must run the exact grid flags the coordinator used",
                self.log.path.display(),
                self.header.spec_hash,
            ));
        }
        if self.header.total_cells != total_cells {
            return Err(format!(
                "lease log at {} records {} cells but this worker's grid expands to \
                 {total_cells}",
                self.log.path.display(),
                self.header.total_cells,
            ));
        }
        Ok(())
    }

    /// The replayed lease state as of the last [`refresh`](Self::refresh).
    pub fn state(&self) -> &LeaseState {
        &self.state
    }

    /// Read records appended since the last refresh (by this or any other
    /// process) and fold them into the state. Only complete lines are
    /// read; a partial last line waits for the refresh after it completes.
    /// A log now shorter than this handle has read was created again, by
    /// another coordinator: the handle stops there.
    pub fn refresh(&mut self) -> Result<(), String> {
        let (replaced, text) = self.log.read()?;
        if replaced {
            return Err(format!("{} was created again", self.log.path.display()));
        }
        for line in text.lines() {
            self.state.apply_line(line);
        }
        Ok(())
    }

    /// Append one record line with a single `O_APPEND` write, starting a
    /// fresh line if the log read so far ends inside one. The caller must
    /// [`refresh`](Self::refresh) afterwards and re-check ownership —
    /// appending is not winning.
    fn append_record(&mut self, record: std::fmt::Arguments) -> Result<(), String> {
        self.log
            .append(record)
            .map_err(|e| format!("cannot append to {}: {e}", self.log.path.display()))
    }

    /// Append a claim for `batch` by `worker`, valid until `now + ttl`.
    pub fn append_claim(&mut self, batch: usize, worker: usize, now_ms: u64) -> Result<(), String> {
        let deadline = now_ms + self.header.ttl_ms;
        self.append_record(format_args!("claim {batch} {worker} {now_ms} {deadline}"))
    }

    /// Append a heartbeat renew for `batch` by `worker`.
    pub fn append_renew(&mut self, batch: usize, worker: usize, now_ms: u64) -> Result<(), String> {
        let deadline = now_ms + self.header.ttl_ms;
        self.append_record(format_args!("renew {batch} {worker} {now_ms} {deadline}"))
    }

    /// Append a completion record for `batch` by `worker`.
    pub fn append_done(&mut self, batch: usize, worker: usize, now_ms: u64) -> Result<(), String> {
        self.append_record(format_args!("done {batch} {worker} {now_ms}"))
    }
}

/// Jittered exponential backoff for lost claim races: each delay's
/// ceiling grows `base * 2^attempt` up to the cap, and the delay is drawn
/// from `[ceiling/2, ceiling]` ("equal jitter": half the ceiling fixed,
/// half random), so two workers that lose the same race do not retry in
/// lockstep. Purely a function of the seed and the attempt counter.
#[derive(Debug)]
pub struct Backoff {
    rng: SplitMix64,
    attempt: u32,
    base_ms: u64,
    cap_ms: u64,
}

impl Backoff {
    /// A backoff seeded by `seed` (use the worker id), starting at
    /// `base_ms` and capped at `cap_ms` per delay.
    pub fn new(seed: u64, base_ms: u64, cap_ms: u64) -> Self {
        Backoff {
            rng: SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15),
            attempt: 0,
            base_ms: base_ms.max(1),
            cap_ms: cap_ms.max(1),
        }
    }

    /// The next delay: exponential with equal jitter, in
    /// `[ceiling/2, ceiling]` for this attempt's capped ceiling.
    pub fn next_delay(&mut self) -> Duration {
        let ceiling = self
            .base_ms
            .saturating_mul(1 << self.attempt.min(10))
            .min(self.cap_ms);
        self.attempt = self.attempt.saturating_add(1);
        let half = ceiling / 2;
        Duration::from_millis(half + self.rng.range(0..half + 1))
    }

    /// Reset after a won race.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("apc-lease-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn header_round_trips_and_validates() {
        let dir = temp_dir("header");
        LeaseLog::create(&dir, 0xabcd, 1000, 64, 5_000).unwrap();
        let log = LeaseLog::open(&dir).unwrap();
        assert_eq!(
            *log.header(),
            LeaseHeader {
                spec_hash: 0xabcd,
                total_cells: 1000,
                lease_cells: 64,
                ttl_ms: 5_000,
            }
        );
        assert_eq!(log.header().batch_count(), 16);
        assert_eq!(log.header().batch_range(15), 960..1000);
        log.validate_spec(0xabcd, 1000).unwrap();
        assert!(log.validate_spec(0xdead, 1000).is_err());
        assert!(log.validate_spec(0xabcd, 999).is_err());
        assert!(LeaseLog::create(&dir, 1, 10, 0, 5_000).is_err());
        assert!(LeaseLog::create(&dir, 1, 10, 4, 0).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Headers that once crashed every reader — `capacity overflow` and a
    /// 4 TB allocation — are clean errors, and `create` refuses the same
    /// geometry with a hint at `--lease-cells`.
    #[test]
    fn oversized_geometry_is_refused_before_the_batch_table_is_sized() {
        let dir = temp_dir("huge-header");
        for cells in ["18446744073709551615", "100000000000"] {
            fs::write(
                dir.join(LEASES_NAME),
                format!("{LEASES_MAGIC} 1 000000000000abcd {cells} 1 30000\n"),
            )
            .unwrap();
            let err = LeaseLog::open(&dir).unwrap_err();
            assert!(
                err.contains(&format!("{cells} cells exceed the limit")),
                "{err}"
            );
        }
        let err = LeaseLog::create(&dir, 1, MAX_LEASE_BATCHES + 1, 1, 5_000).unwrap_err();
        assert!(
            err.starts_with("--lease-cells 1: ")
                && err.contains("more than the 1048576 a lease log tracks")
                && err.contains("leases of 2 cells or more fit"),
            "{err}"
        );
        let err = LeaseLog::create(&dir, 1, MAX_STORE_CELLS + 1, 4096, 5_000).unwrap_err();
        assert!(err.contains("--lease-cells 4096"), "{err}");
        // The largest store at the default lease is exactly the bound.
        LeaseLog::create(&dir, 1, MAX_STORE_CELLS, DEFAULT_LEASE_CELLS, 5_000).unwrap();
        let log = LeaseLog::open(&dir).unwrap();
        assert_eq!(log.header().batch_count(), MAX_LEASE_BATCHES);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn claim_renew_done_lifecycle() {
        let mut s = LeaseState::new(2);
        assert!(s.apply_line("claim 0 1 100 600"));
        assert_eq!(s.owner(0), Some(1));
        // A rival claim against the live lease is void…
        assert!(!s.apply_line("claim 0 2 200 700"));
        assert_eq!(s.owner(0), Some(1));
        // …a renew extends it…
        assert!(s.apply_line("renew 0 1 300 900"));
        // …so a steal dated before the *renewed* deadline is still void
        // (a stale claim never shadows a newer renew)…
        assert!(!s.apply_line("claim 0 2 650 1200"));
        assert_eq!(s.owner(0), Some(1));
        // …but once the renewed deadline passes, the steal takes.
        assert!(s.apply_line("claim 0 2 900 1500"));
        assert_eq!(s.owner(0), Some(2));
        assert_eq!(s.total_steals(), 1);
        // The old holder's done is void; the thief's retires the batch.
        assert!(!s.apply_line("done 0 1 950"));
        assert!(s.apply_line("done 0 2 1000"));
        assert!(matches!(
            s.batches()[0],
            BatchLease::Done {
                worker: 2,
                steals: 1
            }
        ));
        // Claims after done are void forever.
        assert!(!s.apply_line("claim 0 1 99999 100999"));
        let w1 = s.worker_stats()[&1];
        let w2 = s.worker_stats()[&2];
        assert_eq!((w1.claims, w1.renews, w1.voided), (1, 1, 1));
        assert_eq!((w2.claims, w2.steals, w2.batches_done), (1, 1, 1));
        assert_eq!(w2.voided, 2);
    }

    #[test]
    fn torn_and_garbage_lines_are_skipped() {
        let mut s = LeaseState::new(4);
        for line in [
            "claim 0 1 100",          // too few fields
            "claim 0 1 100 600extra", // merged with another write
            "claim x 1 100 600",      // unparseable batch
            "release 0 1 100",        // unknown keyword
            "",                       // blank
            "claim 9 1 100 600",      // batch out of range
        ] {
            assert!(!s.apply_line(line), "{line:?} must be skipped");
        }
        assert_eq!(
            s,
            LeaseState::new(4),
            "void lines leave no trace on batches"
        );
    }

    #[test]
    fn own_reclaim_is_a_heartbeat_not_a_steal() {
        let mut s = LeaseState::new(1);
        assert!(s.apply_line("claim 0 3 100 600"));
        assert!(s.apply_line("claim 0 3 200 800"));
        match s.batches()[0] {
            BatchLease::Held {
                worker,
                deadline_ms,
                steals,
                ..
            } => {
                assert_eq!(worker, 3);
                assert_eq!(deadline_ms, 800);
                assert_eq!(steals, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.worker_stats()[&3].steals, 0);
    }

    #[test]
    fn next_action_prefers_free_then_expired_then_waits() {
        let mut s = LeaseState::new(3);
        // Batch 0 held live until 1000, batch 1 expired at 400, batch 2 free.
        s.apply_line("claim 0 0 100 1000");
        s.apply_line("claim 1 1 100 400");
        assert_eq!(
            s.next_action(2, 500),
            LeaseAction::Claim {
                batch: 2,
                steal: false
            }
        );
        // No free batches left: the expired one is stolen.
        s.apply_line("claim 2 2 500 1500");
        assert_eq!(
            s.next_action(3, 600),
            LeaseAction::Claim {
                batch: 1,
                steal: true
            }
        );
        // Everything live: wait for the earliest deadline.
        s.apply_line("claim 1 3 600 2000");
        assert_eq!(s.next_action(4, 700), LeaseAction::Wait { ms: 300 });
        // A worker holding a live lease is sent back to it.
        assert_eq!(
            s.next_action(0, 700),
            LeaseAction::Claim {
                batch: 0,
                steal: false
            }
        );
        // All done ⇒ finished.
        for line in ["done 0 0 800", "done 1 3 800", "done 2 2 800"] {
            s.apply_line(line);
        }
        assert!(s.all_done());
        assert_eq!(s.next_action(0, 900), LeaseAction::Finished);
    }

    #[test]
    fn multi_handle_appends_interleave_through_refresh() {
        let dir = temp_dir("interleave");
        LeaseLog::create(&dir, 0x1, 100, 10, 1_000).unwrap();
        let mut a = LeaseLog::open(&dir).unwrap();
        let mut b = LeaseLog::open(&dir).unwrap();
        a.set_sync(false);
        b.set_sync(false);
        a.append_claim(0, 0, 100).unwrap();
        b.append_claim(1, 1, 100).unwrap();
        // Each handle sees both appends after refresh.
        a.refresh().unwrap();
        b.refresh().unwrap();
        assert_eq!(a.state().owner(0), Some(0));
        assert_eq!(a.state().owner(1), Some(1));
        assert_eq!(b.state(), a.state());
        // A lost race is visible to the loser: b claims batch 0 while the
        // lease is live, then observes a's ownership intact.
        b.append_claim(0, 1, 200).unwrap();
        b.refresh().unwrap();
        assert_eq!(b.state().owner(0), Some(0));
        // Done + renew flow through too.
        a.append_renew(0, 0, 300).unwrap();
        a.append_done(0, 0, 400).unwrap();
        b.refresh().unwrap();
        assert_eq!(b.state().done_count(), 1);
        // A coordinator creating the log again strands the old handles.
        LeaseLog::create(&dir, 0x1, 100, 10, 1_000).unwrap();
        let err = b.refresh().unwrap_err();
        assert!(err.ends_with("leases.log was created again"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn render_summarises_state() {
        let mut s = LeaseState::new(3);
        s.apply_line("claim 0 0 100 1000");
        s.apply_line("claim 1 1 100 400");
        s.apply_line("claim 1 2 500 1500"); // steal of the expired batch 1
        s.apply_line("done 1 2 600");
        let text = s.render(10, 25, 800);
        assert!(text.contains("3 batch(es) of 10 cell(s)"), "{text}");
        assert!(
            text.contains("1 done, 1 active, 0 expired, 1 steal(s)"),
            "{text}"
        );
        assert!(text.contains("stolen cell range(s): [10, 20)"), "{text}");
        assert!(
            text.contains("w2: 1 claim(s) (1 stolen, 0 voided)"),
            "{text}"
        );
        // Heartbeat ages are judged at the render clock: w0 was last seen
        // at 100, w2 at its done record at 600.
        let beat = |text: &str, worker: &str, age: &str| {
            text.lines()
                .any(|l| l.starts_with(&format!("  {worker}: ")) && l.ends_with(age))
        };
        assert!(beat(&text, "w0", "heartbeat 0.7 s ago"), "{text}");
        assert!(beat(&text, "w2", "heartbeat 0.2 s ago"), "{text}");
        // Once w0's deadline (1000) passes, its live lease reads as expired.
        let later = s.render(10, 25, 1_200);
        assert!(
            later.contains("1 done, 0 active, 1 expired, 1 steal(s)"),
            "{later}"
        );
        assert!(beat(&later, "w0", "heartbeat 1.1 s ago"), "{later}");
    }

    #[test]
    fn backoff_grows_jittered_and_capped() {
        let mut b = Backoff::new(7, 20, 400);
        let delays: Vec<u64> = (0..8).map(|_| b.next_delay().as_millis() as u64).collect();
        // Each delay sits in [ceiling/2, ceiling] for its attempt's ceiling.
        for (i, &d) in delays.iter().enumerate() {
            let ceiling = (20u64 << i.min(10)).min(400);
            assert!(
                d >= ceiling / 2 && d <= ceiling,
                "attempt {i}: {d} vs {ceiling}"
            );
        }
        // Deterministic per seed; different seeds jitter differently.
        let mut b2 = Backoff::new(7, 20, 400);
        assert_eq!(delays[0], b2.next_delay().as_millis() as u64);
        b.reset();
        assert!(b.next_delay().as_millis() as u64 <= 20);
    }
}
