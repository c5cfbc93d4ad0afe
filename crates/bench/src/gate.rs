//! Perf regression gate over the recorded trajectory (`BENCH_replay.json`).
//!
//! Absolute nanoseconds are host-dependent, so comparing a CI run against a
//! baseline recorded on a developer machine would be noise. The gate instead
//! compares *ratios within one host*: each capped policy's replay time
//! divided by the uncapped baseline replay time measured in the same run
//! (`cap60_dvfs_ns / baseline_none_ns`, …), plus the schedule-pass cost per
//! baseline replay. Those ratios are stable across hardware — they capture
//! "how much does the powercap machinery cost on top of plain scheduling" —
//! so a fresh CI entry can be checked against the committed trajectory even
//! though both were recorded on different machines.
//!
//! The tight-cap tail of the paper grid has its own ratio: a 24-hour 40 %
//! DVFS replay over the uncapped replay of the same 24-hour trace
//! (`cap40_dvfs_24h / baseline_24h`), where power-blocked schedule passes
//! dominate.
//!
//! The controller's instruments have one too: the 60 % DVFS replay with a
//! live metrics registry and span recorder attached over the same replay
//! without them (`cap60_dvfs_obs / cap60_dvfs`), so what observability adds
//! to every schedule pass is held to the same 15 % as the rest.
//!
//! A check fails when any fresh ratio exceeds the committed ratio by more
//! than the threshold (default 15 %). Ratios *improving* is never a failure.
//!
//! Two store costs also have absolute ceilings, checked on the fresh entry
//! alone ([`ceiling_checks`]): a full scan and a store open, each as a
//! multiple of a read-and-validate pass over the same store.

use std::fmt;

/// The default allowed relative growth of any tracked ratio (15 %).
pub const DEFAULT_THRESHOLD: f64 = 0.15;

/// Maximum allowed cost of a full store scan, as a multiple of a
/// read-and-validate pass over the same partition files (an absolute
/// ceiling, not a ratio-growth check: reading the bytes and checking their
/// block framing and checksums is the floor every scan pays, so the
/// quotient measures what filtering, duplicate resolution and row decoding
/// add on top; both sides are measured in the same run on the same host,
/// so it is host-independent).
pub const STORE_SCAN_CEILING: f64 = 7.0;

/// Maximum allowed cost of opening the same compacted store
/// (`StoreScanner::open`: manifest read, header and completion log
/// parsed), as a fraction of the read-and-validate pass. Opening must cost
/// in proportion to the store's partitions, not its cells; with the
/// completion log written as ranges it is microseconds. Absolute, like
/// [`STORE_SCAN_CEILING`], and not a ratio-growth check: a microsecond
/// open is too noisy a numerator for a 15 % bound.
pub const STORE_OPEN_CEILING: f64 = 0.25;

/// Name of the tight-cap tail ratio in gate reports.
pub const TAIL_RATIO: &str = "cap40_dvfs_24h / baseline_24h";

/// Name of the instruments' cost ratio in gate reports.
pub const OBS_RATIO: &str = "cap60_dvfs_obs / cap60_dvfs";

/// One entry of the perf trajectory, reduced to the fields the gate tracks.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfEntry {
    /// The entry's label (e.g. `pr5-nodemask`, `ci-abc123def`).
    pub label: String,
    /// Uncapped replay wall time — the per-host normalizer.
    pub baseline_none_ns: f64,
    /// Capped replay wall time under the SHUT policy.
    pub cap60_shut_ns: f64,
    /// Capped replay wall time under the DVFS policy.
    pub cap60_dvfs_ns: f64,
    /// The same DVFS replay with a live metrics registry and span recorder
    /// attached, when the entry recorded it.
    pub cap60_dvfs_obs_ns: Option<f64>,
    /// Capped replay wall time under the MIX policy.
    pub cap60_mix_ns: f64,
    /// Cost of one scheduling pass in the pending-heavy microbench.
    pub ns_per_pass: f64,
    /// Uncapped replay wall time of the 24-hour trace, when the entry
    /// recorded it — the normalizer of the tight-cap tail ratio.
    pub baseline_24h_ns: Option<f64>,
    /// The same 24-hour trace replayed under DVFS at a 40 % cap.
    pub cap40_dvfs_24h_ns: Option<f64>,
    /// Read-and-validate wall time of the ~100k-row synthetic compacted
    /// store (every partition file read, block framing and checksums
    /// checked, no row decoded), when the entry recorded it.
    pub store_block_read_ns: Option<f64>,
    /// Full scan wall time of the same store.
    pub store_v3_scan_ns: Option<f64>,
    /// `StoreScanner::open` wall time on the same store.
    pub store_open_ns: Option<f64>,
    /// Fingerprint of the recording host (`"<cpu model> xN"`), when the
    /// entry recorded one — lets a check warn on cross-host comparisons
    /// (the tracked ratios are host-independent, absolute times are not).
    pub host: Option<String>,
}

impl PerfEntry {
    /// The tracked host-independent ratios, labelled. Variable-length:
    /// entries recorded before a metric family existed simply lack its
    /// ratio, and [`check`] matches ratios by name so old baselines stay
    /// comparable on the ratios they do have.
    fn ratios(&self) -> Vec<(&'static str, f64)> {
        let base = self.baseline_none_ns.max(1.0);
        let mut out = vec![
            ("cap60_shut / baseline", self.cap60_shut_ns / base),
            ("cap60_dvfs / baseline", self.cap60_dvfs_ns / base),
            ("cap60_mix / baseline", self.cap60_mix_ns / base),
            ("schedule_pass / baseline", self.ns_per_pass / base),
        ];
        if let (Some(base), Some(dvfs)) = (self.baseline_24h_ns, self.cap40_dvfs_24h_ns) {
            out.push((TAIL_RATIO, dvfs / base.max(1.0)));
        }
        if let Some(observed) = self.cap60_dvfs_obs_ns {
            out.push((OBS_RATIO, observed / self.cap60_dvfs_ns.max(1.0)));
        }
        if let Some(ratio) = self.store_scan_over_read() {
            // Bigger = the scan lost ground against reading the same bytes.
            out.push(("store_v3_scan / store_block_read", ratio));
        }
        out
    }

    /// The full store scan's cost as a multiple of the read-and-validate
    /// pass, when the entry recorded both; compare against
    /// [`STORE_SCAN_CEILING`].
    pub fn store_scan_over_read(&self) -> Option<f64> {
        match (self.store_block_read_ns, self.store_v3_scan_ns) {
            (Some(read), Some(scan)) => Some(scan / read.max(1.0)),
            _ => None,
        }
    }

    /// The store open's cost as a fraction of the read-and-validate pass,
    /// when the entry recorded both; compare against
    /// [`STORE_OPEN_CEILING`].
    pub fn store_open_over_read(&self) -> Option<f64> {
        match (self.store_block_read_ns, self.store_open_ns) {
            (Some(read), Some(open)) => Some(open / read.max(1.0)),
            _ => None,
        }
    }

    /// A copy whose store open costs `over_read` times its read-and-validate
    /// pass, when the entry recorded both — the self-test's open regression.
    pub fn with_synthetic_open_regression(&self, over_read: f64) -> Option<PerfEntry> {
        self.store_open_ns?;
        Some(PerfEntry {
            label: format!("{}+synthetic-open", self.label),
            store_open_ns: Some(self.store_block_read_ns? * over_read),
            ..self.clone()
        })
    }

    /// A copy with the DVFS replay inflated by `factor` — used by the gate
    /// self-test to prove a regression actually trips the check.
    pub fn with_synthetic_regression(&self, factor: f64) -> PerfEntry {
        PerfEntry {
            label: format!("{}+synthetic", self.label),
            cap60_dvfs_ns: self.cap60_dvfs_ns * factor,
            ..self.clone()
        }
    }

    /// A copy with the 24-hour DVFS replay inflated by `factor`, when the
    /// entry recorded it — the self-test's regression of the tail ratio.
    pub fn with_synthetic_tail_regression(&self, factor: f64) -> Option<PerfEntry> {
        Some(PerfEntry {
            label: format!("{}+synthetic-tail", self.label),
            cap40_dvfs_24h_ns: Some(self.cap40_dvfs_24h_ns? * factor),
            ..self.clone()
        })
    }

    /// A copy with the instrumented DVFS replay inflated by `factor`, when
    /// the entry recorded it — the self-test's regression of the
    /// instruments' cost.
    pub fn with_synthetic_obs_regression(&self, factor: f64) -> Option<PerfEntry> {
        Some(PerfEntry {
            label: format!("{}+synthetic-obs", self.label),
            cap60_dvfs_obs_ns: Some(self.cap60_dvfs_obs_ns? * factor),
            ..self.clone()
        })
    }
}

/// One ratio comparison between the committed and the fresh entry.
#[derive(Debug, Clone)]
pub struct RatioCheck {
    /// Which ratio this row tracks.
    pub name: &'static str,
    /// The ratio in the committed (reference) entry.
    pub committed: f64,
    /// The ratio in the fresh entry.
    pub fresh: f64,
    /// Whether the fresh ratio exceeds the allowance.
    pub breached: bool,
}

impl fmt::Display for RatioCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.breached { "REGRESSED" } else { "ok" };
        write!(
            f,
            "{:<32} committed {:>7.3}  fresh {:>7.3}  ({:+.1} %)  {verdict}",
            self.name,
            self.committed,
            self.fresh,
            (self.fresh / self.committed.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
        )
    }
}

/// Outcome of gating a fresh entry against a committed one.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Label of the committed reference entry.
    pub committed_label: String,
    /// Label of the fresh entry under test.
    pub fresh_label: String,
    /// Every tracked ratio, in order.
    pub checks: Vec<RatioCheck>,
}

impl GateReport {
    /// True when no tracked ratio regressed beyond the threshold.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| !c.breached)
    }
}

impl fmt::Display for GateReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "perf gate: '{}' (fresh) vs '{}' (committed)",
            self.fresh_label, self.committed_label
        )?;
        for check in &self.checks {
            writeln!(f, "  {check}")?;
        }
        write!(f, "  => {}", if self.passed() { "PASS" } else { "FAIL" })
    }
}

/// Compare `fresh` against `committed`: a ratio breaches when it exceeds the
/// committed ratio by more than `threshold` (relative, e.g. `0.15` = 15 %).
///
/// Ratios are matched by name: one an entry lacks (a baseline recorded
/// before that metric family existed, or a fresh run that skipped it) is
/// left out of the report rather than misaligned against a different ratio.
pub fn check(committed: &PerfEntry, fresh: &PerfEntry, threshold: f64) -> GateReport {
    let fresh_ratios = fresh.ratios();
    let checks = committed
        .ratios()
        .into_iter()
        .filter_map(|(name, committed)| {
            let (_, fresh) = fresh_ratios.iter().find(|(n, _)| *n == name)?;
            Some(RatioCheck {
                name,
                committed,
                fresh: *fresh,
                breached: *fresh > committed * (1.0 + threshold),
            })
        })
        .collect();
    GateReport {
        committed_label: committed.label.clone(),
        fresh_label: fresh.label.clone(),
        checks,
    }
}

/// One absolute store-cost ceiling, checked on a single entry.
#[derive(Debug, Clone)]
pub struct CeilingCheck {
    /// What is measured (`store scan`, `store open`).
    pub name: &'static str,
    /// Its cost as a multiple of the read-and-validate pass.
    pub over_read: f64,
    /// The largest allowed multiple.
    pub ceiling: f64,
}

impl CeilingCheck {
    /// Whether the cost is above its ceiling.
    pub fn breached(&self) -> bool {
        self.over_read > self.ceiling
    }
}

impl fmt::Display for CeilingCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.breached() { "BREACHED" } else { "ok" };
        write!(
            f,
            "{}: costs {:.3}x a read-and-validate pass (ceiling {}x)  {verdict}",
            self.name, self.over_read, self.ceiling
        )
    }
}

/// The absolute store ceilings that apply to `entry`: the full scan
/// against [`STORE_SCAN_CEILING`] and the open against
/// [`STORE_OPEN_CEILING`]. An entry that did not record a quantity skips
/// its ceiling.
pub fn ceiling_checks(entry: &PerfEntry) -> Vec<CeilingCheck> {
    [
        (
            "store scan",
            entry.store_scan_over_read(),
            STORE_SCAN_CEILING,
        ),
        (
            "store open",
            entry.store_open_over_read(),
            STORE_OPEN_CEILING,
        ),
    ]
    .into_iter()
    .filter_map(|(name, over_read, ceiling)| {
        Some(CeilingCheck {
            name,
            over_read: over_read?,
            ceiling,
        })
    })
    .collect()
}

/// Parse every entry of a trajectory file written by `perf-baseline`.
///
/// The writer keeps a one-entry-per-line layout (every entry line starts
/// with `{"label":` after indentation), so a line scan with per-key field
/// extraction is exact for this format — no JSON library required (the
/// workspace has no serialization dependency).
pub fn parse_trajectory(text: &str) -> Vec<PerfEntry> {
    text.lines()
        .map(str::trim_start)
        .filter(|line| line.starts_with("{\"label\":"))
        .filter_map(parse_entry_line)
        .collect()
}

/// The last (most recently appended) entry, optionally skipping labels for
/// which `skip` returns true (e.g. a stale `ci-*` entry from a previous run).
pub fn reference_entry(entries: &[PerfEntry], skip: impl Fn(&str) -> bool) -> Option<&PerfEntry> {
    entries.iter().rev().find(|e| !skip(&e.label))
}

fn parse_entry_line(line: &str) -> Option<PerfEntry> {
    Some(PerfEntry {
        label: string_field(line, "label")?,
        baseline_none_ns: number_field(line, "baseline_none_ns")?,
        cap60_shut_ns: number_field(line, "cap60_shut_ns")?,
        cap60_dvfs_ns: number_field(line, "cap60_dvfs_ns")?,
        cap60_dvfs_obs_ns: number_field(line, "cap60_dvfs_obs_ns"),
        cap60_mix_ns: number_field(line, "cap60_mix_ns")?,
        ns_per_pass: number_field(line, "ns_per_pass")?,
        baseline_24h_ns: number_field(line, "baseline_24h_ns"),
        cap40_dvfs_24h_ns: number_field(line, "cap40_dvfs_24h_ns"),
        store_block_read_ns: number_field(line, "block_read_ns"),
        store_v3_scan_ns: number_field(line, "v3_scan_ns"),
        store_open_ns: number_field(line, "open_ns"),
        host: string_field(line, "host"),
    })
}

fn value_after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    Some(line[start..].trim_start())
}

fn string_field(line: &str, key: &str) -> Option<String> {
    let rest = value_after(line, key)?.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

fn number_field(line: &str, key: &str) -> Option<f64> {
    let rest = value_after(line, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"  {"label": "pr5-nodemask", "recorded_unix": 1754000000, "replay": {"baseline_none_ns": 137666, "cap60_shut_ns": 289568, "cap60_dvfs_ns": 743960, "cap60_mix_ns": 472990, "events_per_sec": 1404018}, "schedule_pass": {"passes": 242, "ns_per_pass": 277462.2}, "campaign": {"cells": 54, "wall_s": 0.489, "cells_per_sec": 110.5}}"#;

    fn entry() -> PerfEntry {
        parse_trajectory(LINE).pop().expect("line parses")
    }

    #[test]
    fn parses_the_writer_format_exactly() {
        let e = entry();
        assert_eq!(e.label, "pr5-nodemask");
        assert_eq!(e.baseline_none_ns, 137666.0);
        assert_eq!(e.cap60_shut_ns, 289568.0);
        assert_eq!(e.cap60_dvfs_ns, 743960.0);
        assert_eq!(e.cap60_mix_ns, 472990.0);
        assert_eq!(e.ns_per_pass, 277462.2);
        assert_eq!(e.host, None, "pre-fingerprint entries still parse");
    }

    #[test]
    fn parses_the_host_fingerprint_when_present() {
        let line = LINE.replace(
            "\"recorded_unix\": 1754000000,",
            "\"recorded_unix\": 1754000000, \"host\": \"Xeon E5-2680 x16\",",
        );
        let e = parse_trajectory(&line).pop().expect("line parses");
        assert_eq!(e.host.as_deref(), Some("Xeon E5-2680 x16"));
    }

    #[test]
    fn parses_a_full_trajectory_and_picks_the_reference() {
        let text = format!(
            "{{\n\"schema\": 1,\n\"entries\": [\n{LINE},\n{}\n]\n}}\n",
            LINE.replace("pr5-nodemask", "ci-abc123def")
        );
        let entries = parse_trajectory(&text);
        assert_eq!(entries.len(), 2);
        // The reference skips CI-appended labels and lands on the last
        // hand-recorded entry.
        let reference = reference_entry(&entries, |l| l.starts_with("ci-")).unwrap();
        assert_eq!(reference.label, "pr5-nodemask");
        assert!(reference_entry(&entries, |_| true).is_none());
    }

    #[test]
    fn identical_entries_pass() {
        let report = check(&entry(), &entry(), DEFAULT_THRESHOLD);
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn a_faster_host_with_the_same_ratios_passes() {
        // Every absolute number halves (faster machine): ratios unchanged.
        let committed = entry();
        let fresh = PerfEntry {
            label: "ci-fast-host".into(),
            baseline_none_ns: committed.baseline_none_ns / 2.0,
            cap60_shut_ns: committed.cap60_shut_ns / 2.0,
            cap60_dvfs_ns: committed.cap60_dvfs_ns / 2.0,
            cap60_dvfs_obs_ns: None,
            cap60_mix_ns: committed.cap60_mix_ns / 2.0,
            ns_per_pass: committed.ns_per_pass / 2.0,
            baseline_24h_ns: None,
            cap40_dvfs_24h_ns: None,
            store_block_read_ns: None,
            store_v3_scan_ns: None,
            store_open_ns: None,
            host: None,
        };
        assert!(check(&committed, &fresh, DEFAULT_THRESHOLD).passed());
    }

    /// An entry with store metrics attached.
    fn entry_with_store(read_ns: f64, scan_ns: f64) -> PerfEntry {
        PerfEntry {
            store_block_read_ns: Some(read_ns),
            store_v3_scan_ns: Some(scan_ns),
            ..entry()
        }
    }

    #[test]
    fn store_metrics_parse_and_join_the_tracked_ratios() {
        let line = LINE.replace(
            "\"campaign\":",
            "\"store\": {\"rows\": 120000, \"block_read_ns\": 10000000, \
             \"v3_scan_ns\": 50000000, \"scan_over_read\": 5.00, \
             \"v3_narrow_scan_ns\": 40000000, \"zone_skipped_parts\": 14}, \
             \"campaign\":",
        );
        let e = parse_trajectory(&line).pop().expect("line parses");
        assert_eq!(e.store_block_read_ns, Some(10_000_000.0));
        assert_eq!(e.store_v3_scan_ns, Some(50_000_000.0));
        assert_eq!(e.store_scan_over_read(), Some(5.0));
        let report = check(&e, &e, DEFAULT_THRESHOLD);
        assert_eq!(report.checks.len(), 5, "store ratio joins the gate");
        assert!(report.passed());
        // A scan that lost 2x against the read pass trips the store ratio
        // alone.
        let slower = PerfEntry {
            store_v3_scan_ns: Some(100_000_000.0),
            ..e.clone()
        };
        let report = check(&e, &slower, DEFAULT_THRESHOLD);
        let breached: Vec<_> = report
            .checks
            .iter()
            .filter(|c| c.breached)
            .map(|c| c.name)
            .collect();
        assert_eq!(breached, vec!["store_v3_scan / store_block_read"]);
    }

    #[test]
    fn ratios_are_matched_by_name_across_schema_generations() {
        // Old committed baseline without store metrics vs a fresh entry
        // with them: the four shared ratios gate, the store ratio is
        // silently absent rather than misaligned.
        let old = entry();
        let fresh = entry_with_store(1e7, 5e7);
        let report = check(&old, &fresh, DEFAULT_THRESHOLD);
        assert_eq!(report.checks.len(), 4);
        assert!(report.passed());
        // And symmetrically when the fresh run lacks store metrics.
        let report = check(&fresh, &old, DEFAULT_THRESHOLD);
        assert_eq!(report.checks.len(), 4);
        assert!(report.passed());
        // An entry recorded against the retired CSV scan (`v2_scan_ns`, no
        // `block_read_ns`) has no store ratio either: the four shared ratios
        // gate, each against its own name. (Its old v3/v2 ratio, 0.07,
        // would breach against any scan-over-read if the two were paired.)
        let csv_era = parse_trajectory(&LINE.replace(
            "\"campaign\":",
            "\"store\": {\"rows\": 120000, \"v2_scan_ns\": 628919636, \
             \"v3_scan_ns\": 44335889, \"speedup\": 14.2, \"zone_skipped_parts\": 14}, \
             \"campaign\":",
        ))
        .pop()
        .expect("line parses");
        assert_eq!(csv_era.store_v3_scan_ns, Some(44_335_889.0));
        assert_eq!(csv_era.store_scan_over_read(), None);
        let report = check(&csv_era, &fresh, DEFAULT_THRESHOLD);
        let names: Vec<_> = report.checks.iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            [
                "cap60_shut / baseline",
                "cap60_dvfs / baseline",
                "cap60_mix / baseline",
                "schedule_pass / baseline",
            ]
        );
        assert!(report.checks.iter().all(|c| c.committed == c.fresh));
        assert!(report.passed(), "{report}");
        // An entry recorded before the instrumented replay (no
        // `cap60_dvfs_obs_ns`) still gates every other ratio against one
        // that has it, in both directions, and the obs ratio pairs with
        // nothing: at 9.0 it would breach the store ratio (5.0) it precedes
        // if ratios were matched by position.
        let observed = PerfEntry {
            cap60_dvfs_obs_ns: Some(fresh.cap60_dvfs_ns * 9.0),
            ..fresh.clone()
        };
        for (committed, fresh) in [(&fresh, &observed), (&observed, &fresh)] {
            let report = check(committed, fresh, DEFAULT_THRESHOLD);
            let names: Vec<_> = report.checks.iter().map(|c| c.name).collect();
            assert_eq!(
                names,
                [
                    "cap60_shut / baseline",
                    "cap60_dvfs / baseline",
                    "cap60_mix / baseline",
                    "schedule_pass / baseline",
                    "store_v3_scan / store_block_read",
                ]
            );
            assert!(report.passed(), "{report}");
        }
    }

    #[test]
    fn store_scan_ceiling_is_a_meaningful_threshold() {
        let within = entry_with_store(1e7, 5e7).store_scan_over_read().unwrap();
        assert!(within <= STORE_SCAN_CEILING);
        let above = entry_with_store(1e7, 7.5e7).store_scan_over_read().unwrap();
        assert!(above > STORE_SCAN_CEILING, "7.5x must trip the 7x ceiling");
        assert_eq!(entry().store_scan_over_read(), None);
    }

    #[test]
    fn the_open_ceiling_parses_trips_alone_and_skips_entries_without_it() {
        let line = LINE.replace(
            "\"campaign\":",
            "\"store\": {\"rows\": 120000, \"block_read_ns\": 10000000, \
             \"v3_scan_ns\": 50000000, \"open_ns\": 500000, \"scan_over_read\": 5.00}, \
             \"campaign\":",
        );
        let e = parse_trajectory(&line).pop().expect("line parses");
        assert_eq!(e.store_open_ns, Some(500_000.0));
        assert_eq!(e.store_open_over_read(), Some(0.05));
        let checks = ceiling_checks(&e);
        let names: Vec<_> = checks.iter().map(|c| c.name).collect();
        assert_eq!(names, ["store scan", "store open"]);
        assert!(checks.iter().all(|c| !c.breached()));
        // The open is not a growth-gated ratio: it is too small to bound
        // relatively, so only the ceiling judges it.
        assert_eq!(check(&e, &e, DEFAULT_THRESHOLD).checks.len(), 5);
        // An open costing what one `done` line per cell did (2.4x the read
        // pass) breaches the open ceiling and nothing else.
        let regressed = e.with_synthetic_open_regression(2.4).unwrap();
        let breached: Vec<_> = ceiling_checks(&regressed)
            .into_iter()
            .filter(|c| c.breached())
            .map(|c| c.name)
            .collect();
        assert_eq!(breached, ["store open"]);
        assert!(check(&e, &regressed, DEFAULT_THRESHOLD).passed());
        // At the ceiling exactly is still within it.
        let at = e
            .with_synthetic_open_regression(STORE_OPEN_CEILING)
            .unwrap();
        assert!(ceiling_checks(&at).iter().all(|c| !c.breached()));
        // Entries without an open time skip its ceiling.
        let older = entry_with_store(1e7, 5e7);
        assert_eq!(older.with_synthetic_open_regression(2.4), None);
        let names: Vec<_> = ceiling_checks(&older).iter().map(|c| c.name).collect();
        assert_eq!(names, ["store scan"]);
        assert!(ceiling_checks(&entry()).is_empty());
    }

    #[test]
    fn a_regressed_policy_ratio_fails() {
        let committed = entry();
        let fresh = committed.with_synthetic_regression(1.5);
        let report = check(&committed, &fresh, DEFAULT_THRESHOLD);
        assert!(!report.passed(), "{report}");
        let breached: Vec<_> = report
            .checks
            .iter()
            .filter(|c| c.breached)
            .map(|c| c.name)
            .collect();
        assert_eq!(breached, vec!["cap60_dvfs / baseline"]);
    }

    #[test]
    fn the_tail_ratio_gates_by_name_and_trips_alone() {
        let line = LINE.replace(
            "\"events_per_sec\"",
            "\"baseline_24h_ns\": 8000000, \"cap40_dvfs_24h_ns\": 14000000, \"events_per_sec\"",
        );
        let tail = parse_trajectory(&line).pop().expect("line parses");
        assert_eq!(tail.baseline_24h_ns, Some(8_000_000.0));
        assert_eq!(tail.cap40_dvfs_24h_ns, Some(14_000_000.0));
        let report = check(&tail, &tail, DEFAULT_THRESHOLD);
        let ratio = report.checks.iter().find(|c| c.name == TAIL_RATIO);
        assert_eq!(ratio.map(|c| c.fresh), Some(1.75));
        // Older entries lack the tail: it is skipped, not misaligned.
        assert_eq!(entry().with_synthetic_tail_regression(1.5), None);
        assert_eq!(check(&entry(), &tail, DEFAULT_THRESHOLD).checks.len(), 4);
        assert_eq!(check(&tail, &entry(), DEFAULT_THRESHOLD).checks.len(), 4);
        // A regressed tail breaches that ratio and no other.
        let regressed = tail.with_synthetic_tail_regression(1.5).unwrap();
        let report = check(&tail, &regressed, DEFAULT_THRESHOLD);
        let breached: Vec<_> = report
            .checks
            .iter()
            .filter(|c| c.breached)
            .map(|c| c.name)
            .collect();
        assert_eq!(breached, vec![TAIL_RATIO]);
    }

    #[test]
    fn the_obs_ratio_gates_by_name_and_trips_alone() {
        let line = LINE.replace(
            "\"cap60_mix_ns\"",
            "\"cap60_dvfs_obs_ns\": 929950, \"cap60_mix_ns\"",
        );
        let observed = parse_trajectory(&line).pop().expect("line parses");
        assert_eq!(observed.cap60_dvfs_obs_ns, Some(929_950.0));
        assert_eq!(observed.cap60_dvfs_ns, 743_960.0, "distinct keys");
        let report = check(&observed, &observed, DEFAULT_THRESHOLD);
        let ratio = report.checks.iter().find(|c| c.name == OBS_RATIO);
        assert_eq!(ratio.map(|c| c.fresh), Some(1.25));
        // Older entries lack it: skipped, not misaligned.
        assert_eq!(entry().with_synthetic_obs_regression(1.5), None);
        assert_eq!(
            check(&entry(), &observed, DEFAULT_THRESHOLD).checks.len(),
            4
        );
        assert_eq!(
            check(&observed, &entry(), DEFAULT_THRESHOLD).checks.len(),
            4
        );
        // Instruments costing 1.5x more breach that ratio and no other.
        let regressed = observed.with_synthetic_obs_regression(1.5).unwrap();
        let report = check(&observed, &regressed, DEFAULT_THRESHOLD);
        let breached: Vec<_> = report
            .checks
            .iter()
            .filter(|c| c.breached)
            .map(|c| c.name)
            .collect();
        assert_eq!(breached, vec![OBS_RATIO]);
        // A slower plain DVFS replay lowers the obs ratio: the policy ratio
        // trips, the obs ratio does not.
        let report = check(
            &observed,
            &observed.with_synthetic_regression(1.5),
            DEFAULT_THRESHOLD,
        );
        let breached: Vec<_> = report
            .checks
            .iter()
            .filter(|c| c.breached)
            .map(|c| c.name)
            .collect();
        assert_eq!(breached, vec!["cap60_dvfs / baseline"]);
    }

    #[test]
    fn growth_within_the_threshold_passes() {
        let committed = entry();
        let fresh = committed.with_synthetic_regression(1.10);
        assert!(check(&committed, &fresh, DEFAULT_THRESHOLD).passed());
    }
}
