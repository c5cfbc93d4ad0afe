//! # apc-bench
//!
//! The workspace's one performance harness: the `perf-baseline` binary
//! times the simulator's hot paths (per-policy replays, the 24-hour
//! tight-cap tail, a pending-heavy schedule-pass microbench, the DVFS
//! replay with the controller's instruments attached, the paper-grid
//! campaign and a synthetic result store) and appends one entry per run
//! to the repo-root trajectory `BENCH_replay.json`. [`gate`] compares a
//! fresh entry's host-independent ratios against the last committed one,
//! which is what CI's `perf-baseline --check` enforces.
//!
//! The repository benchmark under `perfbench/` measures the end-to-end
//! workloads (cells/s, query latency) and their per-layer breakdown;
//! this crate keeps the ratios that gate every change.

pub mod gate;
