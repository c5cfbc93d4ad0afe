//! The live campaign progress monitor (`campaign --progress`).
//!
//! A [`ProgressMonitor`] is a sampling thread over the campaign's metrics
//! [`Registry`]: it never talks to the executor, it just snapshots the
//! counters the workers publish and renders a top-style view — overall
//! completion, cells/s, ETA, and one line per worker with its completed
//! count. (A `--distributed` coordinator has no registry shared with its
//! worker processes; it prints the lease log's own
//! [`LeaseState::render`](crate::lease::LeaseState::render) instead.)
//!
//! Everything goes to **stderr**: stdout carries campaign data (tables,
//! query output) and must stay byte-identical with monitoring on or off.
//! On a terminal the view redraws in place with ANSI cursor movement; piped
//! (CI logs), it degrades to an occasional plain line.

use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use apc_obs::{Registry, Snapshot};

/// How often the interactive view redraws.
const INTERACTIVE_TICK: Duration = Duration::from_millis(200);
/// How often the piped (non-terminal) fallback prints a line.
const PLAIN_TICK: Duration = Duration::from_secs(2);

/// Render the top-style progress view from a snapshot: a header line plus
/// one line per worker. Pure — the monitor thread and the tests share it.
pub fn render_progress(snapshot: &Snapshot, total: usize, elapsed: Duration) -> String {
    let done = snapshot.counter("campaign.cells.completed").unwrap_or(0);
    let secs = elapsed.as_secs_f64().max(1e-9);
    let rate = done as f64 / secs;
    let eta = if done > 0 && (done as usize) < total {
        let remaining = (total - done as usize) as f64 / rate;
        format!("ETA {remaining:.0} s")
    } else if done as usize >= total {
        "done".to_string()
    } else {
        "ETA --".to_string()
    };
    let percent = if total > 0 {
        done as f64 * 100.0 / total as f64
    } else {
        100.0
    };
    let mut out = format!(
        "campaign {done}/{total} cells ({percent:.0}%)  {rate:.1} cells/s  {eta}  \
         {secs:.1} s elapsed\n"
    );
    // Workers are discovered by name, so the renderer needs no side
    // channel about the thread count.
    for w in 0.. {
        let Some(completed) = snapshot.counter(&format!("campaign.worker.{w}.completed")) else {
            break;
        };
        out.push_str(&format!("  w{w}: {completed:>4} done\n"));
    }
    out
}

/// A background thread rendering [`render_progress`] until stopped.
pub struct ProgressMonitor {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ProgressMonitor {
    /// Start monitoring `registry` for a run of `total` cells. Rendering
    /// mode (in-place redraw vs. plain lines) follows whether stderr is a
    /// terminal.
    pub fn start(registry: Registry, total: usize) -> Self {
        ProgressMonitor::start_with_mode(registry, total, std::io::stderr().is_terminal())
    }

    /// Like [`start`](Self::start) with the terminal detection overridden —
    /// lets tests drive the plain mode deterministically.
    pub fn start_with_mode(registry: Registry, total: usize, interactive: bool) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let started = Instant::now();
            let tick = if interactive {
                INTERACTIVE_TICK
            } else {
                PLAIN_TICK
            };
            let mut rendered_lines = 0usize;
            loop {
                let stopping = stop_flag.load(Ordering::Relaxed);
                let frame = render_progress(&registry.snapshot(), total, started.elapsed());
                let mut err = std::io::stderr().lock();
                if interactive {
                    // Move back over the previous frame and overwrite it.
                    if rendered_lines > 0 {
                        let _ = write!(err, "\x1b[{rendered_lines}A");
                    }
                    for line in frame.lines() {
                        let _ = writeln!(err, "\x1b[2K{line}");
                    }
                    rendered_lines = frame.lines().count();
                } else {
                    // Plain mode: only the header line, no redraw tricks.
                    let _ = writeln!(err, "{}", frame.lines().next().unwrap_or_default());
                }
                let _ = err.flush();
                drop(err);
                if stopping {
                    break;
                }
                std::thread::sleep(tick);
            }
        });
        ProgressMonitor {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop the monitor, letting it paint one final frame first.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ProgressMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated_registry() -> Registry {
        let registry = Registry::new();
        registry.counter("campaign.cells.completed").add(6);
        registry.counter("campaign.worker.0.completed").add(4);
        registry.counter("campaign.worker.1.completed").add(2);
        registry
    }

    #[test]
    fn render_shows_totals_rate_eta_and_workers() {
        let registry = populated_registry();
        let text = render_progress(&registry.snapshot(), 12, Duration::from_secs(3));
        assert!(text.starts_with("campaign 6/12 cells (50%)"), "{text}");
        assert!(text.contains("2.0 cells/s"), "{text}");
        assert!(text.contains("ETA 3 s"), "{text}");
        assert!(text.contains("w0:    4 done\n"), "{text}");
        assert!(text.contains("w1:    2 done\n"), "{text}");
        assert_eq!(text.lines().count(), 3, "header + one line per worker");
    }

    #[test]
    fn render_handles_the_empty_and_finished_edges() {
        let empty = Registry::new();
        let text = render_progress(&empty.snapshot(), 10, Duration::from_secs(1));
        assert!(text.contains("0/10"), "{text}");
        assert!(text.contains("ETA --"), "{text}");
        let registry = populated_registry();
        let done = render_progress(&registry.snapshot(), 6, Duration::from_secs(3));
        assert!(done.contains("done"), "{done}");
        // Zero-total never divides by zero.
        let zero = render_progress(&empty.snapshot(), 0, Duration::from_secs(1));
        assert!(zero.contains("(100%)"), "{zero}");
    }

    #[test]
    fn monitor_starts_renders_and_stops() {
        let registry = populated_registry();
        let monitor = ProgressMonitor::start_with_mode(registry, 12, false);
        std::thread::sleep(Duration::from_millis(30));
        monitor.stop();
    }

    /// The `--distributed` progress view is the lease log's own summary,
    /// judged at the render clock.
    #[test]
    fn lease_progress_counts_active_expired_and_heartbeats() {
        use crate::lease::{LeaseHeader, LeaseState};
        let header = LeaseHeader {
            spec_hash: 0xabc,
            total_cells: 16,
            lease_cells: 4,
            ttl_ms: 1_000,
        };
        let mut state = LeaseState::new(header.batch_count());
        // w0 done with batch 0; w1 alive on batch 1; w2's lease on batch 2
        // expired at t=4000 and was then stolen and finished by w1.
        assert!(state.apply_line("claim 0 0 1000 2000"));
        assert!(state.apply_line("done 0 0 1900"));
        assert!(state.apply_line("claim 1 1 4500 5500"));
        assert!(state.apply_line("claim 2 2 3000 4000"));
        assert!(state.apply_line("claim 2 1 4600 5600"));
        assert!(state.apply_line("done 2 1 4900"));
        assert!(state.apply_line("claim 3 2 4950 5950"));
        let render = |now_ms| state.render(header.lease_cells, header.total_cells, now_ms);
        let text = render(5_000);
        assert!(
            text.starts_with(
                "leases: 4 batch(es) of 4 cell(s): 2 done, 2 active, 0 expired, 1 steal(s)"
            ),
            "{text}"
        );
        assert!(text.contains("stolen cell range(s): [8, 12)"), "{text}");
        let worker = |text: &str, w: &str| {
            text.lines()
                .find(|l| l.starts_with(&format!("  {w}: ")))
                .unwrap_or_default()
                .to_string()
        };
        let w1 = worker(&text, "w1");
        assert!(w1.contains("2 claim(s) (1 stolen, 0 voided)"), "{text}");
        assert!(w1.contains("1 batch(es) done"), "{text}");
        // Heartbeat ages: w1 was last seen at its done record (4900), w0 at
        // its own (1900).
        assert!(w1.ends_with("heartbeat 0.1 s ago"), "{text}");
        assert!(
            worker(&text, "w0").ends_with("heartbeat 3.1 s ago"),
            "{text}"
        );
        // Once w1's lease deadline passes it reads as expired while w2's
        // later deadline keeps its lease active.
        let later = render(5_700);
        assert!(later.contains("2 done, 1 active, 1 expired"), "{later}");
        assert!(
            worker(&later, "w1").ends_with("heartbeat 0.8 s ago"),
            "{later}"
        );
    }
}
