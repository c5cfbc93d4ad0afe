//! In-memory spans around the calls the benchmark makes into each layer,
//! and the per-layer numbers derived from them.
//!
//! A span is `layer.operation`; the layer is the program module it times
//! (`spec`, `workload`, `replay`, `agg`, `store`, `lease`, `exec`, `query`,
//! `compact`, `sink`). Spans are kept in memory and written out once, when
//! the traced run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::util::percentile;

/// Thread lane of the coordinator (the caller's thread).
pub const COORD: u8 = 0;
/// Thread lane of the executor's worker thread.
pub const WORKER: u8 = 1;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in the same clock; 0 while the span is open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The item the call worked for: a cell index, batch, round or query.
    pub item: u64,
    /// [`COORD`] or [`WORKER`].
    pub thread: u8,
}

impl Span {
    /// The span's layer: the part of its name before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A shared, thread-safe span log.
#[derive(Debug, Clone)]
pub struct Tracer {
    spans: Arc<Mutex<Vec<Span>>>,
    epoch: Instant,
}

impl Tracer {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            spans: Arc::new(Mutex::new(Vec::new())),
            epoch: Instant::now(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`end`](Self::end).
    pub fn begin(&self, name: &'static str, parent: Option<usize>, item: u64, thread: u8) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            item,
            thread,
        });
        spans.len() - 1
    }

    /// Close span `id`.
    pub fn end(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log poisoned")[id].end_ns = end_ns;
    }

    /// Close span `id`, renaming it (for calls whose kind is known only
    /// afterwards, such as a trace-cache hit or miss).
    pub fn end_as(&self, id: usize, name: &'static str) {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans[id].end_ns = end_ns;
        spans[id].name = name;
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        item: u64,
        thread: u8,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, item, thread);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Number of spans recorded so far: the id the next span gets.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// The spans recorded from id `from` on.
    pub fn spans_since(&self, from: usize) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned")[from..].to_vec()
    }

    /// Write the span log as JSON lines to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"item\":{},\"thread\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.item,
                s.thread
            )?;
        }
        out.flush()
    }
}

/// Aggregates over a span log.
pub struct SpanStats {
    spans: Vec<Span>,
    self_ns: Vec<u64>,
}

impl SpanStats {
    /// Compute self times: a span's duration minus its children's.
    pub fn new(spans: Vec<Span>) -> Self {
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let self_ns = spans
            .iter()
            .zip(&child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(*c))
            .collect();
        SpanStats { spans, self_ns }
    }

    /// Durations (in `unit_ns` units) of every span named `name`.
    pub fn durations(&self, name: &str, unit_ns: f64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / unit_ns)
            .collect()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Median duration of spans named `name`, in `unit_ns` units.
    pub fn p(&self, name: &str, q: f64, unit_ns: f64) -> f64 {
        percentile(&self.durations(name, unit_ns), q)
    }

    /// Summed duration of spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations(name, 1e6).iter().sum()
    }

    /// Per layer: (span count, summed self time in ms), sorted by layer.
    pub fn by_layer(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(&self.self_ns) {
            let e = out.entry(s.layer()).or_default();
            e.0 += 1;
            e.1 += *self_ns as f64 / 1e6;
        }
        out
    }

    /// Summed self time of every span of `layer`, in ms.
    pub fn layer_self_ms(&self, layer: &str) -> f64 {
        self.by_layer().get(layer).map_or(0.0, |e| e.1)
    }

    /// Over every `exec.round` span: (summed wall ms, ms in which no span
    /// of another layer was open on any thread, ms the coordinator thread
    /// spent encoding and appending rows).
    pub fn rounds(&self) -> (f64, f64, f64) {
        let (mut wall, mut idle, mut coord_busy) = (0u64, 0u64, 0u64);
        for root in self.spans.iter().filter(|s| s.name == "exec.round") {
            let inside = |s: &&Span| s.start_ns >= root.start_ns && s.end_ns <= root.end_ns;
            let mut work: Vec<(u64, u64)> = self
                .spans
                .iter()
                .filter(inside)
                .filter(|s| s.layer() != "exec")
                .map(|s| (s.start_ns, s.end_ns))
                .collect();
            work.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = root.start_ns;
            for (start, end) in work {
                let start = start.max(cursor);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            wall += root.dur_ns();
            idle += root.dur_ns().saturating_sub(covered);
            coord_busy += self
                .spans
                .iter()
                .filter(inside)
                .filter(|s| {
                    s.thread == COORD
                        && matches!(s.name, "store.encode" | "store.append" | "lease.renew")
                })
                .map(Span::dur_ns)
                .sum::<u64>();
        }
        (
            wall as f64 / 1e6,
            idle as f64 / 1e6,
            coord_busy as f64 / 1e6,
        )
    }
}
