//! Span/event recording in Chrome Trace Event Format.
//!
//! A [`SpanRecorder`] collects *complete* events (`"ph": "X"`): each span
//! carries a name, category, thread lane, microsecond start offset and
//! duration, plus a small bag of typed args. [`write_chrome_trace`] renders
//! the collected events as a JSON array with one event object per line — the
//! layout chrome://tracing and Perfetto load directly, and line-oriented
//! tools can still grep. The writer is hand-rolled: the workspace has no
//! serialization dependency.
//!
//! Like the metrics side, a recorder handle is either live (`Arc`-shared
//! buffer behind a mutex) or disabled (`Default`), and a disabled handle's
//! `complete` is a single branch. Span recording is kept off the
//! per-event hot path by construction: the instrumented layers emit one span
//! per schedule *pass* or per campaign *cell*, not per simulator event.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A typed argument value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer (counts, sizes, ids).
    U64(u64),
    /// A float (rates, ratios).
    F64(f64),
    /// A short string (policy names, labels).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (shown on the slice).
    pub name: &'static str,
    /// Category (chrome://tracing filter lane).
    pub category: &'static str,
    /// Chrome phase: `X` = complete span (all the recorder records); other
    /// phases, such as `M` metadata, come from callers that build events.
    pub phase: char,
    /// Start offset from the recorder's epoch, microseconds.
    pub ts_us: u64,
    /// Duration in microseconds (written for `X` events only).
    pub dur_us: u64,
    /// Thread lane (worker index; 0 for single-threaded layers).
    pub tid: u64,
    /// Typed key/value args rendered into the event's `args` object.
    pub args: Vec<(&'static str, ArgValue)>,
}

#[derive(Debug)]
struct RecorderInner {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

/// Records spans relative to a fixed epoch.
///
/// `SpanRecorder::new()` is live; `SpanRecorder::disabled()` (and `Default`)
/// drops everything on the floor for the cost of one branch.
#[derive(Debug, Clone, Default)]
pub struct SpanRecorder {
    inner: Option<Arc<RecorderInner>>,
}

/// A span in flight: holds its start instant; finish it with
/// [`SpanRecorder::complete`].
#[derive(Debug, Clone, Copy)]
pub struct SpanStart {
    start: Option<Instant>,
}

impl SpanStart {
    /// Nanoseconds since the span started — 0 for a span handed out by a
    /// disabled recorder. Lets one timing feed both a duration histogram and
    /// the span itself.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.start
            .map(|s| s.elapsed().as_nanos() as u64)
            .unwrap_or(0)
    }
}

impl SpanRecorder {
    /// A live recorder with its epoch at "now".
    pub fn new() -> Self {
        SpanRecorder {
            inner: Some(Arc::new(RecorderInner {
                epoch: Instant::now(),
                events: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A disabled recorder: records nothing.
    pub fn disabled() -> Self {
        SpanRecorder::default()
    }

    /// Whether this recorder keeps events.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }

    /// Mark the start of a span. Costs one `Instant::now()` when live,
    /// nothing when disabled.
    #[inline]
    pub fn start(&self) -> SpanStart {
        SpanStart {
            start: if self.is_live() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Like [`start`](Self::start), but capture the clock whenever `live`
    /// is true even if this recorder is disabled — for callers that feed
    /// [`SpanStart::elapsed_ns`] into a duration histogram regardless of
    /// whether a span gets recorded.
    #[inline]
    pub fn start_if(&self, live: bool) -> SpanStart {
        SpanStart {
            start: if live || self.is_live() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Finish a span started with [`start`](Self::start), attaching args.
    #[inline]
    pub fn complete(
        &self,
        span: SpanStart,
        name: &'static str,
        category: &'static str,
        tid: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let (Some(inner), Some(start)) = (&self.inner, span.start) {
            let ts_us = start.duration_since(inner.epoch).as_micros() as u64;
            let dur_us = start.elapsed().as_micros() as u64;
            inner
                .events
                .lock()
                .expect("recorder poisoned")
                .push(TraceEvent {
                    name,
                    category,
                    phase: 'X',
                    ts_us,
                    dur_us,
                    tid,
                    args,
                });
        }
    }

    /// Drain the recorded events, ordered by start time (ties keep
    /// recording order, so the output is stable).
    pub fn take_events(&self) -> Vec<TraceEvent> {
        if let Some(inner) = &self.inner {
            let mut events = std::mem::take(&mut *inner.events.lock().expect("recorder poisoned"));
            events.sort_by_key(|e| e.ts_us);
            return events;
        }
        Vec::new()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        if let Some(inner) = &self.inner {
            return inner.events.lock().expect("recorder poisoned").len();
        }
        0
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Escape a string for a JSON string literal.
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn write_arg_value(v: &ArgValue, out: &mut String) {
    match v {
        ArgValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        ArgValue::F64(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        // JSON has no NaN/Inf; null keeps the file loadable.
        ArgValue::F64(_) => out.push_str("null"),
        ArgValue::Str(s) => {
            out.push('"');
            escape_json(s, out);
            out.push('"');
        }
    }
}

/// Render events as Chrome Trace Event Format: a JSON array with one event
/// object per line, `ts`/`dur` in microseconds, all events under one `pid`.
/// Load the file at chrome://tracing or <https://ui.perfetto.dev>.
pub fn write_chrome_trace(events: &[TraceEvent], process_name: &str) -> String {
    let mut out = String::with_capacity(64 + events.len() * 128);
    out.push_str("[\n");
    // Metadata first: the process name labels the whole trace.
    out.push_str(
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
         \"args\": {\"name\": \"",
    );
    escape_json(process_name, &mut out);
    out.push_str("\"}},\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str("{\"name\": \"");
        escape_json(e.name, &mut out);
        out.push_str("\", \"cat\": \"");
        escape_json(e.category, &mut out);
        let _ = write!(
            out,
            "\", \"ph\": \"{}\", \"pid\": 1, \"tid\": {}, \"ts\": {}",
            e.phase, e.tid, e.ts_us
        );
        if e.phase == 'X' {
            let _ = write!(out, ", \"dur\": {}", e.dur_us);
        }
        if !e.args.is_empty() {
            out.push_str(", \"args\": {");
            for (j, (key, value)) in e.args.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push('"');
                escape_json(key, &mut out);
                out.push_str("\": ");
                write_arg_value(value, &mut out);
            }
            out.push('}');
        }
        out.push('}');
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let recorder = SpanRecorder::disabled();
        let span = recorder.start();
        recorder.complete(span, "pass", "sched", 0, vec![("n", 3u64.into())]);
        assert!(!recorder.is_live());
        assert!(recorder.is_empty());
        assert!(recorder.take_events().is_empty());
    }

    #[test]
    fn spans_carry_timing_and_args() {
        let recorder = SpanRecorder::new();
        let span = recorder.start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        recorder.complete(
            span,
            "schedule_pass",
            "rjms",
            0,
            vec![("pending", 12u64.into()), ("policy", "dvfs".into())],
        );
        let second = recorder.start();
        recorder.complete(second, "cell", "campaign", 1, vec![]);
        assert_eq!(recorder.len(), 2);
        let events = recorder.take_events();
        assert!(recorder.is_empty(), "take drains the buffer");
        assert_eq!(events[0].name, "schedule_pass");
        assert_eq!(events[0].phase, 'X');
        assert!(
            events[0].dur_us >= 1_000,
            "slept 2ms, dur {}",
            events[0].dur_us
        );
        assert_eq!(events[1].name, "cell");
        assert_eq!(events[1].tid, 1);
        // Events come back sorted by start time.
        assert!(events[0].ts_us <= events[1].ts_us);
    }

    #[test]
    fn chrome_trace_layout_is_one_event_per_line() {
        let events = vec![
            TraceEvent {
                name: "cell",
                category: "campaign",
                phase: 'X',
                ts_us: 10,
                dur_us: 250,
                tid: 2,
                args: vec![
                    ("index", 7u64.into()),
                    ("policy", "mix".into()),
                    ("rate", 1.5f64.into()),
                ],
            },
            TraceEvent {
                name: "steal",
                category: "campaign",
                phase: 'i',
                ts_us: 42,
                dur_us: 0,
                tid: 1,
                args: vec![],
            },
        ];
        let text = write_chrome_trace(&events, "campaign demo");
        assert!(text.starts_with("[\n"));
        assert!(text.ends_with("]\n"));
        // Metadata + 2 events + brackets = 5 lines.
        assert_eq!(text.lines().count(), 5);
        assert!(text.contains("\"name\": \"cell\""));
        assert!(text.contains("\"ts\": 10, \"dur\": 250"));
        assert!(text.contains("\"args\": {\"index\": 7, \"policy\": \"mix\", \"rate\": 1.5}"));
        // Instants carry no dur field.
        let steal_line = text.lines().find(|l| l.contains("steal")).unwrap();
        assert!(!steal_line.contains("dur"));
        // Exactly one trailing comma pattern: every line except the last
        // event and the brackets ends with a comma.
        assert!(text.contains("\"process_name\""));
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut s = String::new();
        escape_json("a\"b\\c\nd\u{1}", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
        let text = write_chrome_trace(&[], "quote\"name");
        assert!(text.contains("quote\\\"name"));
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let mut s = String::new();
        write_arg_value(&ArgValue::F64(f64::NAN), &mut s);
        assert_eq!(s, "null");
    }
}
