//! In-memory span recorder for the traced run, written out as JSON lines
//! when the benchmark ends.
//!
//! One span each for the workload, every setup and run, and every step,
//! checkpoint and recovery inside a run. The hook calls inside a step are
//! not spans of their own (a contended run makes millions of them): the
//! step span carries their per-step count and busy time instead, which
//! bounds memory by the step count.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::layers::HookTotals;

struct Span {
    parent: u32,
    name: &'static str,
    start: Duration,
    dur: Duration,
    /// Hook calls made inside the span (step spans only).
    hooks: Option<HookTotals>,
}

/// Spans of one benchmark invocation; ids are 1-based indices, 0 is "no
/// parent".
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let start = self.origin.elapsed();
        self.push(name, parent, start, Duration::ZERO, None)
    }

    /// Closes a span opened with [`Spans::open`].
    pub fn close(&mut self, id: u32) {
        let s = &mut self.spans[id as usize - 1];
        s.dur = self.origin.elapsed() - s.start;
    }

    /// Records a finished span that started at `start` and lasted `dur`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        start: Instant,
        dur: Duration,
        hooks: Option<HookTotals>,
    ) {
        let start = start.duration_since(self.origin);
        self.push(name, parent, start, dur, hooks);
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        start: Duration,
        dur: Duration,
        hooks: Option<HookTotals>,
    ) -> u32 {
        self.spans.push(Span {
            parent,
            name,
            start,
            dur,
            hooks,
        });
        self.spans.len() as u32
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            let _ = write!(
                line,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}",
                i + 1,
                s.parent,
                s.name,
                s.start.as_nanos(),
                s.dur.as_nanos()
            );
            if let Some(h) = &s.hooks {
                let _ = write!(
                    line,
                    ",\"schedule\":{{\"calls\":{},\"busy_ns\":{}}},\"on_tick\":{{\"calls\":{},\"busy_ns\":{}}},\"on_event\":{{\"calls\":{},\"busy_ns\":{}}},\"self_ns\":{}",
                    h.sched_calls,
                    h.sched_busy.as_nanos(),
                    h.tick_calls,
                    h.tick_busy.as_nanos(),
                    h.event_calls,
                    h.event_busy.as_nanos(),
                    s.dur.saturating_sub(h.busy()).as_nanos()
                );
            }
            line.push_str("}\n");
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}
