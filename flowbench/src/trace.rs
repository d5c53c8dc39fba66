//! In-memory span recording for the traced run.
//!
//! Each client thread owns one [`Recorder`]. The benchmark wraps every
//! call into a layer's public API in [`Recorder::span`]; a span keeps
//! its name, start, end, parent span and request id. Nothing is written
//! while the benchmark runs: the spans of all threads are merged at
//! exit and written as Chrome trace-event JSON plus a per-layer
//! self-time summary. With tracing off a span is just the call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// The span that wraps one request; layer spans are its children.
pub const REQUEST: &str = "request";

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index into the same thread's span list, or `NO_PARENT`.
    parent: u32,
    pub req: u64,
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    tid: u32,
    req: u64,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch` (shared by all
    /// threads of a run, so their spans line up in the trace viewer).
    pub fn new(on: bool, epoch: Instant, tid: u32) -> Recorder {
        Recorder {
            on,
            epoch,
            tid,
            req: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Tags every span opened from now on with request id `req`.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req: self.req,
            tid: self.tid,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    /// Current nesting depth, for [`Recorder::close_to`].
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Closes every span opened above `depth` (after a caught panic
    /// unwound through them).
    pub fn close_to(&mut self, depth: usize) {
        let now = self.now_ns();
        while self.stack.len() > depth {
            let idx = self.stack.pop().expect("stack is deeper than depth");
            self.spans[idx as usize].end_ns = now;
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// All spans of a run, merged across threads.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

/// Per-layer totals of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Trace {
    /// Appends a span list whose parent indices are relative to its own
    /// start (one thread's spans, or another trace's), rebasing them.
    pub fn append(&mut self, spans: Vec<Span>) {
        let base = self.spans.len() as u32;
        self.spans.extend(spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Count, total and self time per span name. A span's self time is
    /// its duration minus the time its direct children cover.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(*child);
        }
        out
    }

    /// Total time of named layer spans directly under request spans,
    /// per thread id.
    pub fn covered_ns_by_thread(&self) -> BTreeMap<u32, u64> {
        let mut out: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != NO_PARENT && self.spans[s.parent as usize].name == REQUEST {
                *out.entry(s.tid).or_default() += s.dur_ns();
            }
        }
        out
    }

    /// The trace as Chrome trace-event JSON (complete events, `ph: X`),
    /// loadable in Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"request\":{}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i,
                parent,
                s.req
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// The per-layer summary as JSON: count, total and self time.
    pub fn summary_json(&self) -> String {
        let mut out = String::from("{\n");
        let layers = self.layers();
        for (i, (name, t)) in layers.iter().enumerate() {
            let _ = writeln!(
                out,
                "  \"{}\": {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}{}",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                if i + 1 < layers.len() { "," } else { "" }
            );
        }
        out.push_str("}\n");
        out
    }
}

/// Measured cost of recording one span, in nanoseconds: the time of a
/// burst of empty spans minus the time of the same burst untraced.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 50_000;
    let burst = |on: bool| {
        let mut rec = Recorder::new(on, Instant::now(), 0);
        let t = Instant::now();
        for i in 0..N {
            rec.span("calibrate", |_| std::hint::black_box(i));
        }
        std::hint::black_box(rec.len());
        t.elapsed().as_nanos() as f64
    };
    let mut samples: Vec<f64> = (0..5)
        .map(|_| (burst(true) - burst(false)) / f64::from(N))
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2].max(0.0)
}
