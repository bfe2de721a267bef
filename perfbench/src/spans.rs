//! In-memory span recording and self-time accounting.
//!
//! A span is a timer the harness wraps around one call into a layer
//! crate: name, start, end, parent span and op. Spans stay in memory
//! until the run ends. A span's *self time* is its duration minus the
//! union of its children's intervals, so sequential children subtract
//! their sum and children running in parallel on worker threads
//! subtract only the wall they cover.

use mawilab_detectors::{Alarm, ChunkView, DetectorKind, IncrementalDetector, Tuning};
use mawilab_model::TraceMeta;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into [`Recorder::names`].
    pub name: u16,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The op the span belongs to.
    pub op: u32,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans of the harness thread.
pub struct Recorder {
    epoch: Instant,
    names: Vec<String>,
    ids: HashMap<String, u16>,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            // lint:allow(no-wall-clock-in-kernels): the span clock of the benchmark harness, outside the measured program
            epoch: Instant::now(),
            names: Vec::new(),
            ids: HashMap::new(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorder's clock origin, for spans taken on other threads.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Interns a span name.
    pub fn name(&mut self, name: &str) -> u16 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u16;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// The interned names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: u16) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied().unwrap_or(ROOT),
            op: self.op,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: u16, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Opens the root span of op `op`.
    pub fn begin_op(&mut self, op: u32, name: u16) -> u32 {
        assert!(self.stack.is_empty(), "an op span must be a root");
        self.op = op;
        self.begin(name)
    }

    /// Adds a span recorded on another thread, parented by interval
    /// containment under the innermost listed `containers` span, or
    /// `fallback` when none contains it.
    pub fn adopt(
        &mut self,
        name: u16,
        start_ns: u64,
        end_ns: u64,
        containers: &[u32],
        fallback: u32,
    ) {
        let parent = containers
            .iter()
            .rev()
            .copied()
            .find(|&c| {
                let s = &self.spans[c as usize];
                s.start_ns <= start_ns && end_ns <= s.end_ns
            })
            .unwrap_or(fallback);
        self.spans.push(Span {
            name,
            parent,
            op: self.spans[fallback as usize].op,
            start_ns,
            end_ns,
        });
    }

    /// Duration of span `id`, seconds.
    pub fn dur_s(&self, id: u32) -> f64 {
        self.spans[id as usize].dur_ns() as f64 * 1e-9
    }

    /// Per-op self time by span name: `result[op][name]`, seconds.
    pub fn self_times(&self) -> HashMap<u32, HashMap<u16, f64>> {
        let spans = &self.spans;
        let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for s in spans {
            if s.parent != ROOT {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: HashMap<u32, HashMap<u16, f64>> = HashMap::new();
        for (k, s) in spans.iter().enumerate() {
            let id = k as u32;
            let covered = children.get_mut(&id).map_or(0, |c| union_ns(c, s));
            let own = s.dur_ns().saturating_sub(covered) as f64 * 1e-9;
            *out.entry(s.op).or_default().entry(s.name).or_default() += own;
        }
        out
    }

    /// `(busy, cover)` seconds of the direct children of every span
    /// named `parent_name` recorded since index `from`: the sum of their
    /// durations and the wall they cover. `busy / cover` is the
    /// parallelism a fan-out achieved.
    pub fn child_busy_and_cover_s(&self, from: usize, parent_name: u16) -> (f64, f64) {
        let mut by_parent: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans[from..] {
            if s.parent != ROOT && self.spans[s.parent as usize].name == parent_name {
                by_parent
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let (mut busy, mut cover) = (0u64, 0u64);
        for (p, mut c) in by_parent {
            busy += c.iter().map(|&(a, b)| b.saturating_sub(a)).sum::<u64>();
            cover += union_ns(&mut c, &self.spans[p as usize]);
        }
        (busy as f64 * 1e-9, cover as f64 * 1e-9)
    }
}

/// Length of the union of `intervals`, clipped to `within`.
fn union_ns(intervals: &mut [(u64, u64)], within: &Span) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(within.start_ns), b.min(within.end_ns));
        if b <= a {
            continue;
        }
        cur = match cur {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Which detector call a worker-thread span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorCall {
    /// `IncrementalDetector::observe`.
    Observe,
    /// `IncrementalDetector::finish`.
    Finish,
}

/// Spans one configuration recorded: `(call, start_ns, end_ns)`.
pub type DetectorLog = Arc<Mutex<Vec<(DetectorCall, u64, u64)>>>;

/// An [`IncrementalDetector`] that times its inner configuration's
/// `observe` and `finish` into a log, wherever the `exec` fan-out runs
/// them. It forwards the other calls of a cold drain untouched; warm
/// starts fall back to the trait's cold defaults.
pub struct TimedDetector {
    inner: Box<dyn IncrementalDetector>,
    epoch: Instant,
    log: DetectorLog,
}

impl TimedDetector {
    /// Wraps `inner`, logging against the recorder clock `epoch`.
    pub fn new(inner: Box<dyn IncrementalDetector>, epoch: Instant, log: DetectorLog) -> Self {
        TimedDetector { inner, epoch, log }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record(&self, call: DetectorCall, start: u64) {
        let end = self.now_ns();
        self.log
            .lock()
            .expect("a detector thread panicked while logging")
            .push((call, start, end));
    }
}

impl IncrementalDetector for TimedDetector {
    fn kind(&self) -> DetectorKind {
        self.inner.kind()
    }

    fn tuning(&self) -> Tuning {
        self.inner.tuning()
    }

    fn begin(&mut self, meta: &TraceMeta) {
        self.inner.begin(meta)
    }

    fn observe(&mut self, chunk: &ChunkView<'_>) {
        let start = self.now_ns();
        self.inner.observe(chunk);
        self.record(DetectorCall::Observe, start);
    }

    fn finish(&mut self) -> Vec<Alarm> {
        let start = self.now_ns();
        let alarms = self.inner.finish();
        self.record(DetectorCall::Finish, start);
        alarms
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new();
        let (op, a) = (r.name("op"), r.name("a"));
        let root = r.begin_op(0, op);
        r.spans[root as usize].start_ns = 0;
        r.end(root);
        r.spans[root as usize].end_ns = 100;
        // Two overlapping children cover [10, 60): 50 ns.
        r.adopt(a, 10, 40, &[], root);
        r.adopt(a, 30, 60, &[], root);
        let t = r.self_times();
        assert!((t[&0][&op] - 50e-9).abs() < 1e-15);
        assert!((t[&0][&a] - 60e-9).abs() < 1e-15);
        let (busy, cover) = r.child_busy_and_cover_s(0, op);
        assert!((busy - 60e-9).abs() < 1e-15 && (cover - 50e-9).abs() < 1e-15);
    }
}
