//! In-memory span recording for traced runs.
//!
//! Spans are recorded by the benchmark's own code around calls into a
//! layer's public functions — never inside the program. Each span has a
//! name, start and end (ns since the run's origin), its parent span and
//! the op it belongs to. Spans stay in memory until the run ends; a
//! span's self time is its duration minus the time its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The name of the span that encloses one whole op.
pub const OP: &str = "op";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`lang.build`, `apply`, ...) or [`OP`].
    pub name: &'static str,
    /// Start, ns since the run origin.
    pub start_ns: u64,
    /// End, ns since the run origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Op id the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One worker's spans and counts.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl SpanLog {
    /// An empty log timing against `origin` (shared by all workers).
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Runs one op (id `op`) inside an [`OP`] span; `f` records its
    /// layer spans on the same log.
    pub fn op<R>(&mut self, op: u64, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        self.op = op;
        let id = self.begin(OP);
        let r = f(self);
        self.end(id);
        r
    }

    /// Adds `v` to the counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// The counter `name` (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Moves another worker's spans and counts into this log.
    pub fn absorb(&mut self, other: SpanLog) {
        assert!(other.stack.is_empty(), "absorbing a log with open spans");
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        for (k, v) in other.counts {
            *self.counts.entry(k).or_default() += v;
        }
    }

    /// Self time of every span in ns: duration minus the durations of
    /// its direct children (children never overlap — one log is one
    /// thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Layer → total self time (ms) over every span of that name;
    /// [`OP`] spans' self time is the time no layer span covered.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_default() += ns as f64 / 1e6;
        }
        out
    }

    /// Total self time (ms) of the spans named `name`.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ms_by_name().get(name).copied().unwrap_or(0.0)
    }

    /// Number of [`OP`] spans and their summed duration (ms).
    pub fn ops(&self) -> (usize, f64) {
        let ops: Vec<&Span> = self.spans.iter().filter(|s| s.name == OP).collect();
        let ms = ops.iter().map(|s| s.dur_ns() as f64 / 1e6).sum();
        (ops.len(), ms)
    }

    /// Checks that every span lies inside its parent's interval.
    pub fn well_nested(&self) -> bool {
        self.spans.iter().all(|s| match s.parent {
            Some(p) => {
                let p = &self.spans[p];
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns && p.op == s.op
            }
            None => true,
        })
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Runs `f` inside a span on `log` when there is one.
pub fn time_on<R>(log: Option<&mut SpanLog>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match log {
        Some(log) => log.time(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_absorb_keeps_parents() {
        let origin = Instant::now();
        let mut a = SpanLog::new(origin);
        a.op(1, |log| {
            log.time("lang.build", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            log.time("apply", || ());
        });
        let mut b = SpanLog::new(origin);
        b.op(2, |log| log.time("apply", || ()));
        a.absorb(b);
        assert!(a.well_nested());
        let (n, op_ms) = a.ops();
        assert_eq!(n, 2);
        let by_name = a.self_ms_by_name();
        let total: f64 = by_name.values().sum();
        assert!((total - op_ms).abs() < 1e-9, "{total} vs {op_ms}");
        assert!(by_name["lang.build"] >= 2.0);
    }
}
