//! In-memory spans recorded around calls into the workspace's public
//! functions (traced runs only).
//!
//! A span has a name, start and end (ns since the trace's epoch), the
//! operation it belongs to, and optionally a parent span. Spans stay in
//! memory until the run ends; [`Trace::write_jsonl`] then writes them out
//! one JSON object per line. Self time is a span's duration minus the
//! durations of its direct children (children never overlap here: every
//! replay is sequential).

use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub op: u64,
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Index of a span within its trace.
pub type SpanId = usize;

pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Trace::close`].
    pub fn open(&mut self, op: u64, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            name: name.into(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        op: u64,
        name: impl Into<String>,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(op, name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Record an already-measured root span (the client's round trip).
    pub fn record(&mut self, op: u64, name: &str, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            op,
            name: name.to_string(),
            parent: None,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    /// Append another trace of the same epoch (a client thread's spans).
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time in ns of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Per span name: (count, total µs, self µs), sorted by name.
    pub fn summary(&self) -> BTreeMap<String, (u64, f64, f64)> {
        let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.duration_ns() as f64 / 1e3;
            e.2 += self_ns as f64 / 1e3;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"op\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Trace::new(Instant::now());
        let root = t.open(7, "root", None);
        let child = t.open(7, "child", Some(root));
        t.span(7, "grandchild", Some(child), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(child);
        t.close(root);
        let selfs = t.self_ns();
        let spans = &t.spans;
        assert_eq!(
            selfs[root],
            spans[root].duration_ns() - spans[child].duration_ns()
        );
        assert_eq!(selfs[2], spans[2].duration_ns());
        assert!(spans.iter().all(|s| s.op == 7));
        let summary = t.summary();
        assert_eq!(summary["grandchild"].0, 1);
    }

    #[test]
    fn absorb_rebases_parent_ids() {
        let epoch = Instant::now();
        let mut a = Trace::new(epoch);
        a.span(0, "a", None, || ());
        let mut b = Trace::new(epoch);
        let r = b.open(1, "b", None);
        b.span(1, "b.child", Some(r), || ());
        b.close(r);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
