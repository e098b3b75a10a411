//! In-memory span recording for the traced run, and the one adapter
//! through which the benchmark reads the library's work counters.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer, kept in memory, and written out as JSON lines when the run
//! ends. A span's self time is its duration minus the part of it that
//! its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use gpd::counters::ScanCounters;
use gpd::BudgetMeter;

/// Identifies a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// The request (query or event) the span belongs to.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans of one run, timed from a common origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the origin to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now_ns();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Self time of every span, in nanoseconds: its duration minus the
    /// union of its children's intervals.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Work counters, read through this one function pair so that a later
/// move from process-global counters to scoped ones changes only here.
pub fn work_snapshot() -> ScanCounters {
    gpd::counters::snapshot()
}

/// Counter deltas since `before`.
pub fn work_since(before: &ScanCounters) -> ScanCounters {
    gpd::counters::snapshot().since(before)
}

/// Nodes a budgeted engine charged to `meter`.
pub fn meter_nodes(meter: &BudgetMeter) -> u64 {
    meter.nodes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut r = Recorder::new(Instant::now());
        let root = r.record("root", None, 0, 0, 100);
        r.record("a", Some(root), 0, 10, 30);
        // Overlapping children count once.
        r.record("b", Some(root), 0, 20, 50);
        r.record("c", Some(root), 0, 90, 120);
        let selfs = r.self_times();
        assert_eq!(selfs[root], 100 - 40 - 10);
        assert_eq!(selfs[1], 20);
    }
}
