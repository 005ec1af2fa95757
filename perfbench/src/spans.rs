//! In-memory span recording for the traced run.
//!
//! A span has a name, start, end, parent and request id. Spans are kept
//! in memory while the load runs and written out as JSON lines when the
//! run ends; a layer's self time is its duration minus the part its
//! child spans cover.

use crate::stats::json_str;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

/// Every span of one run, timed in nanoseconds since the run's epoch.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `t` (0 for earlier instants).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span and returns its id (for use as a parent).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records a span between two instants.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.push(span)
    }

    /// Moves the end of span `id` to `end` (for a root span opened
    /// before its children were timed).
    pub fn close(&mut self, id: usize, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[id].end_ns = end_ns;
    }

    /// Per span name: `(spans, total self time in ns)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let covered = children.get(&id).map_or(0, |c| covered_ns(s, c));
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let request = s.request.map_or("null".to_owned(), |r| r.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":{},"start_ns":{},"end_ns":{},"parent":{parent},"request":{request}}}"#,
                json_str(s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `children`, clipped to `parent`'s interval.
fn covered_ns(parent: &Span, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(a, b)| (a.max(parent.start_ns), b.min(parent.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_unstable();
    let (mut total, mut reach) = (0, parent.start_ns);
    for (a, b) in clipped {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = Spans::new();
        let root = spans.push(Span {
            name: "client",
            start_ns: 0,
            end_ns: 100,
            parent: None,
            request: Some(1),
        });
        for (a, b) in [(10, 40), (30, 50), (90, 120)] {
            spans.push(Span {
                name: "stage",
                start_ns: a,
                end_ns: b,
                parent: Some(root),
                request: Some(1),
            });
        }
        let times = spans.self_times();
        // Children cover 10..50 and 90..100 of the root: 50 ns.
        assert_eq!(times["client"], (1, 50));
        assert_eq!(times["stage"], (3, 30 + 20 + 30));
    }
}
