//! In-memory span recording around the calls into each layer.
//!
//! Spans live in a buffer allocated before the traced run starts and are
//! written out once, when the run ends. When the buffer is full further spans
//! are counted as dropped instead of growing it mid-run.

use crate::sut::Json;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// What a span's call worked on; fields that do not apply stay 0.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Work {
    pub nodes: u64,
    pub edges: u64,
    pub rows: u64,
    pub bytes: u64,
}

impl Work {
    pub fn nodes(nodes: usize) -> Work {
        Work {
            nodes: nodes as u64,
            ..Work::default()
        }
    }
}

/// One timed call. Spans of one job share `job`; `parent` is the span that
/// caused this one.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub job: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub work: Work,
}

/// The span buffer of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    capacity: usize,
    pub dropped: u64,
}

impl Tracer {
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// An instant on the tracer's clock.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id ([`NO_PARENT`] if dropped).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        job: u32,
        start_ns: u64,
        end_ns: u64,
        work: Work,
    ) -> u32 {
        if self.spans.len() == self.capacity {
            self.dropped += 1;
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            job,
            name,
            start_ns,
            end_ns,
            work,
        });
        id
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, job: u32) -> u32 {
        let now = self.now();
        self.record(name, parent, job, now, now, Work::default())
    }

    /// Closes an open span now.
    pub fn close(&mut self, id: u32, work: Work) {
        let now = self.now();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = now;
            span.work = work;
        }
    }

    /// Times `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        job: u32,
        work: Work,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, parent, job, start, end, work);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span list.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Total {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub work: Work,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
        t.work.nodes += s.work.nodes;
        t.work.edges += s.work.edges;
        t.work.rows += s.work.rows;
        t.work.bytes += s.work.bytes;
    }
    out
}

/// Writes the trace file: the run's header, then one object per span.
/// Streamed, so a few hundred thousand spans never sit in memory as a tree.
pub fn write_file(path: &Path, header: &Json, spans: &[Span], dropped: u64) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write!(
        w,
        "{{\"header\":{},\"dropped_spans\":{dropped},\"spans\":[",
        header.compact()
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        write!(
            w,
            "{}\n{{\"id\":{},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"nodes\":{},\"edges\":{},\"rows\":{},\"bytes\":{}}}",
            if i == 0 { "" } else { "," },
            s.id,
            s.job,
            s.name,
            s.start_ns,
            s.end_ns,
            s.work.nodes,
            s.work.edges,
            s.work.rows,
            s.work.bytes
        )?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            job: 0,
            name: if parent == NO_PARENT { "root" } else { "kid" },
            start_ns,
            end_ns,
            work: Work::default(),
        }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        // root 0..100 with children 10..30, 20..50 (overlapping), 60..70 and
        // one that sticks out past the parent, 90..120; grandchild 12..18.
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 30),
            span(2, 0, 20, 50),
            span(3, 0, 60, 70),
            span(4, 0, 90, 120),
            span(5, 1, 12, 18),
        ];
        let selfs = self_times(&spans);
        // Covered: 10..50 (40) + 60..70 (10) + 90..100 (10) = 60.
        assert_eq!(selfs[0], 40);
        assert_eq!(selfs[1], 14);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[5], 6);
        let t = totals(&spans);
        assert_eq!(t["root"].calls, 1);
        assert_eq!(t["kid"].calls, 5);
        assert_eq!(t["kid"].total_ns, 20 + 30 + 10 + 30 + 6);
    }

    #[test]
    fn full_buffer_drops_instead_of_growing() {
        let mut t = Tracer::with_capacity(2);
        let a = t.open("a", NO_PARENT, 0);
        t.close(a, Work::nodes(3));
        t.span("b", a, 0, Work::default(), || ());
        assert_eq!(t.span("c", a, 0, Work::default(), || 7), 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped, 1);
        assert_eq!(t.spans()[0].work.nodes, 3);
        assert!(t.spans()[1].end_ns >= t.spans()[1].start_ns);
    }
}
