//! Spans recorded from the benchmark's side of every call into a layer.
//!
//! A span is `name, start_ns, end_ns, parent, op_id`, kept in a vector
//! allocated before the run and written out as JSON lines at exit. A span's
//! self time is its duration minus the part its children cover.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op_id: u32,
    /// The interval was not observed where it stands: it is an in-process
    /// replay of one stage of a remote call, laid inside the call's span so
    /// that the call's self time is what the replay cannot explain.
    pub replayed: bool,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans not recorded because the pre-allocated vector was full.
    pub dropped: u64,
}

impl Recorder {
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when the vector is full (never reallocates, so
    /// recording cost stays flat).
    pub fn begin(&mut self, name: &'static str, parent: u32, op_id: u32) -> Option<u32> {
        let start_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
            replayed: false,
        })
    }

    pub fn end(&mut self, id: Option<u32>) {
        let now = self.now_ns();
        if let Some(id) = id {
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Times `f` as a child of `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op_id: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent.unwrap_or(NO_PARENT), op_id);
        let out = f();
        self.end(id);
        out
    }

    pub fn push(&mut self, span: Span) -> Option<u32> {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() as u32 - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Lays replayed stage durations end to end inside span `parent`,
    /// starting at its start and clipped to its end.
    pub fn push_replayed(&mut self, parent: u32, stages: &[(&'static str, u64)]) {
        let (mut at, end, op_id) = {
            let p = &self.spans[parent as usize];
            (p.start_ns, p.end_ns, p.op_id)
        };
        for &(name, dur) in stages {
            let stop = (at + dur).min(end);
            self.push(Span {
                name,
                start_ns: at,
                end_ns: stop,
                parent,
                op_id,
                replayed: true,
            });
            at = stop;
        }
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{},\"replayed\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id, s.replayed
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = children.get_mut(s.parent as usize) {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if hi > lo {
                list.push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Share of root-span wall time that lies in some child span, summed over
/// all ops: what the layer table accounts for.
pub fn accounted_share(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut wall, mut root_self) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(&selfs) {
        if s.parent == NO_PARENT {
            wall += s.end_ns - s.start_ns;
            root_self += own;
        }
    }
    if wall == 0 {
        0.0
    } else {
        1.0 - root_self as f64 / wall as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
            replayed: false,
        }
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        let spans = vec![
            span("op", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),  // child
            span("b", 40, 60, 0),  // adjacent to a
            span("a1", 15, 25, 1), // nested in a
            span("c", 90, 120, 0), // overruns the parent: clipped to 90..100
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 20, 10, 30]);
        assert!((accounted_share(&spans) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        let spans = vec![
            span("op", 0, 100, NO_PARENT),
            span("a", 10, 50, 0),
            span("b", 30, 70, 0),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn replayed_stages_are_clipped_to_the_call() {
        let mut r = Recorder::with_capacity(8);
        let call = r.push(span("cloud.refresh", 100, 200, NO_PARENT)).unwrap();
        r.push_replayed(
            call,
            &[("search", 60), ("wire.encode", 30), ("edge.apply", 30)],
        );
        let s = r.spans();
        assert_eq!((s[1].start_ns, s[1].end_ns), (100, 160));
        assert_eq!((s[2].start_ns, s[2].end_ns), (160, 190));
        assert_eq!((s[3].start_ns, s[3].end_ns), (190, 200));
        assert!(s[1..].iter().all(|c| c.replayed && c.parent == call));
        assert_eq!(self_times(s)[0], 0);
    }

    #[test]
    fn a_full_recorder_drops_instead_of_growing() {
        let mut r = Recorder::with_capacity(1);
        let a = r.begin("a", NO_PARENT, 0);
        let b = r.begin("b", NO_PARENT, 0);
        r.end(b);
        r.end(a);
        assert!(a.is_some() && b.is_none());
        assert_eq!((r.spans().len(), r.dropped), (1, 1));
    }
}
