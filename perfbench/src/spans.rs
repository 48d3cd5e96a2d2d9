//! Spans of the traced run: recording, self time, and the JSONL span file.
//!
//! A span covers one call from the benchmark into a layer of the program.
//! Spans live in per-thread [`SpanLog`]s with capacity reserved up front
//! (recording never allocates, so the traced run's allocation counts stay
//! those of the program), and are written out once the run has ended.
//!
//! # Span file schema
//!
//! One JSON object per line. The first line is the header:
//!
//! ```text
//! {"run_id": "<workload>-<seed>-<unix ms>", "workload": "<name>", "seed": <n>,
//!  "spans": <count>, "dropped": <count>, "time_unit": "ns"}
//! ```
//!
//! Every further line is one span:
//!
//! ```text
//! {"id": <n>, "parent": <id or null>, "request": <n>, "thread": <n>,
//!  "name": "<layer.call>", "start_ns": <n>, "end_ns": <n>, "self_ns": <n>}
//! ```
//!
//! `id`s are unique within the file; `parent` names the span whose call
//! caused this one; spans of one request (an object-workload request, or one
//! simulation of a sweep) share `request`. Times are nanoseconds since the
//! run's clock started. `self_ns` is the span's duration minus the part of
//! it its children cover (see [`self_times`]).

use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// A monotonic clock shared by every thread of a run.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// A clock whose zero is now.
    pub fn start() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the clock started.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `queue.enqueue` or `core.schedule`.
    pub name: &'static str,
    /// Start, in clock nanoseconds.
    pub start_ns: u64,
    /// End, in clock nanoseconds (`>= start_ns` once closed).
    pub end_ns: u64,
    /// Index of the parent span in the same log.
    pub parent: Option<u32>,
    /// The request this span belongs to.
    pub request: u64,
}

impl Span {
    /// `end_ns - start_ns`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread, fixed-capacity span buffer.
#[derive(Debug)]
pub struct SpanLog {
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl SpanLog {
    /// A log holding up to `cap` spans; further spans are counted as dropped.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            spans: Vec::with_capacity(cap),
            cap,
            dropped: 0,
        }
    }

    /// Whether `n` more spans fit.
    #[inline]
    pub fn has_room(&self, n: usize) -> bool {
        self.spans.len() + n <= self.cap
    }

    /// Opens a span starting at `start_ns`; returns its index, or `None` if
    /// the log is full. Close it with [`SpanLog::close`].
    #[inline]
    pub fn open(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u32>,
        start_ns: u64,
    ) -> Option<u32> {
        self.record(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        })
    }

    /// Sets the end of an open span.
    #[inline]
    pub fn close(&mut self, index: u32, end_ns: u64) {
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Records a complete span; returns its index, or `None` if full.
    #[inline]
    pub fn record(&mut self, span: Span) -> Option<u32> {
        if self.spans.len() < self.cap {
            self.spans.push(span);
            Some((self.spans.len() - 1) as u32)
        } else {
            self.dropped += 1;
            None
        }
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the span. Children that overlap each other, or
/// reach outside their parent, are not counted twice or outside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p as usize];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration_ns() - covered_ns(kids))
        .collect()
}

/// Length of the union of intervals (sorts them in place).
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Writes the per-thread logs of one run of `workload` from `seed` to `path`
/// as JSONL (schema in the module docs), creating the parent directory.
pub fn write_jsonl(path: &Path, workload: &str, seed: u64, logs: &[&SpanLog]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let total: usize = logs.iter().map(|l| l.spans().len()).sum();
    let dropped: u64 = logs.iter().map(|l| l.dropped()).sum();
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"run_id\":\"{}-{}-{}\",\"workload\":\"{}\",\"seed\":{},\"spans\":{},\"dropped\":{},\"time_unit\":\"ns\"}}",
        workload, seed, unix_ms, workload, seed, total, dropped
    )?;
    let mut line = String::new();
    let mut offset = 0u64;
    for (thread, log) in logs.iter().enumerate() {
        let selfs = self_times(log.spans());
        for (i, (span, self_ns)) in log.spans().iter().zip(selfs).enumerate() {
            line.clear();
            let parent = span.parent.map_or_else(
                || "null".to_string(),
                |p| (offset + u64::from(p)).to_string(),
            );
            let _ = write!(
                line,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                offset + i as u64,
                parent,
                span.request,
                thread,
                span.name,
                span.start_ns,
                span.end_ns,
                self_ns
            );
            writeln!(out, "{line}")?;
        }
        offset += log.spans().len() as u64;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: "t",
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span(10, 30, None)]), vec![20]);
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root [0,100) ⊃ a [10,40) ⊃ b [20,30); c [50,60) under root.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 30, Some(1)),
            span(50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two children overlapping on [20,30): covered = [10,40) = 30.
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn children_reaching_outside_the_parent_are_clipped() {
        // Child [90,120) sticks out of [0,100): only [90,100) is covered;
        // a child wholly outside covers nothing.
        let spans = [
            span(0, 100, None),
            span(90, 120, Some(0)),
            span(200, 210, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 90);
    }

    #[test]
    fn full_log_counts_dropped_spans() {
        let mut log = SpanLog::with_capacity(1);
        let first = log.open("a", 1, None, 5);
        assert_eq!(first, Some(0));
        log.close(0, 9);
        assert_eq!(log.open("b", 1, first, 6), None);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.spans()[0].duration_ns(), 4);
    }

    #[test]
    fn jsonl_has_header_and_one_line_per_span() {
        let mut a = SpanLog::with_capacity(4);
        let root = a.open("request", 3, None, 0).expect("room");
        a.record(span(2, 5, Some(root)));
        a.close(root, 10);
        let mut b = SpanLog::with_capacity(4);
        b.record(span(1, 2, None));
        let dir = std::env::temp_dir().join(format!("perfbench-spans-{}", std::process::id()));
        let path = dir.join("spans.jsonl");
        write_jsonl(&path, "w", 9, &[&a, &b]).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_dir_all(&dir).expect("clean up");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"workload\":\"w\"") && lines[0].contains("\"spans\":3"));
        assert!(lines[1].contains("\"id\":0,\"parent\":null,\"request\":3"));
        assert!(lines[1].contains("\"self_ns\":7"));
        assert!(lines[2].contains("\"id\":1,\"parent\":0"));
        // The second thread's ids continue after the first's.
        assert!(lines[3].contains("\"id\":2,\"parent\":null") && lines[3].contains("\"thread\":1"));
    }
}
