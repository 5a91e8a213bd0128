//! In-memory span recording for the traced run.
//!
//! Spans are recorded only from the harness's own files, around calls
//! into each layer, kept in memory and written out when the run ends. The
//! untraced repetitions never construct a [`Tracer`], so they pay nothing.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    /// Id of the span that caused this one; `0` for a root span.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span: frames offered, or lanes in the round.
    pub work: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from the generator thread and the engine's workers.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id (ids start at 1).
    pub fn record(&self, name: &'static str, parent: u32, start_ns: u64, work: u64) -> u32 {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("a tracing thread panicked");
        let id = spans.len() as u32 + 1;
        spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
            work,
        });
        id
    }

    /// Reserves an id for a span that is still open, so children recorded
    /// before it closes can name it as their parent.
    pub fn open(&self, name: &'static str, work: u64) -> u32 {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("a tracing thread panicked");
        let id = spans.len() as u32 + 1;
        spans.push(Span {
            name,
            id,
            parent: 0,
            start_ns,
            end_ns: start_ns,
            work,
        });
        id
    }

    /// Closes a span reserved by [`Tracer::open`].
    pub fn close(&self, id: u32, work: u64) {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("a tracing thread panicked");
        let span = &mut spans[id as usize - 1];
        span.end_ns = end_ns;
        span.work = work;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("a tracing thread panicked")
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Overlapping children are counted once and
/// children are clipped to the parent's interval.
pub fn self_time_ns(parent: &Span, spans: &[Span]) -> u64 {
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == parent.id)
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = parent.start_ns;
    for (start, end) in children {
        let start = start.max(cursor);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    parent.duration_ns() - covered
}

/// Total duration of every span called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// Renders the spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"work\":{}}}",
            s.name,
            s.id,
            s.parent,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            s.work
        );
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            id,
            parent,
            start_ns,
            end_ns,
            work: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = [
            span(1, 0, 100, 1_100),
            span(2, 1, 200, 400),
            span(3, 1, 600, 900),
            // A grandchild and an unrelated root must not count.
            span(4, 2, 250, 300),
            span(5, 0, 0, 5_000),
        ];
        assert_eq!(self_time_ns(&spans[0], &spans), 1_000 - 200 - 300);
        assert_eq!(self_time_ns(&spans[1], &spans), 200 - 50);
        assert_eq!(self_time_ns(&spans[3], &spans), 50);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            span(1, 0, 1_000, 2_000),
            span(2, 1, 1_100, 1_500),
            span(3, 1, 1_400, 1_700),
            // Starts before and ends after the parent: clipped to it.
            span(4, 1, 1_900, 2_500),
            span(5, 1, 500, 1_050),
        ];
        // Covered: [1000,1050] + [1100,1700] + [1900,2000] = 750.
        assert_eq!(self_time_ns(&spans[0], &spans), 250);
    }

    #[test]
    fn open_spans_can_parent_spans_recorded_before_they_close() {
        let tracer = Tracer::new();
        let outer = tracer.open("outer", 0);
        let start = tracer.now_ns();
        let inner = tracer.record("inner", outer, start, 7);
        tracer.close(outer, 42);
        let spans = tracer.into_spans();
        assert_eq!((outer, inner), (1, 2));
        assert_eq!(spans[1].parent, outer);
        assert_eq!(spans[0].work, 42);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(to_json(&spans).contains("\"name\":\"inner\""));
    }
}
