//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span and request id. The
//! benchmark opens one around every call it makes into a layer's public
//! functions (never inside the program), keeps them in memory, and
//! writes them out when the run ends. A layer's self time is its span
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans kept in memory per run; later spans still feed the per-layer
/// totals but are not stored for the trace file.
const STORED_SPANS: usize = 100_000;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `compiled.query`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Index of the parent span, or [`NO_PARENT`].
    pub parent: u32,
    /// Request (or call) id the span belongs to.
    pub req: u64,
    /// Units of work the span covers (calls, probes, bytes), at least 1.
    pub count: u64,
}

/// Per-name totals over every closed span.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerTotals {
    /// Spans closed.
    pub spans: u64,
    /// Work units covered.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span self times.
    pub self_ns: u64,
}

/// A handle to an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open {
    index: u32,
    start: u64,
}

/// Span recorder. Disabled, every call is a no-op that reads no clock.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records when `on`.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open { index: 0, start: 0 };
        }
        let start = self.now();
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let index = u32::try_from(self.spans.len()).unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
            count: 1,
        });
        self.stack.push(index);
        Open { index, start }
    }

    /// Closes a span covering `count` units of work.
    pub fn end(&mut self, open: Open, count: u64) {
        if !self.on {
            return;
        }
        let end = self.now();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.index), "spans must close innermost first");
        let span = &mut self.spans[open.index as usize];
        span.end = end.max(open.start);
        span.count = count.max(1);
    }

    /// Runs `f` inside a span covering `count` units of work.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        count: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let open = self.begin(name, req);
        let out = f(self);
        self.end(open, count);
        out
    }

    /// Records a span whose times were taken elsewhere (another thread,
    /// or a process on the far side of a socket), parented to the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, start: u64, end: u64, req: u64, count: u64) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            req,
            count: count.max(1),
        });
    }

    /// Converts an [`Instant`] to this tracer's clock.
    #[must_use]
    pub fn at(&self, instant: Instant) -> u64 {
        u64::try_from(instant.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(0)
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Folds the recorded spans into per-name totals and drops the
    /// stored spans beyond the in-memory cap, keeping the totals exact.
    /// Call only with no span open.
    pub fn compact(&mut self, totals: &mut BTreeMap<&'static str, LayerTotals>) {
        debug_assert!(self.stack.is_empty(), "compact with an open span");
        if self.spans.len() <= STORED_SPANS {
            return;
        }
        // Split at a root so that no kept span loses a child.
        let keep = (STORED_SPANS / 2..self.spans.len())
            .find(|&i| self.spans[i].parent == NO_PARENT)
            .unwrap_or(self.spans.len());
        let tail = self.spans.split_off(keep);
        let offset = keep as u32;
        let rebased: Vec<Span> = tail
            .into_iter()
            .map(|mut s| {
                s.parent = s.parent.checked_sub(offset).unwrap_or(NO_PARENT);
                s
            })
            .collect();
        for (name, t) in layer_totals(&rebased) {
            let entry = totals.entry(name).or_default();
            entry.spans += t.spans;
            entry.count += t.count;
            entry.total_ns += t.total_ns;
            entry.self_ns += t.self_ns;
        }
        self.dropped += rebased.len() as u64;
    }

    /// Spans folded into totals without being kept.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the stored spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                r#"{{"span":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{},"count":{}}}"#,
                s.name, s.start, s.end, s.req, s.count
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
#[must_use]
pub fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the union of its
/// children's intervals inside it.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = children.get_mut(s.parent as usize) {
            kids.push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| (s.end - s.start) - covered_ns(s.start, s.end, kids))
        .collect()
}

/// Per-name totals of `spans` (durations, self times, work units).
#[must_use]
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = totals.entry(s.name).or_default();
        t.spans += 1;
        t.count += s.count;
        t.total_ns += s.end - s.start;
        t.self_ns += self_ns;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Overlapping children (two pool workers) and one running past
        // the parent's end: only [10, 50) and [90, 100) are covered.
        let spans = [
            span("server.handle", 0, 100, NO_PARENT),
            span("index", 10, 30, 0),
            span("index", 20, 50, 0),
            span("render", 90, 120, 0),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 30]);
    }

    #[test]
    fn self_time_counts_only_direct_children() {
        // A grandchild is already inside its parent's interval; it must
        // not be subtracted from the root a second time.
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("mid", 0, 60, 0),
            span("leaf", 10, 40, 1),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 30]);
        let totals = layer_totals(&spans);
        let total_self: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(total_self, 100, "self times partition the root interval");
    }

    #[test]
    fn nested_begin_end_links_parents() {
        let mut tracer = Tracer::new(true);
        tracer.span("outer", 7, 1, |t| {
            t.span("inner", 7, 3, |_| ());
            t.record("wire", 0, 0, 7, 1);
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[1].count, 3);
        assert!(spans.iter().all(|s| s.req == 7 && s.end >= s.start));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let v = tracer.span("outer", 1, 1, |t| {
            t.record("x", 0, 5, 1, 1);
            42
        });
        assert_eq!(v, 42);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn compact_keeps_totals_exact() {
        let mut tracer = Tracer::new(true);
        for i in 0..(STORED_SPANS as u64 + 10) {
            tracer.record("leaf", i, i + 2, i, 1);
        }
        let mut totals = BTreeMap::new();
        tracer.compact(&mut totals);
        for (name, t) in layer_totals(tracer.spans()) {
            let e = totals.entry(name).or_default();
            e.spans += t.spans;
            e.total_ns += t.total_ns;
        }
        assert_eq!(totals["leaf"].spans, STORED_SPANS as u64 + 10);
        assert_eq!(totals["leaf"].total_ns, 2 * (STORED_SPANS as u64 + 10));
        assert!(tracer.spans().len() <= STORED_SPANS);
    }
}
