//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing inside the program is instrumented: a span brackets one call
//! from this package into a crate's public function. Spans stay in
//! memory and are written out when the run ends. Names starting with
//! `bench.` group the benchmark's own work (a pass, one instance, one
//! request); every other name is a layer.

use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (or `bench.*` group) name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// Index of the span in [`Tracer::spans`] (`None` when tracing is off).
    #[must_use]
    pub fn index(self) -> Option<usize> {
        self.0
    }
}

/// In-memory span recorder for one thread. When off, every call is a
/// no-op, so the same code path runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if let Some(idx) = id.0 {
            let top = self.open.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
            self.spans[idx].end = self.now();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line to `out`.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start, s.end
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover. One [`Tracer`] records one thread, so a span's
/// children run one after another inside it and never overlap.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] -= s.dur();
        }
    }
    selfs
}

/// Share of the root span `root`'s wall time that layer spans cover:
/// one minus the self time of the `bench.*` spans in its subtree (the
/// benchmark's own work between layer calls) over its duration.
#[must_use]
pub fn layer_coverage(spans: &[Span], root: usize) -> f64 {
    let selfs = self_times(spans);
    let in_subtree = |mut i: usize| loop {
        if i == root {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    };
    let own: u64 = (0..spans.len())
        .filter(|&i| spans[i].name.starts_with("bench.") && in_subtree(i))
        .map(|i| selfs[i])
        .sum();
    let wall = spans[root].dur();
    if wall == 0 {
        0.0
    } else {
        1.0 - own as f64 / wall as f64
    }
}

/// Durations, in seconds, of every span named `name`.
#[must_use]
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 * 1e-9)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("bench.pass", 0, 100, None),
            span("core.search", 10, 40, Some(0)),
            span("core.validate", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 10]);
    }

    #[test]
    fn coverage_counts_only_bench_self_time_as_uncovered() {
        let spans = vec![
            span("bench.pass", 0, 100, None),
            span("bench.instance", 0, 90, Some(0)),
            span("core.search", 5, 85, Some(1)),
        ];
        // bench.pass self = 10, bench.instance self = 10 → 80 % covered.
        assert!((layer_coverage(&spans, 0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("bench.pass");
        let x = t.time("core.search", || 2 + 2);
        t.end(outer);
        assert_eq!(x, 4);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end >= t.spans()[1].end);

        let mut off = Tracer::new(false);
        let id = off.begin("bench.pass");
        off.time("core.search", || ());
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
