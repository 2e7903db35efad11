//! Spans and counts recorded from the benchmark's own files, around its
//! calls into each layer. Nothing here reaches into the library: a span
//! times one public call, so its duration is that layer's busy time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
struct Span {
    /// Layer name, e.g. `core.gap.train`.
    name: &'static str,
    /// Nanoseconds since the tracer started.
    start_ns: u64,
    /// Nanoseconds since the tracer started.
    end_ns: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
}

/// In-memory span and count recorder; written out once, at the end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// [`Tracer::span`] for a call that does not record inner spans.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, |_| f())
    }

    /// Adds `by` to the count `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_insert(0.0) += by;
    }

    /// A recorded count (0 when never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Total seconds spent in spans named `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.durations_ns(name).map(|d| d as f64).sum::<f64>() / 1e9
    }

    /// Durations, in nanoseconds, of every span named `name`.
    pub fn durations_ns<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
    }

    /// The spans and counts as JSON: one object per span, with its index.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                if i == 0 { "" } else { "," },
                i,
                s.name,
                s.start_ns,
                s.end_ns,
                parent
            );
        }
        out.push_str("\n], \"counts\": {");
        for (i, (name, v)) in self.counts.iter().enumerate() {
            let _ = write!(out, "{}\"{}\": {}", if i == 0 { "" } else { ", " }, name, v);
        }
        out.push_str("}}");
        out
    }
}
