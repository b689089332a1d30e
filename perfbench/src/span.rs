//! In-memory span recorder for the traced ladder run.
//!
//! A span is `(name, start, end, parent)` around one call into a layer.
//! Spans nest through [`Tracer::span`]'s closure, so a span's children
//! run one after another inside it and never overlap; its self time is
//! its duration minus the sum of its children's. Nothing is written
//! until [`Tracer::write_json`] runs at the end of the benchmark.
//!
//! A disabled tracer ([`Tracer::new(false)`]) reads no clock and records
//! nothing: the untraced end-to-end passes call the same adapters with it.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Index the next span will get; pass it to [`Tracer::total_ns`] to
    /// sum only spans recorded after this point.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration of every span named `name` recorded since `mark`.
    pub fn total_ns(&self, mark: usize, name: &str) -> u64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Self time of every span, indexed like `spans`.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    /// Writes every span as one JSON array row
    /// `[id, name, parent, start_ns, end_ns, self_ns]`, after a header
    /// object naming the run.
    pub fn write_json(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        let mut out = String::with_capacity(64 * self.spans.len() + 256);
        let _ = writeln!(out, "{{\"run\": {header},");
        out.push_str(" \"columns\": [\"id\", \"name\", \"parent\", \"start_ns\", \"end_ns\", \"self_ns\"],\n");
        out.push_str(" \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  [{i}, \"{}\", {parent}, {}, {}, {}]{sep}",
                s.name, s.start_ns, s.end_ns, self_ns[i]
            );
        }
        out.push_str(" ]}\n");
        std::fs::write(path, out)
    }
}
