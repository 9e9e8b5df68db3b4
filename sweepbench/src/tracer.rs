//! In-memory spans recorded around calls into each layer.
//!
//! Spans live in the benchmark's own code — the program under test is
//! not instrumented — and are only recorded on traced runs. Each span
//! carries the work it covered (instructions, calls, cells…), so a
//! layer's rate is measured where the work happens.

use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `trace.encode`.
    pub name: &'static str,
    /// Start, in seconds since the tracer was created.
    pub start_s: f64,
    /// End, in seconds since the tracer was created.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Units of work the span covered.
    pub work: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    paused: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            paused: false,
        }
    }
}

impl Tracer {
    /// Pauses (or resumes) recording: a paused tracer runs every span's
    /// closure without recording it, so the same code serves traced and
    /// untraced passes.
    pub fn pause(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Runs `f` inside a span named `name` that covered `work` units.
    /// Spans opened by `f` through the tracer it receives become its
    /// children. The result passes through `black_box`, so work whose
    /// result the caller drops is still done.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        work: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if self.paused {
            return std::hint::black_box(f(self));
        }
        let idx = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
            work,
        });
        self.open.push(idx);
        let out = std::hint::black_box(f(self));
        self.open.pop();
        self.spans[idx].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Total seconds and work of every span named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, w), s| (t + s.seconds(), w + s.work))
    }

    /// Work per second over every span named `name`, in millions.
    pub fn mega_rate(&self, name: &str) -> f64 {
        let (t, w) = self.total(name);
        w as f64 / t / 1e6
    }

    /// Mean seconds per unit of work over every span named `name`,
    /// scaled by `unit` (1e9 for ns, 1e6 for µs).
    pub fn per_work(&self, name: &str, unit: f64) -> f64 {
        let (t, w) = self.total(name);
        t / w as f64 * unit
    }

    /// The spans as JSON lines (`name`, `start_s`, `end_s`, `parent`,
    /// `work`).
    pub fn to_json_lines(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}, \"work\": {}}}\n",
                    s.name, s.start_s, s.end_s, s.work
                )
            })
            .collect()
    }
}
