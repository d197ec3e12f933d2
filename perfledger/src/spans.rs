//! Host-clock spans recorded around calls into the workspace's layers.
//!
//! Spans are held in memory while the benchmark runs and written out once
//! at the end, so recording costs a clock read and a `Vec` push. A span's
//! self time is its duration minus the part of it that its children cover.

use std::time::Instant;

/// One closed span on the host clock.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request (or batch).
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder. When off, [`Tracer::span`] only runs its closure.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Start a new request: later spans carry its identifier.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Self time of every span, in nanoseconds, index-aligned with
    /// [`Tracer::spans`]. Children of one parent never overlap (the
    /// recorder is single-threaded), so their durations simply subtract.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Self times, in milliseconds, of every span named `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// The spans as a JSON array (one object per span, in opening order).
    pub fn to_json(&self) -> String {
        let own = self.self_ns();
        let rows: Vec<String> = self
            .spans
            .iter()
            .zip(own)
            .map(|(s, self_ns)| {
                format!(
                    "    {{\"name\": \"{}\", \"request\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                    s.name,
                    s.request,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start_ns,
                    s.end_ns,
                    self_ns
                )
            })
            .collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let own = t.self_ns();
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(own[0] + own[1], t.spans[0].dur_ns());
        assert!(own[1] >= 2_000_000);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans.is_empty());
    }
}
