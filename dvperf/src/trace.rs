//! Spans recorded by the benchmark around its calls into each layer's
//! public functions. Kept in memory, written out as JSON lines when the
//! run ends, and reduced to per-name self times.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run (from 1).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer call the span covers, e.g. `sql.bind`.
    pub name: &'static str,
    /// Query the span belongs to (0 for set-up work).
    pub query: u64,
    /// Start, in µs since the tracer was made.
    pub start_us: f64,
    /// End, in µs since the tracer was made.
    pub end_us: f64,
}

/// In-memory span recorder shared by all client threads.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer { origin: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::default() }
    }
}

impl Tracer {
    /// Run `f` inside a span; `f` receives the span's id so that it can
    /// open child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        query: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        // Relaxed suffices: the counter only hands out unique ids.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed();
        let out = f(id);
        let end = self.origin.elapsed();
        let span = Span {
            id,
            parent,
            name,
            query,
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
        };
        self.spans.lock().expect("a span recorder panicked").push(span);
        out
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("a span recorder panicked").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Self time of each span in µs (its duration minus the time its
    /// children cover), grouped by span name.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let spans = self.spans();
        let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                // Children of one span run one after another on the
                // span's own thread, so their durations never overlap.
                *child_us.entry(p).or_default() += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &spans {
            let own = s.end_us - s.start_us - child_us.get(&s.id).copied().unwrap_or(0.0);
            out.entry(s.name).or_default().push(own.max(0.0));
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"query\":{},\
                 \"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id, s.name, s.query, s.start_us, s.end_us
            );
        }
        std::fs::write(path, text)
    }
}

/// Run `f` inside a span when tracing, or plainly when not.
pub fn traced<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    query: u64,
    f: impl FnOnce(Option<u64>) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, query, |id| f(Some(id))),
        None => f(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::default();
        t.span("outer", None, 1, |id| {
            t.span("inner", Some(id), 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let times = t.self_times_us();
        let outer = times["outer"][0];
        let inner = times["inner"][0];
        assert!(inner >= 20_000.0, "inner {inner}");
        assert!(outer < inner, "outer self {outer} should exclude inner {inner}");
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
    }
}
