//! The traced run's span recorder. Spans live in memory while the run
//! measures and are written out once, at the end, as Chrome
//! `trace_event` JSON (the format `bench::check_chrome_trace` validates).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub(crate) struct Span {
    /// What the span brackets (`point`, `build`, `job`, ...).
    pub(crate) name: &'static str,
    /// Unique within the tracer, starting at 1.
    pub(crate) id: u64,
    /// The enclosing span's id, 0 for a root.
    pub(crate) parent: u64,
    /// The point or job the span belongs to.
    pub(crate) key: u64,
    /// Recording thread (dense, per process).
    pub(crate) tid: u64,
    /// Start, ns since origin.
    pub(crate) start: u64,
    /// End, ns since origin.
    pub(crate) end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub(crate) fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub(crate) struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    TID.with(|t| *t)
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub(crate) fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its result. `f` receives the
    /// span's id, to pass as the parent of nested spans.
    pub(crate) fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        key: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(id);
        let end = self.now();
        self.spans.lock().expect("span list lock").push(Span {
            name,
            id,
            parent,
            key,
            tid: tid(),
            start,
            end,
        });
        out
    }

    /// Records an already-measured interval as a span.
    pub(crate) fn record(
        &self,
        name: &'static str,
        parent: u64,
        key: u64,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.spans.lock().expect("span list lock").push(Span {
            name,
            id,
            parent,
            key,
            tid: tid(),
            start: at(start),
            end: at(end),
        });
    }

    /// A copy of every span recorded so far, in completion order.
    pub(crate) fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Spans recorded after the first `from`, named `name`.
    pub(crate) fn named_since(&self, from: usize, name: &str) -> Vec<Span> {
        let spans = self.spans.lock().expect("span list lock");
        spans[from.min(spans.len())..]
            .iter()
            .filter(|s| s.name == name)
            .cloned()
            .collect()
    }

    /// Number of spans recorded so far.
    pub(crate) fn len(&self) -> usize {
        self.spans.lock().expect("span list lock").len()
    }

    /// Every span as a Chrome `trace_event` array: one complete (`X`)
    /// event per span, on the recording thread's track, with the span,
    /// parent and point/job ids in `args`. Durations round up to 1 µs,
    /// the format's resolution.
    pub(crate) fn chrome_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::from(
            "[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"perfbench\"}}",
        );
        for s in &spans {
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"key\":{}}}}}",
                s.name,
                s.tid,
                s.start / 1000,
                (s.nanos() / 1000).max(1),
                s.id,
                s.parent,
                s.key
            ));
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_parents_and_export_valid_chrome_json() {
        let t = Tracer::new();
        t.span("job", 0, 9, |job| {
            t.span("point", job, 3, |_| std::hint::black_box(1 + 1));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let (point, job) = (&spans[0], &spans[1]);
        assert_eq!(point.parent, job.id);
        assert!(job.start <= point.start && point.end <= job.end);
        let summary =
            bench::check_chrome_trace(&t.chrome_json(), false).expect("valid trace_event JSON");
        assert_eq!(summary.complete, 2);
        assert_eq!(summary.metadata, 1);
    }
}
