//! The benchmark's own span log. Spans are recorded from the benchmark's
//! files, around the calls into each layer (spans *inside* the program
//! are a later change); they stay in memory and are written once, at
//! exit, in Chrome trace-event format (`chrome://tracing`, Perfetto).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Value;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the log (1-based; 0 means "no span").
    pub id: u64,
    /// Id of the span that caused this one, 0 for a root.
    pub parent: u64,
    /// What ran: `session`, `connect`, `open`, `protocol`, `close`, or a
    /// replay's metric name.
    pub name: String,
    /// Layer the call went into (`net`, `core`, `bignum`, ...).
    pub layer: &'static str,
    /// Client thread (0 for the main thread).
    pub thread: usize,
    /// Session ordinal shared by all spans of one session, 0 outside one.
    pub session: u64,
    /// Start, microseconds since the log's epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// An in-memory, thread-safe span log.
pub struct Tracefile {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracefile {
    fn default() -> Self {
        Tracefile::new()
    }
}

impl Tracefile {
    /// An empty log whose clock starts now.
    pub fn new() -> Tracefile {
        Tracefile {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves an id, for a parent whose children finish first.
    pub fn reserve_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span (`id` 0 = assign one) and returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        name: &str,
        layer: &'static str,
        thread: usize,
        session: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = if id == 0 { self.reserve_id() } else { id };
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            layer,
            thread,
            session,
            start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
        };
        self.spans
            .lock()
            .expect("span log mutex poisoned by a panicking client thread")
            .push(span);
        id
    }

    /// Times `f` as a root span on the main thread.
    pub fn time<R>(&self, name: &str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(0, 0, name, layer, 0, 0, start, Instant::now());
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log mutex poisoned by a panicking client thread")
            .clone()
    }

    /// Each span's self time: its duration minus what its children cover.
    pub fn self_times_us(&self) -> Vec<(Span, f64)> {
        let spans = self.spans();
        spans
            .iter()
            .map(|s| {
                let children: f64 = spans
                    .iter()
                    .filter(|c| c.parent == s.id)
                    .map(|c| c.dur_us)
                    .sum();
                (s.clone(), (s.dur_us - children).max(0.0))
            })
            .collect()
    }

    /// The log as a Chrome trace-event document.
    pub fn to_chrome_json(&self) -> Value {
        let events = self
            .spans()
            .into_iter()
            .map(|s| {
                let mut args = Value::object();
                args.push("id", s.id);
                args.push("parent", s.parent);
                args.push("session", s.session);
                let mut e = Value::object();
                e.push("name", s.name);
                e.push("cat", s.layer);
                e.push("ph", "X");
                e.push("ts", s.start_us);
                e.push("dur", s.dur_us);
                e.push("pid", 1u64);
                e.push("tid", s.thread);
                e.push("args", args);
                e
            })
            .collect::<Vec<_>>();
        let mut doc = Value::object();
        doc.push("displayTimeUnit", "ms");
        doc.push("traceEvents", events);
        doc
    }

    /// Writes the Chrome trace to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json().to_compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_chrome_json_lists_every_span() {
        let log = Tracefile::new();
        let t0 = Instant::now();
        let parent = log.reserve_id();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        log.record(0, parent, "connect", "net", 1, 7, ms(0), ms(2));
        log.record(0, parent, "protocol", "core", 1, 7, ms(2), ms(9));
        log.record(parent, 0, "session", "bench", 1, 7, ms(0), ms(10));
        let selfs = log.self_times_us();
        let of = |name: &str| selfs.iter().find(|(s, _)| s.name == name).unwrap().1;
        assert!((of("session") - 1000.0).abs() < 1.0);
        assert!((of("protocol") - 7000.0).abs() < 1.0);

        let doc = log.to_chrome_json();
        let events = doc.get("traceEvents").unwrap().elements();
        assert_eq!(events.len(), 3);
        let session = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("session"))
            .unwrap();
        assert_eq!(session.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(session.get("tid").unwrap().as_f64(), Some(1.0));
        let child = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("connect"))
            .unwrap();
        assert_eq!(
            child.get("args").unwrap().get("parent").unwrap().as_f64(),
            session.get("args").unwrap().get("id").unwrap().as_f64()
        );
    }
}
