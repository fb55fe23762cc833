//! The built-in sinks: bounded ring buffer with a determinism digest,
//! fan-out, and JSON-lines export. Aggregation lives in
//! [`crate::metrics`] ([`crate::metrics::RegistrySink`]).

use std::collections::VecDeque;
use std::io::Write;
use std::sync::Mutex;

use crate::{Event, FieldValue, TraceSink};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn fnv_u64(h: &mut u64, v: u64) {
    fnv_bytes(h, &v.to_be_bytes());
}

/// Folds one event into an FNV-1a digest state. Only deterministic
/// events contribute, and `DurationNs` fields are skipped, so the digest
/// is a pure function of protocol inputs and seeds. Sequence numbers are
/// also skipped: interleaved non-deterministic events must not shift the
/// digest.
fn fold_event(h: &mut u64, event: &Event) {
    fnv_bytes(h, event.scope.as_bytes());
    fnv_bytes(h, event.name.as_bytes());
    for (name, value) in &event.fields {
        let (tag, v) = match value {
            FieldValue::Count(v) => (1u64, *v),
            FieldValue::Size(v) => (2, *v),
            FieldValue::DurationNs(_) => continue,
            FieldValue::Flag(b) => (3, u64::from(*b)),
        };
        fnv_bytes(h, name.as_bytes());
        fnv_u64(h, tag);
        fnv_u64(h, v);
    }
}

struct RingInner {
    events: VecDeque<Event>,
    digest: u64,
    recorded: u64,
}

/// Keeps the last `capacity` events and an order-sensitive FNV-1a digest
/// of every *deterministic* event ever recorded (evicted or not). The
/// digest is the conformance harness's "same seed → same run" check for
/// the instrumentation layer, mirroring `SimTrace::digest`.
pub struct RingSink {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl RingSink {
    /// A ring holding at most `capacity` events (at least one).
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner {
                events: VecDeque::new(),
                digest: FNV_OFFSET,
                recorded: 0,
            }),
        }
    }

    /// Digest over all deterministic events recorded so far.
    pub fn digest(&self) -> u64 {
        self.inner.lock().map(|g| g.digest).unwrap_or(FNV_OFFSET)
    }

    /// Total events recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().map(|g| g.recorded).unwrap_or(0)
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().map(|g| g.events.len()).unwrap_or(0)
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.inner
            .lock()
            .map(|g| g.events.iter().cloned().collect())
            .unwrap_or_default()
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: &Event) {
        let Ok(mut g) = self.inner.lock() else { return };
        g.recorded = g.recorded.saturating_add(1);
        if event.deterministic {
            let mut digest = g.digest;
            fold_event(&mut digest, event);
            g.digest = digest;
        }
        if g.events.len() == self.capacity {
            g.events.pop_front();
        }
        g.events.push_back(event.clone());
    }
}

/// Fans every event out to all wrapped sinks, in order. The daemon uses
/// this to give each session a private [`RingSink`] (per-session digest
/// for the conformance harness) while the same events also feed a shared
/// [`crate::metrics::RegistrySink`] (fleet-wide reconciliation) —
/// without the instrumentation sites knowing about either.
pub struct TeeSink {
    sinks: Vec<std::sync::Arc<dyn TraceSink>>,
}

impl TeeSink {
    /// Tees onto `sinks`; an empty list is a valid null sink.
    pub fn new(sinks: Vec<std::sync::Arc<dyn TraceSink>>) -> TeeSink {
        TeeSink { sinks }
    }
}

impl TraceSink for TeeSink {
    fn record(&self, event: &Event) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }
}

/// Writes one JSON object per event to the wrapped writer:
///
/// ```json
/// {"seq":0,"scope":"intersection","name":"sender_done","det":true,
///  "fields":{"encryptions":24,"hashes":12}}
/// ```
///
/// Field values are numbers (flags render as `true`/`false`). Write
/// errors are swallowed — telemetry must never fail a protocol run.
pub struct JsonLinesSink {
    inner: Mutex<Box<dyn Write + Send>>,
}

impl JsonLinesSink {
    /// Wraps any writer (a file, a `Vec<u8>`, a socket).
    pub fn new<W: Write + Send + 'static>(writer: W) -> JsonLinesSink {
        JsonLinesSink {
            inner: Mutex::new(Box::new(writer)),
        }
    }

    /// Writes one line the caller rendered, after every event recorded
    /// so far: how a run appends its cost reconciliation to its trace.
    pub fn write_line(&self, line: &str) {
        if let Ok(mut g) = self.inner.lock() {
            let _ = writeln!(g, "{line}");
        }
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) {
        if let Ok(mut g) = self.inner.lock() {
            let _ = g.flush();
        }
    }
}

/// Renders one event as a single JSON line. Scope/name/field labels are
/// `&'static str` literals from the instrumentation sites and never
/// contain characters needing escapes, but escape quotes and backslashes
/// anyway so the output is valid JSON whatever a future site does.
pub fn event_to_json(event: &Event) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut line = format!(
        "{{\"seq\":{},\"scope\":\"{}\",\"name\":\"{}\",\"det\":{},\"fields\":{{",
        event.seq,
        esc(event.scope),
        esc(event.name),
        event.deterministic
    );
    for (i, (name, value)) in event.fields.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!("\"{}\":", esc(name)));
        match value {
            FieldValue::Flag(b) => line.push_str(if *b { "true" } else { "false" }),
            other => line.push_str(&other.as_u64().to_string()),
        }
    }
    line.push_str("}}");
    line
}

impl TraceSink for JsonLinesSink {
    fn record(&self, event: &Event) {
        let line = event_to_json(event);
        if let Ok(mut g) = self.inner.lock() {
            let _ = writeln!(g, "{line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricsRegistry, RegistrySink};
    use crate::{count, duration_ns, flag, size};
    use std::sync::Arc;

    fn event(
        seq: u64,
        name: &'static str,
        deterministic: bool,
        fields: Vec<crate::Field>,
    ) -> Event {
        Event {
            seq,
            scope: "test",
            name,
            deterministic,
            fields,
        }
    }

    #[test]
    fn ring_digest_ignores_seq_durations_and_nondeterministic_events() {
        let a = RingSink::new(8);
        a.record(&event(0, "x", true, vec![count("n", 1)]));
        a.record(&event(1, "y", false, vec![count("n", 9)]));
        a.record(&event(
            2,
            "z",
            true,
            vec![duration_ns("t", 123), size("b", 7)],
        ));

        let b = RingSink::new(8);
        b.record(&event(5, "x", true, vec![count("n", 1)]));
        b.record(&event(
            6,
            "z",
            true,
            vec![duration_ns("t", 999), size("b", 7)],
        ));
        assert_eq!(a.digest(), b.digest());

        let c = RingSink::new(8);
        c.record(&event(0, "x", true, vec![count("n", 2)]));
        c.record(&event(1, "z", true, vec![size("b", 7)]));
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn ring_digest_is_order_sensitive() {
        let a = RingSink::new(8);
        a.record(&event(0, "x", true, vec![]));
        a.record(&event(1, "y", true, vec![]));
        let b = RingSink::new(8);
        b.record(&event(0, "y", true, vec![]));
        b.record(&event(1, "x", true, vec![]));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn ring_digest_distinguishes_field_types() {
        let a = RingSink::new(8);
        a.record(&event(0, "x", true, vec![count("v", 5)]));
        let b = RingSink::new(8);
        b.record(&event(0, "x", true, vec![size("v", 5)]));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn ring_evicts_but_digest_survives() {
        let ring = RingSink::new(2);
        for i in 0..5u64 {
            ring.record(&event(i, "x", true, vec![count("n", i)]));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.recorded(), 5);
        let full = RingSink::new(16);
        for i in 0..5u64 {
            full.record(&event(i, "x", true, vec![count("n", i)]));
        }
        assert_eq!(ring.digest(), full.digest());
        let names: Vec<u64> = ring
            .snapshot()
            .iter()
            .map(|e| e.fields[0].1.as_u64())
            .collect();
        assert_eq!(names, vec![3, 4]);
    }

    /// A registry and the sink feeding it.
    fn registry() -> (Arc<MetricsRegistry>, RegistrySink) {
        let registry = Arc::new(MetricsRegistry::new());
        (Arc::clone(&registry), RegistrySink::new(registry))
    }

    #[test]
    fn metrics_sum_and_event_counts() {
        let (m, sink) = registry();
        sink.record(&event(0, "frame_sent", true, vec![size("bytes", 10)]));
        sink.record(&event(1, "frame_sent", true, vec![size("bytes", 32)]));
        sink.record(&event(2, "frame_recv", true, vec![size("bytes", 5)]));
        assert_eq!(m.counter("test", "frame_sent", "bytes"), 42);
        assert_eq!(m.counter("test", "frame_sent", "events"), 2);
        assert_eq!(m.counter("test", "frame_recv", "bytes"), 5);
        assert_eq!(m.counter("test", "missing", "bytes"), 0);
    }

    #[test]
    fn metrics_gauge_last_value_and_reset_epochs() {
        let (m, sink) = registry();
        m.register_gauge("test", "queue", "depth");
        sink.record(&event(0, "queue", false, vec![size("depth", 7)]));
        sink.record(&event(1, "queue", false, vec![size("depth", 3)]));
        sink.record(&event(2, "sent", true, vec![size("bytes", 10)]));
        // Gauge keeps the last value; the occurrence counter still sums.
        assert_eq!(m.gauge("test", "queue", "depth"), Some(3));
        assert_eq!(m.counter("test", "queue", "events"), 2);

        let snap = m.snapshot_and_reset();
        assert!(snap.contains("\"test/sent/bytes\":10"));
        assert!(snap.contains("\"test/queue/depth\":3"));
        // Post-reset: sums cleared, gauge survives with its last value.
        assert_eq!(m.counter("test", "sent", "bytes"), 0);
        assert_eq!(m.counter("test", "queue", "events"), 0);
        assert_eq!(m.gauge("test", "queue", "depth"), Some(3));
    }

    #[test]
    fn json_lines_schema() {
        let e = Event {
            seq: 3,
            scope: "pool",
            name: "submit",
            deterministic: false,
            fields: vec![count("items", 16), flag("inline", true)],
        };
        assert_eq!(
            event_to_json(&e),
            "{\"seq\":3,\"scope\":\"pool\",\"name\":\"submit\",\"det\":false,\
             \"fields\":{\"items\":16,\"inline\":true}}"
        );
        let sink = JsonLinesSink::new(Vec::new());
        sink.record(&e);
        sink.flush();
    }

    #[test]
    fn tee_fans_out_to_every_sink() {
        let ring = Arc::new(RingSink::new(8));
        let (metrics, sink) = registry();
        let tee = TeeSink::new(vec![ring.clone(), Arc::new(sink)]);
        tee.record(&event(0, "x", true, vec![count("n", 3)]));
        tee.record(&event(1, "x", true, vec![count("n", 4)]));
        assert_eq!(ring.recorded(), 2);
        assert_eq!(metrics.counter("test", "x", "n"), 7);
        // An empty tee is a valid null sink.
        TeeSink::new(Vec::new()).record(&event(2, "x", true, vec![]));
    }

    #[test]
    fn sinks_are_shareable() {
        let ring = Arc::new(RingSink::new(64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = ring.clone();
                s.spawn(move || r.record(&event(0, "x", true, vec![])));
            }
        });
        assert_eq!(ring.recorded(), 4);
    }
}
