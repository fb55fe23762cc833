//! # minshare-trace
//!
//! Structured, secret-safe tracing for the protocol stack.
//!
//! Every layer of a run — the protocol engines, the encrypt pool, the
//! transports — emits typed [`Event`]s through a thread-local [`Tracer`].
//! When no tracer is installed (the default) an emit site is a single
//! thread-local boolean read and the field closure is never evaluated, so
//! instrumentation costs nothing on the production path.
//!
//! ## Secret safety by construction
//!
//! A [`FieldValue`] can hold a count, a byte size, a duration or a flag —
//! nothing else. There is no string, byte-slice or `Debug` capture, so
//! key material, codewords and payloads *cannot* reach a sink through
//! this API. The `minshare-analyzer` OBS01 rule additionally rejects any
//! telemetry call site that mentions a registered secret type or
//! identifier.
//!
//! ## Determinism
//!
//! Each event carries a `deterministic` flag. Events marked deterministic
//! depend only on the protocol inputs and the (seeded) fault schedule —
//! never on wall-clock timing or cross-thread scheduling — so a
//! [`sink::RingSink`] digest over them reproduces exactly under a fixed
//! simnet seed. Timing-dependent events (pool dispatch decisions, mux
//! connection lifecycle) are marked non-deterministic and excluded from
//! digests, as are `DurationNs` fields on deterministic events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod sink;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One typed value attached to an event. Deliberately closed over
/// numeric/boolean payloads: secrets cannot be captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldValue {
    /// A number of operations, items or occurrences.
    Count(u64),
    /// A size in bytes.
    Size(u64),
    /// An elapsed wall-clock duration in nanoseconds. Excluded from
    /// determinism digests.
    DurationNs(u64),
    /// A boolean condition.
    Flag(bool),
}

impl FieldValue {
    /// The value as a plain integer (flags as 0/1), for aggregation.
    pub fn as_u64(&self) -> u64 {
        match self {
            FieldValue::Count(v) | FieldValue::Size(v) | FieldValue::DurationNs(v) => *v,
            FieldValue::Flag(b) => u64::from(*b),
        }
    }
}

/// A named field: static label plus typed value.
pub type Field = (&'static str, FieldValue);

/// Shorthand for a [`FieldValue::Count`] field.
pub fn count(name: &'static str, v: u64) -> Field {
    (name, FieldValue::Count(v))
}

/// Shorthand for a [`FieldValue::Size`] field.
pub fn size(name: &'static str, v: u64) -> Field {
    (name, FieldValue::Size(v))
}

/// Shorthand for a [`FieldValue::DurationNs`] field.
pub fn duration_ns(name: &'static str, v: u64) -> Field {
    (name, FieldValue::DurationNs(v))
}

/// Shorthand for a [`FieldValue::Flag`] field.
pub fn flag(name: &'static str, v: bool) -> Field {
    (name, FieldValue::Flag(v))
}

/// One recorded occurrence: where it happened (`scope`/`name`), whether
/// it is reproducible under a fixed seed, and its typed fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Per-tracer sequence number, in emission order.
    pub seq: u64,
    /// Subsystem, e.g. `"intersection"`, `"pool"`, `"net"`.
    pub scope: &'static str,
    /// Event name within the scope, e.g. `"sender_done"`.
    pub name: &'static str,
    /// True when the event (identity, order and non-duration fields) is a
    /// pure function of protocol inputs and seeds.
    pub deterministic: bool,
    /// Typed fields.
    pub fields: Vec<Field>,
}

/// Receives events from a [`Tracer`]. Sinks must be thread-safe: a single
/// sink may be shared by both parties of a protocol run.
pub trait TraceSink: Send + Sync {
    /// Records one event. Must not panic; telemetry is best-effort.
    fn record(&self, event: &Event);
}

struct TracerInner {
    sink: Arc<dyn TraceSink>,
    seq: AtomicU64,
}

/// A handle that routes events to a sink, or drops them (disabled).
///
/// Cloning shares the sequence counter, so events emitted through clones
/// of one tracer (e.g. both halves of a party's work) stay totally
/// ordered per tracer.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A tracer that drops everything. Emitting through it is a no-op.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer recording into `sink`.
    pub fn to_sink(sink: Arc<dyn TraceSink>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                sink,
                seq: AtomicU64::new(0),
            })),
        }
    }

    /// True when events reach a sink.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits one event.
    pub fn emit(
        &self,
        scope: &'static str,
        name: &'static str,
        deterministic: bool,
        fields: Vec<Field>,
    ) {
        if let Some(inner) = &self.inner {
            let event = Event {
                seq: inner.seq.fetch_add(1, Ordering::Relaxed),
                scope,
                name,
                deterministic,
                fields,
            };
            inner.sink.record(&event);
        }
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static CURRENT: RefCell<Tracer> = RefCell::new(Tracer::disabled());
}

/// Restores the previously installed tracer when dropped.
pub struct Installed {
    previous: Option<Tracer>,
}

impl Drop for Installed {
    fn drop(&mut self) {
        let previous = self.previous.take().unwrap_or_default();
        let _ = ACTIVE.try_with(|a| a.set(previous.enabled()));
        let _ = CURRENT.try_with(|c| *c.borrow_mut() = previous);
    }
}

/// Installs `tracer` as this thread's tracer until the returned guard is
/// dropped. Installation is per-thread by design: each protocol party
/// installs its own tracer inside its own closure, so per-party event
/// streams never interleave.
#[must_use = "dropping the guard immediately uninstalls the tracer"]
pub fn install(tracer: Tracer) -> Installed {
    let enabled = tracer.enabled();
    let previous = CURRENT
        .try_with(|c| std::mem::replace(&mut *c.borrow_mut(), tracer))
        .ok();
    let _ = ACTIVE.try_with(|a| a.set(enabled));
    Installed { previous }
}

/// True when the current thread has an enabled tracer. A single
/// thread-local boolean read — the cost of instrumentation when tracing
/// is off.
#[inline]
pub fn is_enabled() -> bool {
    ACTIVE.try_with(Cell::get).unwrap_or(false)
}

/// Emits an event through the current thread's tracer. `fields` is only
/// evaluated when a tracer is installed.
#[inline]
pub fn emit<F: FnOnce() -> Vec<Field>>(
    scope: &'static str,
    name: &'static str,
    deterministic: bool,
    fields: F,
) {
    if !is_enabled() {
        return;
    }
    let _ = CURRENT.try_with(|c| {
        if let Ok(tracer) = c.try_borrow() {
            tracer.emit(scope, name, deterministic, fields());
        }
    });
}

/// An in-flight timed region. Created by [`span`]; emits one event with a
/// `duration_ns` field when finished (or dropped).
pub struct Span {
    scope: &'static str,
    name: &'static str,
    deterministic: bool,
    start: Option<Instant>,
}

impl Span {
    /// Ends the span, attaching `fields` alongside the measured duration.
    pub fn finish(mut self, fields: Vec<Field>) {
        self.emit_now(fields);
    }

    fn emit_now(&mut self, mut fields: Vec<Field>) {
        if let Some(start) = self.start.take() {
            let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            fields.push(duration_ns("duration_ns", elapsed));
            emit(self.scope, self.name, self.deterministic, || fields);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.emit_now(Vec::new());
    }
}

/// Starts a timed region that emits `scope`/`name` with a `duration_ns`
/// field on finish. When tracing is disabled the span holds no timestamp
/// and finishing it is free.
///
/// `deterministic` describes the event's *identity and order*, not its
/// duration: duration fields are always excluded from digests.
pub fn span(scope: &'static str, name: &'static str, deterministic: bool) -> Span {
    Span {
        scope,
        name,
        deterministic,
        start: if is_enabled() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{MetricsRegistry, RegistrySink};
    use sink::RingSink;

    #[test]
    fn disabled_is_noop_and_skips_field_construction() {
        assert!(!is_enabled());
        let mut built = false;
        emit("t", "e", true, || {
            built = true;
            vec![count("n", 1)]
        });
        assert!(!built);
    }

    #[test]
    fn install_guard_restores_previous_tracer() {
        let outer = Arc::new(RingSink::new(16));
        let inner = Arc::new(RingSink::new(16));
        {
            let _g1 = install(Tracer::to_sink(outer.clone()));
            emit("t", "outer", true, || vec![]);
            {
                let _g2 = install(Tracer::to_sink(inner.clone()));
                emit("t", "inner", true, || vec![]);
            }
            emit("t", "outer", true, || vec![]);
        }
        assert!(!is_enabled());
        assert_eq!(outer.len(), 2);
        assert_eq!(inner.len(), 1);
    }

    #[test]
    fn events_are_sequenced_per_tracer() {
        let ring = Arc::new(RingSink::new(16));
        let _g = install(Tracer::to_sink(ring.clone()));
        emit("t", "a", true, || vec![]);
        emit("t", "b", true, || vec![]);
        let seqs: Vec<u64> = ring.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn span_records_duration_field() {
        let ring = Arc::new(RingSink::new(4));
        let _g = install(Tracer::to_sink(ring.clone()));
        span("t", "work", true).finish(vec![count("items", 3)]);
        let events = ring.snapshot();
        assert_eq!(events.len(), 1);
        assert!(events[0]
            .fields
            .iter()
            .any(|(n, v)| *n == "duration_ns" && matches!(v, FieldValue::DurationNs(_))));
        assert!(events[0].fields.contains(&count("items", 3)));
    }

    #[test]
    fn span_disabled_emits_nothing() {
        let s = span("t", "work", true);
        s.finish(vec![]);
        let ring = Arc::new(RingSink::new(4));
        let _g = install(Tracer::to_sink(ring.clone()));
        assert_eq!(ring.len(), 0);
    }

    #[test]
    fn metrics_aggregate_across_shared_sink() {
        let registry = Arc::new(MetricsRegistry::new());
        let tracer = Tracer::to_sink(Arc::new(RegistrySink::new(registry.clone())));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let t = tracer.clone();
                s.spawn(move || {
                    let _g = install(t);
                    for _ in 0..3 {
                        emit("net", "frame_sent", true, || vec![size("bytes", 10)]);
                    }
                });
            }
        });
        assert_eq!(registry.counter("net", "frame_sent", "bytes"), 60);
        assert_eq!(registry.counter("net", "frame_sent", "events"), 6);
    }

    #[test]
    fn field_value_as_u64() {
        assert_eq!(FieldValue::Count(4).as_u64(), 4);
        assert_eq!(FieldValue::Size(9).as_u64(), 9);
        assert_eq!(FieldValue::DurationNs(2).as_u64(), 2);
        assert_eq!(FieldValue::Flag(true).as_u64(), 1);
        assert_eq!(FieldValue::Flag(false).as_u64(), 0);
    }
}
