//! Live telemetry: a metrics registry fed by the secret-safe event
//! stream.
//!
//! [`MetricsRegistry`] turns the existing [`Event`] stream
//! into live series — counters, gauges and log-bucketed histograms —
//! without adding any new capture surface: the only way in is
//! [`RegistrySink`], a [`TraceSink`], so everything the
//! registry can ever hold is a typed count/size/duration/flag. Key
//! material, codewords and payloads remain uncapturable by construction
//! (see the crate docs), and the OBS01 analyzer rule covers every emit
//! site that feeds it.
//!
//! ## Determinism
//!
//! Histogram bucket boundaries are *fixed powers of two* (bucket 0 holds
//! the value 0; bucket `k ≥ 1` holds `[2^(k-1), 2^k)`), never adapted to
//! the data. Counter sums and bucket counts over deterministic events are
//! therefore pure functions of protocol inputs and seeds: two runs under
//! the same simnet seed produce byte-identical snapshots of those series.
//! Duration-valued series and gauges are timing-dependent and excluded
//! from any reproducibility claim, exactly like `DurationNs` fields in
//! the ring digest.
//!
//! ## Cost
//!
//! Recording is one short-critical-section mutex acquisition per event:
//! label parsing and field classification happen outside any allocation
//! on the steady-state path (series slots allocate once, on first touch).
//! When no tracer is installed the emit sites never construct events at
//! all, so the registry's cost is strictly opt-in.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use crate::{Event, FieldValue, TraceSink};

/// Snapshot schema version, bumped on any incompatible change to the
/// JSON layout produced by [`MetricsRegistry::snapshot_json`].
pub const STATS_VERSION: u32 = 1;

/// Number of histogram buckets: bucket 0 for the value 0, then one
/// bucket per power of two up to `2^63 ..= u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Field names that act as label dimensions rather than measurements.
/// An event carrying `count("session", 3)` contributes its *other*
/// fields both to the aggregate series and to a `{session=3}` sub-series.
pub const LABEL_FIELDS: [&str; 2] = ["session", "peer"];

/// A fixed-boundary log-bucketed histogram over `u64` values.
///
/// Bucket boundaries are powers of two and never move, so two histograms
/// recording the same multiset of values are identical regardless of
/// arrival order — the property the merge proptests pin down.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("total", &self.total)
            .field("sum", &self.sum)
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index holding `value`: 0 for the value 0, otherwise
    /// `k` such that `2^(k-1) <= value < 2^k`. Total over all of `u64`.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive lower bound of bucket `bucket`: 0, then `2^(bucket-1)`.
    ///
    /// For every value `v`, `lower_bound(bucket_of(v)) <= v`, and for
    /// nonzero `v` additionally `v < 2 * lower_bound(bucket_of(v))` —
    /// the round-trip the proptests check.
    pub fn lower_bound(bucket: usize) -> u64 {
        if bucket == 0 {
            0
        } else {
            1u64 << (bucket - 1)
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.counts[Histogram::bucket_of(value)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Saturating sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded value, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Count in bucket `bucket`.
    pub fn bucket_count(&self, bucket: usize) -> u64 {
        self.counts[bucket]
    }

    /// Folds `other` into `self`. Merging is commutative and
    /// associative, so per-session histograms can be combined in any
    /// order and reproduce the aggregate exactly.
    pub fn merge(&mut self, other: &Histogram) {
        for (slot, add) in self.counts.iter_mut().zip(other.counts.iter()) {
            *slot += *add;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lower_bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(b, c)| (Histogram::lower_bound(b), *c))
            .collect()
    }
}

/// Static identity of a series class: `(scope, name, field)`. Kind
/// registration (gauge/histogram) keys off this, irrespective of labels.
pub type ClassKey = (&'static str, &'static str, &'static str);

/// Full series key: class plus an optional label dimension drawn from
/// [`LABEL_FIELDS`] (e.g. `{session=3}` or `{peer=1}`).
pub type SeriesKey = (ClassKey, Option<(&'static str, u64)>);

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<SeriesKey, u64>,
    gauges: BTreeMap<SeriesKey, u64>,
    histograms: BTreeMap<SeriesKey, Histogram>,
    gauge_classes: BTreeSet<ClassKey>,
    histogram_classes: BTreeSet<ClassKey>,
    epoch: u64,
}

impl RegistryInner {
    fn observe(&mut self, event: &Event) {
        // Occurrence counter under the reserved field name.
        let labels: Vec<(&'static str, u64)> = event
            .fields
            .iter()
            .filter(|(n, _)| LABEL_FIELDS.contains(n))
            .map(|(n, v)| (*n, v.as_u64()))
            .collect();
        self.bump(event, "events", 1, false, &labels);
        for (name, value) in &event.fields {
            if LABEL_FIELDS.contains(name) {
                continue;
            }
            let is_duration = matches!(value, FieldValue::DurationNs(_));
            self.bump(event, name, value.as_u64(), is_duration, &labels);
        }
    }

    fn bump(
        &mut self,
        event: &Event,
        field: &'static str,
        value: u64,
        is_duration: bool,
        labels: &[(&'static str, u64)],
    ) {
        let class: ClassKey = (event.scope, event.name, field);
        let record_one = |inner: &mut RegistryInner, label: Option<(&'static str, u64)>| {
            let key: SeriesKey = (class, label);
            if is_duration || inner.histogram_classes.contains(&class) {
                inner.histograms.entry(key).or_default().record(value);
            } else if inner.gauge_classes.contains(&class) {
                inner.gauges.insert(key, value);
            } else {
                let slot = inner.counters.entry(key).or_insert(0);
                *slot = slot.saturating_add(value);
            }
        };
        record_one(self, None);
        for label in labels {
            record_one(self, Some(*label));
        }
    }
}

/// Live counters, gauges and histograms aggregated from the event
/// stream. See the module docs for the determinism and secrecy
/// arguments. Shareable: the daemon holds one registry per process and
/// hands clones of an `Arc<MetricsRegistry>` to every session thread.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry: every field records as a counter until its
    /// class is registered as a gauge or histogram (durations are always
    /// histograms).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Declares `(scope, name, field)` a gauge: the series keeps the
    /// last observed value instead of a monotonically growing sum.
    pub fn register_gauge(&self, scope: &'static str, name: &'static str, field: &'static str) {
        if let Ok(mut g) = self.inner.lock() {
            g.gauge_classes.insert((scope, name, field));
        }
    }

    /// Declares `(scope, name, field)` a histogram even though its
    /// values are not durations (e.g. a Ce-throughput figure).
    pub fn register_histogram(&self, scope: &'static str, name: &'static str, field: &'static str) {
        if let Ok(mut g) = self.inner.lock() {
            g.histogram_classes.insert((scope, name, field));
        }
    }

    /// Feeds one event into the registry.
    pub fn observe(&self, event: &Event) {
        if let Ok(mut g) = self.inner.lock() {
            g.observe(event);
        }
    }

    /// Aggregate (unlabeled) counter value, or 0. The reserved field
    /// `"events"` counts occurrences of `(scope, name)`.
    pub fn counter(&self, scope: &str, name: &str, field: &str) -> u64 {
        self.lookup(|g| &g.counters, scope, name, field, None)
            .unwrap_or(0)
    }

    /// Labeled counter value (e.g. `("leakage", "size_disclosure",
    /// "revealed")` under `{peer=1}`), or 0.
    pub fn counter_labeled(
        &self,
        scope: &str,
        name: &str,
        field: &str,
        label: &str,
        label_value: u64,
    ) -> u64 {
        self.lookup(
            |g| &g.counters,
            scope,
            name,
            field,
            Some((label, label_value)),
        )
        .unwrap_or(0)
    }

    /// Aggregate gauge last-value, or `None` when never set.
    pub fn gauge(&self, scope: &str, name: &str, field: &str) -> Option<u64> {
        self.lookup(|g| &g.gauges, scope, name, field, None)
    }

    /// Aggregate histogram for a class, cloned, or `None` when empty.
    pub fn histogram(&self, scope: &str, name: &str, field: &str) -> Option<Histogram> {
        let g = self.inner.lock().ok()?;
        g.histograms
            .iter()
            .find(|(((s, n, f), label), _)| {
                *s == scope && *n == name && *f == field && label.is_none()
            })
            .map(|(_, h)| h.clone())
    }

    fn lookup(
        &self,
        map: impl Fn(&RegistryInner) -> &BTreeMap<SeriesKey, u64>,
        scope: &str,
        name: &str,
        field: &str,
        label: Option<(&str, u64)>,
    ) -> Option<u64> {
        let g = self.inner.lock().ok()?;
        map(&g)
            .iter()
            .find(|(((s, n, f), l), _)| {
                *s == scope
                    && *n == name
                    && *f == field
                    && match (l, label) {
                        (None, None) => true,
                        (Some((ln, lv)), Some((qn, qv))) => *ln == qn && *lv == qv,
                        _ => false,
                    }
            })
            .map(|(_, v)| *v)
    }

    /// Renders the full registry as one versioned JSON object (see
    /// [`STATS_VERSION`]); this is the payload of the daemon's `STATS`
    /// frame. Keys are `scope/name/field` with an optional
    /// `{label=value}` suffix, sorted, so the output is stable and
    /// grep-friendly.
    pub fn snapshot_json(&self) -> String {
        match self.inner.lock() {
            Ok(g) => render_json(&g),
            Err(_) => format!("{{\"stats_version\":{STATS_VERSION}}}"),
        }
    }

    /// Renders the current snapshot, then starts a fresh epoch: counters
    /// and histograms clear, gauges keep their last value (a queue depth
    /// does not become 0 because someone scraped), and `epoch`
    /// increments. Long-running daemons scrape-and-reset so sums never
    /// grow without bound.
    pub fn snapshot_and_reset(&self) -> String {
        match self.inner.lock() {
            Ok(mut g) => {
                let out = render_json(&g);
                g.counters.clear();
                g.histograms.clear();
                g.epoch += 1;
                out
            }
            Err(_) => format!("{{\"stats_version\":{STATS_VERSION}}}"),
        }
    }
}

fn series_label(key: &SeriesKey) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let ((scope, name, field), label) = key;
    match label {
        None => format!("{}/{}/{}", esc(scope), esc(name), esc(field)),
        Some((ln, lv)) => format!(
            "{}/{}/{}{{{}={}}}",
            esc(scope),
            esc(name),
            esc(field),
            esc(ln),
            lv
        ),
    }
}

fn render_json(g: &RegistryInner) -> String {
    let mut out = format!("{{\"stats_version\":{STATS_VERSION},\"epoch\":{},", g.epoch);
    out.push_str("\"counters\":{");
    for (i, (key, v)) in g.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", series_label(key), v));
    }
    out.push_str("},\"gauges\":{");
    for (i, (key, v)) in g.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", series_label(key), v));
    }
    out.push_str("},\"histograms\":{");
    for (i, (key, h)) in g.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":{{",
            series_label(key),
            h.count(),
            h.sum(),
            h.min().unwrap_or(0),
            h.max().unwrap_or(0)
        ));
        for (j, (lb, c)) in h.nonzero_buckets().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{lb}\":{c}"));
        }
        out.push_str("}}");
    }
    out.push_str("}}");
    out
}

/// The registry's only intake: a [`TraceSink`] forwarding every event to
/// a shared [`MetricsRegistry`]. Because this is the sole way data
/// enters the registry, the snapshot can only ever contain typed
/// numeric aggregates of the secret-safe event stream.
pub struct RegistrySink {
    registry: std::sync::Arc<MetricsRegistry>,
}

impl RegistrySink {
    /// A sink feeding `registry`.
    pub fn new(registry: std::sync::Arc<MetricsRegistry>) -> RegistrySink {
        RegistrySink { registry }
    }
}

impl TraceSink for RegistrySink {
    fn record(&self, event: &Event) {
        self.registry.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count, duration_ns, size};
    use std::sync::Arc;

    fn event(name: &'static str, fields: Vec<crate::Field>) -> Event {
        Event {
            seq: 0,
            scope: "test",
            name,
            deterministic: true,
            fields,
        }
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::lower_bound(0), 0);
        assert_eq!(Histogram::lower_bound(1), 1);
        assert_eq!(Histogram::lower_bound(64), 1u64 << 63);
    }

    #[test]
    fn histogram_records_and_merges() {
        let mut a = Histogram::new();
        a.record(0);
        a.record(3);
        let mut b = Histogram::new();
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 1003);
        assert_eq!(a.min(), Some(0));
        assert_eq!(a.max(), Some(1000));
        assert_eq!(a.nonzero_buckets(), vec![(0, 1), (2, 1), (512, 1)]);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let r = MetricsRegistry::new();
        r.register_gauge("test", "queue", "depth");
        r.register_histogram("test", "done", "ce_per_sec");
        r.observe(&event("open", vec![count("session", 1)]));
        r.observe(&event("open", vec![count("session", 2)]));
        r.observe(&event("queue", vec![size("depth", 5)]));
        r.observe(&event("queue", vec![size("depth", 2)]));
        r.observe(&event(
            "done",
            vec![
                count("session", 1),
                duration_ns("duration_ns", 4096),
                count("ce_per_sec", 77),
            ],
        ));
        assert_eq!(r.counter("test", "open", "events"), 2);
        assert_eq!(r.counter_labeled("test", "open", "events", "session", 1), 1);
        assert_eq!(r.gauge("test", "queue", "depth"), Some(2));
        let h = r.histogram("test", "done", "duration_ns").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.bucket_count(Histogram::bucket_of(4096)), 1);
        let t = r.histogram("test", "done", "ce_per_sec").unwrap();
        assert_eq!(t.sum(), 77);
        // Labeled histogram series exists alongside the aggregate.
        let g = r.inner.lock().unwrap();
        assert!(g
            .histograms
            .contains_key(&(("test", "done", "duration_ns"), Some(("session", 1)))));
    }

    #[test]
    fn snapshot_json_shape_and_reset_semantics() {
        let r = MetricsRegistry::new();
        r.register_gauge("test", "queue", "depth");
        r.observe(&event("open", vec![count("n", 2)]));
        r.observe(&event("queue", vec![size("depth", 9)]));
        r.observe(&event("lat", vec![duration_ns("duration_ns", 100)]));
        let json = r.snapshot_json();
        assert!(json.starts_with("{\"stats_version\":1,\"epoch\":0,"));
        assert!(json.contains("\"test/open/events\":1"));
        assert!(json.contains("\"test/open/n\":2"));
        assert!(json.contains("\"test/queue/depth\":9"));
        assert!(json.contains("\"test/lat/duration_ns\":{\"count\":1,\"sum\":100"));
        assert!(json.contains("\"buckets\":{\"64\":1}"));

        let first = r.snapshot_and_reset();
        assert_eq!(first, json);
        let fresh = r.snapshot_json();
        assert!(fresh.contains("\"epoch\":1"));
        // Counters and histograms cleared; the gauge keeps its value.
        assert_eq!(r.counter("test", "open", "n"), 0);
        assert!(r.histogram("test", "lat", "duration_ns").is_none());
        assert_eq!(r.gauge("test", "queue", "depth"), Some(9));
    }

    #[test]
    fn registry_sink_feeds_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = RegistrySink::new(registry.clone());
        crate::TraceSink::record(&sink, &event("x", vec![count("n", 3)]));
        assert_eq!(registry.counter("test", "x", "n"), 3);
    }

    #[test]
    fn label_fields_are_dimensions_not_measurements() {
        let r = MetricsRegistry::new();
        r.observe(&event(
            "disclosure",
            vec![count("peer", 7), size("revealed", 4)],
        ));
        // "peer" is a label: no counter sums its value.
        assert_eq!(r.counter("test", "disclosure", "peer"), 0);
        assert_eq!(r.counter("test", "disclosure", "revealed"), 4);
        assert_eq!(
            r.counter_labeled("test", "disclosure", "revealed", "peer", 7),
            4
        );
    }
}
