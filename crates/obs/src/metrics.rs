//! Named counters, gauges, and log2-bucketed histograms behind a registry.
//!
//! The registry maps names to atomically-updated cells. Handles returned by
//! [`Registry::counter`] / [`Registry::gauge`] / [`Registry::histogram`]
//! are `Arc`s into those cells: hot loops resolve the name once and then
//! record with plain relaxed atomic ops, never touching the registry lock.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Number of log2 buckets; bucket `i >= 1` covers `[2^(i-1), 2^i - 1]`.
pub const BUCKETS: usize = 64;

/// Locks `m`, recovering from poisoning: metric state is monotonic counts,
/// so data written before a panic elsewhere is still safe to serve.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A monotonically increasing named counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins named value (stored as `f64` bits in one atomic).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the gauge with `v`.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds exactly the value 0; bucket `i >= 1` holds
/// `[2^(i-1), 2^i - 1]`, so a value at an exact power of two `2^k` lands in
/// bucket `k + 1`. Quantiles report the upper edge of the covering bucket,
/// capped at the observed maximum — the estimate `e` for a true quantile
/// `v` therefore satisfies `v <= e < 2v`.
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    /// Per-bucket exemplar: the trace id of the last traced sample that
    /// landed in the bucket (0 = no traced sample yet). Links aggregate
    /// tail buckets back to full `trace::QueryTrace` records.
    exemplars: [AtomicU64; BUCKETS],
    total: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplars: std::array::from_fn(|_| AtomicU64::new(0)),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index covering `v`.
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
        }
    }

    /// The largest value bucket `i` covers (used as the quantile estimate).
    pub fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        // INVARIANT: bucket_index clamps with .min(BUCKETS - 1), so the
        // index is always within `counts`.
        self.counts[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records one sample attributed to a trace: like
    /// [`Histogram::record`], but also stamps `trace_id` as the covering
    /// bucket's exemplar (last writer wins; `trace_id` 0 means untraced
    /// and leaves the exemplar untouched).
    pub fn record_with_exemplar(&self, v: u64, trace_id: u64) {
        self.record(v);
        if trace_id != 0 {
            // INVARIANT: bucket_index clamps with .min(BUCKETS - 1), so
            // the index is always within `exemplars`.
            self.exemplars[Self::bucket_index(v)].store(trace_id, Ordering::Relaxed);
        }
    }

    /// Forgets every sample and exemplar.
    fn clear(&self) {
        for cell in self.counts.iter().chain(&self.exemplars) {
            cell.store(0, Ordering::Relaxed);
        }
        self.total.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// The exemplar trace id of bucket `i` (0 = none), if `i` is in range.
    pub fn exemplar(&self, i: usize) -> Option<u64> {
        self.exemplars.get(i).map(|e| e.load(Ordering::Relaxed))
    }

    /// The number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile estimate (`q` clamped to `[0, 1]`); 0 when empty.
    ///
    /// Returns the upper edge of the bucket containing the rank-`ceil(q*n)`
    /// sample, capped at the observed maximum, so the estimate is within a
    /// factor of two above the true quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, bucket) in self.counts.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// Snapshot of the derived statistics, including the non-empty
    /// buckets (cumulative counts) and their exemplars.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut cumulative = 0u64;
        for (i, bucket) in self.counts.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            cumulative += n;
            // An exemplar slot still holding the sentinel 0 means the
            // bucket never saw a traced sample; the snapshot encodes that
            // absence as `None` so no downstream consumer can mistake it
            // for a real trace id 0.
            buckets.push(HistogramBucket {
                le: Self::bucket_upper(i),
                count: cumulative,
                exemplar: self.exemplar(i).filter(|&id| id != 0),
            });
        }
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count(),
            sum: self.sum(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max(),
            buckets,
        }
    }
}

/// Per-span-name aggregate: first-seen parent plus a duration histogram.
struct SpanStat {
    parent: Option<String>,
    hist: Histogram,
}

/// The metric registry: names to counters, gauges, histograms, span stats.
///
/// Use [`global()`] for the process-wide instance; construct locally in
/// tests that need exact, isolated values.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    spans: Mutex<BTreeMap<String, SpanStat>>,
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

impl Registry {
    /// An empty registry (tests; production code uses [`global()`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    ///
    /// Steady-state lookups take the borrowed fast path: an existing name
    /// clones the `Arc` without copying the key, so a warmed registry
    /// performs zero heap allocations per call (the alloc gate's serving
    /// cone relies on this).
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = lock(&self.counters);
        if let Some(cell) = map.get(name) {
            return Counter(Arc::clone(cell));
        }
        // ALLOC: first use of a metric name registers it; never hit again.
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Arc::clone(cell))
    }

    /// The gauge named `name`, created on first use (initially 0.0).
    /// Existing names take the allocation-free fast path (see
    /// [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = lock(&self.gauges);
        if let Some(cell) = map.get(name) {
            return Gauge(Arc::clone(cell));
        }
        // ALLOC: first use of a metric name registers it; never hit again.
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits())));
        Gauge(Arc::clone(cell))
    }

    /// The histogram named `name`, created on first use. Existing names
    /// take the allocation-free fast path (see [`Registry::counter`]).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = lock(&self.histograms);
        if let Some(cell) = map.get(name) {
            return Arc::clone(cell);
        }
        // ALLOC: first use of a metric name registers it; never hit again.
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()));
        Arc::clone(cell)
    }

    /// Folds one closed span into the per-name aggregate. The first
    /// recorded parent wins (span trees are stable per call site).
    /// Existing names take the allocation-free fast path (see
    /// [`Registry::counter`]).
    pub fn record_span(&self, name: &str, parent: Option<&str>, dur_us: u64) {
        let mut map = lock(&self.spans);
        if let Some(stat) = map.get_mut(name) {
            if stat.parent.is_none() {
                if let Some(p) = parent {
                    // ALLOC: first parent attribution for the name; at
                    // most once per span name.
                    stat.parent = Some(p.to_string());
                }
            }
            stat.hist.record(dur_us);
            return;
        }
        // ALLOC: first close of a span name registers it; never hit again.
        let stat = map.entry(name.to_string()).or_insert_with(|| SpanStat {
            parent: None,
            hist: Histogram::new(),
        });
        if stat.parent.is_none() {
            if let Some(p) = parent {
                // ALLOC: recorded once, at first registration of this span name.
                stat.parent = Some(p.to_string());
            }
        }
        stat.hist.record(dur_us);
    }

    /// A consistent, serializable view of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let counters = lock(&self.counters)
            .iter()
            .map(|(name, cell)| CounterSnapshot {
                name: name.clone(),
                value: cell.load(Ordering::Relaxed),
            })
            .collect();
        let gauges = lock(&self.gauges)
            .iter()
            .map(|(name, cell)| GaugeSnapshot {
                name: name.clone(),
                value: f64::from_bits(cell.load(Ordering::Relaxed)),
            })
            .collect();
        let histograms = lock(&self.histograms)
            .iter()
            .map(|(name, h)| h.snapshot(name))
            .collect();
        let spans = lock(&self.spans)
            .iter()
            .map(|(name, stat)| SpanSnapshot {
                name: name.clone(),
                parent: stat.parent.clone(),
                count: stat.hist.count(),
                total_us: stat.hist.sum(),
                p50_us: stat.hist.quantile(0.50),
                p99_us: stat.hist.quantile(0.99),
                max_us: stat.hist.max(),
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
            spans,
        }
    }

    /// Zeroes every counter, gauge and histogram in place and forgets every
    /// span aggregate. Handles obtained earlier stay attached, so code that
    /// resolves its instruments once per process (the per-search bundle in
    /// `mqa-graph`) still reports into the registry afterwards; names
    /// registered before the reset stay in snapshots, at zero.
    pub fn reset(&self) {
        for cell in lock(&self.counters).values() {
            cell.store(0, Ordering::Relaxed);
        }
        for cell in lock(&self.gauges).values() {
            cell.store(0f64.to_bits(), Ordering::Relaxed);
        }
        for hist in lock(&self.histograms).values() {
            hist.clear();
        }
        lock(&self.spans).clear();
    }
}

/// One counter in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name (`<crate>.<component>.<metric>`).
    pub name: String,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// One gauge in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Gauge value at snapshot time.
    pub value: f64,
}

/// One histogram in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Median estimate (upper bucket edge, capped at max).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
    /// Non-empty buckets with cumulative counts and exemplar trace ids.
    pub buckets: Vec<HistogramBucket>,
}

/// One non-empty bucket in a [`HistogramSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Largest value the bucket covers (Prometheus `le`).
    pub le: u64,
    /// Cumulative sample count up to and including this bucket.
    pub count: u64,
    /// Trace id of the last traced sample in the bucket; `None` when the
    /// bucket never saw a traced sample (the exposition then omits the
    /// exemplar annotation entirely rather than emitting `trace_id=0`).
    pub exemplar: Option<u64>,
}

/// One span aggregate in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanSnapshot {
    /// Span name.
    pub name: String,
    /// Parent span name; `None` for roots (spans that closed with no
    /// recorded parent), so roots are typed rather than spelled `""`.
    pub parent: Option<String>,
    /// Number of closed instances.
    pub count: u64,
    /// Total microseconds across instances.
    pub total_us: u64,
    /// Median duration estimate in microseconds.
    pub p50_us: u64,
    /// 99th-percentile duration estimate in microseconds.
    pub p99_us: u64,
    /// Longest instance in microseconds.
    pub max_us: u64,
}

/// A serializable point-in-time view of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// All span aggregates, sorted by name.
    pub spans: Vec<SpanSnapshot>,
}

impl Snapshot {
    /// The counter value for `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The histogram snapshot for `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The span aggregate for `name`, if present.
    pub fn span(&self, name: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("t.c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.counter("t.c").get(), 5, "same cell on re-lookup");
        let g = r.gauge("t.g");
        g.set(2.5);
        assert!((r.gauge("t.g").get() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn bucket_boundaries_at_exact_powers_of_two() {
        // Bucket 0 is exactly zero; 2^k lands in bucket k+1; 2^k - 1 in k.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        for k in 1..60usize {
            let v = 1u64 << k;
            assert_eq!(Histogram::bucket_index(v), k + 1, "2^{k}");
            assert_eq!(Histogram::bucket_index(v - 1), k, "2^{k} - 1");
            assert_eq!(Histogram::bucket_index(v + 1), k + 1, "2^{k} + 1");
        }
        // Huge values clamp into the last bucket.
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
        // Upper edges are one below the next power of two.
        assert_eq!(Histogram::bucket_upper(0), 0);
        assert_eq!(Histogram::bucket_upper(1), 1);
        assert_eq!(Histogram::bucket_upper(5), 31);
        assert_eq!(Histogram::bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantile_estimate_within_factor_two() {
        let h = Histogram::new();
        let samples: Vec<u64> = (1..=1000).map(|i| i * 7 + 3).collect();
        for &s in &samples {
            h.record(s);
        }
        for &(q, rank) in &[(0.5, 500usize), (0.9, 900), (0.99, 990)] {
            let truth = samples[rank - 1];
            let est = h.quantile(q);
            assert!(est >= truth, "q={q}: est {est} < truth {truth}");
            assert!(est < truth * 2, "q={q}: est {est} >= 2x truth {truth}");
        }
        assert_eq!(h.quantile(1.0), *samples.last().expect("nonempty"));
    }

    #[test]
    fn exemplars_stamp_the_covering_bucket() {
        let h = Histogram::new();
        h.record_with_exemplar(100, 41); // bucket 7 ([64, 127])
        h.record_with_exemplar(100, 42); // same bucket: last writer wins
        h.record_with_exemplar(5000, 0); // untraced: no exemplar
        h.record(70); // plain record never touches exemplars
        assert_eq!(h.exemplar(Histogram::bucket_index(100)), Some(42));
        assert_eq!(h.exemplar(Histogram::bucket_index(5000)), Some(0));
        assert_eq!(h.exemplar(BUCKETS + 5), None, "out of range");
        let snap = h.snapshot("t.exemplar.lat");
        assert_eq!(snap.count, 4);
        let b100 = snap
            .buckets
            .iter()
            .find(|b| b.le == 127)
            .expect("bucket [64,127] present");
        assert_eq!(b100.exemplar, Some(42));
        let b5000 = snap
            .buckets
            .iter()
            .find(|b| b.le == 8191)
            .expect("bucket [4096,8191] present");
        assert_eq!(
            b5000.exemplar, None,
            "an untraced bucket must snapshot as None, not trace id 0"
        );
        assert_eq!(b100.count, 3, "cumulative count includes 70 and 100s");
        let last = snap.buckets.last().expect("nonempty");
        assert_eq!(last.count, 4, "last cumulative count = total");
        assert!(snap.buckets.windows(2).all(|w| w[0].le < w[1].le));
    }

    #[test]
    fn quantile_of_empty_and_single() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        h.record(42);
        assert_eq!(h.quantile(0.0), 42);
        assert_eq!(h.quantile(0.5), 42);
        assert_eq!(h.quantile(1.0), 42);
        assert_eq!(h.max(), 42);
        assert_eq!(h.sum(), 42);
    }

    #[test]
    fn snapshot_sorted_and_queryable() {
        let r = Registry::new();
        r.counter("b.two").add(2);
        r.counter("a.one").add(1);
        r.histogram("h.lat").record(100);
        r.record_span("root", None, 50);
        r.record_span("child", Some("root"), 20);
        let snap = r.snapshot();
        assert_eq!(snap.counters[0].name, "a.one");
        assert_eq!(snap.counter("b.two"), Some(2));
        assert_eq!(snap.histogram("h.lat").map(|h| h.count), Some(1));
        let child = snap.span("child").expect("child span");
        assert_eq!(child.parent.as_deref(), Some("root"));
        let root = snap.span("root").expect("root span");
        assert_eq!(root.parent, None, "roots carry a typed None parent");
        assert_eq!(child.count, 1);
        // A reset zeroes in place: handles taken before it stay attached.
        let held = r.counter("b.two");
        let held_hist = r.histogram("h.lat");
        r.reset();
        let zeroed = r.snapshot();
        assert_eq!(zeroed.counter("b.two"), Some(0));
        assert_eq!(
            zeroed.histogram("h.lat").map(|h| (h.count, h.max)),
            Some((0, 0))
        );
        assert!(zeroed.spans.is_empty());
        held.inc();
        held_hist.record(7);
        let after = r.snapshot();
        assert_eq!(after.counter("b.two"), Some(1));
        assert_eq!(after.histogram("h.lat").map(|h| h.count), Some(1));
    }

    #[test]
    fn snapshot_serializes_and_roundtrips() {
        let r = Registry::new();
        r.counter("x.calls").inc();
        r.gauge("x.ratio").set(0.75);
        r.histogram("x.lat").record(9);
        let snap = r.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize snapshot");
        assert!(json.contains("\"x.calls\""));
        let back: Snapshot = serde_json::from_str(&json).expect("parse snapshot");
        assert_eq!(back, snap);
    }
}
