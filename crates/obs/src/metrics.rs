//! Live metrics: striped lock-free counters, gauges, log-bucket
//! histograms, rolling latency windows, and Prometheus text exposition.
//!
//! Unlike the event-driven half of this crate (spans and sinks, which
//! only record while a recorder is installed), the serve tier populates
//! the registry directly on its request path: it is the single record of
//! every request's wall time, behind both the scrape and the `stats` op.
//! All hot-path operations are wait-free atomics; the only locks are
//! per-slot mutexes on the rolling window, touched once per request.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::BUCKETS;

/// Upper bound (inclusive, in microseconds) of log bucket `k`.
/// Bucket 0 holds sub-microsecond samples; bucket `k >= 1` holds
/// `[2^(k-1), 2^k)` microseconds (see [`bucket_of_us`]).
pub fn bucket_upper_us(k: usize) -> u64 {
    if k == 0 {
        0
    } else {
        (1u64 << k.min(62)) - 1
    }
}

/// Log-bucket index for a duration in microseconds: the one bucket
/// assignment behind [`Histogram`], [`RollingWindow`] and `Aggregator`.
pub fn bucket_of_us(us: u64) -> usize {
    ((u64::BITS - us.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Estimate the `p`-quantile (0.0..=1.0) of a log-bucket histogram in
/// microseconds, using log-linear interpolation inside the matched
/// bucket: the target rank's fractional position `f` within bucket `k`
/// maps to `2^((k-1)+f)` us, so a lone sample lands at the bucket's
/// geometric midpoint instead of its upper bound. Returns 0 when the
/// histogram is empty.
pub fn histogram_quantile_us(buckets: &[u64], count: u64, p: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let target = ((count as f64) * p).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (k, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if cum + c >= target {
            if k == 0 {
                return 0;
            }
            let f = ((target as f64 - 0.5) - cum as f64) / c as f64;
            let f = f.clamp(0.0, 1.0);
            return 2f64.powf((k as f64 - 1.0) + f).round() as u64;
        }
        cum += c;
    }
    bucket_upper_us(BUCKETS - 1)
}

const STRIPES: usize = 16;

#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// Monotonic counter striped across cache lines so concurrent worker
/// threads do not contend on one atomic. Reads fold the stripes.
#[derive(Default)]
pub struct Counter {
    stripes: [PaddedU64; STRIPES],
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    pub fn add(&self, delta: u64) {
        MY_STRIPE.with(|&s| self.stripes[s].0.fetch_add(delta, Ordering::Relaxed));
    }

    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Last-writer-wins integer gauge.
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Wait-free log-bucket histogram over request durations: buckets in
/// microseconds, the sum kept in nanoseconds so that a total over many
/// short requests is divided down to microseconds only once.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Clone, Copy, Debug)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    pub fn percentile_us(&self, p: f64) -> u64 {
        histogram_quantile_us(&self.buckets, self.count, p)
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    pub fn observe(&self, dur: Duration) {
        let ns = dur.as_nanos() as u64;
        self.buckets[bucket_of_us(ns / 1_000)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|k| self.buckets[k].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// Seconds per rolling-window slot and slot count: six ten-second slots
/// give p50/p99 and SLO-burn gauges over roughly the last minute.
const SLOT_SECS: u64 = 10;
const WINDOW_SLOTS: usize = 6;

#[derive(Clone, Copy)]
struct WindowSlot {
    stamp: u64,
    buckets: [u64; BUCKETS],
    count: u64,
    shed: u64,
    timeouts: u64,
}

impl WindowSlot {
    fn empty(stamp: u64) -> WindowSlot {
        WindowSlot {
            stamp,
            buckets: [0; BUCKETS],
            count: 0,
            shed: 0,
            timeouts: 0,
        }
    }
}

/// Merged view of the live slots of a [`RollingWindow`].
#[derive(Clone, Copy)]
pub struct WindowSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub shed: u64,
    pub timeouts: u64,
}

impl Default for WindowSnapshot {
    fn default() -> WindowSnapshot {
        WindowSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            shed: 0,
            timeouts: 0,
        }
    }
}

impl WindowSnapshot {
    pub fn percentile_us(&self, p: f64) -> u64 {
        histogram_quantile_us(&self.buckets, self.count, p)
    }
}

/// Ring of time-sliced latency slots; expired slots are recycled lazily
/// on write or read, so the window needs no background sweeper.
pub struct RollingWindow {
    start: Instant,
    slots: [Mutex<WindowSlot>; WINDOW_SLOTS],
}

impl Default for RollingWindow {
    fn default() -> RollingWindow {
        RollingWindow {
            start: Instant::now(),
            slots: std::array::from_fn(|_| Mutex::new(WindowSlot::empty(0))),
        }
    }
}

impl RollingWindow {
    pub fn new() -> RollingWindow {
        RollingWindow::default()
    }

    fn epoch(&self) -> u64 {
        self.start.elapsed().as_secs() / SLOT_SECS + 1
    }

    fn slot(&self, epoch: u64) -> std::sync::MutexGuard<'_, WindowSlot> {
        let mut slot = self.slots[(epoch as usize) % WINDOW_SLOTS]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if slot.stamp != epoch {
            *slot = WindowSlot::empty(epoch);
        }
        slot
    }

    pub fn observe(&self, dur_us: u64, timed_out: bool) {
        let mut slot = self.slot(self.epoch());
        slot.buckets[bucket_of_us(dur_us)] += 1;
        slot.count += 1;
        if timed_out {
            slot.timeouts += 1;
        }
    }

    pub fn mark_shed(&self) {
        self.slot(self.epoch()).shed += 1;
    }

    pub fn snapshot(&self) -> WindowSnapshot {
        let now = self.epoch();
        let mut snap = WindowSnapshot::default();
        for m in &self.slots {
            let slot = m.lock().unwrap_or_else(|e| e.into_inner());
            if slot.stamp == 0 || slot.stamp + (WINDOW_SLOTS as u64) <= now {
                continue;
            }
            for (acc, b) in snap.buckets.iter_mut().zip(slot.buckets.iter()) {
                *acc += b;
            }
            snap.count += slot.count;
            snap.shed += slot.shed;
            snap.timeouts += slot.timeouts;
        }
        snap
    }
}

struct OpStats {
    timeouts: Counter,
    latency: Histogram,
    window: RollingWindow,
}

impl OpStats {
    fn new() -> OpStats {
        OpStats {
            timeouts: Counter::new(),
            latency: Histogram::new(),
            window: RollingWindow::new(),
        }
    }
}

/// Cap on distinct per-op series; overflow collapses into `"other"` so a
/// hostile or buggy caller cannot grow the scrape without bound.
pub const MAX_OP_SERIES: usize = 32;

/// Bounded-label registry for the serve tier's per-request metrics.
/// Op labels are `&'static str` (the engine's fixed op taxonomy), so
/// the label space is closed; the cap is a second line of defence.
pub struct MetricsRegistry {
    started: Instant,
    ops: RwLock<BTreeMap<&'static str, Arc<OpStats>>>,
    shed_total: Counter,
    shed_window: RollingWindow,
    series_dropped: Counter,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry {
            started: Instant::now(),
            ops: RwLock::new(BTreeMap::new()),
            shed_total: Counter::new(),
            shed_window: RollingWindow::new(),
            series_dropped: Counter::new(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn op_stats(&self, op: &'static str) -> Arc<OpStats> {
        if let Some(s) = self.ops.read().unwrap_or_else(|e| e.into_inner()).get(op) {
            return Arc::clone(s);
        }
        let mut ops = self.ops.write().unwrap_or_else(|e| e.into_inner());
        if ops.len() >= MAX_OP_SERIES && !ops.contains_key(op) {
            self.series_dropped.add(1);
            return Arc::clone(
                ops.entry("other")
                    .or_insert_with(|| Arc::new(OpStats::new())),
            );
        }
        Arc::clone(ops.entry(op).or_insert_with(|| Arc::new(OpStats::new())))
    }

    /// Record one completed request of family `op`.
    pub fn observe_op(&self, op: &'static str, dur: Duration, timed_out: bool) {
        let stats = self.op_stats(op);
        if timed_out {
            stats.timeouts.add(1);
        }
        stats.latency.observe(dur);
        stats.window.observe(dur.as_micros() as u64, timed_out);
    }

    /// Full-history latency histogram of every op family seen so far,
    /// sorted by op name.
    pub fn op_latencies(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        let ops = self.ops.read().unwrap_or_else(|e| e.into_inner());
        ops.iter()
            .map(|(op, stats)| (*op, stats.latency.snapshot()))
            .collect()
    }

    /// Record one request refused by admission control (it never ran, so
    /// there is no latency to observe).
    pub fn mark_shed(&self) {
        self.shed_total.add(1);
        self.shed_window.mark_shed();
    }

    pub fn shed_total(&self) -> u64 {
        self.shed_total.get()
    }

    /// Shed SLO burn over the rolling window: refused / offered.
    pub fn shed_burn_ratio(&self) -> f64 {
        let shed = self.shed_window.snapshot().shed;
        let mut served = 0u64;
        for stats in self.ops.read().unwrap_or_else(|e| e.into_inner()).values() {
            served += stats.window.snapshot().count;
        }
        if shed == 0 {
            return 0.0;
        }
        shed as f64 / (shed + served) as f64
    }

    /// Render the registry's scrape-only series: request totals, timeout
    /// totals, rolling-window p50/p99 gauges, and shed / SLO-burn series.
    /// The full-history histograms of [`MetricsRegistry::op_latencies`]
    /// reach the scrape through the serve tier's counter table, which also
    /// renders them into its `stats` op.
    pub fn samples(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        let ops = self.ops.read().unwrap_or_else(|e| e.into_inner());
        let mut window_count = 0u64;
        let mut window_timeouts = 0u64;
        for (op, stats) in ops.iter() {
            let labels = vec![("op", (*op).to_owned())];
            out.push(Sample {
                name: "omq_requests_total",
                help: "Requests executed by the engine, by op family.",
                labels: labels.clone(),
                value: Value::Counter(stats.latency.snapshot().count),
            });
            let timeouts = stats.timeouts.get();
            if timeouts > 0 {
                out.push(Sample {
                    name: "omq_request_timeouts_total",
                    help: "Requests that exhausted their deadline ladder.",
                    labels: labels.clone(),
                    value: Value::Counter(timeouts),
                });
            }
            let win = stats.window.snapshot();
            window_count += win.count;
            window_timeouts += win.timeouts;
            if win.count > 0 {
                for (q, p) in [("0.5", 0.5), ("0.99", 0.99)] {
                    out.push(Sample {
                        name: "omq_request_duration_window_us",
                        help: "Rolling-window request latency quantiles (us).",
                        labels: vec![("op", (*op).to_owned()), ("quantile", q.to_owned())],
                        value: Value::Gauge(win.percentile_us(p) as f64),
                    });
                }
            }
        }
        drop(ops);
        out.push(Sample {
            name: "omq_requests_shed_total",
            help: "Requests refused by admission control before execution.",
            labels: Vec::new(),
            value: Value::Counter(self.shed_total.get()),
        });
        let shed_win = self.shed_window.snapshot().shed;
        let offered = shed_win + window_count;
        let shed_burn = if offered == 0 {
            0.0
        } else {
            shed_win as f64 / offered as f64
        };
        let timeout_burn = if window_count == 0 {
            0.0
        } else {
            window_timeouts as f64 / window_count as f64
        };
        out.push(Sample {
            name: "omq_shed_slo_burn_ratio",
            help: "Rolling-window fraction of offered requests that were shed.",
            labels: Vec::new(),
            value: Value::Gauge(shed_burn),
        });
        out.push(Sample {
            name: "omq_timeout_slo_burn_ratio",
            help: "Rolling-window fraction of executed requests that timed out.",
            labels: Vec::new(),
            value: Value::Gauge(timeout_burn),
        });
        out.push(Sample {
            name: "omq_metric_series_dropped_total",
            help: "Op series collapsed into \"other\" by the label bound.",
            labels: Vec::new(),
            value: Value::Counter(self.series_dropped.get()),
        });
        out.push(Sample {
            name: "omq_uptime_seconds",
            help: "Seconds since the metrics registry was created.",
            labels: Vec::new(),
            value: Value::Gauge(self.started.elapsed().as_secs() as f64),
        });
        out
    }
}

/// One scrape-time measurement. Producers hand these to
/// [`render_prometheus`], which merges duplicate series (same name and
/// label set) so per-shard contributions fold into one process view.
#[derive(Clone, Debug)]
pub struct Sample {
    pub name: &'static str,
    pub help: &'static str,
    pub labels: Vec<(&'static str, String)>,
    pub value: Value,
}

#[derive(Clone, Debug)]
pub enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram {
        buckets: Vec<u64>,
        count: u64,
        sum_us: u64,
    },
}

impl Value {
    fn type_str(&self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Histogram { .. } => "histogram",
        }
    }

    /// Folds `other` into `self`: counters, gauges and histogram buckets
    /// add up, so per-shard shares of one series become its process total.
    pub fn merge(&mut self, other: &Value) {
        match (self, other) {
            (Value::Counter(a), Value::Counter(b)) => *a += b,
            (Value::Gauge(a), Value::Gauge(b)) => *a += b,
            (
                Value::Histogram {
                    buckets: a,
                    count: ac,
                    sum_us: asum,
                },
                Value::Histogram {
                    buckets: b,
                    count: bc,
                    sum_us: bsum,
                },
            ) => {
                if a.len() < b.len() {
                    a.resize(b.len(), 0);
                }
                for (x, y) in a.iter_mut().zip(b.iter()) {
                    *x += y;
                }
                *ac += bc;
                *asum += bsum;
            }
            // Mismatched types for one series is a producer bug; keep the
            // first value rather than corrupting the scrape.
            _ => {}
        }
    }
}

fn label_str(labels: &[(&'static str, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut s = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(k);
        s.push_str("=\"");
        for c in v.chars() {
            match c {
                '"' => s.push_str("\\\""),
                '\\' => s.push_str("\\\\"),
                '\n' => s.push_str("\\n"),
                c => s.push(c),
            }
        }
        s.push('"');
    }
    s.push('}');
    s
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// Render Prometheus text exposition (format 0.0.4). Series are sorted
/// by (name, labels) and duplicates are merged, so output is
/// deterministic regardless of producer order, and repeated scrapes of
/// an idle server are byte-identical modulo gauge values.
pub fn render_prometheus(samples: &[Sample]) -> String {
    let mut merged: BTreeMap<(&'static str, String), Sample> = BTreeMap::new();
    for s in samples {
        let key = (s.name, label_str(&s.labels));
        match merged.get_mut(&key) {
            Some(existing) => existing.value.merge(&s.value),
            None => {
                merged.insert(key, s.clone());
            }
        }
    }
    let mut out = String::new();
    let mut last_name = "";
    for ((name, labels), s) in &merged {
        if *name != last_name {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            out.push_str(s.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(s.value.type_str());
            out.push('\n');
            last_name = name;
        }
        match &s.value {
            Value::Counter(v) => {
                out.push_str(name);
                out.push_str(labels);
                out.push(' ');
                out.push_str(&v.to_string());
                out.push('\n');
            }
            Value::Gauge(v) => {
                out.push_str(name);
                out.push_str(labels);
                out.push(' ');
                out.push_str(&fmt_f64(*v));
                out.push('\n');
            }
            Value::Histogram {
                buckets,
                count,
                sum_us,
            } => {
                let inner = labels.trim_start_matches('{').trim_end_matches('}');
                let top = buckets
                    .iter()
                    .rposition(|&c| c > 0)
                    .map(|k| k + 1)
                    .unwrap_or(0);
                let mut cum = 0u64;
                for (k, c) in buckets.iter().take(top).enumerate() {
                    cum += c;
                    out.push_str(name);
                    out.push_str("_bucket{");
                    if !inner.is_empty() {
                        out.push_str(inner);
                        out.push(',');
                    }
                    out.push_str("le=\"");
                    out.push_str(&bucket_upper_us(k).to_string());
                    out.push_str("\"} ");
                    out.push_str(&cum.to_string());
                    out.push('\n');
                }
                out.push_str(name);
                out.push_str("_bucket{");
                if !inner.is_empty() {
                    out.push_str(inner);
                    out.push(',');
                }
                out.push_str("le=\"+Inf\"} ");
                out.push_str(&count.to_string());
                out.push('\n');
                out.push_str(name);
                out.push_str("_sum");
                out.push_str(labels);
                out.push(' ');
                out.push_str(&sum_us.to_string());
                out.push('\n');
                out.push_str(name);
                out.push_str("_count");
                out.push_str(labels);
                out.push(' ');
                out.push_str(&count.to_string());
                out.push('\n');
            }
        }
    }
    out
}

/// Content-Type for the text exposition format served over HTTP.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striped_counter_sums_across_threads() {
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn quantile_interpolates_within_bucket() {
        // Empty histogram.
        assert_eq!(histogram_quantile_us(&[0; BUCKETS], 0, 0.5), 0);
        // A single sample in bucket 7 ([64, 128) us) lands near the
        // geometric midpoint, strictly inside the bucket.
        let mut b = [0u64; BUCKETS];
        b[7] = 1;
        let q = histogram_quantile_us(&b, 1, 0.5);
        assert!((64..128).contains(&q), "q={q}");
        // Two samples spread across buckets: the p99 must sit in the
        // upper bucket and above the p50.
        let mut b = [0u64; BUCKETS];
        b[2] = 1; // 2us
        b[10] = 1; // ~1000us
        let p50 = histogram_quantile_us(&b, 2, 0.5);
        let p99 = histogram_quantile_us(&b, 2, 0.99);
        assert!((2..4).contains(&p50), "p50={p50}");
        assert!((512..1024).contains(&p99), "p99={p99}");
        assert!(p50 < p99);
    }

    #[test]
    fn registry_tracks_ops_shed_and_burn() {
        let reg = MetricsRegistry::new();
        let us = Duration::from_micros;
        reg.observe_op("serve.contains", us(120), false);
        reg.observe_op("serve.contains", us(8000), true);
        reg.observe_op("serve.evaluate", us(40), false);
        reg.mark_shed();
        assert_eq!(reg.shed_total(), 1);
        let burn = reg.shed_burn_ratio();
        assert!(burn > 0.0 && burn < 1.0, "burn={burn}");
        let text = render_prometheus(&reg.samples());
        assert!(text.contains("omq_requests_total{op=\"serve.contains\"} 2"));
        assert!(text.contains("omq_requests_total{op=\"serve.evaluate\"} 1"));
        assert!(text.contains("omq_request_timeouts_total{op=\"serve.contains\"} 1"));
        assert!(text.contains("omq_requests_shed_total 1"));
        assert!(text.contains("omq_shed_slo_burn_ratio 0.25"));
        assert!(text.contains("quantile=\"0.99\""));
    }

    #[test]
    fn op_latency_sums_in_nanoseconds() {
        // Three 1.5 us requests total 4.5 us: summing whole microseconds
        // per request would report 3.
        let reg = MetricsRegistry::new();
        for _ in 0..3 {
            reg.observe_op("serve.stats", Duration::from_nanos(1_500), false);
        }
        let lat = reg.op_latencies();
        assert_eq!(lat.len(), 1);
        let (op, h) = lat[0];
        assert_eq!((op, h.count, h.sum_ns), ("serve.stats", 3, 4_500));
        let text = render_prometheus(&reg.samples());
        assert!(text.contains("omq_requests_total{op=\"serve.stats\"} 3\n"));
    }

    #[test]
    fn label_bound_collapses_overflow_into_other() {
        let reg = MetricsRegistry::new();
        const NAMES: [&str; 40] = [
            "op00", "op01", "op02", "op03", "op04", "op05", "op06", "op07", "op08", "op09", "op10",
            "op11", "op12", "op13", "op14", "op15", "op16", "op17", "op18", "op19", "op20", "op21",
            "op22", "op23", "op24", "op25", "op26", "op27", "op28", "op29", "op30", "op31", "op32",
            "op33", "op34", "op35", "op36", "op37", "op38", "op39",
        ];
        for name in NAMES {
            reg.observe_op(name, Duration::from_micros(10), false);
        }
        let text = render_prometheus(&reg.samples());
        assert!(text.contains("omq_requests_total{op=\"other\"}"));
        assert!(text.contains("omq_metric_series_dropped_total"));
        assert!(!text.contains("op=\"op39\""));
    }

    #[test]
    fn render_merges_duplicate_series() {
        let mk = |v| Sample {
            name: "omq_cache_hits_total",
            help: "h",
            labels: vec![("cache", "rewrite".to_owned())],
            value: Value::Counter(v),
        };
        let text = render_prometheus(&[mk(3), mk(4)]);
        assert!(text.contains("omq_cache_hits_total{cache=\"rewrite\"} 7"));
        assert_eq!(text.matches("# TYPE omq_cache_hits_total").count(), 1);
    }

    #[test]
    fn rolling_window_counts_and_quantiles() {
        let w = RollingWindow::new();
        for _ in 0..10 {
            w.observe(100, false);
        }
        w.observe(9000, true);
        w.mark_shed();
        let snap = w.snapshot();
        assert_eq!(snap.count, 11);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.timeouts, 1);
        assert!((64..256).contains(&snap.percentile_us(0.5)));
        assert!(snap.percentile_us(0.99) >= 4096);
    }
}
