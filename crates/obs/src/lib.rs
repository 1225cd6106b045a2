//! # omq-obs
//!
//! Instrumentation core for the omq workspace:
//! hierarchical span timers, a typed counter registry, and a pluggable sink
//! API with two built-in sinks (an in-memory [`Aggregator`] with log-scale
//! latency histograms, and a [`JsonlSink`] trace-event writer).
//!
//! ## Model
//!
//! A [`Recorder`] owns a list of sinks and hands out monotonically increasing
//! span ids. Recorders are *installed* per thread ([`install`]); the engine
//! crates call [`span`] / [`counter`] unconditionally, and when no recorder is
//! installed those calls are a single thread-local read.
//!
//! Span names form a fixed taxonomy (see DESIGN.md §5): `chase`,
//! `chase.round`, `hom.compile`, `hom.plan.cost`, `hom.probe`, `rewrite`,
//! `rewrite.round`, `rewrite.expand`, `rewrite.merge`, `rewrite.prune`,
//! `contain`, `contain.sweep`, `serve.<op>`. Counters stream the fields of
//! the returned stats structs once per run (`chase.triggers_fired`,
//! `rewrite.generated`, …). Homomorphism-kernel work is named once, by its
//! `HomStats` field: every producer (chase, rewriting sieve) emits
//! `hom.<field>` for each event count, including the adaptive planner's
//! `hom.plans_reoptimized` and `hom.est_ratio_*` buckets; the
//! `sketch_build_ns` timing is not a count and is not emitted.
//!
//! ## Determinism
//!
//! Event *contents* are deterministic for a fixed single-threaded run when
//! the sink omits timing (see [`JsonlSink::new`] with `timing = false`):
//! span ids are allocated in program order from a per-recorder atomic.
//! Multi-threaded runs produce the same multiset of events up to id
//! renaming; `tests/determinism.rs` locks both properties in.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod flight;
pub mod metrics;

/// Log-scale histogram width shared by [`Aggregator`] and
/// [`metrics::Histogram`]: bucket 0 holds `0 μs`, bucket `k ≥ 1` holds
/// `[2^(k-1), 2^k)` μs.
pub const BUCKETS: usize = 40;

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a process-unique trace id (never 0 — 0 means "untraced" on
/// events).
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// One trace event, as delivered to every [`Sink`] of the recorder.
/// `trace` is the trace id of the request the event belongs to, or 0
/// when the recorder was built without one ([`Recorder::new`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A span opened. `parent` is 0 for root spans.
    Enter {
        id: u64,
        parent: u64,
        name: &'static str,
        trace: u64,
    },
    /// A span closed, `dur_ns` after its `Enter`.
    Exit {
        id: u64,
        name: &'static str,
        dur_ns: u64,
        trace: u64,
    },
    /// A counter increment (zero deltas are filtered at the call site).
    Count {
        name: &'static str,
        delta: u64,
        trace: u64,
    },
}

/// A trace-event consumer. Sinks must tolerate concurrent events from
/// several threads (the recorder is shared across a worker pool).
pub trait Sink: Send + Sync {
    fn event(&self, ev: &Event);
}

/// Aggregated view of one phase (one span name) from an [`Aggregator`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSnapshot {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    /// Median, from the log-scale histogram, clamped to `[min, max]`. μs.
    pub p50_us: u64,
    /// 99th percentile, same estimator. μs.
    pub p99_us: u64,
}

/// A shared growable byte buffer implementing [`Write`] — lets tests and the
/// serve layer capture a [`JsonlSink`] stream in memory.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn contents(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }

    /// The buffered bytes as UTF-8 (JSONL sinks only ever write UTF-8).
    pub fn take_string(&self) -> String {
        String::from_utf8(std::mem::take(&mut *self.0.lock().unwrap())).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// In-memory aggregator sink
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct PhaseAgg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    /// Log-scale histogram over microseconds: bucket 0 holds `0 μs`,
    /// bucket `k ≥ 1` holds durations in `[2^(k-1), 2^k)` μs.
    buckets: [u64; BUCKETS],
}

impl Default for PhaseAgg {
    fn default() -> Self {
        PhaseAgg {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl PhaseAgg {
    fn record(&mut self, dur_ns: u64) {
        self.count += 1;
        self.total_ns += dur_ns;
        self.min_ns = self.min_ns.min(dur_ns);
        self.max_ns = self.max_ns.max(dur_ns);
        self.buckets[metrics::bucket_of_us(dur_ns / 1_000)] += 1;
    }

    /// Percentile estimate from the histogram, using log-linear
    /// interpolation inside the matched bucket (see
    /// [`metrics::histogram_quantile_us`]), clamped to the observed range.
    fn percentile_us(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        metrics::histogram_quantile_us(&self.buckets, self.count, p)
            .clamp(self.min_ns / 1_000, self.max_ns / 1_000)
    }
}

#[derive(Default)]
struct AggInner {
    phases: BTreeMap<&'static str, PhaseAgg>,
    counters: BTreeMap<&'static str, u64>,
}

/// In-memory aggregating sink: per-phase wall-clock histograms with fixed
/// log-scale buckets, plus a counter map.
#[derive(Default)]
pub struct Aggregator {
    inner: Mutex<AggInner>,
}

impl Aggregator {
    pub fn new() -> Self {
        Self::default()
    }

    fn record_ns(&self, name: &'static str, dur_ns: u64) {
        self.inner
            .lock()
            .unwrap()
            .phases
            .entry(name)
            .or_default()
            .record(dur_ns);
    }

    /// Add `delta` to counter `name`.
    pub fn add(&self, name: &'static str, delta: u64) {
        if delta == 0 {
            return;
        }
        *self.inner.lock().unwrap().counters.entry(name).or_default() += delta;
    }

    /// All phases, sorted by name (deterministic).
    pub fn phases(&self) -> Vec<PhaseSnapshot> {
        let inner = self.inner.lock().unwrap();
        inner
            .phases
            .iter()
            .map(|(name, agg)| PhaseSnapshot {
                name: (*name).to_string(),
                count: agg.count,
                total_ns: agg.total_ns,
                min_ns: if agg.count == 0 { 0 } else { agg.min_ns },
                max_ns: agg.max_ns,
                p50_us: agg.percentile_us(0.50),
                p99_us: agg.percentile_us(0.99),
            })
            .collect()
    }

    /// All counters, sorted by name (deterministic).
    pub fn counters(&self) -> Vec<(String, u64)> {
        let inner = self.inner.lock().unwrap();
        inner
            .counters
            .iter()
            .map(|(name, v)| ((*name).to_string(), *v))
            .collect()
    }

    pub fn is_empty(&self) -> bool {
        let inner = self.inner.lock().unwrap();
        inner.phases.is_empty() && inner.counters.is_empty()
    }
}

impl Sink for Aggregator {
    fn event(&self, ev: &Event) {
        match *ev {
            Event::Exit { name, dur_ns, .. } => self.record_ns(name, dur_ns),
            Event::Count { name, delta, .. } => self.add(name, delta),
            Event::Enter { .. } => {}
        }
    }
}

// ---------------------------------------------------------------------------
// JSONL trace-event sink
// ---------------------------------------------------------------------------

/// Writes one JSON object per event:
/// `{"ev":"enter","id":N,"parent":M,"name":"…"}`,
/// `{"ev":"exit","id":N,"name":"…","dur_us":K}`,
/// `{"ev":"count","name":"…","delta":K}`.
///
/// With `timing = false` the `dur_us` field is omitted, which makes the
/// stream for a fixed single-threaded run byte-identical across repeats
/// (span ids are allocated in program order; names are static).
///
/// Events from a recorder carrying a trace id ([`Recorder::with_trace`])
/// gain a trailing `"trace":N` field; id-0 (untraced) events render
/// exactly as before, so existing capture formats are unchanged.
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
    timing: bool,
}

impl JsonlSink {
    pub fn new(out: Box<dyn Write + Send>, timing: bool) -> Self {
        JsonlSink {
            out: Mutex::new(out),
            timing,
        }
    }
}

impl Sink for JsonlSink {
    fn event(&self, ev: &Event) {
        // Span/counter names are static identifiers (no quotes or
        // backslashes), so no JSON string escaping is needed.
        let trace = match *ev {
            Event::Enter { trace, .. } | Event::Exit { trace, .. } | Event::Count { trace, .. } => {
                trace
            }
        };
        let tr = if trace == 0 {
            String::new()
        } else {
            format!(",\"trace\":{trace}")
        };
        let line = match *ev {
            Event::Enter {
                id, parent, name, ..
            } => {
                format!(
                    "{{\"ev\":\"enter\",\"id\":{id},\"parent\":{parent},\"name\":\"{name}\"{tr}}}\n"
                )
            }
            Event::Exit {
                id, name, dur_ns, ..
            } => {
                if self.timing {
                    format!(
                        "{{\"ev\":\"exit\",\"id\":{id},\"name\":\"{name}\",\"dur_us\":{}{tr}}}\n",
                        dur_ns / 1_000
                    )
                } else {
                    format!("{{\"ev\":\"exit\",\"id\":{id},\"name\":\"{name}\"{tr}}}\n")
                }
            }
            Event::Count { name, delta, .. } => {
                format!("{{\"ev\":\"count\",\"name\":\"{name}\",\"delta\":{delta}{tr}}}\n")
            }
        };
        let mut out = self.out.lock().unwrap();
        let _ = out.write_all(line.as_bytes());
        let _ = out.flush();
    }
}

// ---------------------------------------------------------------------------
// Recorder + thread-local install
// ---------------------------------------------------------------------------

/// Owns the sinks and the span-id counter. Shared (`Arc`) across the
/// threads participating in one instrumented run.
pub struct Recorder {
    next_id: AtomicU64,
    trace: u64,
    sinks: Vec<Arc<dyn Sink>>,
}

impl Recorder {
    pub fn new(sinks: Vec<Arc<dyn Sink>>) -> Arc<Recorder> {
        Recorder::with_trace(sinks, 0)
    }

    /// A recorder whose every event carries `trace` as its trace id
    /// (the serve tier allocates one per request via
    /// [`crate::next_trace_id`]).
    pub fn with_trace(sinks: Vec<Arc<dyn Sink>>, trace: u64) -> Arc<Recorder> {
        Arc::new(Recorder {
            next_id: AtomicU64::new(1),
            trace,
            sinks,
        })
    }

    fn emit(&self, ev: &Event) {
        for sink in &self.sinks {
            sink.event(ev);
        }
    }
}

struct Local {
    rec: Arc<Recorder>,
    /// Open span ids on this thread, innermost last.
    stack: Vec<u64>,
}

thread_local! {
    static CURRENT: RefCell<Option<Local>> = const { RefCell::new(None) };
}

/// Restores the previously installed recorder on drop.
pub struct InstallGuard {
    prev: Option<Option<Local>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// Install `rec` as this thread's recorder (or clear it with `None`)
/// until the returned guard drops.
pub fn install(rec: Option<Arc<Recorder>>) -> InstallGuard {
    let prev = CURRENT.with(|c| {
        c.replace(rec.map(|rec| Local {
            rec,
            stack: Vec::new(),
        }))
    });
    InstallGuard { prev: Some(prev) }
}

/// The recorder installed on this thread, if any. Capture this before
/// spawning workers and re-`install` it inside each one.
pub fn current() -> Option<Arc<Recorder>> {
    CURRENT.with(|c| c.borrow().as_ref().map(|l| l.rec.clone()))
}

/// True iff a recorder is installed on this thread. Use to skip
/// non-trivial argument computation for counters.
#[inline]
pub fn active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Closes its span on drop.
pub struct SpanGuard {
    open: Option<(Arc<Recorder>, u64, &'static str, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((rec, id, name, start)) = self.open.take() {
            let dur_ns = start.elapsed().as_nanos() as u64;
            CURRENT.with(|c| {
                if let Some(local) = c.borrow_mut().as_mut() {
                    if local.stack.last() == Some(&id) {
                        local.stack.pop();
                    } else {
                        // Out-of-order drop (shouldn't happen with RAII
                        // guards, but never corrupt the stack).
                        local.stack.retain(|&x| x != id);
                    }
                }
            });
            rec.emit(&Event::Exit {
                id,
                name,
                dur_ns,
                trace: rec.trace,
            });
        }
    }
}

/// Open a span named `name` under the current thread's open span (if
/// any); a no-op returning an inert guard when no recorder is installed.
pub fn span(name: &'static str) -> SpanGuard {
    let opened = CURRENT.with(|c| {
        let mut b = c.borrow_mut();
        let local = b.as_mut()?;
        let id = local.rec.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = local.stack.last().copied().unwrap_or(0);
        local.stack.push(id);
        Some((local.rec.clone(), id, parent))
    });
    match opened {
        None => SpanGuard { open: None },
        Some((rec, id, parent)) => {
            rec.emit(&Event::Enter {
                id,
                parent,
                name,
                trace: rec.trace,
            });
            SpanGuard {
                open: Some((rec, id, name, Instant::now())),
            }
        }
    }
}

/// Emit a counter increment (skipped when `delta == 0` or no recorder).
pub fn counter(name: &'static str, delta: u64) {
    if delta == 0 {
        return;
    }
    if let Some(rec) = current() {
        rec.emit(&Event::Count {
            name,
            delta,
            trace: rec.trace,
        });
    }
}

/// Emit several counters with a single thread-local lookup; zero deltas
/// are skipped.
pub fn counters(items: &[(&'static str, u64)]) {
    let Some(rec) = current() else { return };
    for &(name, delta) in items {
        if delta != 0 {
            rec.emit(&Event::Count {
                name,
                delta,
                trace: rec.trace,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregator_histogram_percentiles() {
        let agg = Aggregator::new();
        for us in [1u64, 2, 3, 100, 200, 5000] {
            agg.record_ns("p", us * 1_000);
        }
        agg.add("c", 3);
        agg.add("c", 0); // filtered
        agg.add("c", 4);
        let phases = agg.phases();
        assert_eq!(phases.len(), 1);
        let p = &phases[0];
        assert_eq!(p.name, "p");
        assert_eq!(p.count, 6);
        assert_eq!(p.min_ns, 1_000);
        assert_eq!(p.max_ns, 5_000_000);
        assert!(p.p50_us >= 1 && p.p50_us <= 200, "p50 {}", p.p50_us);
        assert!(p.p99_us >= 200, "p99 {}", p.p99_us);
        assert_eq!(agg.counters(), vec![("c".to_string(), 7)]);
    }

    #[test]
    fn percentile_empty_phase_is_zero() {
        let agg = PhaseAgg::default();
        assert_eq!(agg.percentile_us(0.5), 0);
        assert_eq!(agg.percentile_us(0.99), 0);
    }

    #[test]
    fn percentile_single_sample_is_exact() {
        // Interpolation lands mid-bucket, but the [min, max] clamp pins a
        // lone sample to its exact value.
        let mut agg = PhaseAgg::default();
        agg.record(100_000); // 100 us
        assert_eq!(agg.percentile_us(0.5), 100);
        assert_eq!(agg.percentile_us(0.99), 100);
    }

    #[test]
    fn percentile_two_bucket_spread_interpolates() {
        let mut agg = PhaseAgg::default();
        agg.record(2_000); // 2 us -> bucket 2
        agg.record(1_000_000); // 1000 us -> bucket 10
        let p50 = agg.percentile_us(0.5);
        let p99 = agg.percentile_us(0.99);
        // p50 interpolates inside [2, 4) instead of snapping to the bucket
        // upper bound; p99 sits in the upper bucket, clamped to max.
        assert!((2..4).contains(&p50), "p50 {p50}");
        assert!((512..=1000).contains(&p99), "p99 {p99}");
        assert!(p50 < p99);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert!(a != 0 && b != 0 && a != b);
    }

    #[test]
    fn spans_nest_and_reach_sinks() {
        let buf = SharedBuf::new();
        let sink = Arc::new(JsonlSink::new(Box::new(buf.clone()), false));
        let rec = Recorder::new(vec![sink]);
        {
            let _g = install(Some(rec));
            let _outer = span("outer");
            {
                let _inner = span("inner");
                counter("hits", 2);
            }
        }
        let text = buf.take_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                r#"{"ev":"enter","id":1,"parent":0,"name":"outer"}"#,
                r#"{"ev":"enter","id":2,"parent":1,"name":"inner"}"#,
                r#"{"ev":"count","name":"hits","delta":2}"#,
                r#"{"ev":"exit","id":2,"name":"inner"}"#,
                r#"{"ev":"exit","id":1,"name":"outer"}"#,
            ]
        );
        // Nothing recorded once the install guard dropped.
        let _orphan = span("orphan");
        drop(_orphan);
        assert!(buf.take_string().is_empty());
    }

    #[test]
    fn trace_ids_stamp_sink_events() {
        let buf = SharedBuf::new();
        let sink = Arc::new(JsonlSink::new(Box::new(buf.clone()), false));
        let rec = Recorder::with_trace(vec![sink], 42);
        {
            let _g = install(Some(rec));
            let _s = span("outer");
            counter("hits", 1);
        }
        let text = buf.take_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                r#"{"ev":"enter","id":1,"parent":0,"name":"outer","trace":42}"#,
                r#"{"ev":"count","name":"hits","delta":1,"trace":42}"#,
                r#"{"ev":"exit","id":1,"name":"outer","trace":42}"#,
            ]
        );
    }
}
