//! The request engine: schedules batches across a bounded worker pool,
//! enforces per-request deadlines, and fronts the solver stack with two
//! canonical-key caches.
//!
//! * **Rewrite-artifact cache** — keyed by `(OmqKey, RewriteCfgKey)`; stores
//!   only *complete* rewritings (a truncated rewriting depends on the budget
//!   that truncated it, a complete one does not). Supplied to the solvers as
//!   a [`RewriteSource`], so a warm `contains`/`evaluate` skips XRewrite
//!   entirely.
//! * **Verdict cache** — keyed by `(op, OmqKey, OmqKey)`; stores the fully
//!   rendered response fields of *definitive* containment verdicts. Never
//!   stores `Unknown`: a later, less-constrained request must be free to do
//!   better.
//! * **Encoding cache** — keyed by the lhs `OmqKey`; stores the compiled
//!   C-tree/2WAPA encoding artifact (`omq_guarded::compile_encoding`) of
//!   guarded left-hand sides. The artifact depends only on the OMQ, so a
//!   warm guarded `contains` (same lhs, any rhs) skips automaton
//!   construction entirely; only *complete* artifacts are stored (an
//!   incomplete one depends on the budget that truncated its emptiness
//!   check).
//!
//! Scheduling: a batch runs in input order. `register` requests are
//! barriers (they mutate the registry), as are the versioned-store ops
//! (`assert`/`retract`/`snapshot` and store-backed `evaluate` — they
//! advance or read a named store's version history and maintained chase
//! fixpoint), as are `stats` and `metrics` (they report every earlier
//! request of the batch); maximal runs of parallel-safe requests between
//! barriers are fanned out across the pool with
//! `omq_chase::parallel_indexed`. Every solver invocation inside a worker
//! runs with inner `threads = 1` — the pool parallelism is *across*
//! requests, never nested — which also makes every response byte-identical
//! to a sequential execution of the same batch.
//!
//! Deadlines: a request's budget is `arrival + deadline_ms` where arrival
//! is the batch entry time. Expiry is cooperative (the chase, XRewrite, and
//! the containment sweeps poll it) and always degrades: `contains` reports
//! `"verdict":"unknown"` with partial stats, `evaluate` reports its sound
//! lower bound, and the response carries `"timed_out":true`. The worker
//! pool itself is never poisoned by an expired request.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

use omq_chase::{effective_threads, parallel_indexed, Budget, Guarantee};
use omq_core::{
    contains_with, equivalent_with, evaluate_with, explain_with, ContainmentConfig,
    ContainmentOutcome, ContainmentResult, EvalConfig, ExplainDetail, OmqLanguage,
};
use omq_guarded::{compile_encoding, EncodingArtifact, EncodingConfig};
use omq_model::display::render_atom;
use omq_model::{parse_tgd, Instance, Omq, Term, Vocabulary};
use omq_obs::flight::{FlightRecorder, SpanTree, TreeSink};
use omq_obs::metrics::MetricsRegistry;
use omq_obs::{Aggregator, JsonlSink, Sink};
use omq_rewrite::{DirectRewrite, RewriteArtifact, RewriteSource, XRewriteConfig};
use omq_store::{MaintainedStore, StoreConfig, StoreStats};

use crate::cache::{CacheStats, LruCache};
use crate::error::ServeError;
use crate::json::Json;
use crate::key::{OmqKey, RewriteCfgKey};
use crate::protocol::{Op, Request, Response};
use crate::reactor::RuntimeStats;
use crate::registry::{Registered, Registry};
use crate::stats;
use crate::tier::{DiskTier, DiskTierStats, PortableArtifact};

/// Key of the rewrite-artifact cache.
pub type RewriteKey = (OmqKey, RewriteCfgKey);

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum VerdictOp {
    Contains,
    Equivalent,
}

type VerdictKey = (VerdictOp, OmqKey, OmqKey);

/// A `contains`/`equivalent` verdict-cache lookup: the cached response
/// fields, or everything the solver job needs.
enum Lookup {
    Hit(Vec<(String, Json)>),
    Miss(Box<VerdictJob>),
}

/// A verdict-cache miss: the two registrations, the verdict key, whether
/// either side is an alias, and the job's vocabulary snapshot.
struct VerdictJob {
    l: Arc<Registered>,
    r: Arc<Registered>,
    vkey: VerdictKey,
    alias: bool,
    voc: Vocabulary,
}

/// Engine construction knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads for batch fan-out. `0` = available parallelism,
    /// `1` = sequential.
    pub threads: usize,
    /// Capacity of *each* cache (artifacts and verdicts). `0` disables
    /// caching.
    pub cache_capacity: usize,
    /// Deadline applied to requests that carry none. `None` = unlimited.
    pub default_deadline_ms: Option<u64>,
    /// Novelty rows that trigger a store compaction after a mutation
    /// (`0` disables automatic compaction). See [`omq_store::StoreConfig`].
    pub store_compact_threshold: usize,
    /// Directory of the persisted artifact tier (`None` = in-memory tiers
    /// only). Complete rewriting artifacts are written there in portable
    /// form and survive restarts; see [`crate::tier`].
    pub cache_dir: Option<PathBuf>,
    /// Fraction of requests whose span tree is streamed to the process
    /// trace sink (`--trace-out`). Sampling is a deterministic hash of the
    /// request's trace id, so one request's spans are never split across
    /// the sample boundary; `"trace":true` requests are always captured.
    pub trace_sample: f64,
}

/// Flight-recorder slow threshold in milliseconds: requests slower than
/// this are tail-retained even when they neither shed nor timed out.
const FLIGHT_SLOW_MS: u64 = 250;

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            cache_capacity: 256,
            default_deadline_ms: None,
            store_compact_threshold: StoreConfig::default().compact_threshold,
            cache_dir: None,
            trace_sample: 1.0,
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic per-request sampling decision: a request is in the
/// sample iff the hash of its trace id falls under `rate`. The decision
/// depends only on the id, so every span of a request lands on the same
/// side of the boundary.
fn sample_trace(trace_id: u64, rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    (splitmix64(trace_id) as f64) < rate * (u64::MAX as f64)
}

/// The body of the `trace_dump` op.
fn trace_dump_fields(flight: &FlightRecorder) -> Vec<(String, Json)> {
    let (retained, recent) = flight.snapshot();
    let arr = |entries: Vec<omq_obs::flight::FlightEntry>| {
        Json::Arr(entries.iter().map(flight_entry_json).collect())
    };
    vec![
        (
            "slow_threshold_us".to_owned(),
            Json::num(flight.slow_threshold_us() as usize),
        ),
        ("retained".to_owned(), arr(retained)),
        ("recent".to_owned(), arr(recent)),
    ]
}

fn flight_entry_json(e: &omq_obs::flight::FlightEntry) -> Json {
    let mut fields: Vec<(&'static str, Json)> = vec![
        ("trace_id", Json::num(e.trace_id as usize)),
        ("op", Json::str(e.op)),
        ("reason", Json::str(e.reason)),
        ("wall_us", Json::num(e.wall_us as usize)),
    ];
    if e.truncated {
        fields.push(("truncated", Json::Bool(true)));
    }
    fields.push((
        "spans",
        Json::Arr(
            e.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::num(s.id as usize)),
                        ("parent", Json::num(s.parent as usize)),
                        ("name", Json::str(s.name)),
                        ("dur_us", Json::num(s.dur_us as usize)),
                    ])
                })
                .collect(),
        ),
    ));
    fields.push((
        "counts",
        Json::Obj(
            e.counts
                .iter()
                .map(|&(name, delta)| (name.to_owned(), Json::num(delta as usize)))
                .collect(),
        ),
    ));
    Json::obj(fields)
}

/// A [`RewriteSource`] backed by the engine's tiered artifact cache: hot
/// in-memory LRU, then the persisted disk tier, then XRewrite. Both cache
/// tiers store the *portable* (vocabulary-independent) form, rehydrated
/// into the request vocabulary on every use — and a fresh computation is
/// round-tripped through the same portable form before it is returned, so
/// response bytes never depend on which tier (if any) served the artifact.
/// That round trip is also what lets `explain` read the cache again: the
/// rehydrated artifact's VarIds are interned in *this* request's
/// vocabulary, so rendering them always resolves. Complete artifacts are
/// shared across requests (and across alias registrations, thanks to
/// canonical keying); incomplete ones pass through uncached, as do the
/// rare non-portable ones (a null-carrying disjunct). `alias` marks
/// lookups made on behalf of an alias registration, so hits reached
/// through canonical-key sharing are counted distinctly.
struct CachingSource<'a> {
    cache: &'a Mutex<LruCache<RewriteKey, PortableArtifact>>,
    disk: Option<&'a DiskTier>,
    alias: bool,
}

/// The `guarantee` field of both evaluate ops: `exact` for an exact answer
/// set, `sound_lower_bound` for a capped one.
fn guarantee_field(exact: bool) -> (String, Json) {
    let text = if exact { "exact" } else { "sound_lower_bound" };
    ("guarantee".to_owned(), Json::str(text))
}

/// The disk tier's file name for one cache key (stable across restarts of
/// the same binary: both digests hash with fixed-key `DefaultHasher`s).
fn artifact_file_key(key: &RewriteKey) -> String {
    format!("{}-{}", key.0.digest(), key.1.digest())
}

impl RewriteSource for CachingSource<'_> {
    fn rewrite(
        &mut self,
        omq: &Omq,
        voc: &mut Vocabulary,
        cfg: &XRewriteConfig,
    ) -> RewriteArtifact {
        let key = (OmqKey::of(omq, voc), RewriteCfgKey::of(cfg));
        if let Some(hit) = self.cache.lock().unwrap().get_tagged(&key, self.alias) {
            return hit.rehydrate(voc);
        }
        if let Some(disk) = self.disk {
            if let Some(portable) = disk.load(&artifact_file_key(&key)) {
                let art = portable.rehydrate(voc);
                self.cache.lock().unwrap().insert(key, portable);
                return art;
            }
        }
        let raw = DirectRewrite.rewrite(omq, voc, cfg);
        match PortableArtifact::of(&raw, voc) {
            Some(portable) => {
                let art = RewriteArtifact {
                    guarantee: raw.guarantee,
                    ..portable.rehydrate(voc)
                };
                if raw.guarantee == Guarantee::Exact {
                    if let Some(disk) = self.disk {
                        disk.store(&artifact_file_key(&key), &portable);
                    }
                    self.cache.lock().unwrap().insert(key, portable);
                }
                art
            }
            // Non-portable artifacts can't round-trip; return them raw and
            // uncached (deterministic: such an artifact *never* caches, so
            // every request recomputes it identically).
            None => raw,
        }
    }
}

/// A finished op: the rendered fields (or structured error) plus the
/// `timed_out` flag. Verdict computations publish it to their followers.
type OpOutcome = (Result<Vec<(String, Json)>, ServeError>, bool);

/// One in-flight computation that concurrent callers on the same key
/// wait on instead of repeating.
struct InflightSlot<V> {
    done: Mutex<Option<V>>,
    cv: Condvar,
    /// Trace id of the leader request, so followers can link their own
    /// trace to the computation that actually answered them.
    leader_trace: u64,
}

/// Single-flight map: the first caller on a key (the leader) computes,
/// every caller that arrives while it runs waits on its slot and clones
/// the outcome.
struct SingleFlight<K, V> {
    slots: Mutex<HashMap<K, Arc<InflightSlot<V>>>>,
}

impl<K: Eq + std::hash::Hash + Clone, V: Clone> SingleFlight<K, V> {
    fn new() -> Self {
        SingleFlight {
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// The outcome for `key`, plus the leader's trace id when this caller
    /// followed rather than led. A caller that may not `coalesce` (see
    /// `execute_one`) always computes alone.
    fn run(
        &self,
        key: &K,
        coalesce: bool,
        trace_id: u64,
        compute: impl FnOnce() -> V,
    ) -> (V, Option<u64>) {
        if !coalesce {
            return (compute(), None);
        }
        let (slot, leader) = {
            let mut slots = self.slots.lock().unwrap();
            match slots.get(key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(InflightSlot {
                        done: Mutex::new(None),
                        cv: Condvar::new(),
                        leader_trace: trace_id,
                    });
                    slots.insert(key.clone(), Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        if leader {
            let out = compute();
            *slot.done.lock().unwrap() = Some(out.clone());
            slot.cv.notify_all();
            self.slots.lock().unwrap().remove(key);
            return (out, None);
        }
        let mut done = slot.done.lock().unwrap();
        while done.is_none() {
            done = slot.cv.wait(done).unwrap();
        }
        let out = done.clone().expect("leader published before notifying");
        (out, Some(slot.leader_trace))
    }
}

/// One registration name's versioned store plus the vocabulary its facts
/// and maintenance chases intern into (a registry snapshot taken at store
/// creation, whose overlay has grown monotonically ever since).
struct NamedStore {
    voc: Vocabulary,
    store: MaintainedStore,
}

/// The concurrent OMQ serving engine. Shared across connections; all
/// methods take `&self`.
pub struct Engine {
    pub(crate) cfg: EngineConfig,
    pub(crate) registry: RwLock<Registry>,
    rewrites: Mutex<LruCache<RewriteKey, PortableArtifact>>,
    verdicts: Mutex<LruCache<VerdictKey, Vec<(String, Json)>>>,
    encodings: Mutex<LruCache<OmqKey, EncodingArtifact>>,
    /// Persisted artifact tier (see [`crate::tier`]); `None` without a
    /// `cache_dir` (or when opening the directory failed at startup).
    disk: Option<DiskTier>,
    /// In-flight `contains`/`equivalent` computations, keyed like the
    /// verdict cache; concurrent deadline-free requests on the same key
    /// join the leader instead of recomputing.
    inflight: SingleFlight<VerdictKey, OpOutcome>,
    /// In-flight encoding compiles, keyed like the encoding cache: a
    /// guarded lhs asked about twice in one batch compiles once.
    compiling: SingleFlight<OmqKey, Option<EncodingArtifact>>,
    /// Requests answered by joining an in-flight computation.
    coalesced_hits: AtomicU64,
    /// Registry vocabulary snapshots taken (see [`Engine::snapshot`]).
    snapshots: AtomicU64,
    /// Underlying solver invocations for `contains`/`equivalent` (the
    /// denominator the coalescing tests pin: a burst of identical requests
    /// must show exactly one).
    verdict_computations: AtomicU64,
    /// Per-name versioned fact stores with incrementally maintained chase
    /// fixpoints, created lazily on the first mutation or store-backed
    /// evaluation of a name. Each store owns a vocabulary that grows
    /// monotonically across mutations (constants from asserted facts, nulls
    /// from maintenance chases), so resumed fixpoints never collide on
    /// null ids the way per-request vocabulary clones would.
    stores: Mutex<HashMap<String, NamedStore>>,
    /// When set, every sampled request runs under a recorder that also
    /// streams its span tree here (the binary's `--trace-out`, thinned by
    /// `trace_sample`).
    trace_sink: Option<Arc<JsonlSink>>,
    /// Live metrics registry fed on every request completion: the one
    /// record of per-op wall time, rendered by both the scrape and the
    /// `stats` op.
    metrics: Arc<MetricsRegistry>,
    /// Always-on flight recorder with tail retention (shed / timed-out /
    /// slow requests).
    flight: Arc<FlightRecorder>,
    /// When set (by the binary), the `stats` op appends a `"reactor"`
    /// block with uptime, connection and queue counters.
    pub(crate) runtime: Option<Arc<RuntimeStats>>,
}

impl Engine {
    pub fn new(cfg: EngineConfig) -> Engine {
        let cap = cfg.cache_capacity;
        // A cache dir that cannot be opened degrades to no disk tier: the
        // server still works, `stats` simply shows no `artifact_disk`.
        let disk = cfg.cache_dir.as_deref().and_then(|d| DiskTier::new(d).ok());
        Engine {
            registry: RwLock::new(Registry::new()),
            rewrites: Mutex::new(LruCache::new(cap)),
            verdicts: Mutex::new(LruCache::new(cap)),
            encodings: Mutex::new(LruCache::new(cap)),
            disk,
            inflight: SingleFlight::new(),
            compiling: SingleFlight::new(),
            coalesced_hits: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            verdict_computations: AtomicU64::new(0),
            stores: Mutex::new(HashMap::new()),
            trace_sink: None,
            metrics: Arc::new(MetricsRegistry::new()),
            flight: Arc::new(FlightRecorder::new(FLIGHT_SLOW_MS * 1_000)),
            cfg,
            runtime: None,
        }
    }

    /// Stream every request's span tree to `sink` (call before sharing the
    /// engine).
    pub fn set_trace_sink(&mut self, sink: Arc<JsonlSink>) {
        self.trace_sink = Some(sink);
    }

    /// Attach the serve-tier runtime counters (call before sharing the
    /// engine); the `stats` op then reports them as a `"reactor"` block.
    pub fn set_runtime_stats(&mut self, runtime: Arc<RuntimeStats>) {
        self.runtime = Some(runtime);
    }

    /// The live metrics registry this engine reports into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The flight recorder this engine offers span trees to.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// Registry vocabulary snapshots taken so far: one per solver job that
    /// missed the verdict cache, one-shot `evaluate`, `explain`, and store
    /// creation. A verdict-cache hit takes none.
    pub fn vocabulary_snapshots(&self) -> u64 {
        self.snapshots.load(Ordering::Relaxed)
    }

    /// `(coalesced_hits, verdict_computations)` — how many requests joined
    /// an in-flight computation vs. how many solver runs actually happened.
    pub fn coalescing_stats(&self) -> (u64, u64) {
        (
            self.coalesced_hits.load(Ordering::Relaxed),
            self.verdict_computations.load(Ordering::Relaxed),
        )
    }

    /// Disk-tier counters, when a persisted tier is configured.
    pub fn disk_stats(&self) -> Option<DiskTierStats> {
        self.disk.as_ref().map(DiskTier::stats)
    }

    /// Current cache counters `(artifact cache, verdict cache, encoding
    /// cache)`.
    pub fn cache_stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (
            self.rewrites.lock().unwrap().stats(),
            self.verdicts.lock().unwrap().stats(),
            self.encodings.lock().unwrap().stats(),
        )
    }

    /// Executes one batch: responses come back in request order. Items that
    /// already failed at the protocol layer pass through as-is.
    pub fn execute_batch(&self, items: &[Result<Request, Box<Response>>]) -> Vec<Response> {
        let arrival = Instant::now();
        let n = items.len();
        let mut out: Vec<Option<Response>> = vec![None; n];
        let mut i = 0;
        while i < n {
            // Ops that touch shared engine state sequentially (the registry,
            // or a named store's version history and maintained fixpoint)
            // are barriers: they run alone, in input order, so a batch's
            // responses are byte-identical to a sequential execution.
            // Store-backed evaluates (no one-shot facts) are barriers too —
            // they may advance fixpoint maintenance under their own budget.
            // So are `stats` and `metrics`: they report the state after
            // every earlier request of the batch.
            let parallel_safe = |op: &Op| match op {
                Op::Register { .. }
                | Op::Assert { .. }
                | Op::Retract { .. }
                | Op::Snapshot { .. }
                | Op::Stats
                | Op::Metrics => false,
                Op::Evaluate { facts, .. } => !facts.is_empty(),
                _ => true,
            };
            let is_barrier = |item: &Result<Request, Box<Response>>| !matches!(item, Ok(r) if parallel_safe(&r.op));
            if is_barrier(&items[i]) {
                // A maximal run of untraced, deadline-free retracts on one
                // name shares a single DRed cone pass (see
                // [`omq_store::MaintainedStore::retract_batch`]) instead of
                // paying per-call maintenance.
                let run = self.retract_run_len(items, i);
                if run >= 2 {
                    for (off, resp) in self
                        .execute_retract_run(&items[i..i + run])
                        .into_iter()
                        .enumerate()
                    {
                        out[i + off] = Some(resp);
                    }
                    i += run;
                    continue;
                }
                out[i] = Some(self.execute_one(&items[i], arrival));
                i += 1;
                continue;
            }
            let mut j = i;
            while j < n && !is_barrier(&items[j]) {
                j += 1;
            }
            let len = j - i;
            let threads = effective_threads(self.cfg.threads, len);
            if threads <= 1 || len < 2 {
                for k in i..j {
                    out[k] = Some(self.execute_one(&items[k], arrival));
                }
            } else {
                let slots: Vec<OnceLock<Response>> = (0..len).map(|_| OnceLock::new()).collect();
                parallel_indexed(
                    threads,
                    len,
                    || (),
                    |(), idx| {
                        let _ = slots[idx].set(self.execute_one(&items[i + idx], arrival));
                    },
                );
                for (off, slot) in slots.into_iter().enumerate() {
                    out[i + off] = slot.into_inner();
                }
            }
            i = j;
        }
        out.into_iter()
            .map(|r| r.expect("every request is answered"))
            .collect()
    }

    /// Answers one request inside the full request lifecycle: deadline,
    /// instrumentation, and one telemetry record.
    fn execute_one(&self, item: &Result<Request, Box<Response>>, arrival: Instant) -> Response {
        let req = match item {
            Ok(req) => req,
            Err(resp) => return (**resp).clone(),
        };
        let budget = match req.deadline_ms.or(self.cfg.default_deadline_ms) {
            Some(ms) => Budget::deadline_at(arrival + Duration::from_millis(ms)),
            None => Budget::unlimited(),
        };
        // Per-request instrumentation: a recorder is installed only when
        // someone is listening (a `"trace":true` request and/or a process
        // trace sink) — untraced requests pay a single thread-local read
        // per span site. Never `install(None)` here: that would tear down a
        // recorder an embedding application installed around the engine.
        let trace_agg: Option<Arc<Aggregator>> = req.trace.then(|| Arc::new(Aggregator::new()));
        let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
        if let Some(agg) = &trace_agg {
            sinks.push(agg.clone());
        }
        if let Some(ts) = &self.trace_sink {
            // JSONL capture is sampled (deterministically, by trace id);
            // explicit `"trace":true` requests are always captured.
            if req.trace || sample_trace(req.trace_id, self.cfg.trace_sample) {
                sinks.push(ts.clone());
            }
        }
        // Flight capture: rebuild this request's span tree in memory so the
        // recorder can tail-retain it. Skipped when an ambient recorder is
        // already installed (an embedder such as the bench harness owns
        // instrumentation then — shadowing it would drop its events); a
        // synthetic root-only tree is offered instead, below.
        let flight_sink: Option<Arc<TreeSink>> = if omq_obs::active() {
            None
        } else {
            let fs = Arc::new(TreeSink::new());
            sinks.push(fs.clone());
            Some(fs)
        };
        let _guard = (!sinks.is_empty())
            .then(|| omq_obs::install(Some(omq_obs::Recorder::with_trace(sinks, req.trace_id))));
        // Only deadline-free, untraced requests coalesce: a follower shares
        // the leader's outcome byte-for-byte, which is only sound when that
        // outcome cannot depend on a deadline (a leader's budget-truncated
        // "unknown" must never masquerade as another request's answer) or
        // carry another request's instrumentation.
        let coalesce = req.deadline_ms.or(self.cfg.default_deadline_ms).is_none() && !req.trace;
        let started = Instant::now();
        let (mut outcome, timed_out) = {
            let _root = omq_obs::span(op_name(&req.op));
            self.run_op(&req.op, &budget, coalesce, req.trace_id)
        };
        let tree = flight_sink.map(|fs| fs.take()).unwrap_or_default();
        self.record(req, started.elapsed(), timed_out, tree);
        if let (Some(agg), Ok(fields)) = (&trace_agg, &mut outcome) {
            fields.push(("trace".to_owned(), trace_json(agg, req.trace_id)));
        }
        Response {
            id: req.id.clone(),
            outcome,
            timed_out,
        }
    }

    /// Charges one finished request to the shared telemetry: the metrics
    /// registry and the flight recorder. Every executed request passes
    /// through here exactly once, whichever path answered it.
    fn record(&self, req: &Request, elapsed: Duration, timed_out: bool, mut tree: SpanTree) {
        let op = op_name(&req.op);
        let wall_us = elapsed.as_micros() as u64;
        self.metrics.observe_op(op, elapsed, timed_out);
        if tree.spans.is_empty() {
            // No captured spans (an ambient recorder owned the events, or
            // the request ran inside a retract run): offer a root-only
            // tree so the flight recorder still explains it.
            tree.spans = SpanTree::root(op, wall_us).spans;
        }
        self.flight.offer(
            req.trace_id,
            op,
            wall_us,
            tree,
            timed_out.then_some("timeout"),
        );
    }

    /// Length of the maximal run of coalesceable retracts starting at `i`:
    /// consecutive `Ok` retract requests on one name, untraced and
    /// deadline-free (both per-request and by default), so the shared cone
    /// pass runs under one unlimited budget and responses stay
    /// deterministic. `0`/`1` means "no run — execute normally".
    fn retract_run_len(&self, items: &[Result<Request, Box<Response>>], i: usize) -> usize {
        if self.cfg.default_deadline_ms.is_some() {
            return 0;
        }
        let run_name = |item: &Result<Request, Box<Response>>| match item {
            Ok(req) if !req.trace && req.deadline_ms.is_none() => match &req.op {
                Op::Retract { name, .. } => Some(name.clone()),
                _ => None,
            },
            _ => None,
        };
        let Some(name) = run_name(&items[i]) else {
            return 0;
        };
        items[i..]
            .iter()
            .take_while(|item| run_name(item).as_deref() == Some(&name))
            .count()
    }

    /// Executes a retract run (≥ 2 requests, one name) through the store's
    /// batched-cone path: every request appends its own version, then one
    /// DRed cone pass maintains the fixpoint for all of them. Responses
    /// mirror the per-call shape; the maintenance counters
    /// (`novelty_size`/`compactions`/`maintained`/`complete`) report the
    /// post-batch state for every member, which is also each request's
    /// observable store state once the batch lands.
    fn execute_retract_run(&self, items: &[Result<Request, Box<Response>>]) -> Vec<Response> {
        let started = Instant::now();
        let budget = Budget::unlimited();
        let cfg = self.eval_cfg(&budget).chase;
        let reqs: Vec<&Request> = items
            .iter()
            .map(|item| match item {
                Ok(req) => req,
                Err(_) => unreachable!("retract_run_len only accepts Ok items"),
            })
            .collect();
        let name = match &reqs[0].op {
            Op::Retract { name, .. } => name.clone(),
            _ => unreachable!("retract_run_len only accepts retracts"),
        };
        let res = self.with_store(&name, |entry, reg| {
            // Parse every request's facts first (in request order, exactly
            // as sequential execution would intern them); a group that
            // fails to parse gets its error in place and appends no
            // version, like a sequential parse failure.
            let parsed: Vec<Result<Vec<omq_model::Atom>, ServeError>> = reqs
                .iter()
                .map(|req| match &req.op {
                    Op::Retract { facts, .. } => parse_ground_facts(&mut entry.voc, facts),
                    _ => unreachable!(),
                })
                .collect();
            let groups: Vec<Vec<omq_model::Atom>> = parsed
                .iter()
                .filter_map(|p| p.as_ref().ok().cloned())
                .collect();
            let mut versions = entry
                .store
                .retract_batch(&groups, &reg.omq.sigma, &mut entry.voc, &cfg)
                .into_iter();
            let outcomes: Vec<Result<(u64, usize), ServeError>> = parsed
                .into_iter()
                .map(|p| {
                    let atoms = p?;
                    versions
                        .next()
                        .expect("one store result per parsed group")
                        .map(|v| (v, atoms.len()))
                        .map_err(|e| ServeError::BadRequest(e.to_string()))
                })
                .collect();
            (outcomes, entry.store.stats(), entry.store.head_complete())
        });
        let elapsed = started.elapsed();
        for req in &reqs {
            self.record(req, elapsed, false, SpanTree::default());
        }
        let (outcomes, stats, head_complete) = match res {
            Ok(t) => t,
            Err(e) => {
                // Unknown name: every request in the run gets the error,
                // just as each would sequentially.
                return reqs
                    .iter()
                    .map(|req| Response::err(req.id.clone(), e.clone()))
                    .collect();
            }
        };
        reqs.iter()
            .zip(outcomes)
            .map(|(req, outcome)| {
                let outcome = outcome.map(|(version, changed)| {
                    vec![
                        ("retracted".to_owned(), Json::str(&name)),
                        ("version".to_owned(), Json::num(version as usize)),
                        ("facts".to_owned(), Json::num(changed)),
                        (
                            "novelty_size".to_owned(),
                            Json::num(stats.novelty_size as usize),
                        ),
                        (
                            "compactions".to_owned(),
                            Json::num(stats.compactions as usize),
                        ),
                        (
                            "maintained".to_owned(),
                            Json::Bool(stats.incremental_resumes + stats.full_rechases > 0),
                        ),
                        ("complete".to_owned(), Json::Bool(head_complete)),
                    ]
                });
                Response {
                    id: req.id.clone(),
                    outcome,
                    timed_out: false,
                }
            })
            .collect()
    }

    /// Runs `compute` for the verdict key, sharing one in-flight
    /// computation among concurrent coalesceable requests: the first
    /// arrival (the leader) computes, everyone else waits on the slot and
    /// clones the outcome. Non-coalesceable requests (deadline-bearing or
    /// traced — see `execute_one`) always compute.
    fn coalesced(
        &self,
        vkey: &VerdictKey,
        coalesce: bool,
        trace_id: u64,
        compute: impl FnOnce() -> OpOutcome,
    ) -> OpOutcome {
        let (out, leader_trace) = self.inflight.run(vkey, coalesce, trace_id, || {
            self.verdict_computations.fetch_add(1, Ordering::Relaxed);
            compute()
        });
        if let Some(leader_trace) = leader_trace {
            self.coalesced_hits.fetch_add(1, Ordering::Relaxed);
            omq_obs::counter("serve.coalesced", 1);
            // Link this follower's trace to the leader's computation: the
            // counter value is the leader's trace id, so a flight-recorder
            // or JSONL capture of the follower names the span tree that
            // actually did the work.
            omq_obs::counter("serve.coalesced.leader_trace", leader_trace);
        }
        out
    }

    /// Runs one job; the bool is the timed-out flag (expiry observed *and*
    /// the answer degraded because of it).
    fn run_op(&self, op: &Op, budget: &Budget, coalesce: bool, trace_id: u64) -> OpOutcome {
        match op {
            Op::Register {
                name,
                program,
                schema,
                query,
            } => (self.op_register(name, program, schema, query), false),
            Op::Classify { name } => (self.op_classify(name), false),
            Op::Stats | Op::Metrics => (Ok(stats::op_fields(op, self)), false),
            Op::TraceDump => (Ok(self.op_trace_dump()), false),
            Op::Contains { lhs, rhs } => self.op_contains(lhs, rhs, budget, coalesce, trace_id),
            Op::Equivalent { lhs, rhs } => self.op_equivalent(lhs, rhs, budget, coalesce, trace_id),
            Op::Evaluate { name, facts, at } => self.op_evaluate(name, facts, *at, budget),
            Op::Assert { name, facts } => self.op_mutate(name, facts, true, budget),
            Op::Retract { name, facts } => self.op_mutate(name, facts, false, budget),
            Op::Snapshot { name } => (self.op_snapshot(name), false),
            Op::Explain { lhs, rhs } => self.op_explain(lhs, rhs, budget),
        }
    }

    fn op_register(
        &self,
        name: &str,
        program: &str,
        schema: &[String],
        query: &str,
    ) -> Result<Vec<(String, Json)>, ServeError> {
        let entries: Vec<&str> = schema.iter().map(String::as_str).collect();
        let info = self
            .registry
            .write()
            .unwrap()
            .register(name, program, &entries, query)?;
        let mut fields = vec![
            ("registered".to_owned(), Json::str(name)),
            ("language".to_owned(), Json::str(info.language.to_string())),
            ("key".to_owned(), Json::str(info.digest)),
        ];
        if let Some(first) = info.alias_of {
            fields.push(("alias_of".to_owned(), Json::str(first)));
        }
        Ok(fields)
    }

    fn op_classify(&self, name: &str) -> Result<Vec<(String, Json)>, ServeError> {
        let reg = self.registry.read().unwrap();
        let r = reg.get(name)?;
        Ok(vec![
            ("name".to_owned(), Json::str(name)),
            ("language".to_owned(), Json::str(r.language.to_string())),
            ("key".to_owned(), Json::str(r.key.digest())),
            ("arity".to_owned(), Json::num(r.omq.arity())),
            ("tgds".to_owned(), Json::num(r.omq.sigma.len())),
            (
                "disjuncts".to_owned(),
                Json::num(r.omq.query.disjuncts.len()),
            ),
        ])
    }

    fn op_trace_dump(&self) -> Vec<(String, Json)> {
        trace_dump_fields(&self.flight)
    }

    /// The registry's vocabulary for one solver job: an overlay on the
    /// registry's frozen base, so one reference-count bump whatever the
    /// registry's size (see `crate::registry`).
    fn snapshot(&self, reg: &Registry) -> Vocabulary {
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        reg.vocabulary().clone()
    }

    /// The named registrations and a vocabulary snapshot, read under one
    /// registry lock.
    fn job(&self, names: &[&str]) -> Result<(Vec<Arc<Registered>>, Vocabulary), ServeError> {
        let reg = self.registry.read().unwrap();
        let regs = names
            .iter()
            .map(|name| reg.get(name).cloned())
            .collect::<Result<_, _>>()?;
        Ok((regs, self.snapshot(&reg)))
    }

    /// Looks the verdict of `op` on `(lhs, rhs)` up under the registry read
    /// lock, *before* any vocabulary snapshot: the key needs only the two
    /// registrations' canonical keys, so a hit copies nothing whose size
    /// grows with the registry. A miss takes the snapshot under the same
    /// lock.
    fn lookup_verdict(&self, op: VerdictOp, lhs: &str, rhs: &str) -> Result<Lookup, ServeError> {
        let reg = self.registry.read().unwrap();
        let (l, r) = (reg.get(lhs)?, reg.get(rhs)?);
        let alias = l.alias_of.is_some() || r.alias_of.is_some();
        let vkey = (op, l.key.clone(), r.key.clone());
        if let Some(fields) = self.verdicts.lock().unwrap().get_tagged(&vkey, alias) {
            return Ok(Lookup::Hit(fields));
        }
        Ok(Lookup::Miss(Box::new(VerdictJob {
            l: Arc::clone(l),
            r: Arc::clone(r),
            vkey,
            alias,
            voc: self.snapshot(&reg),
        })))
    }

    /// Fetches (or compiles and caches) the encoding artifact of a guarded
    /// left-hand side; `None` for non-guarded OMQs and for OMQs the
    /// name-pool bounds cannot encode. Compilation runs on a *clone* of the
    /// request vocabulary, so cache state (compile vs. hit) can never leak
    /// into the interning order — and therefore the rendered bytes — of the
    /// main solver run. Only complete artifacts are stored. Coalesceable
    /// requests (see `execute_one`) share one in-flight compile per lhs
    /// key; a follower that takes the leader's artifact counts as a hit.
    fn guarded_encoding(
        &self,
        reg: &Registered,
        voc: &Vocabulary,
        budget: &Budget,
        coalesce: bool,
        trace_id: u64,
    ) -> Option<EncodingArtifact> {
        if reg.language != OmqLanguage::Guarded {
            return None;
        }
        let alias = reg.alias_of.is_some();
        let fetch = || {
            if let Some(hit) = self.encodings.lock().unwrap().get_tagged(&reg.key, alias) {
                return Some(hit);
            }
            let cfg = EncodingConfig {
                budget: budget.clone(),
                ..EncodingConfig::default()
            };
            let art = compile_encoding(&reg.omq, &mut voc.clone(), &cfg)?;
            if art.complete() {
                self.encodings
                    .lock()
                    .unwrap()
                    .insert(reg.key.clone(), art.clone());
            }
            Some(art)
        };
        let (art, leader) = self.compiling.run(&reg.key, coalesce, trace_id, fetch);
        if leader.is_some() && art.is_some() {
            self.encodings.lock().unwrap().count_hit(alias);
        }
        art
    }

    fn containment_cfg(&self, budget: &Budget) -> ContainmentConfig {
        let mut cfg = ContainmentConfig::default().with_budget(budget.clone());
        cfg.threads = 1;
        cfg.rewrite.threads = 1;
        cfg.eval.rewrite.threads = 1;
        cfg
    }

    fn eval_cfg(&self, budget: &Budget) -> EvalConfig {
        let mut cfg = EvalConfig::default().with_budget(budget.clone());
        cfg.rewrite.threads = 1;
        cfg
    }

    fn op_contains(
        &self,
        lhs: &str,
        rhs: &str,
        budget: &Budget,
        coalesce: bool,
        trace_id: u64,
    ) -> (Result<Vec<(String, Json)>, ServeError>, bool) {
        let VerdictJob {
            l,
            r,
            vkey,
            alias,
            mut voc,
        } = match self.lookup_verdict(VerdictOp::Contains, lhs, rhs) {
            Ok(Lookup::Miss(job)) => *job,
            Ok(Lookup::Hit(fields)) => return (Ok(fields), false),
            Err(e) => return (Err(e), false),
        };
        self.coalesced(&vkey.clone(), coalesce, trace_id, || {
            let encoding = self.guarded_encoding(&l, &voc, budget, coalesce, trace_id);
            let mut cfg = self.containment_cfg(budget);
            // Hand the cached (or freshly compiled) lhs artifact to the
            // anytime ladder: its guarded rung reuses the
            // NTA/satisfiability verdict instead of recompiling the
            // encoding from scratch.
            cfg.lhs_encoding = encoding.clone().map(Arc::new);
            let mut src = CachingSource {
                cache: &self.rewrites,
                disk: self.disk.as_ref(),
                alias,
            };
            let outcome = match contains_with(&l.omq, &r.omq, &mut voc, &cfg, &mut src) {
                Ok(o) => o,
                Err(e) => return (Err(e.into()), false),
            };
            let definitive = !matches!(outcome.result, ContainmentResult::Unknown(_));
            let mut fields = contains_fields(&outcome, &voc);
            if let Some(art) = &encoding {
                fields.push(("guarded_encoding".to_owned(), encoding_json(art)));
            }
            if definitive {
                self.verdicts.lock().unwrap().insert(vkey, fields.clone());
            }
            (Ok(fields), !definitive && budget.expired())
        })
    }

    fn op_equivalent(
        &self,
        lhs: &str,
        rhs: &str,
        budget: &Budget,
        coalesce: bool,
        trace_id: u64,
    ) -> (Result<Vec<(String, Json)>, ServeError>, bool) {
        let VerdictJob {
            l,
            r,
            vkey,
            alias,
            mut voc,
        } = match self.lookup_verdict(VerdictOp::Equivalent, lhs, rhs) {
            Ok(Lookup::Miss(job)) => *job,
            Ok(Lookup::Hit(fields)) => return (Ok(fields), false),
            Err(e) => return (Err(e), false),
        };
        self.coalesced(&vkey.clone(), coalesce, trace_id, || {
            let cfg = self.containment_cfg(budget);
            let mut src = CachingSource {
                cache: &self.rewrites,
                disk: self.disk.as_ref(),
                alias,
            };
            let (fwd, back) = match equivalent_with(&l.omq, &r.omq, &mut voc, &cfg, &mut src) {
                Ok(p) => p,
                Err(e) => return (Err(e.into()), false),
            };
            let definitive = !matches!(fwd.result, ContainmentResult::Unknown(_))
                && !matches!(back.result, ContainmentResult::Unknown(_));
            let verdict = if fwd.result.is_not_contained() || back.result.is_not_contained() {
                "not_equivalent"
            } else if fwd.result.is_contained() && back.result.is_contained() {
                "equivalent"
            } else {
                "unknown"
            };
            let fields = vec![
                ("verdict".to_owned(), Json::str(verdict)),
                ("forward".to_owned(), Json::Obj(contains_fields(&fwd, &voc))),
                (
                    "backward".to_owned(),
                    Json::Obj(contains_fields(&back, &voc)),
                ),
            ];
            // A `not_equivalent` with one refuted and one unknown direction
            // is sound but its sub-report could still improve; cache only
            // when both directions are settled.
            if definitive {
                self.verdicts.lock().unwrap().insert(vkey, fields.clone());
            }
            (Ok(fields), verdict == "unknown" && budget.expired())
        })
    }

    /// Runs `f` on the named OMQ's store entry, creating it (with a
    /// registry vocabulary snapshot) on first touch; later touches take no
    /// snapshot. The stores lock is held for the duration of `f` — store
    /// ops are batch barriers, so `f` never blocks a parallel fan-out.
    fn with_store<T>(
        &self,
        name: &str,
        f: impl FnOnce(&mut NamedStore, &Registered) -> T,
    ) -> Result<T, ServeError> {
        let reg = Arc::clone(self.registry.read().unwrap().get(name)?);
        let mut stores = self.stores.lock().unwrap();
        if !stores.contains_key(name) {
            let voc = self.snapshot(&self.registry.read().unwrap());
            let store = MaintainedStore::new(StoreConfig {
                compact_threshold: self.cfg.store_compact_threshold,
            });
            stores.insert(name.to_owned(), NamedStore { voc, store });
        }
        let entry = stores.get_mut(name).expect("inserted above");
        Ok(f(entry, &reg))
    }

    /// Store + maintenance counters summed across every named store, and
    /// the number of stores.
    pub fn store_stats(&self) -> (StoreStats, usize) {
        let stores = self.stores.lock().unwrap();
        let mut total = StoreStats::default();
        for entry in stores.values() {
            let s = entry.store.stats();
            total.asserts += s.asserts;
            total.retracts += s.retracts;
            total.facts_asserted += s.facts_asserted;
            total.facts_retracted += s.facts_retracted;
            total.snapshots += s.snapshots;
            total.compactions += s.compactions;
            total.novelty_size += s.novelty_size;
            total.dred_deleted += s.dred_deleted;
            total.rederived += s.rederived;
            total.incremental_resumes += s.incremental_resumes;
            total.full_rechases += s.full_rechases;
            total.cone_batches += s.cone_batches;
            total.cone_reuses += s.cone_reuses;
        }
        (total, stores.len())
    }

    fn op_evaluate(
        &self,
        name: &str,
        facts: &[String],
        at: Option<u64>,
        budget: &Budget,
    ) -> (Result<Vec<(String, Json)>, ServeError>, bool) {
        if facts.is_empty() {
            return self.op_evaluate_store(name, at, budget);
        }
        let (regs, mut voc) = match self.job(&[name]) {
            Ok(s) => s,
            Err(e) => return (Err(e), false),
        };
        let atoms = match parse_ground_facts(&mut voc, facts) {
            Ok(a) => a,
            Err(e) => return (Err(e), false),
        };
        let db = Instance::from_atoms(atoms);
        let cfg = self.eval_cfg(budget);
        let mut src = CachingSource {
            cache: &self.rewrites,
            disk: self.disk.as_ref(),
            alias: regs[0].alias_of.is_some(),
        };
        let out = evaluate_with(&regs[0].omq, &db, &mut voc, &cfg, &mut src);
        let exact = out.guarantee == Guarantee::Exact;
        let mut answers: Vec<Vec<String>> = out
            .answers
            .iter()
            .map(|t| t.iter().map(|&c| voc.const_name(c).to_owned()).collect())
            .collect();
        answers.sort();
        let fields = vec![
            (
                "answers".to_owned(),
                Json::Arr(
                    answers
                        .iter()
                        .map(|t| Json::Arr(t.iter().map(Json::str).collect()))
                        .collect(),
                ),
            ),
            ("count".to_owned(), Json::num(answers.len())),
            guarantee_field(exact),
            ("language".to_owned(), Json::str(out.language.to_string())),
        ];
        (Ok(fields), !exact && budget.expired())
    }

    /// Store-backed evaluation: certain answers of the named OMQ over the
    /// chase of its store at `at` (default: the head, served straight from
    /// the maintained fixpoint). The guarantee is `exact` when the chase
    /// reached its fixpoint and `sound_lower_bound` when a budget truncated
    /// it — in which case the fixpoint stays marked incomplete and the next
    /// store op resumes the maintenance, so expiry never poisons the store.
    fn op_evaluate_store(
        &self,
        name: &str,
        at: Option<u64>,
        budget: &Budget,
    ) -> (Result<Vec<(String, Json)>, ServeError>, bool) {
        let cfg = self.eval_cfg(budget).chase;
        let res = self.with_store(name, |entry, reg| {
            let eval =
                entry
                    .store
                    .evaluate(at, &reg.omq.query, &reg.omq.sigma, &mut entry.voc, &cfg);
            // Resolve answer names here, against the store's vocabulary,
            // rather than copying its overlay out.
            let voc = &entry.voc;
            let eval = eval.map(|ev| {
                let mut answers: Vec<Vec<String>> = ev
                    .answers
                    .iter()
                    .map(|t| t.iter().map(|&c| voc.const_name(c).to_owned()).collect())
                    .collect();
                answers.sort();
                (answers, ev.complete, ev.version)
            });
            (eval, reg.language)
        });
        let (eval, language) = match res {
            Ok(t) => t,
            Err(e) => return (Err(e), false),
        };
        let (answers, complete, version) = match eval {
            Ok(ev) => ev,
            Err(e) => return (Err(ServeError::StaleVersion(e.to_string())), false),
        };
        let fields = vec![
            (
                "answers".to_owned(),
                Json::Arr(
                    answers
                        .iter()
                        .map(|t| Json::Arr(t.iter().map(Json::str).collect()))
                        .collect(),
                ),
            ),
            ("count".to_owned(), Json::num(answers.len())),
            guarantee_field(complete),
            ("language".to_owned(), Json::str(language.to_string())),
            ("version".to_owned(), Json::num(version as usize)),
        ];
        (Ok(fields), !complete && budget.expired())
    }

    /// `assert` / `retract`: parses the ground facts into the store's own
    /// vocabulary, appends a new version, and maintains the chase fixpoint
    /// incrementally (watermark resume for asserts, DRed for retracts) —
    /// provided a fixpoint exists; before the first store evaluation the
    /// store stays lazy and mutations are pure version appends.
    fn op_mutate(
        &self,
        name: &str,
        facts: &[String],
        is_assert: bool,
        budget: &Budget,
    ) -> (Result<Vec<(String, Json)>, ServeError>, bool) {
        let cfg = self.eval_cfg(budget).chase;
        let res = self.with_store(name, |entry, reg| {
            let atoms = parse_ground_facts(&mut entry.voc, facts)?;
            let version = if is_assert {
                entry
                    .store
                    .assert_facts(&atoms, &reg.omq.sigma, &mut entry.voc, &cfg)
            } else {
                entry
                    .store
                    .retract_facts(&atoms, &reg.omq.sigma, &mut entry.voc, &cfg)
            }
            .map_err(|e| ServeError::BadRequest(e.to_string()))?;
            let stats = entry.store.stats();
            Ok((version, atoms.len(), stats, entry.store.head_complete()))
        });
        let (version, changed, stats, head_complete) = match res.and_then(|r| r) {
            Ok(t) => t,
            Err(e) => return (Err(e), false),
        };
        let fields = vec![
            (
                if is_assert { "asserted" } else { "retracted" }.to_owned(),
                Json::str(name),
            ),
            ("version".to_owned(), Json::num(version as usize)),
            ("facts".to_owned(), Json::num(changed)),
            (
                "novelty_size".to_owned(),
                Json::num(stats.novelty_size as usize),
            ),
            (
                "compactions".to_owned(),
                Json::num(stats.compactions as usize),
            ),
            (
                "maintained".to_owned(),
                Json::Bool(stats.incremental_resumes + stats.full_rechases > 0),
            ),
            ("complete".to_owned(), Json::Bool(head_complete)),
        ];
        // Degraded when this mutation's maintenance was truncated by the
        // deadline; the fixpoint stays resumable either way.
        let maintained = stats.incremental_resumes + stats.full_rechases > 0;
        (Ok(fields), maintained && !head_complete && budget.expired())
    }

    /// `snapshot`: pins the named store's current version against
    /// compaction and returns it; `evaluate` with `"at"` stays answerable
    /// at that version for as long as the pin is held.
    fn op_snapshot(&self, name: &str) -> Result<Vec<(String, Json)>, ServeError> {
        let (version, head_complete) = self.with_store(name, |entry, _| {
            (entry.store.snapshot(), entry.store.head_complete())
        })?;
        Ok(vec![
            ("snapshot".to_owned(), Json::str(name)),
            ("version".to_owned(), Json::num(version as usize)),
            ("pinned".to_owned(), Json::Bool(true)),
            ("complete".to_owned(), Json::Bool(head_complete)),
        ])
    }

    /// `contains` plus evidence: a replayable chase derivation for
    /// `not_contained`, per-disjunct homomorphism coverage for `contained`.
    /// The explanation itself is uncached (bulky, rare relative to
    /// verdicts), but the rewriting underneath comes from the tiered
    /// artifact cache like every other op: cached artifacts are stored in
    /// portable form and rehydrated into *this* request's vocabulary, so
    /// every rendered variable resolves and the response is byte-identical
    /// whatever the cache state (this used to require bypassing the cache).
    fn op_explain(
        &self,
        lhs: &str,
        rhs: &str,
        budget: &Budget,
    ) -> (Result<Vec<(String, Json)>, ServeError>, bool) {
        let (regs, mut voc) = match self.job(&[lhs, rhs]) {
            Ok(s) => s,
            Err(e) => return (Err(e), false),
        };
        let (l, r) = (&regs[0], &regs[1]);
        let cfg = self.containment_cfg(budget);
        let mut src = CachingSource {
            cache: &self.rewrites,
            disk: self.disk.as_ref(),
            alias: l.alias_of.is_some() || r.alias_of.is_some(),
        };
        let ex = match explain_with(&l.omq, &r.omq, &mut voc, &cfg, &mut src) {
            Ok(e) => e,
            Err(e) => return (Err(e.into()), false),
        };
        let mut fields = contains_fields(&ex.outcome, &voc);
        match &ex.detail {
            ExplainDetail::NotContained(we) => {
                fields.push((
                    "witness_facts".to_owned(),
                    Json::Arr(we.witness_facts.iter().map(Json::str).collect()),
                ));
                fields.push((
                    "derivation".to_owned(),
                    Json::Arr(
                        we.derivation
                            .iter()
                            .map(|s| {
                                Json::obj([
                                    ("tgd_index", Json::num(s.tgd_index)),
                                    ("tgd", Json::str(s.tgd.clone())),
                                    (
                                        "inputs",
                                        Json::Arr(s.inputs.iter().map(Json::str).collect()),
                                    ),
                                    (
                                        "outputs",
                                        Json::Arr(s.outputs.iter().map(Json::str).collect()),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            ExplainDetail::Contained(cov) => {
                fields.push((
                    "coverage".to_owned(),
                    Json::obj([
                        ("total_disjuncts", Json::num(cov.total_disjuncts)),
                        (
                            "shown",
                            Json::Arr(
                                cov.shown
                                    .iter()
                                    .map(|dc| {
                                        Json::obj([
                                            ("disjunct", Json::num(dc.disjunct)),
                                            ("disjunct_cq", Json::str(dc.disjunct_cq.clone())),
                                            (
                                                "rhs_disjunct",
                                                dc.rhs_disjunct.map_or(Json::Null, Json::num),
                                            ),
                                            (
                                                "homomorphism",
                                                Json::Obj(
                                                    dc.homomorphism
                                                        .iter()
                                                        .map(|(v, t)| (v.clone(), Json::str(t)))
                                                        .collect(),
                                                ),
                                            ),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                ));
            }
            ExplainDetail::Unknown(reason) => {
                fields.push(("explain_unknown".to_owned(), Json::str(reason.clone())));
            }
        }
        let definitive = !matches!(ex.outcome.result, ContainmentResult::Unknown(_));
        (Ok(fields), !definitive && budget.expired())
    }
}

/// Parses `"P(a,b)"`-style fact strings (via the tgd parser, as the head
/// of `true -> fact`) and rejects anything non-ground. Used by the one-shot
/// `evaluate` path (request-vocabulary clone) and by store mutations (the
/// store's own persistent vocabulary).
fn parse_ground_facts(
    voc: &mut Vocabulary,
    facts: &[String],
) -> Result<Vec<omq_model::Atom>, ServeError> {
    let mut atoms = Vec::new();
    for fact in facts {
        let tgd = parse_tgd(voc, &format!("true -> {fact}"))?;
        for atom in tgd.head {
            if atom.args.iter().any(|t| !matches!(t, Term::Const(_))) {
                return Err(ServeError::BadRequest(format!(
                    "fact {fact:?} must be ground (constants start lowercase)"
                )));
            }
            atoms.push(atom);
        }
    }
    Ok(atoms)
}

/// The span/latency name of an op (`serve.<op>`).
fn op_name(op: &Op) -> &'static str {
    op.label()
}

/// The `"trace"` response field: the request's trace id (the one stamped
/// on its sink events) plus the per-phase wall-clock breakdown and
/// counters. Only `"trace":true` responses carry this, so the id
/// never reaches a byte-determinism-pinned default response.
fn trace_json(agg: &Aggregator, trace_id: u64) -> Json {
    Json::obj([
        ("trace_id", Json::num(trace_id as usize)),
        (
            "phases",
            Json::Obj(
                agg.phases()
                    .into_iter()
                    .map(|p| {
                        (
                            p.name.clone(),
                            Json::obj([
                                ("count", Json::num(p.count as usize)),
                                ("total_us", Json::num((p.total_ns / 1_000) as usize)),
                                ("p50_us", Json::num(p.p50_us as usize)),
                                ("p99_us", Json::num(p.p99_us as usize)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "counters",
            Json::Obj(
                agg.counters()
                    .into_iter()
                    .map(|(name, v)| (name, Json::num(v as usize)))
                    .collect(),
            ),
        ),
    ])
}

/// The `"guarded_encoding"` response field: the lhs artifact's summary —
/// counts and certification bits only, nothing vocabulary-dependent, so a
/// cached artifact renders byte-identically to a freshly compiled one.
fn encoding_json(a: &EncodingArtifact) -> Json {
    Json::obj([
        ("ctree_nodes", Json::num(a.ctree_nodes)),
        ("alphabet", Json::num(a.alphabet_size)),
        ("twapa_states", Json::num(a.twapa_states)),
        ("nta_states", Json::num(a.nta_states)),
        ("nta_transitions", Json::num(a.nta_transitions)),
        ("consistent", Json::Bool(a.consistent)),
        ("nonempty", a.nonempty.map_or(Json::Null, Json::Bool)),
    ])
}

/// Renders a containment outcome as response fields (deterministic: the
/// witness database is in `Instance` insertion order, which the parallel
/// sweep reproduces exactly).
fn contains_fields(outcome: &ContainmentOutcome, voc: &Vocabulary) -> Vec<(String, Json)> {
    let mut fields: Vec<(String, Json)> = Vec::new();
    match &outcome.result {
        ContainmentResult::Contained => {
            fields.push(("verdict".to_owned(), Json::str("contained")));
        }
        ContainmentResult::NotContained(w) => {
            fields.push(("verdict".to_owned(), Json::str("not_contained")));
            fields.push((
                "witness".to_owned(),
                Json::Arr(
                    w.database
                        .atoms()
                        .iter()
                        .map(|a| Json::str(render_atom(voc, a)))
                        .collect(),
                ),
            ));
            if !w.tuple.is_empty() {
                fields.push((
                    "witness_tuple".to_owned(),
                    Json::Arr(
                        w.tuple
                            .iter()
                            .map(|&c| Json::str(voc.const_name(c)))
                            .collect(),
                    ),
                ));
            }
        }
        ContainmentResult::Unknown(reason) => {
            fields.push(("verdict".to_owned(), Json::str("unknown")));
            fields.push(("reason".to_owned(), Json::str(reason.clone())));
        }
    }
    fields.push((
        "lhs_language".to_owned(),
        Json::str(outcome.lhs_language.to_string()),
    ));
    fields.push((
        "rhs_language".to_owned(),
        Json::str(outcome.rhs_language.to_string()),
    ));
    fields.push((
        "witnesses_checked".to_owned(),
        Json::num(outcome.witnesses_checked),
    ));
    fields.push((
        "max_witness_size".to_owned(),
        Json::num(outcome.max_witness_size),
    ));
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;

    fn req(line: &str) -> Result<Request, Box<Response>> {
        parse_request(line)
    }

    fn register_line(name: &str) -> String {
        format!(
            r#"{{"op":"register","name":"{name}","program":"P(X) -> exists Y . R(X,Y)\nR(X,Y) -> P(Y)\nq(X) :- R(X,Y), P(Y)","schema":["P","R"],"query":"q"}}"#
        )
    }

    #[test]
    fn register_then_contains_hits_the_verdict_cache() {
        let eng = Engine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        let batch = vec![
            req(&register_line("a")),
            req(r#"{"id":1,"op":"contains","lhs":"a","rhs":"a"}"#),
            req(r#"{"id":2,"op":"contains","lhs":"a","rhs":"a"}"#),
        ];
        let out = eng.execute_batch(&batch);
        assert!(out.iter().all(|r| r.outcome.is_ok()));
        let fields = out[1].outcome.as_ref().unwrap();
        assert_eq!(fields[0].1.as_str(), Some("contained"));
        assert_eq!(out[1].outcome, out[2].outcome, "cache replays the verdict");
        let (_, vd, _) = eng.cache_stats();
        assert_eq!(vd.hits, 1);
        assert_eq!(vd.insertions, 1);
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let batch: Vec<_> = std::iter::once(req(&register_line("a")))
            .chain((0..12).map(|i| {
                req(&format!(
                    r#"{{"id":{i},"op":"contains","lhs":"a","rhs":"a"}}"#
                ))
            }))
            .collect();
        let seq = Engine::new(EngineConfig {
            threads: 1,
            cache_capacity: 0,
            ..EngineConfig::default()
        });
        let par = Engine::new(EngineConfig {
            threads: 0,
            cache_capacity: 0,
            ..EngineConfig::default()
        });
        let a = seq.execute_batch(&batch);
        let b = par.execute_batch(&batch);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                crate::protocol::response_to_json(x).to_string(),
                crate::protocol::response_to_json(y).to_string()
            );
        }
    }

    #[test]
    fn zero_deadline_times_out_and_pool_survives() {
        let eng = Engine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        let batch = vec![
            req(&register_line("a")),
            req(r#"{"id":1,"op":"contains","lhs":"a","rhs":"a","deadline_ms":0}"#),
            req(r#"{"id":2,"op":"contains","lhs":"a","rhs":"a"}"#),
        ];
        let out = eng.execute_batch(&batch);
        assert!(out[1].timed_out, "zero deadline must time out");
        let f1 = out[1].outcome.as_ref().unwrap();
        assert_eq!(f1[0].1.as_str(), Some("unknown"));
        assert!(!out[2].timed_out, "next request unaffected");
        assert_eq!(
            out[2].outcome.as_ref().unwrap()[0].1.as_str(),
            Some("contained")
        );
    }

    #[test]
    fn evaluate_returns_sorted_answers() {
        let eng = Engine::new(EngineConfig::default());
        let batch = vec![
            req(&register_line("a")),
            req(r#"{"id":1,"op":"evaluate","name":"a","facts":["P(c)","P(b)"]}"#),
        ];
        let out = eng.execute_batch(&batch);
        let fields = out[1].outcome.as_ref().unwrap();
        let line = Json::Obj(fields.clone()).to_string();
        assert_eq!(
            line,
            r#"{"answers":[["b"],["c"]],"count":2,"guarantee":"exact","language":"(L,CQ)"}"#
        );
    }

    #[test]
    fn traced_request_reports_phases_and_stats_reports_latency() {
        let eng = Engine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        let batch = vec![
            req(&register_line("a")),
            req(r#"{"id":1,"op":"contains","lhs":"a","rhs":"a","trace":true}"#),
            req(r#"{"id":2,"op":"contains","lhs":"a","rhs":"a"}"#),
            req(r#"{"id":3,"op":"stats"}"#),
        ];
        let out = eng.execute_batch(&batch);
        let traced = Json::Obj(out[1].outcome.as_ref().unwrap().clone());
        let trace = traced
            .get("trace")
            .expect("traced request has a trace field");
        let phases = trace.get("phases").unwrap();
        assert!(phases.get("serve.contains").is_some(), "root span present");
        assert!(phases.get("contain").is_some(), "solver phases present");
        let untraced = Json::Obj(out[2].outcome.as_ref().unwrap().clone());
        assert!(untraced.get("trace").is_none(), "untraced stays untraced");
        let stats = Json::Obj(out[3].outcome.as_ref().unwrap().clone());
        let lat = stats.get("latency").expect("stats has latency histograms");
        let contains = lat.get("serve.contains").unwrap();
        assert_eq!(contains.get("count").and_then(Json::as_u64), Some(2));
        assert!(contains.get("p50_us").is_some());
        assert!(contains.get("p99_us").is_some());
        assert_eq!(
            lat.get("serve.register")
                .and_then(|o| o.get("count"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn explain_not_contained_derivation_replays_to_witness_facts() {
        use std::collections::HashSet;
        let eng = Engine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        // lhs needs a chase step (Q is not in the data schema), rhs never
        // holds over the lhs schema — so the witness derivation is non-empty.
        let batch = vec![
            req(
                r#"{"op":"register","name":"a","program":"P(X) -> Q(X)\nq(X) :- Q(X)","schema":["P"],"query":"q"}"#,
            ),
            req(
                r#"{"op":"register","name":"b","program":"q(X) :- T(X)","schema":["T"],"query":"q"}"#,
            ),
            req(r#"{"id":1,"op":"explain","lhs":"a","rhs":"b"}"#),
        ];
        let out = eng.execute_batch(&batch);
        let fields = Json::Obj(out[2].outcome.as_ref().unwrap().clone());
        assert_eq!(
            fields.get("verdict").and_then(Json::as_str),
            Some("not_contained")
        );
        let strings = |v: &Json| -> Vec<String> {
            v.as_array()
                .unwrap()
                .iter()
                .map(|s| s.as_str().unwrap().to_owned())
                .collect()
        };
        // Replay: start from the witness database, fire each derivation
        // step (inputs must already be derived), end with the witness facts.
        let mut state: HashSet<String> = strings(fields.get("witness").unwrap())
            .into_iter()
            .collect();
        let derivation = fields.get("derivation").unwrap().as_array().unwrap();
        assert!(!derivation.is_empty(), "chase step expected");
        for step in derivation {
            for input in strings(step.get("inputs").unwrap()) {
                assert!(state.contains(&input), "unjustified input {input}");
            }
            state.extend(strings(step.get("outputs").unwrap()));
            assert!(step.get("tgd").and_then(Json::as_str).is_some());
        }
        let witness_facts = strings(fields.get("witness_facts").unwrap());
        assert!(!witness_facts.is_empty());
        for fact in &witness_facts {
            assert!(state.contains(fact), "witness fact {fact} not derived");
        }
    }

    #[test]
    fn explain_contained_reports_coverage() {
        let eng = Engine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        let batch = vec![
            req(&register_line("a")),
            req(r#"{"id":1,"op":"explain","lhs":"a","rhs":"a"}"#),
        ];
        let out = eng.execute_batch(&batch);
        let fields = Json::Obj(out[1].outcome.as_ref().unwrap().clone());
        assert_eq!(
            fields.get("verdict").and_then(Json::as_str),
            Some("contained")
        );
        let cov = fields
            .get("coverage")
            .expect("contained explain has coverage");
        let shown = cov.get("shown").unwrap().as_array().unwrap();
        assert!(!shown.is_empty());
        for dc in shown {
            assert!(dc.get("rhs_disjunct").and_then(Json::as_u64).is_some());
            assert!(matches!(dc.get("homomorphism"), Some(Json::Obj(pairs)) if !pairs.is_empty()));
        }
    }

    /// Regression: `explain` after a cache-warming `contains` must not read
    /// the rewrite cache — cached artifacts carry VarIds interned in a
    /// *previous* request's vocabulary clone, which have no names in this
    /// request's snapshot (rendering them used to panic).
    /// The PR-5 regression, now with the cache *on*: `explain` reads the
    /// tiered artifact cache (portable artifacts rehydrate into the
    /// request vocabulary, so every rendered VarId resolves), and warm
    /// bytes still match cold bytes exactly.
    #[test]
    fn explain_after_warm_contains_matches_cold_explain() {
        let run = |warm: bool| {
            let eng = Engine::new(EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            });
            let mut batch = vec![req(&register_line("a"))];
            if warm {
                batch.push(req(r#"{"id":1,"op":"contains","lhs":"a","rhs":"a"}"#));
            }
            batch.push(req(r#"{"id":2,"op":"explain","lhs":"a","rhs":"a"}"#));
            let out = eng.execute_batch(&batch);
            let bytes =
                Json::Obj(out.last().unwrap().outcome.as_ref().unwrap().clone()).to_string();
            let (rw, _, _) = eng.cache_stats();
            (bytes, rw)
        };
        let (warm_bytes, warm_rw) = run(true);
        let (cold_bytes, _) = run(false);
        assert_eq!(
            warm_bytes, cold_bytes,
            "cache state must not leak into explain"
        );
        assert!(
            warm_rw.hits >= 1,
            "warm explain must hit the artifact cache, not bypass it: {warm_rw:?}"
        );
    }

    /// A burst of identical deadline-free `contains` coalesces: exactly
    /// one solver computation, every follower answered from the leader's
    /// (or the verdict cache's) bytes, and the responses are
    /// byte-identical to a sequential run.
    #[test]
    fn identical_burst_coalesces_to_one_computation() {
        const N: usize = 12;
        let burst = |threads: usize| {
            let eng = Engine::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            });
            let batch: Vec<_> = std::iter::once(req(&register_line("a")))
                .chain((0..N).map(|i| {
                    req(&format!(
                        r#"{{"id":{i},"op":"contains","lhs":"a","rhs":"a"}}"#
                    ))
                }))
                .collect();
            let out = eng.execute_batch(&batch);
            let lines: Vec<String> = out
                .iter()
                .map(|r| crate::protocol::response_to_json(r).to_string())
                .collect();
            let (hits, computations) = eng.coalescing_stats();
            let (_, vd, _) = eng.cache_stats();
            (lines, hits, computations, vd)
        };
        let (seq_lines, _, seq_runs, _) = burst(1);
        let (par_lines, hits, runs, vd) = burst(0);
        assert_eq!(seq_lines, par_lines, "burst responses are deterministic");
        assert_eq!(seq_runs, 1, "sequential burst computes once");
        assert_eq!(runs, 1, "parallel burst computes once");
        assert_eq!(
            hits + vd.hits as u64,
            N as u64 - 1,
            "every follower was answered by coalescing or the verdict cache"
        );
    }

    /// Deadline-bearing requests never coalesce: a leader's
    /// budget-truncated answer must not masquerade as another request's.
    #[test]
    fn deadline_requests_do_not_coalesce() {
        let eng = Engine::new(EngineConfig {
            threads: 0,
            cache_capacity: 0,
            ..EngineConfig::default()
        });
        let batch: Vec<_> = std::iter::once(req(&register_line("a")))
            .chain((0..4).map(|i| {
                req(&format!(
                    r#"{{"id":{i},"op":"contains","lhs":"a","rhs":"a","deadline_ms":60000}}"#
                ))
            }))
            .collect();
        let out = eng.execute_batch(&batch);
        assert!(out.iter().all(|r| r.outcome.is_ok()));
        let (hits, runs) = eng.coalescing_stats();
        assert_eq!(hits, 0, "deadline-bearing requests must not share outcomes");
        assert_eq!(runs, 4);
    }

    /// The persisted artifact tier survives a restart: a second engine on
    /// the same `cache_dir` answers from disk (rehydrated through its own
    /// vocabulary) with byte-identical responses and no XRewrite run.
    #[test]
    fn persisted_artifacts_survive_an_engine_restart() {
        let dir = std::env::temp_dir().join(format!(
            "omq-engine-tier-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = || EngineConfig {
            threads: 1,
            cache_dir: Some(dir.clone()),
            ..EngineConfig::default()
        };
        let batch = || {
            vec![
                req(&register_line("a")),
                req(r#"{"id":1,"op":"contains","lhs":"a","rhs":"a"}"#),
            ]
        };
        let cold = Engine::new(cfg());
        let cold_out = cold.execute_batch(&batch());
        let stored = cold.disk_stats().expect("disk tier is configured");
        assert!(
            stored.stores >= 1,
            "cold run persists artifacts: {stored:?}"
        );
        assert_eq!(stored.hits, 0);

        let warm = Engine::new(cfg());
        let warm_out = warm.execute_batch(&batch());
        let loaded = warm.disk_stats().expect("disk tier is configured");
        assert!(loaded.hits >= 1, "restart answers from disk: {loaded:?}");
        assert_eq!(
            crate::protocol::response_to_json(&cold_out[1]).to_string(),
            crate::protocol::response_to_json(&warm_out[1]).to_string(),
            "disk-served bytes match freshly computed bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Consecutive retracts on one name share a single DRed cone pass;
    /// responses match what per-call execution produces for the final
    /// state, and the batch counters show the reuse.
    #[test]
    fn consecutive_retracts_share_one_cone_pass() {
        let eng = Engine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        let batch = vec![
            req(&register_line("a")),
            req(r#"{"op":"assert","name":"a","facts":["P(c1)","P(c2)","P(c3)"]}"#),
            // A store-backed evaluate materializes the maintained
            // fixpoint — the thing the shared cone pass maintains.
            req(r#"{"op":"evaluate","name":"a","facts":[]}"#),
            req(r#"{"id":1,"op":"retract","name":"a","facts":["P(c1)"]}"#),
            req(r#"{"id":2,"op":"retract","name":"a","facts":["P(c2)"]}"#),
            req(r#"{"id":3,"op":"stats"}"#),
        ];
        let out = eng.execute_batch(&batch);
        assert!(out.iter().all(|r| r.outcome.is_ok()), "{out:?}");
        let v1 = Json::Obj(out[3].outcome.as_ref().unwrap().clone());
        let v2 = Json::Obj(out[4].outcome.as_ref().unwrap().clone());
        assert_eq!(v1.get("version").and_then(Json::as_u64), Some(2));
        assert_eq!(v2.get("version").and_then(Json::as_u64), Some(3));
        let stats = Json::Obj(out[5].outcome.as_ref().unwrap().clone());
        let store = stats.get("store").expect("store block");
        assert_eq!(store.get("retracts").and_then(Json::as_u64), Some(2));
        assert_eq!(store.get("cone_batches").and_then(Json::as_u64), Some(1));
        assert_eq!(store.get("cone_reuses").and_then(Json::as_u64), Some(1));
    }

    /// The retract run must answer like sequential execution: same
    /// versions, same facts counts, errors in place.
    #[test]
    fn retract_run_matches_sequential_semantics() {
        let lines = [
            r#"{"op":"assert","name":"a","facts":["P(c1)","P(c2)"]}"#,
            r#"{"id":1,"op":"retract","name":"a","facts":["P(c1)"]}"#,
            r#"{"id":2,"op":"retract","name":"a","facts":["P(X)"]}"#,
            r#"{"id":3,"op":"retract","name":"a","facts":["P(c2)"]}"#,
        ];
        let run = |batched: bool| {
            let eng = Engine::new(EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            });
            let mut batch = vec![req(&register_line("a"))];
            if batched {
                batch.extend(lines.iter().map(|l| req(l)));
                let out = eng.execute_batch(&batch);
                out[2..]
                    .iter()
                    .map(|r| r.outcome.clone())
                    .collect::<Vec<_>>()
            } else {
                // One batch per request: no run forms, the per-call path
                // answers.
                let mut outs = Vec::new();
                let out = eng.execute_batch(&batch);
                assert!(out[0].outcome.is_ok());
                for l in &lines {
                    outs.push(eng.execute_batch(&[req(l)])[0].outcome.clone());
                }
                let _ = outs.remove(0);
                outs
            }
        };
        let batched = run(true);
        let sequential = run(false);
        assert_eq!(batched.len(), sequential.len());
        assert!(
            matches!(batched[1], Err(ServeError::BadRequest(_))),
            "non-ground retract fails in place: {:?}",
            batched[1]
        );
        for (b, s) in batched.iter().zip(&sequential) {
            match (b, s) {
                (Ok(bf), Ok(sf)) => {
                    let get = |fields: &Vec<(String, Json)>, k: &str| {
                        Json::Obj(fields.clone()).get(k).map(|v| v.to_string())
                    };
                    for k in ["retracted", "version", "facts", "complete"] {
                        assert_eq!(get(bf, k), get(sf, k), "field {k}");
                    }
                }
                (Err(be), Err(se)) => assert_eq!(be.kind(), se.kind()),
                other => panic!("outcome shape diverged: {other:?}"),
            }
        }
    }

    #[test]
    fn alias_hits_are_counted_distinctly() {
        let eng = Engine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        let batch = vec![
            req(&register_line("a")),
            req(&register_line("b")), // identical program: alias of "a"
            req(r#"{"id":1,"op":"contains","lhs":"a","rhs":"a"}"#),
            req(r#"{"id":2,"op":"contains","lhs":"b","rhs":"b"}"#),
            req(r#"{"id":3,"op":"contains","lhs":"a","rhs":"a"}"#),
        ];
        let out = eng.execute_batch(&batch);
        assert_eq!(out[2].outcome, out[3].outcome);
        let (_, vd, _) = eng.cache_stats();
        assert_eq!(vd.insertions, 1);
        assert_eq!(vd.hits, 2, "alias and same-name hits both count as hits");
        assert_eq!(
            vd.alias_hits, 1,
            "only the alias-name probe is an alias hit"
        );
    }

    /// The encoding artifact of a guarded lhs is compiled once per
    /// canonical key: a second `contains` with the same lhs (any rhs)
    /// probes the encoding cache instead of rebuilding the automaton, and
    /// the response bytes are identical either way. On four workers the
    /// two `contains` run concurrently, so the second must join the first
    /// one's compile instead of missing the cache as well.
    #[test]
    fn warm_guarded_contains_hits_the_encoding_cache() {
        for threads in std::iter::once(1).chain(std::iter::repeat_n(4, 50)) {
            guarded_lhs_compiles_once(threads);
        }
    }

    fn guarded_lhs_compiles_once(threads: usize) {
        let eng = Engine::new(EngineConfig {
            threads,
            ..EngineConfig::default()
        });
        let guarded = r#"{"op":"register","name":"g","program":"G(X,Y,Z), R(X,Y) -> exists W . G(Y,Z,W), R(Y,Z)\nq :- R(X,Y), R(Y,Z)","schema":["G","R"],"query":"q"}"#;
        let r1 = r#"{"op":"register","name":"r1","program":"q :- R(X,X)","schema":["G","R"],"query":"q"}"#;
        let r2 = r#"{"op":"register","name":"r2","program":"q :- G(X,X,X)","schema":["G","R"],"query":"q"}"#;
        let batch = vec![
            req(guarded),
            req(r1),
            req(r2),
            req(r#"{"id":1,"op":"contains","lhs":"g","rhs":"r1"}"#),
            req(r#"{"id":2,"op":"contains","lhs":"g","rhs":"r2"}"#),
            req(r#"{"id":3,"op":"stats"}"#),
        ];
        let out = eng.execute_batch(&batch);
        assert!(out.iter().all(|r| r.outcome.is_ok()));
        let f1 = Json::Obj(out[3].outcome.as_ref().unwrap().clone());
        let f2 = Json::Obj(out[4].outcome.as_ref().unwrap().clone());
        let e1 = f1.get("guarded_encoding").expect("artifact on cold call");
        let e2 = f2.get("guarded_encoding").expect("artifact on warm call");
        assert_eq!(
            e1.to_string(),
            e2.to_string(),
            "cache state must not change the rendered artifact"
        );
        assert_eq!(e1.get("consistent"), Some(&Json::Bool(true)));
        assert_eq!(e1.get("nonempty"), Some(&Json::Bool(true)));
        let (_, _, enc) = eng.cache_stats();
        assert_eq!(enc.misses, 1, "one cold probe ({threads} threads)");
        assert_eq!(
            enc.insertions, 1,
            "compiled exactly once ({threads} threads)"
        );
        assert_eq!(enc.hits, 1, "warm lhs probe hits ({threads} threads)");
        let stats = Json::Obj(out[5].outcome.as_ref().unwrap().clone());
        assert_eq!(
            stats.get("encoding_cache_hits").and_then(Json::as_u64),
            Some(1)
        );
    }

    /// Non-guarded left-hand sides never touch the encoding cache.
    #[test]
    fn linear_contains_skips_the_encoding_cache() {
        let eng = Engine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        let batch = vec![
            req(&register_line("a")),
            req(r#"{"id":1,"op":"contains","lhs":"a","rhs":"a"}"#),
        ];
        let out = eng.execute_batch(&batch);
        assert!(out.iter().all(|r| r.outcome.is_ok()));
        let fields = Json::Obj(out[1].outcome.as_ref().unwrap().clone());
        assert!(fields.get("guarded_encoding").is_none());
        let (_, _, enc) = eng.cache_stats();
        assert_eq!(enc.hits + enc.misses + enc.insertions, 0, "untouched");
    }

    #[test]
    fn bad_facts_and_unknown_names_fail_cleanly() {
        let eng = Engine::new(EngineConfig::default());
        let batch = vec![
            req(&register_line("a")),
            req(r#"{"id":1,"op":"evaluate","name":"a","facts":["P(X)"]}"#),
            req(r#"{"id":2,"op":"contains","lhs":"a","rhs":"ghost"}"#),
        ];
        let out = eng.execute_batch(&batch);
        assert!(matches!(out[1].outcome, Err(ServeError::BadRequest(_))));
        assert!(matches!(out[2].outcome, Err(ServeError::UnknownName(_))));
    }
}
