//! The traced run: replays a workload's generated inputs in-process and
//! times calls into the public functions each layer is made of.
//!
//! * protocol — [`parse_request`] and [`response_to_json`];
//! * registry — [`Registry::register`];
//! * engine — [`Engine::execute_batch`];
//! * solver — [`xrewrite`] (through a timing [`RewriteSource`]),
//!   [`contains_with`], [`compile_encoding`];
//! * store — [`MaintainedStore::assert_facts`], `retract_batch` and
//!   `evaluate`.
//!
//! Engine overhead is `execute_batch` minus the direct solver (or store)
//! calls answering the same requests, so it holds what the engine adds:
//! the registry snapshot, cache lookups, recording and rendering of
//! fields. Every solver verdict and store answer is cross-checked against
//! the generator's oracle on the way.

use std::sync::Arc;
use std::time::{Duration, Instant};

use omq_chase::{global_hom_snapshot, Budget, ChaseConfig};
use omq_core::{contains_with, ContainmentConfig, ContainmentResult, EvalConfig, OmqLanguage};
use omq_guarded::{compile_encoding, EncodingConfig};
use omq_model::{Atom, Omq, Term, Vocabulary};
use omq_rewrite::{xrewrite, RewriteArtifact, RewriteSource, XRewriteConfig};
use omq_serve::{parse_request, response_to_json, Engine, EngineConfig, Registry};
use omq_store::{MaintainedStore, StoreConfig, StoreStats};

use crate::check::check;
use crate::gen::{request_line, vertex, Op, Verdict, Workload};
use crate::stats::Reconciliation;

/// Figures the socket phase of the same run hands over.
#[derive(Clone, Debug, Default)]
pub struct SocketFigures {
    pub requests: usize,
    /// Sum of client round trips over the timed units (s).
    pub round_trip_s: f64,
    /// Server-side request time from the `stats` latency deltas (µs).
    pub server_us: f64,
    pub verdict_hit_ratio: f64,
    pub rewrite_hit_ratio: f64,
}

/// A stopwatch that counts its own readings, so the cost of tracing can
/// be reported next to what it traced.
#[derive(Default)]
struct Clock {
    readings: u64,
}

impl Clock {
    fn time<T>(&mut self, acc: &mut Duration, f: impl FnOnce() -> T) -> T {
        self.readings += 2;
        let t = Instant::now();
        let out = f();
        *acc += t.elapsed();
        out
    }
}

/// Cost of one `Instant::now()` reading, measured.
fn reading_cost_s() -> f64 {
    const N: u32 = 20_000;
    let t = Instant::now();
    let mut sink = t;
    for _ in 0..N {
        sink = std::hint::black_box(Instant::now());
    }
    let _ = sink;
    t.elapsed().as_secs_f64() / N as f64
}

/// An [`xrewrite`] source that times every call and sums its counters.
#[derive(Default)]
struct TimedRewrite {
    time: Duration,
    candidates: usize,
    generated: usize,
    kept: usize,
}

impl RewriteSource for TimedRewrite {
    fn rewrite(
        &mut self,
        omq: &Omq,
        voc: &mut Vocabulary,
        cfg: &XRewriteConfig,
    ) -> RewriteArtifact {
        let t = Instant::now();
        let res = xrewrite(omq, voc, cfg);
        self.time += t.elapsed();
        if let Ok(out) = &res {
            self.candidates += out.stats.candidates;
            self.generated += out.generated;
            self.kept += out.ucq.disjuncts.len();
        }
        RewriteArtifact::from_result(res)
    }
}

#[derive(Default)]
struct Acc {
    parse: Duration,
    exec: Duration,
    render: Duration,
    register: Duration,
    encode: Duration,
    contain: Duration,
    assert: Duration,
    retract: Duration,
    evaluate: Duration,
    hit: Duration,
    hits: usize,
    asserts: usize,
    retracts: usize,
    evaluates: usize,
    contains: usize,
    requests: usize,
    hom_candidates: u64,
    hom_found: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn per(x: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        x / n as f64
    }
}

/// Units of a traced replay: about half the timed units for the solver
/// workloads (each is answered twice, by the engine and directly), all of
/// them for the hit path.
fn replay_len(w: &Workload) -> usize {
    if w.warmup.is_empty() {
        w.units.len().div_ceil(2)
    } else {
        w.units.len()
    }
}

fn containment_cfg() -> ContainmentConfig {
    // Mirrors the serve engine's per-request configuration.
    let mut cfg = ContainmentConfig::default().with_budget(Budget::unlimited());
    cfg.threads = 1;
    cfg.rewrite.threads = 1;
    cfg.eval.rewrite.threads = 1;
    cfg
}

fn store_chase_cfg() -> ChaseConfig {
    let mut cfg = EvalConfig::default().with_budget(Budget::unlimited());
    cfg.rewrite.threads = 1;
    cfg.chase
}

/// One store as the engine keeps it: its own vocabulary clone.
struct DirectStore {
    store: MaintainedStore,
    voc: Vocabulary,
    omq: Omq,
    ns: String,
}

impl DirectStore {
    fn atoms(&mut self, edges: &[(u32, u32)]) -> Vec<Atom> {
        let e = self
            .voc
            .pred_id(&format!("{}E", self.ns))
            .expect("registered E");
        edges
            .iter()
            .map(|&(a, b)| {
                let a = Term::Const(self.voc.constant(&vertex(a)));
                let b = Term::Const(self.voc.constant(&vertex(b)));
                Atom::new(e, vec![a, b])
            })
            .collect()
    }

    fn closure(&mut self, cfg: &ChaseConfig) -> Result<Vec<(String, String)>, String> {
        let ev = self
            .store
            .evaluate(None, &self.omq.query, &self.omq.sigma, &mut self.voc, cfg)
            .map_err(|e| e.to_string())?;
        if !ev.complete {
            return Err("direct evaluate incomplete".into());
        }
        let mut out: Vec<(String, String)> = ev
            .answers
            .iter()
            .map(|t| {
                (
                    self.voc.const_name(t[0]).to_owned(),
                    self.voc.const_name(t[1]).to_owned(),
                )
            })
            .collect();
        out.sort();
        Ok(out)
    }
}

fn expect_names(expect: &[(u32, u32)]) -> Vec<(String, String)> {
    expect
        .iter()
        .map(|&(a, b)| (vertex(a), vertex(b)))
        .collect()
}

/// What a traced replay reports.
pub struct Traced {
    /// Per-layer metrics `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The per-request layers (ms) and their residual.
    pub reconciliation: Reconciliation,
}

/// Replays `w` in-process and measures every layer.
pub fn run(w: &Workload, socket: &SocketFigures) -> Result<Traced, String> {
    let started = Instant::now();
    let mut clock = Clock::default();
    let mut acc = Acc::default();

    // Registry: the same registrations the server performed, timed.
    let mut reg = Registry::new();
    for o in &w.omqs {
        let schema: Vec<&str> = o.schema.iter().map(String::as_str).collect();
        clock
            .time(&mut acc.register, || {
                reg.register(&o.name, &o.program, &schema, "q")
            })
            .map_err(|e| format!("register {}: {e}", o.name))?;
    }

    // Engine: a fresh one, set up like the server.
    let engine = Engine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    let submit = |units: &[crate::gen::Unit]| -> Result<(), String> {
        for u in units {
            let items: Vec<_> = u
                .ops
                .iter()
                .map(|op| parse_request(&request_line(w, op)))
                .collect();
            for (op, resp) in u.ops.iter().zip(engine.execute_batch(&items)) {
                check(w, op, &response_to_json(&resp).to_string())?;
            }
        }
        Ok(())
    };
    submit(&w.register_units)?;
    submit(&w.preload)?;
    submit(&w.warmup)?;

    // Direct stores, preloaded like the engine's.
    let chase_cfg = store_chase_cfg();
    let mut stores: Vec<DirectStore> = Vec::new();
    for (i, name) in w.stores.iter().enumerate() {
        let r = reg.get(name).map_err(|e| e.to_string())?;
        stores.push(DirectStore {
            store: MaintainedStore::new(StoreConfig::default()),
            voc: reg.vocabulary().clone(),
            omq: r.omq.clone(),
            ns: format!("s{i}_"),
        });
    }
    for u in &w.preload {
        for op in &u.ops {
            match op {
                Op::Assert { store, edges } => {
                    let s = &mut stores[*store];
                    let atoms = s.atoms(edges);
                    s.store
                        .assert_facts(&atoms, &s.omq.sigma, &mut s.voc, &chase_cfg)
                        .map_err(|e| e.to_string())?;
                }
                Op::Evaluate { store, expect } => {
                    let got = stores[*store].closure(&chase_cfg)?;
                    if got != expect_names(expect) {
                        return Err("direct store preload closure differs".into());
                    }
                }
                _ => {}
            }
        }
    }
    let store_stats0: Vec<StoreStats> = stores.iter().map(|s| s.store.stats()).collect();

    let ccfg = containment_cfg();
    let mut rewrite = TimedRewrite::default();
    let mut last_contains: Vec<Op> = Vec::new();
    let replayed = &w.units[..replay_len(w)];
    for u in replayed {
        let lines: Vec<String> = u.ops.iter().map(|op| request_line(w, op)).collect();
        let items: Vec<_> = clock.time(&mut acc.parse, || {
            lines.iter().map(|l| parse_request(l)).collect()
        });
        let out = clock.time(&mut acc.exec, || engine.execute_batch(&items));
        let rendered: Vec<String> = clock.time(&mut acc.render, || {
            out.iter()
                .map(|r| response_to_json(r).to_string())
                .collect()
        });
        acc.requests += u.ops.len();
        for (op, line) in u.ops.iter().zip(&rendered) {
            check(w, op, line).map_err(|e| format!("in-process: {e}"))?;
        }
        if !w.warmup.is_empty() {
            // The hit path: hot requests are verdict hits, no solver runs.
            continue;
        }
        for op in &u.ops {
            let hom0 = global_hom_snapshot();
            match op {
                Op::Contains {
                    lhs, rhs, expect, ..
                } => {
                    acc.contains += 1;
                    last_contains.push(op.clone());
                    let l = reg.get(lhs).map_err(|e| e.to_string())?.clone();
                    let r = reg.get(rhs).map_err(|e| e.to_string())?.clone();
                    let mut voc = reg.vocabulary().clone();
                    let mut cfg = ccfg.clone();
                    if l.language == OmqLanguage::Guarded {
                        let ecfg = EncodingConfig {
                            budget: Budget::unlimited(),
                            ..EncodingConfig::default()
                        };
                        let art = clock.time(&mut acc.encode, || {
                            compile_encoding(&l.omq, &mut voc.clone(), &ecfg)
                        });
                        cfg.lhs_encoding = art.map(Arc::new);
                    }
                    let outcome = clock
                        .time(&mut acc.contain, || {
                            contains_with(&l.omq, &r.omq, &mut voc, &cfg, &mut rewrite)
                        })
                        .map_err(|e| format!("contains_with {lhs} {rhs}: {e}"))?;
                    let got = match outcome.result {
                        ContainmentResult::Contained => Some(Verdict::Contained),
                        ContainmentResult::NotContained(_) => Some(Verdict::NotContained),
                        ContainmentResult::Unknown(_) => None,
                    };
                    if got != Some(*expect) {
                        return Err(format!(
                            "contains_with {lhs} {rhs}: {got:?}, oracle says {expect:?}"
                        ));
                    }
                }
                Op::Assert { store, edges } => {
                    acc.asserts += 1;
                    let s = &mut stores[*store];
                    let atoms = s.atoms(edges);
                    clock
                        .time(&mut acc.assert, || {
                            s.store
                                .assert_facts(&atoms, &s.omq.sigma, &mut s.voc, &chase_cfg)
                        })
                        .map_err(|e| e.to_string())?;
                }
                Op::Retract { store, edges } => {
                    acc.retracts += 1;
                    let s = &mut stores[*store];
                    let groups = vec![s.atoms(edges)];
                    let res = clock.time(&mut acc.retract, || {
                        s.store
                            .retract_batch(&groups, &s.omq.sigma, &mut s.voc, &chase_cfg)
                    });
                    for r in res {
                        r.map_err(|e| e.to_string())?;
                    }
                }
                Op::Evaluate { store, expect } => {
                    acc.evaluates += 1;
                    let s = &mut stores[*store];
                    let got = clock.time(&mut acc.evaluate, || s.closure(&chase_cfg))?;
                    if got != expect_names(expect) {
                        return Err(format!(
                            "direct evaluate of store {store} differs from the oracle"
                        ));
                    }
                }
                Op::Register(_) => {}
            }
            let hom1 = global_hom_snapshot();
            acc.hom_candidates += hom1.candidates_scanned - hom0.candidates_scanned;
            acc.hom_found += hom1.homs_found - hom0.homs_found;
        }
    }

    // The hit path on cold: re-ask the most recent questions, which the
    // verdict cache still holds.
    if w.warmup.is_empty() && !last_contains.is_empty() {
        let tail = &last_contains[last_contains.len().saturating_sub(64)..];
        let items: Vec<_> = tail
            .iter()
            .map(|op| parse_request(&request_line(w, op)))
            .collect();
        let hits0 = engine.cache_stats().1.hits;
        let out = clock.time(&mut acc.hit, || engine.execute_batch(&items));
        for (op, resp) in tail.iter().zip(&out) {
            check(w, op, &response_to_json(resp).to_string())?;
        }
        let hits = engine.cache_stats().1.hits - hits0;
        if hits != tail.len() {
            return Err(format!("cold hit probe: {hits} hits of {}", tail.len()));
        }
        acc.hits = tail.len();
    } else if !w.warmup.is_empty() {
        acc.hit = acc.exec;
        acc.hits = acc.requests;
    }

    let mut store_delta = StoreStats::default();
    for (s, s0) in stores.iter().zip(&store_stats0) {
        let s1 = s.store.stats();
        store_delta.dred_deleted += s1.dred_deleted - s0.dred_deleted;
        store_delta.rederived += s1.rederived - s0.rederived;
        store_delta.compactions += s1.compactions - s0.compactions;
        store_delta.incremental_resumes += s1.incremental_resumes - s0.incremental_resumes;
        store_delta.full_rechases += s1.full_rechases - s0.full_rechases;
    }

    // Per-request layers (ms), over the replayed requests.
    let n = acc.requests;
    let traced_wall = started.elapsed().as_secs_f64();
    let direct = acc.encode + acc.contain + acc.assert + acc.retract + acc.evaluate;
    let rewrite_ms = per(ms(rewrite.time), n);
    let sweep_ms = per(ms(acc.contain.saturating_sub(rewrite.time)), n);
    let encode_ms = per(ms(acc.encode), n);
    let store_ms = per(ms(acc.assert + acc.retract + acc.evaluate), n);
    let overhead_ms = per(ms(acc.exec) - ms(direct), n);
    let total_ms = per(socket.round_trip_s * 1e3, socket.requests);
    let frontend_ms = per(
        socket.round_trip_s * 1e3 - socket.server_us / 1e3,
        socket.requests,
    );
    let rec = Reconciliation::new(
        total_ms,
        vec![
            ("frontend".into(), frontend_ms),
            ("engine_overhead".into(), overhead_ms),
            ("rewrite".into(), rewrite_ms),
            ("sweep".into(), sweep_ms),
            ("encode".into(), encode_ms),
            ("store".into(), store_ms),
        ],
    );
    let overhead_ratio = clock.readings as f64 * reading_cost_s() / traced_wall;
    let contains_n = acc.contains;
    let metrics = vec![
        (
            "serve.reactor.frontend_us_per_req".into(),
            frontend_ms * 1e3,
            "us",
        ),
        (
            "serve.protocol.parse_us_per_req".into(),
            per(ms(acc.parse) * 1e3, n),
            "us",
        ),
        (
            "serve.protocol.render_us_per_req".into(),
            per(ms(acc.render) * 1e3, n),
            "us",
        ),
        (
            "serve.engine.hit_us".into(),
            per(ms(acc.hit) * 1e3, acc.hits),
            "us",
        ),
        (
            "serve.cache.verdict_hit_ratio".into(),
            socket.verdict_hit_ratio,
            "ratio",
        ),
        (
            "serve.cache.rewrite_hit_ratio".into(),
            socket.rewrite_hit_ratio,
            "ratio",
        ),
        ("serve.engine.overhead_ms_per_req".into(), overhead_ms, "ms"),
        (
            "serve.registry.register_ms_per_omq".into(),
            per(ms(acc.register), w.omqs.len()),
            "ms",
        ),
        ("rewrite.xrewrite_ms_per_req".into(), rewrite_ms, "ms"),
        (
            "rewrite.candidates_per_req".into(),
            per(rewrite.candidates as f64, contains_n),
            "count",
        ),
        (
            "rewrite.generated_per_req".into(),
            per(rewrite.generated as f64, contains_n),
            "count",
        ),
        (
            "rewrite.kept_ratio".into(),
            per(rewrite.kept as f64, rewrite.candidates),
            "ratio",
        ),
        ("core.sweep_ms_per_req".into(), sweep_ms, "ms"),
        (
            "chase.hom.candidates_per_req".into(),
            per(acc.hom_candidates as f64, n),
            "count",
        ),
        (
            "chase.hom.found_ratio".into(),
            per(acc.hom_found as f64, acc.hom_candidates as usize),
            "ratio",
        ),
        ("guarded.encode_ms_per_req".into(), encode_ms, "ms"),
        (
            "store.assert_ms".into(),
            per(ms(acc.assert), acc.asserts),
            "ms",
        ),
        (
            "store.retract_ms".into(),
            per(ms(acc.retract), acc.retracts),
            "ms",
        ),
        (
            "store.dred_deleted_per_retract".into(),
            per(store_delta.dred_deleted as f64, acc.retracts),
            "count",
        ),
        (
            "store.rederive_ratio".into(),
            per(
                store_delta.rederived as f64,
                store_delta.dred_deleted as usize,
            ),
            "ratio",
        ),
        (
            "store.compactions".into(),
            store_delta.compactions as f64,
            "count",
        ),
        (
            "store.evaluate_ms".into(),
            per(ms(acc.evaluate), acc.evaluates),
            "ms",
        ),
        (
            "store.incremental_resumes".into(),
            store_delta.incremental_resumes as f64,
            "count",
        ),
        (
            "store.full_rechases".into(),
            store_delta.full_rechases as f64,
            "count",
        ),
        ("traced_total_ms_per_req".into(), rec.total, "ms"),
        ("unattributed_ms_per_req".into(), rec.unattributed, "ms"),
        ("trace_overhead_ratio".into(), overhead_ratio, "ratio"),
    ];
    Ok(Traced {
        metrics,
        reconciliation: rec,
    })
}
