//! Replayable workload driver for the `omq-serve` layer.
//!
//! Writes `BENCH_serve.json` (or the path given as the first argument):
//! cold vs. warm throughput and tail latency on a repeated-query workload,
//! plus a parallel mixed-batch row. "Cold" runs with caching disabled, so
//! every `contains` recomputes its rewritings; "warm" runs the identical
//! request stream with the canonical-key caches on, so repeats are cache
//! hits. Both phases use `threads = 1` so the counter columns
//! (`requests`, `cache_hits`, …) are exactly reproducible; the parallel
//! row reports wall-clock only.
//!
//! The headline figure is `speedup_warm_over_cold` on the contains stream
//! (the acceptance floor is 10×; see scripts/ci.sh).
//!
//! Phase columns follow the *time untraced, then trace once* protocol
//! (see `omq_bench::obsjson`): wall-clock and cache-hit columns come from
//! the untraced replay, then each stream is replayed once more under a
//! recorder to harvest the per-phase breakdown. Cache counters are read
//! *before* the instrumented replays, which would otherwise perturb them.

use std::sync::Arc;
use std::time::Instant;

use omq_bench::obsjson::{instrumented_pass, phase_fields};
use omq_obs::{Aggregator, Sink};
use omq_serve::{parse_request, Engine, EngineConfig, Request, Response};

/// The E1-style linear family as program text (mirrors
/// `omq_bench::workloads::linear_workload`).
fn linear_program(chain: usize, qlen: usize) -> String {
    let mut lines: Vec<String> = (0..chain)
        .map(|i| format!("C{i}(X) -> C{}(X)", i + 1))
        .collect();
    lines.push(format!("C{chain}(X) -> exists Yx . R(X,Yx)"));
    lines.push(format!("R(U,V) -> C{chain}(V)"));
    let body: Vec<String> = (0..qlen).map(|i| format!("R(Q{i},Q{})", i + 1)).collect();
    lines.push(format!("q(Q0) :- {}", body.join(", ")));
    lines.join("\n")
}

fn register_line(name: &str, chain: usize, qlen: usize) -> String {
    let program = linear_program(chain, qlen).replace('\n', "\\n");
    format!(
        r#"{{"op":"register","name":"{name}","program":"{program}","schema":["C0","R"],"query":"q"}}"#
    )
}

/// The repeated-query request stream: `reps` passes over a small set of
/// distinct questions — exactly the shape a warm cache exploits.
fn contains_stream(reps: usize) -> Vec<String> {
    let pairs = [
        ("lin_a", "lin_a"),
        ("lin_a", "lin_b"),
        ("lin_b", "lin_a"),
        ("lin_c", "lin_a"),
    ];
    let mut out = Vec::new();
    for rep in 0..reps {
        for (i, (l, r)) in pairs.iter().enumerate() {
            let id = rep * pairs.len() + i;
            out.push(format!(
                r#"{{"id":{id},"op":"contains","lhs":"{l}","rhs":"{r}"}}"#
            ));
        }
    }
    out
}

fn evaluate_stream(reps: usize) -> Vec<String> {
    let mut out = Vec::new();
    for id in 0..reps {
        out.push(format!(
            r#"{{"id":{id},"op":"evaluate","name":"lin_a","facts":["C0(a{})","R(a{},b)"]}}"#,
            id % 3,
            id % 3
        ));
    }
    out
}

fn parse_all(lines: &[String]) -> Vec<Result<Request, Box<Response>>> {
    lines.iter().map(|l| parse_request(l)).collect()
}

struct Row {
    workload: String,
    wall_ms: f64,
    p50_us: f64,
    p95_us: f64,
    requests: usize,
    cache_hits: Option<usize>,
    /// Extra JSON columns (leading `, `), e.g. the open-loop rows'
    /// `p99_us`/`shed_pct`.
    extra_cols: String,
    phases: String,
}

/// Replays `stream` one request per batch (so each request is individually
/// timed), returning (total ms, p50 μs, p95 μs).
fn replay(engine: &Engine, stream: &[String]) -> (f64, f64, f64) {
    let items = parse_all(stream);
    let mut lat_us: Vec<f64> = Vec::with_capacity(items.len());
    let start = Instant::now();
    for item in items {
        let t = Instant::now();
        let out = engine.execute_batch(std::slice::from_ref(&item));
        assert!(
            out[0].outcome.is_ok(),
            "benchmark request failed: {:?}",
            out[0].outcome
        );
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p) as usize];
    (wall_ms, pct(0.50), pct(0.95))
}

fn fresh_engine(cache_capacity: usize, threads: usize) -> Engine {
    let engine = Engine::new(EngineConfig {
        threads,
        cache_capacity,
        default_deadline_ms: None,
        ..EngineConfig::default()
    });
    let regs: Vec<String> = vec![
        register_line("lin_a", 12, 3),
        register_line("lin_b", 12, 2),
        register_line("lin_c", 8, 3),
    ];
    for resp in engine.execute_batch(&parse_all(&regs)) {
        assert!(
            resp.outcome.is_ok(),
            "registration failed: {:?}",
            resp.outcome
        );
    }
    engine
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".into());
    let hom_before = omq_chase::global_hom_snapshot();
    let mut rows: Vec<Row> = Vec::new();

    // Sweep-wide aggregator: sees every instrumented replay, feeds the
    // summary row so every BENCH_serve row carries phase columns.
    let sweep = Arc::new(Aggregator::new());
    let extra: Vec<Arc<dyn Sink>> = vec![sweep.clone()];

    let contains = contains_stream(25); // 100 requests over 4 distinct pairs
    let evals = evaluate_stream(60);

    for (label, cache) in [("cold", 0usize), ("warm", 256)] {
        let engine = fresh_engine(cache, 1);
        let (wall_ms_c, p50_c, p95_c) = replay(&engine, &contains);
        let (rw, vd, _) = engine.cache_stats();
        let (wall_ms_e, p50_e, p95_e) = replay(&engine, &evals);
        let (rw2, vd2, _) = engine.cache_stats();
        // Counter columns are settled; the traced replays below only feed
        // the phase columns.
        let ((), agg_c) = instrumented_pass(&extra, || {
            replay(&engine, &contains);
        });
        let ((), agg_e) = instrumented_pass(&extra, || {
            replay(&engine, &evals);
        });
        rows.push(Row {
            workload: format!("serve:contains {label}"),
            wall_ms: wall_ms_c,
            p50_us: p50_c,
            p95_us: p95_c,
            requests: contains.len(),
            cache_hits: Some(rw.hits + vd.hits),
            extra_cols: String::new(),
            phases: phase_fields(&agg_c),
        });
        rows.push(Row {
            workload: format!("serve:evaluate {label}"),
            wall_ms: wall_ms_e,
            p50_us: p50_e,
            p95_us: p95_e,
            requests: evals.len(),
            cache_hits: Some(rw2.hits + vd2.hits - rw.hits - vd.hits),
            extra_cols: String::new(),
            phases: phase_fields(&agg_e),
        });
    }

    // Parallel mixed batch: everything at once on the full pool, warm
    // caches. Wall-clock only — scheduling is machine-dependent.
    {
        let engine = fresh_engine(256, 0);
        let mixed: Vec<String> = contains.iter().chain(evals.iter()).cloned().collect();
        let items = parse_all(&mixed);
        let t = Instant::now();
        let out = engine.execute_batch(&items);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(out.iter().all(|r| r.outcome.is_ok()));
        let (out, agg) = instrumented_pass(&extra, || engine.execute_batch(&items));
        assert!(out.iter().all(|r| r.outcome.is_ok()));
        rows.push(Row {
            workload: "serve:mixed parallel batch".into(),
            wall_ms,
            p50_us: 0.0,
            p95_us: 0.0,
            requests: mixed.len(),
            cache_hits: None,
            extra_cols: String::new(),
            phases: phase_fields(&agg),
        });
    }

    // Open-loop arrival-rate workloads: requests arrive on a clock (1×,
    // 2×, 4× the measured cache-off service capacity) whether or not the
    // single worker has kept up — the queueing regime a closed-loop replay
    // can never exhibit. Each rate runs twice: `noshed` (no admission
    // control; under overload the backlog and therefore the tail grow
    // without bound) and `shed` (queue-depth watermark 16; sheddable
    // arrivals over the watermark get an immediate structured refusal, so
    // the tail of the *answered* requests stays bounded). Columns:
    // `p50_us`/`p99_us` over answered requests (arrival→response,
    // queueing included) and `shed_pct`, the refused share. scripts/ci.sh
    // gates `shed` p99 < `noshed` p99 at 4× and a nonzero 4× shed rate.
    {
        use omq_serve::Admission;
        use std::sync::mpsc;

        let line = r#"{"id":0,"op":"contains","lhs":"lin_a","rhs":"lin_b"}"#.to_owned();
        let items = parse_all(std::slice::from_ref(&line));
        // Mean cache-off service time = the capacity the rates scale from.
        let probe = fresh_engine(0, 1);
        let probe_n = 20u32;
        let t = Instant::now();
        for _ in 0..probe_n {
            let out = probe.execute_batch(&items);
            assert!(out[0].outcome.is_ok());
        }
        let service = t.elapsed() / probe_n;
        // One instrumented pass covers every open-loop row's phase
        // columns — the op mix is identical at every rate.
        let ((), agg_o) = instrumented_pass(&extra, || {
            let engine = fresh_engine(0, 1);
            for _ in 0..4 {
                let out = engine.execute_batch(&items);
                assert!(out[0].outcome.is_ok());
            }
        });
        let open_phases = phase_fields(&agg_o);

        let n = 200usize;
        for mult in [1u32, 2, 4] {
            for (label, watermark) in [("noshed", 0usize), ("shed", 16)] {
                let engine = Arc::new(fresh_engine(0, 1));
                let admission = Arc::new(Admission::new(watermark));
                let worker = {
                    let engine = Arc::clone(&engine);
                    let admission = Arc::clone(&admission);
                    let items = parse_all(std::slice::from_ref(&line));
                    let (tx, rx) = mpsc::channel::<Instant>();
                    (
                        tx,
                        std::thread::spawn(move || {
                            let mut lat_us: Vec<f64> = Vec::new();
                            for arrived in rx {
                                let out = engine.execute_batch(&items);
                                assert!(out[0].outcome.is_ok());
                                lat_us.push(arrived.elapsed().as_secs_f64() * 1e6);
                                admission.exit(1);
                            }
                            lat_us
                        }),
                    )
                };
                let (tx, handle) = worker;
                let interarrival = service / mult;
                let start = Instant::now();
                let mut shed_count = 0usize;
                for i in 0..n {
                    let due = start + interarrival * i as u32;
                    while Instant::now() < due {
                        std::hint::spin_loop();
                    }
                    let depth = admission.enter(1);
                    if admission.should_shed(depth) {
                        // An immediate structured refusal; the request
                        // never reaches the worker queue. Charge the
                        // engine's SLO-burn window like the reactor does,
                        // so the scrape-derived burn column is real.
                        engine.metrics().mark_shed();
                        admission.exit(1);
                        shed_count += 1;
                    } else {
                        tx.send(Instant::now()).expect("worker alive");
                    }
                }
                drop(tx);
                let mut lat_us = handle.join().expect("worker exits cleanly");
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let pct = |p: f64| {
                    if lat_us.is_empty() {
                        0.0
                    } else {
                        lat_us[((lat_us.len() - 1) as f64 * p) as usize]
                    }
                };
                rows.push(Row {
                    workload: format!("serve:open-loop contains {mult}x {label}"),
                    wall_ms,
                    p50_us: pct(0.50),
                    p95_us: pct(0.95),
                    requests: n,
                    cache_hits: None,
                    extra_cols: format!(
                        ", \"p99_us\": {:.1}, \"shed_pct\": {:.1}, \"shed_slo_burn_ratio\": {:.4}",
                        pct(0.99),
                        shed_count as f64 * 100.0 / n as f64,
                        engine.metrics().shed_burn_ratio()
                    ),
                    phases: open_phases.clone(),
                });
            }
        }
    }

    let cold = rows[0].wall_ms;
    let warm = rows[2].wall_ms.max(1e-9);
    let speedup = cold / warm;

    let mut json = String::from("[\n");
    for r in &rows {
        let hits = r
            .cache_hits
            .map_or(String::new(), |h| format!(", \"cache_hits\": {h}"));
        json.push_str(&format!(
            "  {{\"workload\": \"{}\", \"wall_ms\": {:.3}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"requests\": {}{}{}{}}},\n",
            r.workload, r.wall_ms, r.p50_us, r.p95_us, r.requests, hits, r.extra_cols, r.phases
        ));
        println!(
            "{:<28} {:>9.3} ms  p50={:<9.1}us p95={:<9.1}us requests={} hits={:?}",
            r.workload, r.wall_ms, r.p50_us, r.p95_us, r.requests, r.cache_hits
        );
    }
    // Adaptive-planner work across the whole sweep (process-global deltas;
    // deterministic per run — replan decisions depend only on instance
    // content and per-request call order).
    let hom = omq_chase::global_hom_snapshot().since(&hom_before);
    json.push_str(&format!(
        "  {{\"workload\": \"serve:summary\", \"wall_ms\": 0.0, \"speedup_warm_over_cold\": {speedup:.2}, \"plans_reoptimized\": {}, \"sketch_build_us\": {}{}}}\n]\n",
        hom.plans_reoptimized,
        hom.sketch_build_ns / 1_000,
        phase_fields(&sweep)
    ));
    println!("serve:summary                speedup_warm_over_cold={speedup:.2}");
    std::fs::write(&out_path, json).expect("writing serve benchmark output");
    println!("wrote {out_path}");
}
