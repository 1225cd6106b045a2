//! The telemetry plane, end to end through the public protocol:
//!
//! * the `metrics` op answers a Prometheus text exposition covering the
//!   request, cache, coalescing, store, and latency taxonomies;
//! * every request is recorded once, in the metrics registry: the
//!   `stats` op's `latency` block and the scrape's `omq_requests_total`
//!   agree per op, on one shard and on three, for batched retract runs,
//!   broadcast registers and the `metrics` op itself alike;
//! * the exposition is deterministic across byte-identical runs once
//!   timing-valued lines (`_us` histograms/quantiles, uptime, tail-based
//!   flight retention, process-global hom counters) are set aside;
//! * `trace_dump` surfaces the flight recorder's retained ring: a
//!   deliberately timed-out request and a deliberately shed request both
//!   leave an entry with the right reason;
//! * trace ids never appear in default-mode responses, only under
//!   `"trace":true`.

use std::collections::BTreeMap;
use std::sync::Arc;

use omq_serve::{
    parse_request, response_to_json, BatchExecutor, Engine, EngineConfig, Json, RuntimeStats,
    ShardedEngine,
};

fn run(executor: &dyn BatchExecutor, lines: &[&str]) -> Vec<String> {
    let items: Vec<_> = lines.iter().map(|l| parse_request(l)).collect();
    executor
        .execute_batch(&items)
        .iter()
        .map(|r| response_to_json(r).to_string())
        .collect()
}

/// Register + solve + mutate: touches the verdict/rewrite caches, the
/// coalescing slots, and a named store's maintenance path.
const WORK: &[&str] = &[
    r#"{"id":1,"op":"register","name":"a","program":"P(X) -> R(X)\nq(X) :- R(X)","schema":["P"],"query":"q"}"#,
    r#"{"id":2,"op":"register","name":"b","program":"q(X) :- P(X)","schema":["P"],"query":"q"}"#,
    r#"{"id":3,"op":"contains","lhs":"a","rhs":"b"}"#,
    r#"{"id":4,"op":"contains","lhs":"a","rhs":"b"}"#,
    r#"{"id":5,"op":"assert","name":"a","facts":["P(c1)","P(c2)"]}"#,
    r#"{"id":6,"op":"evaluate","name":"a"}"#,
    r#"{"id":7,"op":"retract","name":"a","facts":["P(c1)"]}"#,
];

/// `omq_requests_total` per op, read off an exposition.
fn requests_total(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter_map(|l| l.strip_prefix("omq_requests_total{op=\""))
        .map(|l| {
            let (op, value) = l.split_once("\"} ").unwrap();
            (op.to_owned(), value.parse().unwrap())
        })
        .collect()
}

/// `stats.latency[op].count` per op.
fn latency_counts(executor: &dyn BatchExecutor) -> BTreeMap<String, u64> {
    let out = run(executor, &[r#"{"id":8,"op":"stats"}"#]);
    let stats = omq_serve::json::parse(&out[0]).unwrap();
    let Some(Json::Obj(ops)) = stats.get("latency") else {
        panic!("stats has no latency block: {}", out[0]);
    };
    ops.iter()
        .map(|(op, h)| (op.clone(), h.get("count").and_then(Json::as_u64).unwrap()))
        .collect()
}

/// The `stats` latency block and the scrape count the same requests (the
/// scrape, taken second, alone has seen the `stats` request itself), and
/// a second scrape counts the first `metrics` request exactly once.
/// Returns the per-op counts.
fn assert_one_latency_record(executor: &dyn BatchExecutor) -> BTreeMap<String, u64> {
    let latency = latency_counts(executor);
    let text = exposition_of(executor);
    let mut scraped = requests_total(&text);
    *scraped.get_mut("serve.stats").expect("stats was recorded") -= 1;
    scraped.retain(|_, n| *n > 0);
    assert_eq!(latency, scraped, "stats.latency vs omq_requests_total");
    assert_eq!(
        text.matches(" histogram\n").count(),
        1,
        "one per-op latency histogram family: {text}"
    );
    let again = requests_total(&exposition_of(executor));
    assert_eq!(
        again.get("serve.metrics"),
        Some(&1),
        "metrics recorded once"
    );
    scraped
}

fn exposition_of(executor: &dyn BatchExecutor) -> String {
    let out = run(executor, &[r#"{"id":9,"op":"metrics"}"#]);
    let parsed = omq_serve::json::parse(&out[0]).unwrap();
    assert_eq!(
        parsed.get("content_type").and_then(Json::as_str),
        Some(omq_obs::metrics::PROMETHEUS_CONTENT_TYPE)
    );
    parsed
        .get("exposition")
        .and_then(Json::as_str)
        .expect("metrics response carries the exposition")
        .to_owned()
}

#[test]
fn metrics_op_covers_the_serve_taxonomy() {
    let engine = Engine::new(EngineConfig::default());
    let _ = run(&engine, WORK);
    let text = exposition_of(&engine);
    for series in [
        "# TYPE omq_requests_total counter",
        "omq_requests_total{op=\"serve.contains\"} 2",
        "omq_requests_total{op=\"serve.register\"} 2",
        "omq_request_duration_us_bucket",
        "omq_request_duration_window_us",
        "omq_cache_hits_total{cache=\"verdict\"}",
        "omq_cache_entries{cache=\"rewrite\"}",
        "omq_coalesced_total",
        "omq_verdict_computations_total",
        "omq_store_ops_total{op=\"assert\"} 1",
        "omq_store_ops_total{op=\"retract\"} 1",
        "omq_store_maintenance_total{kind=\"incremental_resume\"}",
        "omq_store_facts_total{dir=\"asserted\"} 2",
        "omq_request_duration_us_count{op=\"serve.retract\"} 1",
        "omq_flight_offered_total",
        "omq_hom_events_total{kind=\"homs_found\"}",
        "omq_registered 2",
        "omq_shed_slo_burn_ratio",
    ] {
        assert!(text.contains(series), "missing {series} in:\n{text}");
    }
}

/// Timing-free view of an exposition: every line whose value is a wall
/// time (`_us` histograms and window quantiles), a clock (uptime), a
/// tail-retention artifact (flight rings fill by wall time), or a
/// process-global accumulator (hom counters see other tests in this
/// process) is dropped. Everything else counts actual work and must be
/// byte-identical across identical runs.
fn stable_lines(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| {
            !(l.contains("_us")
                || l.contains("omq_uptime_seconds")
                || l.contains("omq_flight_")
                || l.contains("omq_hom_"))
        })
        .collect()
}

#[test]
fn metrics_exposition_is_deterministic_modulo_timing() {
    let cfg = EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    };
    let first = {
        let engine = Engine::new(cfg.clone());
        let _ = run(&engine, WORK);
        exposition_of(&engine)
    };
    let second = {
        let engine = Engine::new(cfg);
        let _ = run(&engine, WORK);
        exposition_of(&engine)
    };
    assert_eq!(
        stable_lines(&first),
        stable_lines(&second),
        "counter-valued scrape lines must not vary across identical runs"
    );
}

#[test]
fn sharded_scrape_folds_every_shard_and_counts_occupancy() {
    let expected: BTreeMap<String, u64> = [
        ("serve.assert", 1),
        ("serve.contains", 2),
        ("serve.evaluate", 1),
        ("serve.register", 2),
        ("serve.retract", 1),
    ]
    .into_iter()
    .map(|(op, n)| (op.to_owned(), n))
    .collect();
    for shards in [1, 3] {
        let sharded = ShardedEngine::new(EngineConfig::default(), shards, 0);
        let _ = run(&sharded, WORK);
        // A broadcast register is one request, however many replicas
        // apply it.
        assert_eq!(
            assert_one_latency_record(&sharded),
            expected,
            "{shards} shards"
        );
    }
    let sharded = ShardedEngine::new(EngineConfig::default(), 3, 0);
    let _ = run(&sharded, WORK);
    let text = exposition_of(&sharded);
    assert!(
        text.contains("omq_requests_total{op=\"serve.register\"} 2"),
        "{text}"
    );
    // Per-shard registry replicas must not multiply the size gauges.
    assert!(text.contains("omq_registered 2"), "{text}");
    // Reactor occupancy appears per shard.
    for shard in ["0", "1", "2"] {
        assert!(
            text.contains(&format!("omq_shard_requests_total{{shard=\"{shard}\"}}")),
            "missing shard {shard} in:\n{text}"
        );
    }
    // Contains totals fold across shards into one series.
    assert!(
        text.contains("omq_requests_total{op=\"serve.contains\"} 2"),
        "{text}"
    );
    assert_eq!(
        text.matches("omq_requests_total{op=\"serve.contains\"}")
            .count(),
        1,
        "per-shard series must merge, not repeat: {text}"
    );
}

#[test]
fn retract_runs_reach_the_scrape() {
    let engine = Engine::new(EngineConfig::default());
    let _ = run(
        &engine,
        &[
            WORK[0],
            r#"{"id":2,"op":"assert","name":"a","facts":["P(c1)","P(c2)","P(c3)"]}"#,
            r#"{"id":3,"op":"evaluate","name":"a"}"#,
            r#"{"id":4,"op":"retract","name":"a","facts":["P(c1)"]}"#,
            r#"{"id":5,"op":"retract","name":"a","facts":["P(c2)"]}"#,
            r#"{"id":6,"op":"retract","name":"a","facts":["P(c3)"]}"#,
        ],
    );
    let stats = run(&engine, &[r#"{"id":7,"op":"stats"}"#]);
    let store = omq_serve::json::parse(&stats[0]).unwrap();
    let store = store.get("store").unwrap();
    // The three retracts ran as one batched cone pass ...
    assert_eq!(store.get("cone_batches").and_then(Json::as_u64), Some(1));
    assert_eq!(store.get("cone_reuses").and_then(Json::as_u64), Some(2));
    // ... and each is still recorded as its own request.
    let scraped = assert_one_latency_record(&engine);
    assert_eq!(scraped.get("serve.retract"), Some(&3));
    let text = exposition_of(&engine);
    assert!(
        text.contains("omq_requests_total{op=\"serve.retract\"} 3"),
        "{text}"
    );
}

#[test]
fn trace_dump_retains_timed_out_and_shed_requests() {
    let sharded = ShardedEngine::new(EngineConfig::default(), 1, 0);
    let _ = run(
        &sharded,
        &[
            WORK[0],
            r#"{"id":10,"op":"contains","lhs":"a","rhs":"a","deadline_ms":0}"#,
        ],
    );
    // Shedding happens at the reactor's admission gate, before the
    // executor; replicate exactly what worker_loop does on a saturated
    // queue so the dump shows the turned-away request too.
    sharded.runtime().record_shed_request(777, "serve.contains");
    let out = run(&sharded, &[r#"{"id":11,"op":"trace_dump"}"#]);
    let parsed = omq_serve::json::parse(&out[0]).unwrap();
    assert!(parsed.get("slow_threshold_us").is_some());
    let retained = parsed
        .get("retained")
        .and_then(Json::as_array)
        .expect("retained ring");
    let reason_of = |e: &Json| e.get("reason").and_then(Json::as_str).map(str::to_owned);
    let reasons: Vec<_> = retained.iter().filter_map(&reason_of).collect();
    assert!(
        reasons.iter().any(|r| r == "timeout"),
        "no timeout entry in {reasons:?}"
    );
    assert!(
        reasons.iter().any(|r| r == "shed"),
        "no shed entry in {reasons:?}"
    );
    let shed = retained
        .iter()
        .find(|e| reason_of(e).as_deref() == Some("shed"))
        .unwrap();
    assert_eq!(
        shed.get("trace_id").and_then(Json::as_u64),
        Some(777),
        "shed entries carry the request's trace id"
    );
    let timeout = retained
        .iter()
        .find(|e| reason_of(e).as_deref() == Some("timeout"))
        .unwrap();
    let spans = timeout.get("spans").and_then(Json::as_array).unwrap();
    assert!(!spans.is_empty(), "timed-out entry keeps its span tree");
    assert_eq!(
        spans[0].get("name").and_then(Json::as_str),
        Some("serve.contains")
    );
}

#[test]
fn trace_ids_surface_only_under_trace_true() {
    let engine = Engine::new(EngineConfig::default());
    let _ = run(&engine, &[WORK[0]]);
    let plain = run(
        &engine,
        &[r#"{"id":1,"op":"contains","lhs":"a","rhs":"a"}"#],
    );
    assert!(
        !plain[0].contains("trace_id"),
        "default responses must not carry trace ids: {}",
        plain[0]
    );
    // Byte-determinism: an identical untraced request answers identically
    // even though its trace id differs.
    let again = run(
        &engine,
        &[r#"{"id":1,"op":"contains","lhs":"a","rhs":"a"}"#],
    );
    assert_eq!(plain, again);
    let traced = run(
        &engine,
        &[r#"{"id":2,"op":"contains","lhs":"a","rhs":"a","trace":true}"#],
    );
    let parsed = omq_serve::json::parse(&traced[0]).unwrap();
    let id = parsed
        .get("trace")
        .and_then(|t| t.get("trace_id"))
        .and_then(Json::as_u64)
        .expect("traced responses carry the trace id");
    assert!(id > 0);
}

#[test]
fn exporter_answers_http_scrapes() {
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let _ = run(&*engine, WORK);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let _exporter = omq_serve::spawn_metrics_exporter(Arc::clone(&engine), listener);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
    assert!(
        response.contains(omq_obs::metrics::PROMETHEUS_CONTENT_TYPE),
        "{response}"
    );
    assert!(
        response.contains("omq_requests_total{op=\"serve.contains\"} 2"),
        "{response}"
    );
}

#[test]
fn runtime_shed_accounting_reaches_the_scrape() {
    let sharded = ShardedEngine::new(EngineConfig::default(), 1, 0);
    let runtime: Arc<RuntimeStats> = sharded.runtime();
    runtime.record_shed_request(1, "serve.contains");
    runtime.record_shed_request(2, "serve.evaluate");
    let text = exposition_of(&sharded);
    assert!(text.contains("omq_requests_shed_total 2"), "{text}");
    assert!(text.contains("omq_reactor_shed_total 2"), "{text}");
}
