//! Pins the `stats` response and the scrape series after a fixed batch.
//!
//! The batch runs on one worker thread, so every counter it produces is
//! deterministic. The hom-kernel block is process-global, which is why this
//! file holds a single test: a second test in the same process would add
//! its own kernel work to the pinned numbers.

use std::sync::Arc;

use omq_serve::json::{self, Json};
use omq_serve::{parse_request, response_to_json, Engine, EngineConfig, RuntimeStats};

const BATCH: &[&str] = &[
    r#"{"id":1,"op":"register","name":"a","program":"P(X) -> R(X)\nq(X) :- R(X)","schema":["P"],"query":"q"}"#,
    r#"{"id":2,"op":"register","name":"b","program":"q(X) :- P(X)","schema":["P"],"query":"q"}"#,
    r#"{"id":3,"op":"register","name":"a2","program":"P(Y) -> R(Y)\nq(Y) :- R(Y)","schema":["P"],"query":"q"}"#,
    r#"{"id":4,"op":"register","name":"g","program":"G(X,Y,Z), E(X,Y) -> exists W . G(Y,Z,W), E(Y,Z)\nq :- E(X,Y), E(Y,Z)","schema":["G","E"],"query":"q"}"#,
    r#"{"id":5,"op":"register","name":"g2","program":"q :- E(X,Y)","schema":["G","E"],"query":"q"}"#,
    r#"{"id":6,"op":"contains","lhs":"a","rhs":"b"}"#,
    r#"{"id":7,"op":"contains","lhs":"a","rhs":"b"}"#,
    r#"{"id":8,"op":"contains","lhs":"a2","rhs":"b"}"#,
    r#"{"id":9,"op":"contains","lhs":"g","rhs":"g2"}"#,
    r#"{"id":10,"op":"contains","lhs":"g","rhs":"g"}"#,
    r#"{"id":11,"op":"equivalent","lhs":"a","rhs":"b"}"#,
    r#"{"id":12,"op":"assert","name":"a","facts":["P(c1)","P(c2)"]}"#,
    r#"{"id":13,"op":"evaluate","name":"a"}"#,
    r#"{"id":14,"op":"retract","name":"a","facts":["P(c1)"]}"#,
    r#"{"id":15,"op":"snapshot","name":"a"}"#,
    r#"{"id":16,"op":"stats"}"#,
];

fn run(engine: &Engine, lines: &[&str]) -> Vec<String> {
    let items: Vec<_> = lines.iter().map(|l| parse_request(l)).collect();
    engine
        .execute_batch(&items)
        .iter()
        .map(|r| response_to_json(r).to_string())
        .collect()
}

/// Replaces every wall-clock-valued field with `null`.
fn mask_timing(v: &mut Json) {
    match v {
        Json::Obj(fields) => {
            for (k, x) in fields {
                if matches!(
                    k.as_str(),
                    "p50_us" | "p99_us" | "total_us" | "uptime_s" | "sketch_build_us"
                ) {
                    *x = Json::Null;
                } else {
                    mask_timing(x);
                }
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(mask_timing),
        _ => {}
    }
}

/// Scrape lines with wall-clock-valued samples reduced to `series *`.
fn masked_scrape(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| !l.contains("_bucket{"))
        .map(|l| {
            let timing = !l.starts_with('#')
                && (l.contains("_sum{")
                    || l.starts_with("omq_request_duration_window_us")
                    || l.starts_with("omq_uptime_seconds")
                    || l.starts_with("omq_flight_retained_total")
                    || l.starts_with("omq_flight_ring_entries"));
            match l.rsplit_once(' ') {
                Some((series, _)) if timing => format!("{series} *"),
                _ => l.to_owned(),
            }
        })
        .collect()
}

/// The `stats` response as the hand-written renderers produced it before
/// the counter table replaced them: keys, key order and every non-timing
/// value must stay as they were.
const EXPECTED_STATS: &str = r#"{"id":16,"ok":true,"registered":5,"distinct_keys":4,"latency":{"serve.assert":{"count":1,"p50_us":null,"p99_us":null,"total_us":null},"serve.contains":{"count":5,"p50_us":null,"p99_us":null,"total_us":null},"serve.equivalent":{"count":1,"p50_us":null,"p99_us":null,"total_us":null},"serve.evaluate":{"count":1,"p50_us":null,"p99_us":null,"total_us":null},"serve.register":{"count":5,"p50_us":null,"p99_us":null,"total_us":null},"serve.retract":{"count":1,"p50_us":null,"p99_us":null,"total_us":null},"serve.snapshot":{"count":1,"p50_us":null,"p99_us":null,"total_us":null}},"rewrite_cache":{"hits":4,"alias_hits":0,"misses":11,"insertions":3,"evictions":0,"entries":3},"verdict_cache":{"hits":2,"alias_hits":1,"misses":4,"insertions":2,"evictions":0,"entries":2},"encoding_cache":{"hits":1,"alias_hits":0,"misses":1,"insertions":1,"evictions":0,"entries":1},"encoding_cache_hits":1,"store":{"stores":1,"asserts":1,"retracts":1,"facts_asserted":2,"facts_retracted":1,"snapshots":1,"compactions":0,"novelty_size":3,"dred_deleted":2,"rederived":0,"incremental_resumes":0,"full_rechases":1,"cone_batches":1,"cone_reuses":0},"threads":1,"cache_capacity":256,"hom_kernel":{"candidates_scanned":48062,"backtracks":862,"homs_found":20645,"plans_compiled":3080,"plan_cache_hits":6380,"prefilter_rejects":0,"plans_reoptimized":0,"est_ratio_le_1":7603,"est_ratio_le_4":0,"est_ratio_gt_4":0,"sketch_build_us":null},"coalesced_hits":0,"coalescing":{"hits":0,"computations":4},"reactor":{"uptime_s":null,"connections":{"live":0,"peak":0,"accepted":0},"batches":0,"requests":0,"shed":0,"queue_depth":0,"watermark":0,"too_large":0}}"#;

/// Every scrape line those renderers produced (bucket lines, whose set
/// depends on timing, left out). Series may be added, none may change.
const EXPECTED_SCRAPE: &[&str] = &[
    r#"# HELP omq_admission_queue_depth Requests admitted but not yet finished."#,
    r#"# TYPE omq_admission_queue_depth gauge"#,
    r#"omq_admission_queue_depth 0"#,
    r#"# HELP omq_admission_watermark Queue-depth shedding watermark (0 = shedding off)."#,
    r#"# TYPE omq_admission_watermark gauge"#,
    r#"omq_admission_watermark 0"#,
    r#"# HELP omq_batches_total Request batches entering workers."#,
    r#"# TYPE omq_batches_total counter"#,
    r#"omq_batches_total 0"#,
    r#"# HELP omq_cache_entries Live cache entries, by cache tier."#,
    r#"# TYPE omq_cache_entries gauge"#,
    r#"omq_cache_entries{cache="encoding"} 1"#,
    r#"omq_cache_entries{cache="rewrite"} 3"#,
    r#"omq_cache_entries{cache="verdict"} 2"#,
    r#"# HELP omq_cache_evictions_total Cache evictions, by cache tier."#,
    r#"# TYPE omq_cache_evictions_total counter"#,
    r#"omq_cache_evictions_total{cache="encoding"} 0"#,
    r#"omq_cache_evictions_total{cache="rewrite"} 0"#,
    r#"omq_cache_evictions_total{cache="verdict"} 0"#,
    r#"# HELP omq_cache_hits_total Cache hits, by cache tier."#,
    r#"# TYPE omq_cache_hits_total counter"#,
    r#"omq_cache_hits_total{cache="encoding"} 1"#,
    r#"omq_cache_hits_total{cache="rewrite"} 4"#,
    r#"omq_cache_hits_total{cache="verdict"} 2"#,
    r#"# HELP omq_cache_insertions_total Cache insertions, by cache tier."#,
    r#"# TYPE omq_cache_insertions_total counter"#,
    r#"omq_cache_insertions_total{cache="encoding"} 1"#,
    r#"omq_cache_insertions_total{cache="rewrite"} 3"#,
    r#"omq_cache_insertions_total{cache="verdict"} 2"#,
    r#"# HELP omq_cache_misses_total Cache misses, by cache tier."#,
    r#"# TYPE omq_cache_misses_total counter"#,
    r#"omq_cache_misses_total{cache="encoding"} 1"#,
    r#"omq_cache_misses_total{cache="rewrite"} 11"#,
    r#"omq_cache_misses_total{cache="verdict"} 4"#,
    r#"# HELP omq_coalesced_total Requests answered by joining an in-flight computation."#,
    r#"# TYPE omq_coalesced_total counter"#,
    r#"omq_coalesced_total 0"#,
    r#"# HELP omq_connections_accepted_total Accepted client connections."#,
    r#"# TYPE omq_connections_accepted_total counter"#,
    r#"omq_connections_accepted_total 0"#,
    r#"# HELP omq_connections_live Currently open client connections."#,
    r#"# TYPE omq_connections_live gauge"#,
    r#"omq_connections_live 0"#,
    r#"# HELP omq_connections_peak High-water mark of concurrently open connections."#,
    r#"# TYPE omq_connections_peak gauge"#,
    r#"omq_connections_peak 0"#,
    r#"# HELP omq_flight_offered_total Request trees offered to the flight recorder."#,
    r#"# TYPE omq_flight_offered_total counter"#,
    r#"omq_flight_offered_total 16"#,
    r#"# HELP omq_flight_retained_total Request trees retained by tail-based sampling (shed/timeout/slow)."#,
    r#"# TYPE omq_flight_retained_total counter"#,
    r#"omq_flight_retained_total *"#,
    r#"# HELP omq_flight_ring_entries Current flight-recorder ring occupancy."#,
    r#"# TYPE omq_flight_ring_entries gauge"#,
    r#"omq_flight_ring_entries{ring="recent"} *"#,
    r#"omq_flight_ring_entries{ring="retained"} *"#,
    r#"# HELP omq_hom_events_total Homomorphism-kernel events (process-global), by kind."#,
    r#"# TYPE omq_hom_events_total counter"#,
    r#"omq_hom_events_total{kind="backtracks"} 862"#,
    r#"omq_hom_events_total{kind="candidates_scanned"} 48062"#,
    r#"omq_hom_events_total{kind="homs_found"} 20645"#,
    r#"omq_hom_events_total{kind="plan_cache_hits"} 6380"#,
    r#"omq_hom_events_total{kind="plans_compiled"} 3080"#,
    r#"omq_hom_events_total{kind="plans_reoptimized"} 0"#,
    r#"omq_hom_events_total{kind="prefilter_rejects"} 0"#,
    r#"# HELP omq_metric_series_dropped_total Op series collapsed into "other" by the label bound."#,
    r#"# TYPE omq_metric_series_dropped_total counter"#,
    r#"omq_metric_series_dropped_total 0"#,
    r#"# HELP omq_reactor_requests_total Requests entering workers (pre-admission)."#,
    r#"# TYPE omq_reactor_requests_total counter"#,
    r#"omq_reactor_requests_total 0"#,
    r#"# HELP omq_reactor_shed_total Requests answered with a structured shed error."#,
    r#"# TYPE omq_reactor_shed_total counter"#,
    r#"omq_reactor_shed_total 0"#,
    r#"# HELP omq_reactor_too_large_total Connections refused for buffering too many bytes without a complete batch."#,
    r#"# TYPE omq_reactor_too_large_total counter"#,
    r#"omq_reactor_too_large_total 0"#,
    r#"# HELP omq_registered Registered OMQ names."#,
    r#"# TYPE omq_registered gauge"#,
    r#"omq_registered 5"#,
    r#"# HELP omq_registry_distinct_keys Distinct canonical OMQ keys."#,
    r#"# TYPE omq_registry_distinct_keys gauge"#,
    r#"omq_registry_distinct_keys 4"#,
    r#"# HELP omq_request_duration_us Request wall time in microseconds, log-bucketed."#,
    r#"# TYPE omq_request_duration_us histogram"#,
    r#"omq_request_duration_us_sum{op="serve.assert"} *"#,
    r#"omq_request_duration_us_count{op="serve.assert"} 1"#,
    r#"omq_request_duration_us_sum{op="serve.contains"} *"#,
    r#"omq_request_duration_us_count{op="serve.contains"} 5"#,
    r#"omq_request_duration_us_sum{op="serve.equivalent"} *"#,
    r#"omq_request_duration_us_count{op="serve.equivalent"} 1"#,
    r#"omq_request_duration_us_sum{op="serve.evaluate"} *"#,
    r#"omq_request_duration_us_count{op="serve.evaluate"} 1"#,
    r#"omq_request_duration_us_sum{op="serve.register"} *"#,
    r#"omq_request_duration_us_count{op="serve.register"} 5"#,
    r#"omq_request_duration_us_sum{op="serve.retract"} *"#,
    r#"omq_request_duration_us_count{op="serve.retract"} 1"#,
    r#"omq_request_duration_us_sum{op="serve.snapshot"} *"#,
    r#"omq_request_duration_us_count{op="serve.snapshot"} 1"#,
    r#"omq_request_duration_us_sum{op="serve.stats"} *"#,
    r#"omq_request_duration_us_count{op="serve.stats"} 1"#,
    r#"# HELP omq_request_duration_window_us Rolling-window request latency quantiles (us)."#,
    r#"# TYPE omq_request_duration_window_us gauge"#,
    r#"omq_request_duration_window_us{op="serve.assert",quantile="0.5"} *"#,
    r#"omq_request_duration_window_us{op="serve.assert",quantile="0.99"} *"#,
    r#"omq_request_duration_window_us{op="serve.contains",quantile="0.5"} *"#,
    r#"omq_request_duration_window_us{op="serve.contains",quantile="0.99"} *"#,
    r#"omq_request_duration_window_us{op="serve.equivalent",quantile="0.5"} *"#,
    r#"omq_request_duration_window_us{op="serve.equivalent",quantile="0.99"} *"#,
    r#"omq_request_duration_window_us{op="serve.evaluate",quantile="0.5"} *"#,
    r#"omq_request_duration_window_us{op="serve.evaluate",quantile="0.99"} *"#,
    r#"omq_request_duration_window_us{op="serve.register",quantile="0.5"} *"#,
    r#"omq_request_duration_window_us{op="serve.register",quantile="0.99"} *"#,
    r#"omq_request_duration_window_us{op="serve.retract",quantile="0.5"} *"#,
    r#"omq_request_duration_window_us{op="serve.retract",quantile="0.99"} *"#,
    r#"omq_request_duration_window_us{op="serve.snapshot",quantile="0.5"} *"#,
    r#"omq_request_duration_window_us{op="serve.snapshot",quantile="0.99"} *"#,
    r#"omq_request_duration_window_us{op="serve.stats",quantile="0.5"} *"#,
    r#"omq_request_duration_window_us{op="serve.stats",quantile="0.99"} *"#,
    r#"# HELP omq_requests_shed_total Requests refused by admission control before execution."#,
    r#"# TYPE omq_requests_shed_total counter"#,
    r#"omq_requests_shed_total 0"#,
    r#"# HELP omq_requests_total Requests executed by the engine, by op family."#,
    r#"# TYPE omq_requests_total counter"#,
    r#"omq_requests_total{op="serve.assert"} 1"#,
    r#"omq_requests_total{op="serve.contains"} 5"#,
    r#"omq_requests_total{op="serve.equivalent"} 1"#,
    r#"omq_requests_total{op="serve.evaluate"} 1"#,
    r#"omq_requests_total{op="serve.register"} 5"#,
    r#"omq_requests_total{op="serve.retract"} 1"#,
    r#"omq_requests_total{op="serve.snapshot"} 1"#,
    r#"omq_requests_total{op="serve.stats"} 1"#,
    r#"# HELP omq_shed_slo_burn_ratio Rolling-window fraction of offered requests that were shed."#,
    r#"# TYPE omq_shed_slo_burn_ratio gauge"#,
    r#"omq_shed_slo_burn_ratio 0"#,
    r#"# HELP omq_store_facts_total Base facts asserted/retracted across stores."#,
    r#"# TYPE omq_store_facts_total counter"#,
    r#"omq_store_facts_total{dir="asserted"} 2"#,
    r#"omq_store_facts_total{dir="retracted"} 1"#,
    r#"# HELP omq_store_maintenance_total Incremental chase-maintenance events, by kind."#,
    r#"# TYPE omq_store_maintenance_total counter"#,
    r#"omq_store_maintenance_total{kind="cone_batch"} 1"#,
    r#"omq_store_maintenance_total{kind="cone_reuse"} 0"#,
    r#"omq_store_maintenance_total{kind="dred_deleted"} 2"#,
    r#"omq_store_maintenance_total{kind="full_rechase"} 1"#,
    r#"omq_store_maintenance_total{kind="incremental_resume"} 0"#,
    r#"omq_store_maintenance_total{kind="rederived"} 0"#,
    r#"# HELP omq_store_novelty_rows Uncompacted novelty-overlay rows across stores."#,
    r#"# TYPE omq_store_novelty_rows gauge"#,
    r#"omq_store_novelty_rows 3"#,
    r#"# HELP omq_store_ops_total Versioned-store operations, by kind."#,
    r#"# TYPE omq_store_ops_total counter"#,
    r#"omq_store_ops_total{op="assert"} 1"#,
    r#"omq_store_ops_total{op="compact"} 0"#,
    r#"omq_store_ops_total{op="retract"} 1"#,
    r#"omq_store_ops_total{op="snapshot"} 1"#,
    r#"# HELP omq_stores Named versioned stores."#,
    r#"# TYPE omq_stores gauge"#,
    r#"omq_stores 1"#,
    r#"# HELP omq_timeout_slo_burn_ratio Rolling-window fraction of executed requests that timed out."#,
    r#"# TYPE omq_timeout_slo_burn_ratio gauge"#,
    r#"omq_timeout_slo_burn_ratio 0"#,
    r#"# HELP omq_uptime_seconds Seconds since the metrics registry was created."#,
    r#"# TYPE omq_uptime_seconds gauge"#,
    r#"omq_uptime_seconds *"#,
    r#"# HELP omq_verdict_computations_total Underlying solver invocations for contains/equivalent."#,
    r#"# TYPE omq_verdict_computations_total counter"#,
    r#"omq_verdict_computations_total 4"#,
];

#[test]
fn stats_and_scrape_keep_their_shape() {
    let mut engine = Engine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    engine.set_runtime_stats(Arc::new(RuntimeStats::new(0)));
    let out = run(&engine, BATCH);
    let mut stats = json::parse(out.last().unwrap()).unwrap();
    mask_timing(&mut stats);
    let stats = stats.to_string();
    let scrape = run(&engine, &[r#"{"id":17,"op":"metrics"}"#]);
    let scrape = json::parse(&scrape[0]).unwrap();
    let scrape = masked_scrape(scrape.get("exposition").and_then(Json::as_str).unwrap());
    assert_eq!(stats, EXPECTED_STATS);
    for line in EXPECTED_SCRAPE {
        assert!(scrape.iter().any(|l| l == line), "missing {line}");
    }
}
