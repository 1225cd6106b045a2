//! The serve tier's counter table: one declaration per counter, gauge and
//! latency histogram, from which both the `stats` op and the Prometheus
//! scrape are rendered.
//!
//! A [`Stat`] gives the places its value takes in the `stats` object (JSON
//! Pointers), its scrape series (name and labels), its help text, and its
//! value, whose variant is its kind. [`table`] reads the engine into that
//! table once, and each series appears in it once, so `stats` and the
//! scrape agree on every entry. The series that only the scrape carries
//! (request totals, rolling windows, SLO burn, the flight recorder) are
//! rendered by their owners in `omq_obs`.

use std::sync::atomic::Ordering::Relaxed;

use omq_chase::effective_threads;
use omq_obs::metrics::{histogram_quantile_us, render_prometheus, Sample, Value};

use crate::engine::Engine;
use crate::json::Json;
use crate::protocol::Op;

/// One entry of the counter table.
#[derive(Clone, Debug)]
pub struct Stat {
    /// Where the value sits in the `stats` object, as JSON Pointers
    /// (RFC 6901), in key order. Most entries have one; a headline
    /// number has a second one at the top level.
    pub pointers: Vec<String>,
    pub name: &'static str,
    pub labels: Vec<(&'static str, String)>,
    pub help: &'static str,
    pub value: Value,
}

impl Stat {
    /// The value as the `stats` object shows it.
    fn json(&self) -> Json {
        match &self.value {
            Value::Counter(v) => Json::num(*v as usize),
            Value::Gauge(v) => Json::num(*v as usize),
            Value::Histogram {
                buckets,
                count,
                sum_us,
            } => {
                let quantile = |p| Json::num(histogram_quantile_us(buckets, *count, p) as usize);
                Json::obj([
                    ("count", Json::num(*count as usize)),
                    ("p50_us", quantile(0.50)),
                    ("p99_us", quantile(0.99)),
                    ("total_us", Json::num(*sum_us as usize)),
                ])
            }
        }
    }
}

#[derive(Default)]
struct Table(Vec<Stat>);

impl Table {
    /// Declares one entry.
    fn add(
        &mut self,
        pointer: String,
        name: &'static str,
        labels: &[(&'static str, &str)],
        help: &'static str,
        value: Value,
    ) {
        self.0.push(Stat {
            pointers: vec![pointer],
            name,
            labels: labels.iter().map(|&(k, v)| (k, v.to_owned())).collect(),
            help,
            value,
        });
    }

    /// Shows the entry at `pointer` at a further place in `stats` too.
    fn also(&mut self, pointer: &str, copy: &str) {
        if let Some(stat) = self.0.iter_mut().find(|s| s.pointers[0] == pointer) {
            stat.pointers.push(copy.to_owned());
        }
    }

    fn counter(
        &mut self,
        pointer: impl Into<String>,
        name: &'static str,
        labels: &[(&'static str, &str)],
        help: &'static str,
        v: u64,
    ) {
        self.add(pointer.into(), name, labels, help, Value::Counter(v));
    }

    fn gauge(
        &mut self,
        pointer: impl Into<String>,
        name: &'static str,
        labels: &[(&'static str, &str)],
        help: &'static str,
        v: u64,
    ) {
        self.add(pointer.into(), name, labels, help, Value::Gauge(v as f64));
    }
}

/// The engine's counter table. Entry order is the key order of the
/// `stats` object. One line declares one entry: pointer, series name and
/// labels, help text, value.
#[rustfmt::skip]
pub fn table(engine: &Engine) -> Vec<Stat> {
    let mut t = Table::default();
    {
        let reg = engine.registry.read().unwrap();
        t.gauge("/registered", "omq_registered", &[], "Registered OMQ names.", reg.len() as u64);
        t.gauge("/distinct_keys", "omq_registry_distinct_keys", &[], "Distinct canonical OMQ keys.", reg.distinct_keys() as u64);
    }
    // Wall clock of the whole request, cache hits included.
    for (op, h) in engine.metrics().op_latencies() {
        let value = Value::Histogram { buckets: h.buckets.to_vec(), count: h.count, sum_us: h.sum_ns / 1_000 };
        t.add(format!("/latency/{op}"), "omq_request_duration_us", &[("op", op)], "Request wall time in microseconds, log-bucketed.", value);
    }
    let (rw, vd, enc) = engine.cache_stats();
    for (tier, s) in [("rewrite", rw), ("verdict", vd), ("encoding", enc)] {
        let at = |field: &str| format!("/{tier}_cache/{field}");
        let cache = &[("cache", tier)];
        t.counter(at("hits"), "omq_cache_hits_total", cache, "Cache hits, by cache tier.", s.hits as u64);
        t.counter(at("alias_hits"), "omq_cache_alias_hits_total", cache, "Cache hits reached through an alias registration, by cache tier.", s.alias_hits as u64);
        t.counter(at("misses"), "omq_cache_misses_total", cache, "Cache misses, by cache tier.", s.misses as u64);
        t.counter(at("insertions"), "omq_cache_insertions_total", cache, "Cache insertions, by cache tier.", s.insertions as u64);
        t.counter(at("evictions"), "omq_cache_evictions_total", cache, "Cache evictions, by cache tier.", s.evictions as u64);
        t.gauge(at("entries"), "omq_cache_entries", cache, "Live cache entries, by cache tier.", s.entries as u64);
    }
    // The headline warm-path signal: dashboards and the CI gate key on it.
    t.also("/encoding_cache/hits", "/encoding_cache_hits");
    // Versioned-store mutation and fixpoint-maintenance counters, summed
    // over every named store (see `omq_store::StoreStats`).
    let (s, stores) = engine.store_stats();
    let ops = "Versioned-store operations, by kind.";
    let facts = "Base facts asserted/retracted across stores.";
    let upkeep = "Incremental chase-maintenance events, by kind.";
    t.gauge("/store/stores", "omq_stores", &[], "Named versioned stores.", stores as u64);
    t.counter("/store/asserts", "omq_store_ops_total", &[("op", "assert")], ops, s.asserts);
    t.counter("/store/retracts", "omq_store_ops_total", &[("op", "retract")], ops, s.retracts);
    t.counter("/store/facts_asserted", "omq_store_facts_total", &[("dir", "asserted")], facts, s.facts_asserted);
    t.counter("/store/facts_retracted", "omq_store_facts_total", &[("dir", "retracted")], facts, s.facts_retracted);
    t.counter("/store/snapshots", "omq_store_ops_total", &[("op", "snapshot")], ops, s.snapshots);
    t.counter("/store/compactions", "omq_store_ops_total", &[("op", "compact")], ops, s.compactions);
    t.gauge("/store/novelty_size", "omq_store_novelty_rows", &[], "Uncompacted novelty-overlay rows across stores.", s.novelty_size);
    t.counter("/store/dred_deleted", "omq_store_maintenance_total", &[("kind", "dred_deleted")], upkeep, s.dred_deleted);
    t.counter("/store/rederived", "omq_store_maintenance_total", &[("kind", "rederived")], upkeep, s.rederived);
    t.counter("/store/incremental_resumes", "omq_store_maintenance_total", &[("kind", "incremental_resume")], upkeep, s.incremental_resumes);
    t.counter("/store/full_rechases", "omq_store_maintenance_total", &[("kind", "full_rechase")], upkeep, s.full_rechases);
    t.counter("/store/cone_batches", "omq_store_maintenance_total", &[("kind", "cone_batch")], upkeep, s.cone_batches);
    t.counter("/store/cone_reuses", "omq_store_maintenance_total", &[("kind", "cone_reuse")], upkeep, s.cone_reuses);
    let threads = effective_threads(engine.cfg.threads, usize::MAX) as u64;
    t.gauge("/threads", "omq_threads", &[], "Worker threads for in-batch fan-out.", threads);
    t.gauge("/cache_capacity", "omq_cache_capacity", &[], "Capacity of each in-memory cache tier.", engine.cfg.cache_capacity as u64);
    // Process-global homomorphism-kernel counters: monotone over the
    // process lifetime, so they cover every request of every engine.
    let h = omq_chase::global_hom_snapshot();
    for (kind, v) in h.counts() {
        t.counter(format!("/hom_kernel/{kind}"), "omq_hom_events_total", &[("kind", kind)], "Homomorphism-kernel events (process-global), by kind.", v);
    }
    t.counter("/hom_kernel/sketch_build_us", "omq_hom_sketch_build_us_total", &[], "Microseconds spent building cardinality sketches (process-global).", h.sketch_build_ns / 1_000);
    // In-flight request coalescing: followers answered without a solver
    // run, against the computations that did run. The flat
    // `coalesced_hits` is the headline number CI gates on.
    let (hits, computations) = engine.coalescing_stats();
    t.counter("/coalesced_hits", "omq_coalesced_total", &[], "Requests answered by joining an in-flight computation.", hits);
    t.counter("/coalescing/computations", "omq_verdict_computations_total", &[], "Underlying solver invocations for contains/equivalent.", computations);
    t.also("/coalesced_hits", "/coalescing/hits");
    if let Some(d) = engine.disk_stats() {
        let events = "Persisted artifact tier events.";
        t.counter("/artifact_disk/hits", "omq_artifact_disk_total", &[("event", "hit")], events, d.hits);
        t.counter("/artifact_disk/misses", "omq_artifact_disk_total", &[("event", "miss")], events, d.misses);
        t.counter("/artifact_disk/stores", "omq_artifact_disk_total", &[("event", "store")], events, d.stores);
        t.counter("/artifact_disk/errors", "omq_artifact_disk_total", &[("event", "error")], events, d.errors);
    }
    if let Some(rt) = &engine.runtime {
        t.gauge("/reactor/uptime_s", "omq_reactor_uptime_seconds", &[], "Seconds since the serve front end started.", rt.started.elapsed().as_secs());
        t.gauge("/reactor/connections/live", "omq_connections_live", &[], "Currently open client connections.", rt.connections_live.load(Relaxed) as u64);
        t.gauge("/reactor/connections/peak", "omq_connections_peak", &[], "High-water mark of concurrently open connections.", rt.connections_peak.load(Relaxed) as u64);
        t.counter("/reactor/connections/accepted", "omq_connections_accepted_total", &[], "Accepted client connections.", rt.accepted.load(Relaxed));
        t.counter("/reactor/batches", "omq_batches_total", &[], "Request batches entering workers.", rt.batches.load(Relaxed));
        t.counter("/reactor/requests", "omq_reactor_requests_total", &[], "Requests entering workers (pre-admission).", rt.requests.load(Relaxed));
        t.counter("/reactor/shed", "omq_reactor_shed_total", &[], "Requests answered with a structured shed error.", rt.shed.load(Relaxed));
        t.gauge("/reactor/queue_depth", "omq_admission_queue_depth", &[], "Requests admitted but not yet finished.", rt.admission.depth() as u64);
        t.gauge("/reactor/watermark", "omq_admission_watermark", &[], "Queue-depth shedding watermark (0 = shedding off).", rt.admission.watermark() as u64);
        t.counter("/reactor/too_large", "omq_reactor_too_large_total", &[], "Connections refused for buffering too many bytes without a complete batch.", rt.too_large.load(Relaxed));
    }
    t.0
}

/// The `stats` op's fields: every table entry at each of its pointers.
fn stats_fields(engine: &Engine) -> Vec<(String, Json)> {
    let mut root = Json::Obj(Vec::new());
    for stat in table(engine) {
        for pointer in &stat.pointers {
            let path: Vec<&str> = pointer.split('/').skip(1).collect();
            insert(&mut root, &path, stat.json());
        }
    }
    let Json::Obj(mut fields) = root else {
        unreachable!("the root is an object")
    };
    // Before the first request finishes, the latency block is empty
    // rather than absent; it follows the two registry gauges.
    if !fields.iter().any(|(k, _)| k == "latency") {
        fields.insert(2, ("latency".to_owned(), Json::Obj(Vec::new())));
    }
    fields
}

/// Writes `value` at `path` below `node`, creating objects (or, for a
/// numeric next segment, arrays) on the way.
fn insert(node: &mut Json, path: &[&str], value: Json) {
    let Some((key, rest)) = path.split_first() else {
        *node = value;
        return;
    };
    let child = match node {
        Json::Arr(items) => {
            let i: usize = key.parse().expect("array pointers use indices");
            if i == items.len() {
                items.push(Json::Null);
            }
            &mut items[i]
        }
        Json::Obj(fields) => {
            let i = match fields.iter().position(|(k, _)| k == key) {
                Some(i) => i,
                None => {
                    fields.push(((*key).to_owned(), Json::Null));
                    fields.len() - 1
                }
            };
            &mut fields[i].1
        }
        _ => unreachable!("pointers only descend through containers"),
    };
    if let (Json::Null, Some(next)) = (&child, rest.first()) {
        *child = if next.parse::<usize>().is_ok() {
            Json::Arr(Vec::new())
        } else {
            Json::Obj(Vec::new())
        };
    }
    insert(child, rest, value);
}

/// The engine's Prometheus text exposition: its metrics registry's and
/// flight recorder's own series, plus every table entry.
pub fn metrics_text(engine: &Engine) -> String {
    let mut samples = engine.metrics().samples();
    samples.extend(engine.flight().samples());
    samples.extend(table(engine).into_iter().map(|s| Sample {
        name: s.name,
        help: s.help,
        labels: s.labels,
        value: s.value,
    }));
    render_prometheus(&samples)
}

/// The fields of a `stats` or `metrics` response.
pub(crate) fn op_fields(op: &Op, engine: &Engine) -> Vec<(String, Json)> {
    match op {
        Op::Metrics => vec![
            (
                "content_type".to_owned(),
                Json::str(omq_obs::metrics::PROMETHEUS_CONTENT_TYPE),
            ),
            ("exposition".to_owned(), Json::str(metrics_text(engine))),
        ],
        _ => stats_fields(engine),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::engine::EngineConfig;
    use crate::reactor::RuntimeStats;

    #[test]
    fn reactor_block_reaches_both_surfaces() {
        let mut engine = Engine::new(EngineConfig::default());
        let rt = Arc::new(RuntimeStats::new(16));
        engine.set_runtime_stats(Arc::clone(&rt));
        let keys: Vec<String> = stats_fields(&engine).into_iter().map(|(k, _)| k).collect();
        // Before any request has finished the latency block is empty, not
        // absent.
        assert_eq!(keys[..3], ["registered", "distinct_keys", "latency"]);
        rt.conn_opened();
        rt.record_batch(5);
        rt.record_shed();
        rt.record_too_large();
        let json = Json::Obj(stats_fields(&engine)).to_string();
        for field in [
            "\"uptime_s\":",
            "\"connections\":{\"live\":1,\"peak\":1,\"accepted\":1}",
            "\"batches\":1",
            "\"requests\":5",
            "\"shed\":1",
            "\"queue_depth\":0",
            "\"watermark\":16",
            "\"too_large\":1",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        rt.conn_closed();
        let json = Json::Obj(stats_fields(&engine)).to_string();
        assert!(json.contains("\"live\":0"), "{json}");
        let text = metrics_text(&engine);
        for series in [
            "omq_reactor_uptime_seconds ",
            "omq_connections_live 0",
            "omq_connections_peak 1",
            "omq_connections_accepted_total 1",
            "omq_batches_total 1",
            "omq_reactor_requests_total 5",
            "omq_reactor_shed_total 1",
            "omq_admission_queue_depth 0",
            "omq_admission_watermark 16",
            "omq_reactor_too_large_total 1",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
    }
}
