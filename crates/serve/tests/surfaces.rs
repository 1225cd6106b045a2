//! Surface parity of the counter table:
//!
//! * every table entry reads the same in the `stats` op (at each of its
//!   JSON Pointers) and in the scrape (under its name and labels);
//! * the `stats` cache and store blocks read the engine's own counters;
//! * every scrape series (name and labels) is produced once across the
//!   table, the metrics registry and the flight recorder, so the scrape
//!   never has to fold two values into one line.
//!
//! The hom-kernel entries are process-global, which is why this file holds
//! a single test: a second test in the same process could move them
//! between the `stats` and the `metrics` request.

use std::collections::{BTreeMap, BTreeSet};

use omq_obs::metrics::Value;
use omq_serve::json::{self, Json};
use omq_serve::{parse_request, response_to_json, stats, Engine, EngineConfig, RuntimeStats};

/// Registers (one an alias), a verdict miss, a verdict hit, an alias hit,
/// a guarded contains, and an assert and a retract on a store.
const WORK: &[&str] = &[
    r#"{"id":1,"op":"register","name":"a","program":"P(X) -> R(X)\nq(X) :- R(X)","schema":["P"],"query":"q"}"#,
    r#"{"id":2,"op":"register","name":"b","program":"q(X) :- P(X)","schema":["P"],"query":"q"}"#,
    r#"{"id":3,"op":"register","name":"a2","program":"P(Y) -> R(Y)\nq(Y) :- R(Y)","schema":["P"],"query":"q"}"#,
    r#"{"id":4,"op":"register","name":"g","program":"G(X,Y,Z), E(X,Y) -> exists W . G(Y,Z,W), E(Y,Z)\nq :- E(X,Y), E(Y,Z)","schema":["G","E"],"query":"q"}"#,
    r#"{"id":5,"op":"register","name":"h","program":"q :- E(X,X)","schema":["G","E"],"query":"q"}"#,
    r#"{"id":6,"op":"contains","lhs":"a","rhs":"b"}"#,
    r#"{"id":7,"op":"contains","lhs":"a","rhs":"b"}"#,
    r#"{"id":8,"op":"contains","lhs":"a2","rhs":"b"}"#,
    r#"{"id":9,"op":"contains","lhs":"b","rhs":"a"}"#,
    r#"{"id":10,"op":"contains","lhs":"g","rhs":"h"}"#,
    r#"{"id":11,"op":"assert","name":"a","facts":["P(c1)","P(c2)"]}"#,
    r#"{"id":12,"op":"retract","name":"a","facts":["P(c1)"]}"#,
    r#"{"id":13,"op":"assert","name":"b","facts":["P(c3)"]}"#,
];

const SURFACES: &[&str] = &[r#"{"id":20,"op":"stats"}"#, r#"{"id":21,"op":"metrics"}"#];

fn run(engine: &Engine, lines: &[&str]) -> Vec<Json> {
    let items: Vec<_> = lines.iter().map(|l| parse_request(l)).collect();
    engine
        .execute_batch(&items)
        .iter()
        .map(|r| json::parse(&response_to_json(r).to_string()).unwrap())
        .collect()
}

/// `series -> value` for every sample line of an exposition.
fn scrape_values(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (series, value) = l.rsplit_once(' ').unwrap();
            (series.to_owned(), value.parse().unwrap())
        })
        .collect()
}

fn series(name: &str, suffix: &str, labels: &[(&'static str, String)]) -> String {
    if labels.is_empty() {
        return format!("{name}{suffix}");
    }
    let labels: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{suffix}{{{}}}", labels.join(","))
}

fn at<'a>(root: &'a Json, pointer: &str) -> Option<&'a Json> {
    pointer
        .split('/')
        .skip(1)
        .try_fold(root, |node, key| match node {
            Json::Arr(items) => items.get(key.parse::<usize>().ok()?),
            _ => node.get(key),
        })
}

fn num(root: &Json, pointer: &str) -> f64 {
    at(root, pointer)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("stats has no number at {pointer}"))
}

fn assert_surfaces_agree(engine: &Engine) {
    let out = run(engine, SURFACES);
    let (stats, scrape) = (&out[0], &out[1]);
    let scrape = scrape_values(scrape.get("exposition").and_then(Json::as_str).unwrap());
    let table = stats::table(engine);
    for stat in &table {
        let scraped = |suffix: &str| {
            let key = series(stat.name, suffix, &stat.labels);
            *scrape
                .get(&key)
                .unwrap_or_else(|| panic!("scrape has no {key}"))
        };
        for pointer in &stat.pointers {
            let what = format!("{pointer} vs {}", stat.name);
            match &stat.value {
                Value::Histogram { .. } => {
                    let count = num(stats, &format!("{pointer}/count"));
                    if pointer.ends_with("/serve.stats") {
                        // Recorded once more before the scrape renders.
                        assert_eq!(count + 1.0, scraped("_count"), "{what}");
                    } else {
                        assert_eq!(count, scraped("_count"), "{what}");
                        let total = num(stats, &format!("{pointer}/total_us"));
                        assert_eq!(total, scraped("_sum"), "{what}");
                    }
                }
                _ if pointer == "/reactor/uptime_s" => {
                    let lag = scraped("") - num(stats, pointer);
                    assert!((0.0..=1.0).contains(&lag), "{what}: {lag}");
                }
                _ => assert_eq!(num(stats, pointer), scraped(""), "{what}"),
            }
        }
    }
    // The cache and store blocks read the engine's own counters.
    let (rw, vd, enc) = engine.cache_stats();
    for (tier, c) in [("rewrite", rw), ("verdict", vd), ("encoding", enc)] {
        let fields = [
            ("hits", c.hits),
            ("alias_hits", c.alias_hits),
            ("misses", c.misses),
            ("insertions", c.insertions),
            ("evictions", c.evictions),
            ("entries", c.entries),
        ];
        for (field, v) in fields {
            let pointer = format!("/{tier}_cache/{field}");
            assert_eq!(num(stats, &pointer), v as f64, "{pointer}");
        }
    }
    let (s, stores) = engine.store_stats();
    assert_eq!(num(stats, "/store/asserts"), s.asserts as f64);
    assert_eq!(num(stats, "/store/retracts"), s.retracts as f64);
    assert_eq!(num(stats, "/store/facts_asserted"), s.facts_asserted as f64);
    assert_eq!(num(stats, "/store/stores"), stores as f64);
    assert_eq!(
        (s.asserts, s.retracts, s.facts_asserted, stores),
        (2, 1, 3, 2)
    );
    assert_eq!(num(stats, "/registered"), 5.0);
}

/// Every `(name, labels)` pair the scrape renders is produced by exactly
/// one entry of the table, the metrics registry or the flight recorder.
fn assert_series_unique(engine: &Engine) {
    let table = stats::table(engine).into_iter().map(|s| (s.name, s.labels));
    let registry = engine.metrics().samples().into_iter();
    let flight = engine.flight().samples().into_iter();
    let mut seen = BTreeSet::new();
    for (name, labels) in table.chain(registry.chain(flight).map(|s| (s.name, s.labels))) {
        assert!(
            seen.insert((name, labels.clone())),
            "series {name}{labels:?} is produced twice"
        );
    }
}

#[test]
fn every_table_entry_reads_the_same_on_both_surfaces() {
    let dir = std::env::temp_dir().join(format!("omq-surfaces-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut engine = Engine::new(EngineConfig {
        cache_dir: Some(dir.clone()),
        ..EngineConfig::default()
    });
    // The reactor block is part of the table too.
    engine.set_runtime_stats(std::sync::Arc::new(RuntimeStats::new(0)));
    let out = run(&engine, WORK);
    assert!(
        out.iter().all(|r| r.get("ok") == Some(&Json::Bool(true))),
        "{out:?}"
    );
    // The first pair brings `serve.stats` and `serve.metrics` into the
    // latency block; the second is compared.
    let _ = run(&engine, SURFACES);
    assert_surfaces_agree(&engine);
    assert_series_unique(&engine);
    let _ = std::fs::remove_dir_all(&dir);
}
