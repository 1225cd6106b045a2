//! Incremental-maintenance benchmark for the `omq-store` layer.
//!
//! Writes `BENCH_store.json` (or the path given as the first argument):
//! the E14 transitive-closure family at chain=32, mutated by `k` single-fact
//! asserts (chain extensions) and a mid-chain retract, maintained two ways:
//!
//! * `store:assert incremental` — the [`MaintainedStore`] path: each assert
//!   resumes the semi-naive chase from the generation watermark, so only
//!   triggers touching the delta are enumerated;
//! * `store:assert rechase` — the naive comparator: after each assert the
//!   full database is re-chased from scratch (what a versionless engine
//!   must do). The timed region covers maintenance only; both sides end
//!   with the same untimed answer check.
//!
//! The headline figure is `speedup_incremental_over_rechase` on the summary
//! row (acceptance floor 5×; see scripts/ci.sh). The retract rows compare
//! DRed (over-delete + re-derive) against the same from-scratch comparator
//! and carry the `dred_deleted` / `rederived` counters; the compaction row
//! drives the novelty overlay past its threshold and reports
//! `novelty_size` / `compactions`. All counter columns are deterministic —
//! drift there is a semantics change, not noise (see scripts/bench_diff.py).
//!
//! Timings are best-of-three over a cloned prepared store (`wall_ms` is the
//! best run, with the min/max spread for noise detection); phase columns
//! come from one extra instrumented pass, per the *time untraced, then
//! trace once* protocol of `omq_bench::obsjson`.

use std::sync::Arc;
use std::time::Instant;

use omq_bench::obsjson::{counter_fields, instrumented_pass, phase_fields};
use omq_bench::workloads::{chain_edge, tc_workload};
use omq_chase::{chase, eval_ucq, ChaseConfig, Guarantee};
use omq_model::{Atom, Instance, Vocabulary};
use omq_obs::{Aggregator, Sink};
use omq_store::{MaintainedStore, StoreConfig, StoreStats};

const CHAIN: usize = 32;
const K: usize = 8;

/// Best-of-`runs` timing with no recorder installed. `f` reports its own
/// timed region (so cloning the prepared store and the final answer check
/// stay out of the measurement); returns (last result, best, min, max) ms.
fn best_of<T>(runs: usize, mut f: impl FnMut() -> (T, f64)) -> (T, f64, f64, f64) {
    let mut min = f64::MAX;
    let mut max = 0.0f64;
    let mut out = None;
    for _ in 0..runs {
        let (r, ms) = f();
        min = min.min(ms);
        max = max.max(ms);
        out = Some(r);
    }
    (out.unwrap(), min, min, max)
}

struct Row {
    workload: String,
    wall_ms: f64,
    wall_min_ms: f64,
    wall_max_ms: f64,
    answers: usize,
    stats: Option<StoreStats>,
    phases: String,
}

impl Row {
    fn json(&self) -> String {
        let stats = self.stats.map_or(String::new(), |s| {
            format!(
                ", \"novelty_size\": {}, \"compactions\": {}, \"dred_deleted\": {}, \
                 \"rederived\": {}, \"incremental_resumes\": {}, \"full_rechases\": {}",
                s.novelty_size,
                s.compactions,
                s.dred_deleted,
                s.rederived,
                s.incremental_resumes,
                s.full_rechases
            )
        });
        format!(
            "  {{\"workload\": \"{}\", \"wall_ms\": {:.3}, \"wall_min_ms\": {:.3}, \
             \"wall_max_ms\": {:.3}, \"answers\": {}{}{}}}",
            self.workload,
            self.wall_ms,
            self.wall_min_ms,
            self.wall_max_ms,
            self.answers,
            stats,
            self.phases
        )
    }
}

/// A maintained store holding the chain-32 base with its fixpoint already
/// built, plus the pre-interned extension edges — the state every timed
/// run clones and mutates.
struct Prepared {
    store: MaintainedStore,
    voc: Vocabulary,
    ext: Vec<Atom>,
    base_facts: Vec<Atom>,
}

fn prepare(threshold: usize) -> Prepared {
    let (omq, mut voc) = tc_workload();
    let cfg = ChaseConfig::default();
    let mut store = MaintainedStore::new(StoreConfig {
        compact_threshold: threshold,
    });
    let base_facts: Vec<Atom> = (0..CHAIN).map(|i| chain_edge(i, &mut voc)).collect();
    store
        .assert_facts(&base_facts, &omq.sigma, &mut voc, &cfg)
        .expect("ground base facts");
    let ev = store
        .evaluate(None, &omq.query, &omq.sigma, &mut voc, &cfg)
        .expect("head is always materializable");
    assert!(ev.complete, "the TC chase terminates on a finite chain");
    let ext: Vec<Atom> = (0..K).map(|i| chain_edge(CHAIN + i, &mut voc)).collect();
    Prepared {
        store,
        voc,
        ext,
        base_facts,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_store.json".into());
    let (omq, _) = tc_workload();
    let cfg = ChaseConfig::default();
    let mut rows: Vec<Row> = Vec::new();

    // Sweep-wide aggregator: sees every instrumented pass and feeds the
    // summary row's phase columns.
    let sweep = Arc::new(Aggregator::new());
    let extra: Vec<Arc<dyn Sink>> = vec![sweep.clone()];

    // --- k single-fact asserts, incrementally maintained. The timed
    // region is maintenance only — the clone of the prepared store and the
    // final answer check are shared, untimed bookends on both sides. ---
    let prep = prepare(0);
    let incremental = || {
        let mut store = prep.store.clone();
        let mut voc = prep.voc.clone();
        let t = Instant::now();
        for fact in &prep.ext {
            store
                .assert_facts(std::slice::from_ref(fact), &omq.sigma, &mut voc, &cfg)
                .expect("ground extension fact");
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let ev = store
            .evaluate(None, &omq.query, &omq.sigma, &mut voc, &cfg)
            .expect("head evaluate");
        ((ev.answers.len(), store.stats()), ms)
    };
    let ((inc_answers, inc_stats), inc_ms, inc_min, inc_max) = best_of(3, incremental);
    let (_, agg) = instrumented_pass(&extra, incremental);
    rows.push(Row {
        workload: format!("store:assert chain={CHAIN} k={K} incremental"),
        wall_ms: inc_ms,
        wall_min_ms: inc_min,
        wall_max_ms: inc_max,
        answers: inc_answers,
        stats: Some(inc_stats),
        phases: format!("{}{}", phase_fields(&agg), counter_fields(&agg)),
    });

    // --- The same k asserts, re-chasing the full database each time. ---
    let rechase = || {
        let mut voc = prep.voc.clone();
        let mut facts = prep.base_facts.clone();
        let mut last = None;
        let t = Instant::now();
        for fact in &prep.ext {
            facts.push(fact.clone());
            let db = Instance::from_atoms(facts.iter().cloned());
            let out = chase(&db, &omq.sigma, &mut voc, &cfg);
            assert_eq!(out.guarantee, Guarantee::Exact);
            last = Some(out.instance);
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        (eval_ucq(&omq.query, &last.unwrap()).len(), ms)
    };
    let (re_answers, re_ms, re_min, re_max) = best_of(3, rechase);
    let (_, agg) = instrumented_pass(&extra, rechase);
    assert_eq!(
        inc_answers, re_answers,
        "incremental and re-chased answers diverged"
    );
    rows.push(Row {
        workload: format!("store:assert chain={CHAIN} k={K} rechase"),
        wall_ms: re_ms,
        wall_min_ms: re_min,
        wall_max_ms: re_max,
        answers: re_answers,
        stats: None,
        phases: format!("{}{}", phase_fields(&agg), counter_fields(&agg)),
    });

    // --- A mid-chain retract: DRed vs. from-scratch. ---
    let mid = prep.base_facts[CHAIN / 2].clone();
    let dred = || {
        let mut store = prep.store.clone();
        let mut voc = prep.voc.clone();
        let t = Instant::now();
        store
            .retract_facts(std::slice::from_ref(&mid), &omq.sigma, &mut voc, &cfg)
            .expect("ground retract");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let ev = store
            .evaluate(None, &omq.query, &omq.sigma, &mut voc, &cfg)
            .expect("head evaluate");
        ((ev.answers.len(), store.stats()), ms)
    };
    let ((dred_answers, dred_stats), dred_ms, dred_min, dred_max) = best_of(3, dred);
    let (_, agg) = instrumented_pass(&extra, dred);
    rows.push(Row {
        workload: format!("store:retract chain={CHAIN} mid dred"),
        wall_ms: dred_ms,
        wall_min_ms: dred_min,
        wall_max_ms: dred_max,
        answers: dred_answers,
        stats: Some(dred_stats),
        phases: format!("{}{}", phase_fields(&agg), counter_fields(&agg)),
    });
    {
        let mut voc = prep.voc.clone();
        let facts: Vec<Atom> = prep
            .base_facts
            .iter()
            .filter(|f| **f != mid)
            .cloned()
            .collect();
        let db = Instance::from_atoms(facts);
        let out = chase(&db, &omq.sigma, &mut voc, &cfg);
        let n = eval_ucq(&omq.query, &out.instance).len();
        assert_eq!(dred_answers, n, "DRed and re-chased answers diverged");
    }

    // --- Compaction under a small threshold: the novelty overlay merges
    // into new base runs while answers stay put. ---
    let compacting = || {
        let (omq, mut voc) = tc_workload();
        let mut store = MaintainedStore::new(StoreConfig {
            compact_threshold: 8,
        });
        let t = Instant::now();
        for i in 0..CHAIN {
            let edge = chain_edge(i, &mut voc);
            store
                .assert_facts(std::slice::from_ref(&edge), &omq.sigma, &mut voc, &cfg)
                .expect("ground chain edge");
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let ev = store
            .evaluate(None, &omq.query, &omq.sigma, &mut voc, &cfg)
            .expect("head evaluate");
        ((ev.answers.len(), store.stats()), ms)
    };
    let ((c_answers, c_stats), c_ms, c_min, c_max) = best_of(3, compacting);
    let (_, agg) = instrumented_pass(&extra, compacting);
    assert!(
        c_stats.compactions > 0,
        "threshold 8 must trigger compaction"
    );
    rows.push(Row {
        workload: format!("store:compact chain={CHAIN} threshold=8"),
        wall_ms: c_ms,
        wall_min_ms: c_min,
        wall_max_ms: c_max,
        answers: c_answers,
        stats: Some(c_stats),
        phases: format!("{}{}", phase_fields(&agg), counter_fields(&agg)),
    });

    let speedup = re_ms / inc_ms.max(1e-9);
    let mut json = String::from("[\n");
    for r in &rows {
        json.push_str(&r.json());
        json.push_str(",\n");
        println!(
            "{:<40} {:>9.3} ms  answers={}",
            r.workload, r.wall_ms, r.answers
        );
    }
    json.push_str(&format!(
        "  {{\"workload\": \"store:summary\", \"wall_ms\": 0.0, \
         \"speedup_incremental_over_rechase\": {speedup:.2}{}}}\n]\n",
        phase_fields(&sweep)
    ));
    println!("store:summary                speedup_incremental_over_rechase={speedup:.2}");
    std::fs::write(&out_path, json).expect("writing store benchmark output");
    println!("wrote {out_path}");
}
