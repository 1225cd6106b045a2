//! Trace-determinism guarantees (DESIGN.md §5):
//!
//! * a fixed single-threaded run under a timing-free [`JsonlSink`] produces
//!   a byte-identical event stream on every repeat — span ids are allocated
//!   in program order, names are static, and no wall-clock field is written;
//! * a multi-threaded run produces the same *multiset* of events across
//!   repeats once ids are normalized away (scheduling permutes ids and
//!   interleaving, never the set of spans and counters emitted).

use std::sync::{Arc, Mutex};

use omq_chase::{chase, parallel_indexed, ChaseConfig};
use omq_model::{parse_program, Instance};
use omq_obs::{install, Event, JsonlSink, Recorder, SharedBuf, Sink};

/// One instrumented single-threaded chase; returns the JSONL trace.
fn traced_chase() -> String {
    let prog = parse_program(
        "P(X) -> exists Y . R(X,Y)\n\
         R(X,Y) -> P(Y)\n\
         P(X), R(X,Y) -> S(Y)\n",
    )
    .unwrap();
    let mut voc = prog.voc.clone();
    let mut db = Instance::new();
    for fact in ["P(a)", "P(b)", "R(a,b)"] {
        let t = omq_model::parse_tgd(&mut voc, &format!("true -> {fact}")).unwrap();
        for a in t.head {
            db.insert(a);
        }
    }
    let buf = SharedBuf::new();
    let sink = Arc::new(JsonlSink::new(Box::new(buf.clone()), false));
    let rec = Recorder::new(vec![sink]);
    let _g = install(Some(rec));
    let cfg = ChaseConfig {
        max_depth: Some(3),
        ..ChaseConfig::default()
    };
    let out = chase(&db, &prog.tgds, &mut voc, &cfg);
    assert!(out.instance.len() > db.len(), "the chase derived something");
    buf.take_string()
}

#[test]
fn single_threaded_jsonl_trace_is_byte_identical() {
    let first = traced_chase();
    assert!(!first.is_empty());
    assert!(first.contains(r#""name":"chase""#));
    assert!(first.contains(r#""name":"chase.round""#));
    assert!(first.contains(r#""ev":"count""#));
    for _ in 0..3 {
        assert_eq!(first, traced_chase(), "trace must not vary across repeats");
    }
}

/// Collects events as (kind, name, delta) triples — ids dropped, which is
/// exactly the normalization the multiset guarantee is stated under.
#[derive(Default)]
struct NormalizingSink(Mutex<Vec<(&'static str, &'static str, u64)>>);

impl Sink for NormalizingSink {
    fn event(&self, ev: &Event) {
        let row = match *ev {
            Event::Enter { name, .. } => ("enter", name, 0),
            Event::Exit { name, .. } => ("exit", name, 0),
            Event::Count { name, delta, .. } => ("count", name, delta),
        };
        self.0.lock().unwrap().push(row);
    }
}

/// One multi-threaded instrumented run; returns the sorted (normalized)
/// event multiset.
fn traced_parallel() -> Vec<(&'static str, &'static str, u64)> {
    let sink = Arc::new(NormalizingSink::default());
    let rec = Recorder::new(vec![sink.clone() as Arc<dyn Sink>]);
    let _g = install(Some(rec));
    let _root = omq_obs::span("contain.sweep");
    // The worker pool re-installs the caller's recorder in every worker
    // (see omq_chase::parallel_indexed), so worker spans land in this trace.
    parallel_indexed(
        4,
        24,
        || (),
        |(), i| {
            let _s = omq_obs::span("hom.probe");
            omq_obs::counter("contain.witnesses_checked", (i % 3 == 0) as u64);
        },
    );
    drop(_root);
    let mut rows = std::mem::take(&mut *sink.0.lock().unwrap());
    rows.sort();
    rows
}

#[test]
fn multi_threaded_trace_is_the_same_multiset() {
    let first = traced_parallel();
    let probes = first
        .iter()
        .filter(|&&(kind, name, _)| kind == "enter" && name == "hom.probe")
        .count();
    assert_eq!(probes, 24, "one probe span per work item");
    let checked: u64 = first
        .iter()
        .filter(|&&(kind, name, _)| kind == "count" && name == "contain.witnesses_checked")
        .map(|&(_, _, d)| d)
        .sum();
    assert_eq!(checked, 8, "every third item counts one witness");
    for _ in 0..3 {
        assert_eq!(first, traced_parallel(), "normalized multiset must repeat");
    }
}
