//! Differential + property suite for the versioned store: randomized
//! assert/retract/compact/snapshot sequences must yield certain answers
//! **byte-identical** (rendered and sorted exactly as the serve tier
//! renders them) to a from-scratch chase of the materialized instance —
//! after every mutation, and retroactively at every pinned snapshot.
//!
//! The chase engine itself is single-threaded (the thread knob lives in
//! the automata/serve tiers, exercised by the serve differential suite at
//! `threads ∈ {1, auto}`), so byte-identity here pins the maintenance
//! algebra: watermark resumes, DRed cones, and compaction are pure
//! storage/fixpoint rewrites that never move an answer.

use std::collections::HashSet;

use proptest::prelude::*;

use omq_chase::{chase, eval_ucq, ChaseConfig};
use omq_model::{parse_program, Atom, Instance, Term, Tgd, Ucq, Vocabulary};
use omq_store::{MaintainedStore, StoreConfig};

/// Transitive closure over a small universe: every op sequence terminates
/// and the from-scratch oracle is cheap.
const PROGRAM: &str = "E(X,Y) -> T(X,Y)\nE(X,Y), T(Y,Z) -> T(X,Z)\n\
                       q(X,Y) :- T(X,Y)\n\
                       seed :- E(c0,c1), E(c1,c2), E(c2,c3), E(c3,c4), E(c4,c5)\n";

/// The universe of edges the generated sequences draw from.
const UNIVERSE: usize = 6;

struct Setup {
    sigma: Vec<Tgd>,
    query: Ucq,
    voc: Vocabulary,
    pool: Vec<Atom>,
}

fn setup() -> Setup {
    let prog = parse_program(PROGRAM).unwrap();
    let voc = prog.voc.clone();
    let e = voc.pred_id("E").unwrap();
    let consts: Vec<_> = (0..UNIVERSE)
        .map(|i| voc.const_id(&format!("c{i}")).unwrap())
        .collect();
    let mut pool = Vec::new();
    for &a in &consts {
        for &b in &consts {
            pool.push(Atom::new(e, vec![Term::Const(a), Term::Const(b)]));
        }
    }
    Setup {
        sigma: prog.tgds.clone(),
        query: prog.query("q").unwrap().clone(),
        voc: prog.voc,
        pool,
    }
}

/// Renders answers exactly as the serve tier does: constant names, sorted,
/// joined — the byte string the differential compares.
fn render(voc: &Vocabulary, answers: &HashSet<Vec<omq_model::ConstId>>) -> String {
    let mut rows: Vec<Vec<&str>> = answers
        .iter()
        .map(|row| row.iter().map(|&c| voc.const_name(c)).collect())
        .collect();
    rows.sort();
    rows.iter()
        .map(|r| r.join(","))
        .collect::<Vec<_>>()
        .join(";")
}

/// From-scratch oracle: chase the bare EDB and evaluate.
fn scratch_answers(s: &Setup, edb: &HashSet<Atom>) -> String {
    let db = Instance::from_atoms(edb.iter().cloned());
    let out = chase(&db, &s.sigma, &mut s.voc.clone(), &ChaseConfig::default());
    assert_eq!(
        out.guarantee,
        omq_chase::Guarantee::Exact,
        "oracle chase terminates on TC"
    );
    render(&s.voc, &eval_ucq(&s.query, &out.instance))
}

/// One scripted operation over the store.
#[derive(Debug, Clone)]
enum Op {
    Assert(usize),
    Retract(usize),
    Compact,
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..8, 0usize..UNIVERSE * UNIVERSE).prop_map(|(kind, idx)| match kind {
        0..=3 => Op::Assert(idx),
        4 | 5 => Op::Retract(idx),
        6 => Op::Compact,
        _ => Op::Snapshot,
    })
}

proptest! {
    /// After every mutation the maintained fixpoint's rendered answers are
    /// byte-identical to the from-scratch oracle; every pinned snapshot
    /// replays byte-identically at the end, across interleaved compactions.
    #[test]
    fn randomized_sequences_match_from_scratch(
        ops in prop::collection::vec(op_strategy(), 1..40),
        threshold in (0u8..4).prop_map(|k| [0usize, 1, 4, 16][k as usize]),
    ) {
        let s = setup();
        let mut voc = s.voc.clone();
        let cfg = ChaseConfig::default();
        let mut ms = MaintainedStore::new(StoreConfig { compact_threshold: threshold });
        let mut edb: HashSet<Atom> = HashSet::new();
        // (version, expected bytes) for every snapshot taken.
        let mut pinned: Vec<(u64, String)> = Vec::new();
        for op in &ops {
            match op {
                Op::Assert(i) => {
                    let fact = s.pool[*i].clone();
                    ms.assert_facts(std::slice::from_ref(&fact), &s.sigma, &mut voc, &cfg).unwrap();
                    edb.insert(fact);
                }
                Op::Retract(i) => {
                    let fact = s.pool[*i].clone();
                    ms.retract_facts(std::slice::from_ref(&fact), &s.sigma, &mut voc, &cfg).unwrap();
                    edb.remove(&fact);
                }
                Op::Compact => { ms.compact(); }
                Op::Snapshot => {
                    let v = ms.snapshot();
                    pinned.push((v, scratch_answers(&s, &edb)));
                }
            }
            let got = ms.evaluate(None, &s.query, &s.sigma, &mut voc, &cfg).unwrap();
            prop_assert!(got.complete);
            prop_assert_eq!(render(&s.voc, &got.answers), scratch_answers(&s, &edb));
        }
        // Pinned versions replay byte-identically after all later mutations
        // and compactions.
        for (v, expect) in &pinned {
            let at = ms.evaluate(Some(*v), &s.query, &s.sigma, &mut voc, &cfg).unwrap();
            prop_assert!(at.complete);
            prop_assert_eq!(&render(&s.voc, &at.answers), expect);
        }
    }

    /// Compaction is invisible: the materialized head's cardinality sketch
    /// (which drives join planning) and the query answers are unchanged by
    /// a forced novelty→base merge.
    #[test]
    fn compaction_never_changes_sketch_or_answers(
        ops in prop::collection::vec(op_strategy(), 1..30),
    ) {
        let s = setup();
        let mut voc = s.voc.clone();
        let cfg = ChaseConfig::default();
        let mut ms = MaintainedStore::new(StoreConfig { compact_threshold: 0 });
        for op in &ops {
            match op {
                Op::Assert(i) => {
                    ms.assert_facts(std::slice::from_ref(&s.pool[*i]), &s.sigma, &mut voc, &cfg).unwrap();
                }
                Op::Retract(i) => {
                    ms.retract_facts(std::slice::from_ref(&s.pool[*i]), &s.sigma, &mut voc, &cfg).unwrap();
                }
                // Threshold 0: compaction only ever runs where this test
                // forces it, below.
                Op::Compact | Op::Snapshot => {}
            }
        }
        let head = ms.head();
        let before_db = ms.store().materialize(head).unwrap();
        let before_sketch = before_db.card_sketch();
        let before = ms.evaluate(None, &s.query, &s.sigma, &mut voc, &cfg).unwrap();
        ms.compact();
        let after_db = ms.store().materialize(head).unwrap();
        prop_assert_eq!(before_db, after_db.clone());
        prop_assert_eq!(before_sketch, after_db.card_sketch());
        let after = ms.evaluate(None, &s.query, &s.sigma, &mut voc, &cfg).unwrap();
        prop_assert_eq!(
            render(&s.voc, &before.answers),
            render(&s.voc, &after.answers)
        );
    }
}
