//! End-to-end integration tests spanning all crates: the paper's hardness
//! constructions are run through the full containment pipeline and checked
//! against brute-force ground truth.

use omq::core::{contains, ContainmentConfig, ContainmentResult};
use omq::reductions::tiling::all_pairs;
use omq::reductions::{etp_to_containment, prop18_family, tiling_to_fnr_linear, Etp, ExpTiling};

/// Theorem 16, cross-checked: the ETP instance has a solution iff the
/// constructed (NR, CQ) OMQs are contained. This exercises XRewrite on a
/// deep non-recursive ontology (including the Figure 2 rules), witness
/// freezing, and stratified-chase evaluation of the right-hand side.
#[test]
fn theorem16_matches_brute_force() {
    let alt = vec![(1u8, 2u8), (2, 1)];
    let cases: Vec<(Etp, &str)> = vec![
        (
            Etp {
                k: 1,
                n: 1,
                m: 2,
                h1: vec![],
                v1: vec![],
                h2: all_pairs(2),
                v2: all_pairs(2),
            },
            "T1 never solves: containment holds vacuously",
        ),
        (
            Etp {
                k: 1,
                n: 1,
                m: 2,
                h1: all_pairs(2),
                v1: all_pairs(2),
                h2: vec![],
                v2: vec![],
            },
            "T1 always solves, T2 never: not contained",
        ),
        (
            Etp {
                k: 1,
                n: 1,
                m: 2,
                h1: all_pairs(2),
                v1: all_pairs(2),
                h2: alt.clone(),
                v2: alt.clone(),
            },
            "checkerboard T2 solves every single-tile condition: contained",
        ),
        (
            Etp {
                k: 2,
                n: 1,
                m: 2,
                h1: all_pairs(2),
                v1: all_pairs(2),
                h2: alt.clone(),
                v2: alt,
            },
            "k=2: T1 solves s=[1,1] but checkerboard T2 cannot: not contained",
        ),
    ];
    for (etp, label) in cases {
        let expected = etp.has_solution();
        let omqs = etp_to_containment(&etp);
        let mut voc = omqs.voc.clone();
        let cfg = ContainmentConfig::default();
        let out = contains(&omqs.q1, &omqs.q2, &mut voc, &cfg).expect("well-posed");
        match (&out.result, expected) {
            (ContainmentResult::Contained, true) | (ContainmentResult::NotContained(_), false) => {}
            other => panic!("{label}: expected contained={expected}, got {other:?}"),
        }
        // When not contained, the witness encodes a concrete initial
        // condition (0-ary C-facts only).
        if let ContainmentResult::NotContained(w) = &out.result {
            assert!(w.database.atoms().iter().all(|a| a.arity() == 0));
        }
    }
}

/// Theorem 34, cross-checked: the exponential-tiling instance has a
/// solution iff `Q_T ⊄ Q'_T`.
#[test]
fn theorem34_matches_brute_force() {
    let alt = vec![(1u8, 2u8), (2, 1)];
    let cases = vec![
        ExpTiling {
            n: 1,
            m: 2,
            h: alt.clone(),
            v: alt.clone(),
            s: vec![1],
        },
        ExpTiling {
            n: 1,
            m: 2,
            h: vec![],
            v: vec![],
            s: vec![],
        },
        ExpTiling {
            n: 1,
            m: 2,
            h: alt.clone(),
            v: alt.clone(),
            s: vec![1, 1], // incompatible initial condition
        },
        ExpTiling {
            n: 1,
            m: 2,
            h: all_pairs(2),
            v: all_pairs(2),
            s: vec![2, 1],
        },
    ];
    for t in cases {
        let expected = t.has_solution();
        let omqs = tiling_to_fnr_linear(&t);
        let mut voc = omqs.voc.clone();
        let cfg = ContainmentConfig::default();
        let out = contains(&omqs.q_t, &omqs.q_violation, &mut voc, &cfg).expect("well-posed");
        assert_eq!(
            out.result.is_not_contained(),
            expected,
            "tiling {:?}/{:?} s={:?}: {:?}",
            t.h,
            t.v,
            t.s,
            out.result
        );
    }
}

/// Props. 15/18: the containment witness grows exponentially — the
/// counterexample database for `Qⁿ ⊄ Q_⊥` has exactly `2ⁿ` atoms.
#[test]
fn witness_families_exhibit_exponential_witnesses() {
    for n in 1..=3usize {
        let (q1, mut voc) = prop18_family(n);
        let z0 = voc.fresh_pred("Zunsat", 1);
        let x = voc.var("Xu");
        let q2 = omq::model::Omq::new(
            q1.data_schema.clone(),
            vec![],
            omq::model::Ucq::from_cq(omq::model::Cq::boolean(vec![omq::model::Atom::new(
                z0,
                vec![omq::model::Term::Var(x)],
            )])),
        );
        let out = contains(&q1, &q2, &mut voc, &ContainmentConfig::default()).unwrap();
        match out.result {
            ContainmentResult::NotContained(w) => {
                assert_eq!(
                    w.database.len(),
                    1 << n,
                    "n={n}: witness should have 2^n atoms"
                );
            }
            other => panic!("expected witness, got {other:?}"),
        }
        assert_eq!(out.max_witness_size, 1 << n);
    }
}

/// The small-witness containment algorithm agrees with classical CQ
/// containment when the ontologies are empty.
#[test]
fn empty_ontology_agrees_with_chandra_merlin() {
    let prog = omq::model::parse_program(
        "p :- E(X,Y), E(Y,Z)\n\
         r :- E(U,V)\n\
         tri :- E(X,Y), E(Y,Z), E(Z,X)\n",
    )
    .unwrap();
    let mut voc = prog.voc.clone();
    let schema = omq::model::Schema::from_preds([voc.pred_id("E").unwrap()]);
    let cfg = ContainmentConfig::default();
    let get = |name: &str| {
        omq::model::Omq::new(schema.clone(), vec![], prog.query(name).unwrap().clone())
    };
    let (p, r, tri) = (get("p"), get("r"), get("tri"));
    for (a, b) in [(&p, &r), (&r, &p), (&tri, &p), (&p, &tri), (&tri, &r)] {
        let ours = contains(a, b, &mut voc, &cfg)
            .unwrap()
            .result
            .is_contained();
        let classical = omq::chase::ucq_contained(&a.query, &b.query);
        assert_eq!(ours, classical);
    }
}

/// UCQ→CQ compilation composes with containment: the compiled OMQ is
/// equivalent to the original.
#[test]
fn ucq_to_cq_preserves_containment_both_ways() {
    let prog = omq::model::parse_program(
        "A(X) -> P(X)\n\
         B(X) -> T(X)\n\
         q :- P(X)\n\
         q :- T(X)\n",
    )
    .unwrap();
    let mut voc = prog.voc.clone();
    let schema =
        omq::model::Schema::from_preds([voc.pred_id("A").unwrap(), voc.pred_id("B").unwrap()]);
    let q = omq::model::Omq::new(schema, prog.tgds.clone(), prog.query("q").unwrap().clone());
    let compiled = omq::rewrite::ucq_omq_to_cq_omq(&q, &mut voc).unwrap();
    let cfg = ContainmentConfig::default();
    // Forward direction through the full containment engine (the compiled
    // OMQ is the right-hand side, checked by chase evaluation).
    let fwd = contains(&q, &compiled, &mut voc, &cfg).unwrap();
    assert!(fwd.result.is_contained(), "{:?}", fwd.result);
    // Reverse direction via evaluation agreement: rewriting the compiled
    // OMQ is needlessly expensive (its auxiliary Or/True machinery blows up
    // the resolution search), so check Q'(D) ⊆ Q(D) on a databases sweep.
    for facts in [
        vec![],
        vec!["A(a)"],
        vec!["B(b)"],
        vec!["A(a)", "B(b)"],
        vec!["A(a)", "A(b)", "B(a)"],
    ] {
        let mut d = omq::model::Instance::new();
        for f in &facts {
            let t = omq::model::parse_tgd(&mut voc, &format!("true -> {f}")).unwrap();
            for a in t.head {
                d.insert(a);
            }
        }
        let a1 = omq::chase::certain_answers_via_chase(
            &q,
            &d,
            &mut voc,
            &omq::chase::ChaseConfig::default(),
        )
        .unwrap();
        let a2 = omq::chase::certain_answers_via_chase(
            &compiled,
            &d,
            &mut voc,
            &omq::chase::ChaseConfig::default(),
        )
        .unwrap();
        assert_eq!(a1, a2, "facts {facts:?}");
    }
}

/// Guarded evaluation agrees with rewriting-based evaluation on linear
/// OMQs (linear ⊆ guarded), across several databases.
#[test]
fn guarded_engine_agrees_with_rewriting_on_linear() {
    let prog = omq::model::parse_program(
        "P(X) -> exists Y . R(X,Y)\n\
         R(X,Y) -> P(Y)\n\
         T(X) -> P(X)\n\
         q(X) :- R(X,Y), P(Y)\n",
    )
    .unwrap();
    let mut voc = prog.voc.clone();
    let schema =
        omq::model::Schema::from_preds([voc.pred_id("P").unwrap(), voc.pred_id("T").unwrap()]);
    let q = omq::model::Omq::new(schema, prog.tgds.clone(), prog.query("q").unwrap().clone());
    for facts in [
        vec!["P(a)"],
        vec!["T(b)", "P(a)"],
        vec!["T(a)", "T(b)", "T(c)"],
        vec![],
    ] {
        let mut d = omq::model::Instance::new();
        for f in &facts {
            let t = omq::model::parse_tgd(&mut voc, &format!("true -> {f}")).unwrap();
            for a in t.head {
                d.insert(a);
            }
        }
        let via_rw =
            omq::rewrite::certain_answers_via_rewriting(&q, &d, &mut voc, &Default::default())
                .unwrap();
        let via_guarded = omq::guarded::guarded_certain_answers(
            &q,
            &d,
            &mut voc,
            &omq::guarded::GuardedConfig::default(),
        );
        assert!(matches!(
            via_guarded.guarantee,
            omq::chase::Guarantee::Exact | omq::chase::Guarantee::Capped(omq::chase::Cap::Window)
        ));
        assert_eq!(via_rw, via_guarded.answers, "facts {facts:?}");
    }
}
