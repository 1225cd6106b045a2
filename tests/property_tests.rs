//! Property-based tests over the core data structures and engines.
//!
//! Gated behind the (default-on) `proptest` feature so that
//! `--no-default-features` gives a std-only build.
#![cfg(feature = "proptest")]

use std::collections::HashMap;

use proptest::prelude::*;

use omq::chase::{
    chase, cq_canonical_form, cq_contained, cq_core, cq_equivalent, cq_isomorphic, eval_cq,
    ChaseConfig, ChaseVariant, Guarantee,
};
use omq::model::display::{render_cq, render_tgd};
use omq::model::{parse_query, parse_tgd, Atom, Cq, Instance, Term, Vocabulary};

/// A random CQ over a fixed binary/unary schema, described by atom specs.
#[derive(Debug, Clone)]
struct CqSpec {
    /// (use_binary, var_a, var_b) per atom; variables range over 0..4.
    atoms: Vec<(bool, u8, u8)>,
    head_var: Option<u8>,
}

fn cq_spec() -> impl Strategy<Value = CqSpec> {
    (
        prop::collection::vec((any::<bool>(), 0u8..4, 0u8..4), 1..5),
        prop::option::of(0u8..4),
    )
        .prop_map(|(atoms, head_var)| CqSpec { atoms, head_var })
}

fn build_cq(spec: &CqSpec, voc: &mut Vocabulary) -> Cq {
    let e = voc.pred("E", 2);
    let p = voc.pred("P", 1);
    let vars: Vec<_> = (0..4).map(|i| voc.var(&format!("V{i}"))).collect();
    let body: Vec<Atom> = spec
        .atoms
        .iter()
        .map(|&(bin, a, b)| {
            if bin {
                Atom::new(
                    e,
                    vec![Term::Var(vars[a as usize]), Term::Var(vars[b as usize])],
                )
            } else {
                Atom::new(p, vec![Term::Var(vars[a as usize])])
            }
        })
        .collect();
    let head = spec
        .head_var
        .and_then(|h| {
            let v = vars[h as usize];
            body.iter().any(|a| a.mentions_var(v)).then_some(v)
        })
        .into_iter()
        .collect();
    Cq::new(head, body)
}

/// A random small database over the same schema.
fn db_spec() -> impl Strategy<Value = Vec<(bool, u8, u8)>> {
    prop::collection::vec((any::<bool>(), 0u8..4, 0u8..4), 0..8)
}

fn build_db(spec: &[(bool, u8, u8)], voc: &mut Vocabulary) -> Instance {
    let e = voc.pred("E", 2);
    let p = voc.pred("P", 1);
    let consts: Vec<_> = (0..4).map(|i| voc.constant(&format!("c{i}"))).collect();
    Instance::from_atoms(spec.iter().map(|&(bin, a, b)| {
        if bin {
            Atom::new(
                e,
                vec![
                    Term::Const(consts[a as usize]),
                    Term::Const(consts[b as usize]),
                ],
            )
        } else {
            Atom::new(p, vec![Term::Const(consts[a as usize])])
        }
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The core of a CQ is always equivalent to it and never larger.
    #[test]
    fn core_is_equivalent_and_minimal(spec in cq_spec()) {
        let mut voc = Vocabulary::new();
        let q = build_cq(&spec, &mut voc);
        let core = cq_core(&q);
        prop_assert!(core.body.len() <= q.body.len());
        prop_assert!(cq_equivalent(&q, &core));
        // Cores are fixpoints.
        let core2 = cq_core(&core);
        prop_assert_eq!(core2.body.len(), core.body.len());
    }

    /// Chandra–Merlin containment is sound for evaluation: if q1 ⊆ q2 then
    /// q1's answers are a subset of q2's on every database.
    #[test]
    fn containment_sound_for_evaluation(
        s1 in cq_spec(),
        s2 in cq_spec(),
        dbs in db_spec(),
    ) {
        let mut voc = Vocabulary::new();
        let q1 = build_cq(&s1, &mut voc);
        let q2 = build_cq(&s2, &mut voc);
        if q1.head.len() == q2.head.len() && cq_contained(&q1, &q2) {
            let d = build_db(&dbs, &mut voc);
            let a1 = eval_cq(&q1, &d);
            let a2 = eval_cq(&q2, &d);
            prop_assert!(a1.is_subset(&a2), "q1 ⊆ q2 but answers leak");
        }
    }

    /// Isomorphic CQs are equivalent; equivalence of cores of isomorphic
    /// queries is symmetric.
    #[test]
    fn isomorphism_implies_equivalence(spec in cq_spec()) {
        let mut voc = Vocabulary::new();
        let q = build_cq(&spec, &mut voc);
        // Rename all variables.
        let fresh: HashMap<_, _> = q
            .vars()
            .into_iter()
            .map(|v| (v, voc.fresh_var("w")))
            .collect();
        let renamed = q.map_terms(|t| match t {
            Term::Var(v) => Term::Var(fresh[&v]),
            other => other,
        });
        // NOTE: cq_isomorphic demands head-position identity, which a full
        // renaming breaks for non-Boolean queries; restrict to Boolean.
        if q.is_boolean() {
            prop_assert!(cq_isomorphic(&q, &renamed));
        }
        prop_assert!(cq_equivalent(&q, &renamed));
    }

    /// Restricted and oblivious chase agree on certain answers for
    /// terminating (weakly acyclic, here: existential-free) ontologies.
    #[test]
    fn chase_variants_agree_on_full_tgds(dbs in db_spec()) {
        let mut voc = Vocabulary::new();
        let sigma = vec![
            parse_tgd(&mut voc, "E(X,Y) -> P(X)").unwrap(),
            parse_tgd(&mut voc, "E(X,Y), P(Y) -> E(Y,X)").unwrap(),
        ];
        let d = build_db(&dbs, &mut voc);
        let (_, q) = parse_query(&mut voc, "q(X) :- E(X,Y), P(Y)").unwrap();
        let restricted = chase(&d, &sigma, &mut voc, &ChaseConfig::default());
        let cfg = ChaseConfig { variant: ChaseVariant::Oblivious, ..Default::default() };
        let oblivious = chase(&d, &sigma, &mut voc, &cfg);
        prop_assert!(restricted.guarantee == Guarantee::Exact && oblivious.guarantee == Guarantee::Exact);
        prop_assert_eq!(
            eval_cq(&q, &restricted.instance),
            eval_cq(&q, &oblivious.instance)
        );
    }

    /// Canonical labeling decides `≃`: two random CQs have equal canonical
    /// forms exactly when they are isomorphic (whenever both stay within
    /// the symmetry budget), and the form is invariant under a full
    /// variable renaming.
    #[test]
    fn canonical_form_decides_isomorphism(s1 in cq_spec(), s2 in cq_spec()) {
        let mut voc = Vocabulary::new();
        let q1 = build_cq(&s1, &mut voc);
        let q2 = build_cq(&s2, &mut voc);
        let budget = 5_040;
        if let (Some(f1), Some(f2)) =
            (cq_canonical_form(&q1, budget), cq_canonical_form(&q2, budget))
        {
            prop_assert_eq!(f1 == f2, cq_isomorphic(&q1, &q2));
        }
        let fresh: HashMap<_, _> = q1
            .vars()
            .into_iter()
            .map(|v| (v, voc.fresh_var("w")))
            .collect();
        let renamed = q1.map_terms(|t| match t {
            Term::Var(v) => Term::Var(fresh[&v]),
            other => other,
        });
        prop_assert_eq!(
            cq_canonical_form(&q1, budget),
            cq_canonical_form(&renamed, budget)
        );
    }

    /// Rendering and re-parsing a random CQ is the identity.
    #[test]
    fn cq_render_roundtrip(spec in cq_spec()) {
        let mut voc = Vocabulary::new();
        let q = build_cq(&spec, &mut voc);
        let text = render_cq(&voc, "q", &q);
        let (_, q2) = parse_query(&mut voc, &text).unwrap();
        prop_assert_eq!(q, q2);
    }

    /// Rendering and re-parsing a random tgd is the identity.
    #[test]
    fn tgd_render_roundtrip(body in cq_spec(), head in cq_spec()) {
        let mut voc = Vocabulary::new();
        let b = build_cq(&body, &mut voc);
        let h = build_cq(&head, &mut voc);
        let tgd = omq::model::Tgd::new(b.body, h.body);
        let text = render_tgd(&voc, &tgd);
        let tgd2 = parse_tgd(&mut voc, &text).unwrap();
        prop_assert_eq!(tgd, tgd2);
    }

    /// The rewriting-based and chase-based evaluations agree on a
    /// non-recursive ontology for arbitrary databases (Def. 1 in action).
    #[test]
    fn rewriting_agrees_with_chase_on_nr(dbs in db_spec()) {
        let mut voc = Vocabulary::new();
        let sigma = vec![
            parse_tgd(&mut voc, "E(X,Y) -> exists Z . F(Y,Z)").unwrap(),
            parse_tgd(&mut voc, "F(X,Y) -> G(X)").unwrap(),
            parse_tgd(&mut voc, "P(X) -> G(X)").unwrap(),
        ];
        let d = build_db(&dbs, &mut voc);
        let (_, q) = parse_query(&mut voc, "q(X) :- G(X)").unwrap();
        let e = voc.pred_id("E").unwrap();
        let p = voc.pred_id("P").unwrap();
        let omq = omq::model::Omq::new(
            omq::model::Schema::from_preds([e, p]),
            sigma,
            omq::model::Ucq::from_cq(q),
        );
        let via_rw = omq::rewrite::certain_answers_via_rewriting(
            &omq, &d, &mut voc, &Default::default(),
        ).unwrap();
        let via_chase = omq::chase::certain_answers_via_chase(
            &omq, &d, &mut voc, &ChaseConfig::default(),
        ).unwrap();
        prop_assert_eq!(via_rw, via_chase);
    }
}
