//! Guarded OMQ evaluation (Prop. 1: `Eval(G, (U)CQ)` is decidable although
//! the chase may be infinite).
//!
//! Strategy: run the restricted chase level-by-level (by null depth) and
//! watch the set of *atom types* — atoms with their nulls canonicalized per
//! atom. Under guarded tgds every atom's terms come from a single guard
//! atom plus fresh nulls, so once no new type appears for a window of
//! consecutive depth levels the deeper chase only repeats existing
//! neighborhoods up to isomorphism (the regularity exploited by
//! Calì–Gottlob–Kifer's "Taming the infinite chase"); a match of a CQ with
//! `|q|` atoms spans at most `|q|` levels, so evaluating after
//! stabilization plus a `|q| + 1` window is complete. If the chase reaches
//! an actual fixpoint first, the answer is exact outright.
//!
//! Every returned answer is *sound* (certain); the [`Completeness`] tag
//! states which guarantee the run achieved.

use std::collections::HashSet;

use omq_chase::chase::{chase, ChaseConfig};
use omq_chase::eval::eval_ucq;
use omq_model::{Atom, ConstId, Instance, Omq, Term, Vocabulary};

/// Budgets for guarded evaluation.
#[derive(Clone, Debug)]
pub struct GuardedConfig {
    /// Hard cap on the chase's null depth.
    pub max_depth: usize,
    /// Step budget per chase run.
    pub max_steps: usize,
    /// Stabilization window; `None` = `max |qᵢ| + 1` (the default from the
    /// theory sketch above).
    pub window: Option<usize>,
    /// Wall-clock/cancellation budget, propagated into every inner chase
    /// run and polled between deepening rounds. Expiry degrades the result
    /// to `Completeness::LowerBound` (sound, possibly incomplete).
    pub budget: omq_chase::Budget,
}

impl Default for GuardedConfig {
    fn default() -> Self {
        GuardedConfig {
            max_depth: 24,
            max_steps: 500_000,
            window: None,
            budget: omq_chase::Budget::unlimited(),
        }
    }
}

/// The guarantee attached to a guarded evaluation result.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Completeness {
    /// The chase terminated: the answer equals `Q(D)`.
    Exact,
    /// The single-atom type set stopped changing for the full window. This
    /// is a heuristic, not a proof: a match can first appear deeper (a
    /// guarded 4-bit counter reaches `1111` on one null at depth 15, after
    /// every atom type exists by depth 8), so the answer is only a sound
    /// subset of `Q(D)`, like [`Completeness::LowerBound`].
    Stabilized,
    /// Budgets exhausted first: the answer is a sound subset of `Q(D)`.
    LowerBound,
}

/// Result of guarded evaluation.
#[derive(Clone, Debug)]
pub struct GuardedAnswers {
    /// The certain answers computed (always sound).
    pub answers: HashSet<Vec<ConstId>>,
    /// Which guarantee the run achieved.
    pub completeness: Completeness,
    /// Null depth actually chased to.
    pub depth_used: usize,
}

/// The canonical *type* of an atom: nulls renamed by first occurrence
/// within the atom, constants kept.
fn atom_type(a: &Atom) -> (omq_model::PredId, Vec<Term>) {
    let mut seen: Vec<omq_model::NullId> = Vec::new();
    let args = a
        .args
        .iter()
        .map(|&t| match t {
            Term::Null(n) => {
                let idx = match seen.iter().position(|&m| m == n) {
                    Some(i) => i,
                    None => {
                        seen.push(n);
                        seen.len() - 1
                    }
                };
                Term::Null(omq_model::NullId(idx as u32))
            }
            other => other,
        })
        .collect();
    (a.pred, args)
}

fn type_set(inst: &Instance) -> HashSet<(omq_model::PredId, Vec<Term>)> {
    inst.atoms().iter().map(atom_type).collect()
}

/// Evaluates a guarded OMQ with the stabilization strategy described in the
/// module docs.
pub fn guarded_certain_answers(
    omq: &Omq,
    db: &Instance,
    voc: &mut Vocabulary,
    cfg: &GuardedConfig,
) -> GuardedAnswers {
    let window = cfg
        .window
        .unwrap_or_else(|| omq.query.max_disjunct_size() + 1);
    let mut prev_types: Option<HashSet<_>> = None;
    let mut stable_for = 0usize;
    let mut depth = 1usize;
    loop {
        let mut chase_cfg = ChaseConfig::with_depth(depth);
        chase_cfg.max_steps = cfg.max_steps;
        chase_cfg.budget = cfg.budget.clone();
        let out = chase(db, &omq.sigma, voc, &chase_cfg);
        let answers = eval_ucq(&omq.query, &out.instance);
        if out.complete {
            return GuardedAnswers {
                answers,
                completeness: Completeness::Exact,
                depth_used: depth,
            };
        }
        // An expired budget truncates the chase mid-level; the type set of
        // the truncated instance can coincide with the previous level's and
        // masquerade as stabilization, so the check must come first. The
        // answers found so far stay sound — degrade, don't discard.
        if cfg.budget.expired() {
            return GuardedAnswers {
                answers,
                completeness: Completeness::LowerBound,
                depth_used: depth,
            };
        }
        let types = type_set(&out.instance);
        match &prev_types {
            Some(p) if *p == types => stable_for += 1,
            _ => stable_for = 0,
        }
        prev_types = Some(types);
        if stable_for >= window {
            return GuardedAnswers {
                answers,
                completeness: Completeness::Stabilized,
                depth_used: depth,
            };
        }
        if depth >= cfg.max_depth || out.steps >= cfg.max_steps {
            return GuardedAnswers {
                answers,
                completeness: Completeness::LowerBound,
                depth_used: depth,
            };
        }
        depth += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_model::{parse_program, parse_tgd, Schema, Ucq};

    fn db(voc: &mut Vocabulary, facts: &[&str]) -> Instance {
        let mut inst = Instance::new();
        for f in facts {
            let t = parse_tgd(voc, &format!("true -> {f}")).unwrap();
            for a in t.head {
                inst.insert(a);
            }
        }
        inst
    }

    fn omq(text: &str, data: &[&str], query: &str) -> (Omq, Vocabulary) {
        let prog = parse_program(text).unwrap();
        let voc = prog.voc.clone();
        let schema = Schema::from_preds(data.iter().map(|n| voc.pred_id(n).unwrap()));
        (
            Omq::new(
                schema,
                prog.tgds.clone(),
                prog.query(query).unwrap().clone(),
            ),
            voc,
        )
    }

    #[test]
    fn terminating_guarded_is_exact() {
        let (q, mut voc) = omq(
            "Emp(X) -> exists D . Works(X,D)\n\
             q(X) :- Works(X,D)\n",
            &["Emp"],
            "q",
        );
        let d = db(&mut voc, &["Emp(alice)"]);
        let r = guarded_certain_answers(&q, &d, &mut voc, &GuardedConfig::default());
        assert_eq!(r.completeness, Completeness::Exact);
        assert_eq!(r.answers.len(), 1);
    }

    /// Example 1 of the paper: infinite chase (linear ⊆ guarded).
    /// Rewriting-based evaluation is the oracle: q(x) holds iff P(x) ∨ T(x).
    #[test]
    fn infinite_chase_stabilizes_and_matches_rewriting_oracle() {
        let (q, mut voc) = omq(
            "P(X) -> exists Y . R(X,Y)\n\
             R(X,Y) -> P(Y)\n\
             T(X) -> P(X)\n\
             q(X) :- R(X,Y), P(Y)\n",
            &["P", "T"],
            "q",
        );
        let d = db(&mut voc, &["T(a)", "P(b)", "Z9(c)"]);
        // Keep only schema preds (Z9 sneaks in an unrelated constant).
        let d = d.restrict_to_schema(&q.data_schema);
        let r = guarded_certain_answers(&q, &d, &mut voc, &GuardedConfig::default());
        assert_ne!(r.completeness, Completeness::LowerBound);
        let oracle =
            omq_rewrite::certain_answers_via_rewriting(&q, &d, &mut voc, &Default::default())
                .unwrap();
        assert_eq!(r.answers, oracle);
        assert_eq!(r.answers.len(), 2);
    }

    /// A genuinely guarded (non-linear) ontology with infinite chase.
    #[test]
    fn guarded_join_rule() {
        let (q, mut voc) = omq(
            "G(X,Y), P(X) -> exists Z . G(Y,Z)\n\
             G(X,Y), P(X) -> P(Y)\n\
             q :- G(X,Y), G(Y,Z), G(Z,W)\n",
            &["G", "P"],
            "q",
        );
        let d = db(&mut voc, &["G(a,b)", "P(a)"]);
        let r = guarded_certain_answers(&q, &d, &mut voc, &GuardedConfig::default());
        assert_ne!(r.completeness, Completeness::LowerBound);
        // Chain grows G(a,b), G(b,⊥1), G(⊥1,⊥2), ...: q holds.
        assert_eq!(r.answers.len(), 1);
    }

    /// Negative case: the query never becomes true, and stabilization
    /// correctly reports the empty answer as complete.
    #[test]
    fn stabilized_negative_answer() {
        let (q, mut voc) = omq(
            "P(X) -> exists Y . R(X,Y), P(Y)\n\
             q :- R(X,X)\n",
            &["P"],
            "q",
        );
        let d = db(&mut voc, &["P(a)"]);
        let r = guarded_certain_answers(&q, &d, &mut voc, &GuardedConfig::default());
        assert_eq!(r.completeness, Completeness::Stabilized);
        assert!(r.answers.is_empty());
    }

    #[test]
    fn budget_exhaustion_reported() {
        let (q, mut voc) = omq(
            "P(X) -> exists Y . R(X,Y), P(Y)\n\
             q :- R(X,X)\n",
            &["P"],
            "q",
        );
        let d = db(&mut voc, &["P(a)"]);
        let cfg = GuardedConfig {
            max_depth: 2,
            window: Some(50),
            ..Default::default()
        };
        let r = guarded_certain_answers(&q, &d, &mut voc, &cfg);
        assert_eq!(r.completeness, Completeness::LowerBound);
    }

    /// An expired wall-clock budget must degrade to `LowerBound`, never to
    /// a (false) `Stabilized`/`Exact` claim over a truncated chase.
    #[test]
    fn expired_budget_degrades_to_lower_bound() {
        let (q, mut voc) = omq(
            "P(X) -> exists Y . R(X,Y), P(Y)\n\
             q :- R(X,X)\n",
            &["P"],
            "q",
        );
        let d = db(&mut voc, &["P(a)"]);
        let cfg = GuardedConfig {
            budget: omq_chase::Budget::deadline_in(std::time::Duration::ZERO),
            ..Default::default()
        };
        let r = guarded_certain_answers(&q, &d, &mut voc, &cfg);
        assert_eq!(r.completeness, Completeness::LowerBound);
        assert!(r.answers.is_empty(), "sound: nothing falsely derived");
    }

    #[test]
    fn empty_query_union_is_unsatisfiable() {
        let (mut q, mut voc) = omq("P(X) -> P(X)\nq :- P(X)\n", &["P"], "q");
        q.query = Ucq::new(0, vec![]);
        let d = db(&mut voc, &["P(a)"]);
        let r = guarded_certain_answers(&q, &d, &mut voc, &GuardedConfig::default());
        assert!(r.answers.is_empty());
    }
}
