//! (U)CQ evaluation over instances (paper §2).
//!
//! `q(I)` is the set of tuples `h(x̄)` **of constants** for homomorphisms `h`
//! from `q` to `I`. Following the paper's definition, answer tuples
//! containing nulls are excluded (this matters when evaluating over chase
//! results); Boolean queries are satisfied by any homomorphism.

use std::collections::HashSet;
use std::ops::ControlFlow;
use std::sync::Arc;

use omq_model::{ConstId, Cq, Instance, Term, Ucq, VarId};

use crate::hom::{instance_sig, prefilter, HomStats, HomView, JoinPlan, PlanCache};

/// Evaluates a CQ: all constant answer tuples `h(x̄)`.
pub fn eval_cq(q: &Cq, inst: &Instance) -> HashSet<Vec<ConstId>> {
    let mut stats = HomStats::default();
    let plan = crate::hom::compile_costed_for(&q.body, &[], None, inst, &mut stats);
    let head_slots: Vec<usize> = q
        .head
        .iter()
        .map(|&v| plan.slot_of(v).expect("head variables occur in the body"))
        .collect();
    let mut out = HashSet::new();
    let _ = plan.execute(inst, &[], None, &mut stats, |h| {
        if let Some(tuple) = const_tuple(h, &head_slots) {
            out.insert(tuple);
        }
        ControlFlow::<()>::Continue(())
    });
    out
}

/// The head tuple of a complete homomorphism, or `None` when some head
/// position maps to a null (excluded per the paper's answer semantics).
fn const_tuple(h: &HomView, head_slots: &[usize]) -> Option<Vec<ConstId>> {
    let mut tuple = Vec::with_capacity(head_slots.len());
    for &s in head_slots {
        match h.slot(s) {
            Some(Term::Const(c)) => tuple.push(c),
            _ => return None,
        }
    }
    Some(tuple)
}

/// Evaluates a UCQ: the union of its disjuncts' answers.
pub fn eval_ucq(q: &Ucq, inst: &Instance) -> HashSet<Vec<ConstId>> {
    let mut out = HashSet::new();
    for d in &q.disjuncts {
        out.extend(eval_cq(d, inst));
    }
    out
}

/// Does the Boolean CQ hold in the instance (∃ homomorphism)?
///
/// Unlike [`eval_cq`], works for non-Boolean queries too: it asks whether
/// the answer set would be non-empty *ignoring* the constants-only filter,
/// i.e. whether some homomorphism exists at all.
pub fn holds_cq(q: &Cq, inst: &Instance, stats: &mut HomStats) -> bool {
    let plan = crate::hom::compile_costed_for(&q.body, &[], None, inst, stats);
    plan.execute(inst, &[], None, stats, |_| ControlFlow::Break(()))
        .is_break()
}

/// Does some disjunct of the UCQ hold in the instance?
pub fn holds_ucq(q: &Ucq, inst: &Instance, stats: &mut HomStats) -> bool {
    q.disjuncts.iter().any(|d| holds_cq(d, inst, stats))
}

/// Is the fixed tuple `c̄` an answer of `q` on `inst`?
pub fn is_answer(q: &Cq, inst: &Instance, tuple: &[ConstId], stats: &mut HomStats) -> bool {
    CompiledCq::new(q, stats).is_answer(inst, instance_sig(inst), tuple, stats)
}

/// Is the fixed tuple `c̄` an answer of some disjunct of `q` on `inst`?
pub fn is_answer_ucq(q: &Ucq, inst: &Instance, tuple: &[ConstId], stats: &mut HomStats) -> bool {
    let isig = instance_sig(inst);
    q.disjuncts
        .iter()
        .any(|d| CompiledCq::new(d, stats).is_answer(inst, isig, tuple, stats))
}

/// A CQ compiled for repeated fixed-tuple membership probes: the body plan
/// is seeded on the head variables, so `is_answer` is one plan execution,
/// gated by the predicate-signature prefilter.
#[derive(Clone)]
pub struct CompiledCq {
    plan: Arc<JoinPlan>,
    head: Vec<VarId>,
}

impl CompiledCq {
    /// Compiles `q` (uncached; use [`CompiledCq::from_cache`] when many
    /// queries share bodies).
    pub fn new(q: &Cq, stats: &mut HomStats) -> CompiledCq {
        let plan = JoinPlan::compile(&q.body, &q.head, None, stats);
        CompiledCq {
            plan: Arc::new(plan),
            head: q.head.clone(),
        }
    }

    /// Compiles `q` through a [`PlanCache`].
    pub fn from_cache(q: &Cq, cache: &mut PlanCache, stats: &mut HomStats) -> CompiledCq {
        CompiledCq {
            plan: cache.get_or_compile(&q.body, &q.head, None, stats),
            head: q.head.clone(),
        }
    }

    /// The predicate signature of the body (see [`crate::hom::pred_sig`]).
    pub fn sig(&self) -> u64 {
        self.plan.sig()
    }

    /// Is `tuple` an answer on `inst`? `inst_sig` is the instance signature
    /// ([`instance_sig`]), computed once by the caller across many probes.
    pub fn is_answer(
        &self,
        inst: &Instance,
        inst_sig: u64,
        tuple: &[ConstId],
        stats: &mut HomStats,
    ) -> bool {
        if tuple.len() != self.head.len() {
            return false;
        }
        if !prefilter(self.plan.sig(), inst_sig, stats) {
            return false;
        }
        let pairs: Vec<(VarId, Term)> = self
            .head
            .iter()
            .copied()
            .zip(tuple.iter().map(|&c| Term::Const(c)))
            .collect();
        let Some(seed) = self.plan.seed_values(&pairs) else {
            return false; // repeated head variable, conflicting constants
        };
        self.plan
            .execute(inst, &seed, None, stats, |_| ControlFlow::Break(()))
            .is_break()
    }
}

/// A UCQ with every disjunct compiled ([`CompiledCq`]): build once, probe
/// many `(instance, tuple)` pairs.
#[derive(Clone)]
pub struct CompiledUcq {
    arity: usize,
    disjuncts: Vec<CompiledCq>,
}

impl CompiledUcq {
    pub fn new(q: &Ucq, stats: &mut HomStats) -> CompiledUcq {
        CompiledUcq {
            arity: q.arity,
            disjuncts: q
                .disjuncts
                .iter()
                .map(|d| CompiledCq::new(d, stats))
                .collect(),
        }
    }

    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Is `tuple` an answer of some disjunct on `inst`? The instance
    /// signature is computed once and prefilters every disjunct.
    pub fn is_answer(&self, inst: &Instance, tuple: &[ConstId], stats: &mut HomStats) -> bool {
        let _span = omq_obs::span("hom.probe");
        let isig = instance_sig(inst);
        self.disjuncts
            .iter()
            .any(|d| d.is_answer(inst, isig, tuple, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_model::{parse_query, parse_tgd, Atom, Vocabulary};

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

    #[test]
    fn unary_projection() {
        let mut voc = Vocabulary::new();
        let d = db(&mut voc, &["R(a,b)", "R(a,c)", "R(b,c)"]);
        let (_, q) = parse_query(&mut voc, "q(X) :- R(X,Y)").unwrap();
        let ans = eval_cq(&q, &d);
        assert_eq!(ans.len(), 2); // a and b
    }

    #[test]
    fn boolean_query() {
        let mut voc = Vocabulary::new();
        let d = db(&mut voc, &["R(a,b)"]);
        let (_, q) = parse_query(&mut voc, "q :- R(X,Y)").unwrap();
        let ans = eval_cq(&q, &d);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&vec![]));
        assert!(holds_cq(&q, &d, &mut HomStats::default()));
    }

    #[test]
    fn null_answers_are_filtered() {
        let mut voc = Vocabulary::new();
        let r = voc.pred("R", 2);
        let a = voc.constant("a");
        let n = voc.fresh_null();
        let mut inst = Instance::new();
        inst.insert(Atom::new(r, vec![Term::Const(a), Term::Null(n)]));
        let (_, q) = parse_query(&mut voc, "q(Y) :- R(X,Y)").unwrap();
        // The only witness maps Y to a null: no certain answer tuple.
        assert!(eval_cq(&q, &inst).is_empty());
        // But the Boolean version holds.
        assert!(holds_cq(&q, &inst, &mut HomStats::default()));
    }

    #[test]
    fn ucq_unions_answers() {
        let prog = omq_model::parse_program("q(X) :- P(X)\nq(X) :- T(X)\n").unwrap();
        let mut voc = prog.voc.clone();
        let d = db(&mut voc, &["P(a)", "T(b)"]);
        let ans = eval_ucq(prog.query("q").unwrap(), &d);
        assert_eq!(ans.len(), 2);
        assert!(holds_ucq(
            prog.query("q").unwrap(),
            &d,
            &mut HomStats::default()
        ));
    }

    #[test]
    fn fixed_tuple_check() {
        let mut voc = Vocabulary::new();
        let d = db(&mut voc, &["R(a,b)", "P(b)"]);
        let (_, q) = parse_query(&mut voc, "q(X) :- R(X,Y), P(Y)").unwrap();
        let a = voc.const_id("a").unwrap();
        let b = voc.const_id("b").unwrap();
        let mut stats = HomStats::default();
        assert!(is_answer(&q, &d, &[a], &mut stats));
        assert!(!is_answer(&q, &d, &[b], &mut stats));
        assert!(!is_answer(&q, &d, &[a, b], &mut stats)); // arity mismatch

        // Each probe compiled its plan into the caller's record.
        assert_eq!(stats.plans_compiled, 3);
        assert!(stats.candidates_scanned > 0);
    }

    #[test]
    fn repeated_head_variable() {
        let mut voc = Vocabulary::new();
        let d = db(&mut voc, &["R(a,a)", "R(a,b)"]);
        let (_, q) = parse_query(&mut voc, "q(X,X) :- R(X,X)").unwrap();
        let a = voc.const_id("a").unwrap();
        let b = voc.const_id("b").unwrap();
        assert!(is_answer(&q, &d, &[a, a], &mut HomStats::default()));
        assert!(!is_answer(&q, &d, &[a, b], &mut HomStats::default()));
    }
}
