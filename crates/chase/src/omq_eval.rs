//! Chase-based OMQ evaluation and the critical-instance satisfiability test.

use std::collections::HashSet;
use std::fmt;

use omq_classes::is_non_recursive;
use omq_model::{Atom, ConstId, Instance, Omq, Schema, Term, Vocabulary};

use crate::chase::{chase, stratified_chase, ChaseConfig};
use crate::eval::eval_ucq;
use crate::runtime::Guarantee;

/// Errors surfaced by evaluation strategies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// The chase hit a budget before reaching a fixpoint, so the computed
    /// answer set may be incomplete (it is always sound).
    ChaseIncomplete {
        /// Steps performed before the budget ran out.
        steps: usize,
    },
    /// The database mentions predicates outside the OMQ's data schema.
    DatabaseNotOverDataSchema,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::ChaseIncomplete { steps } => {
                write!(f, "chase did not terminate within budget ({steps} steps)")
            }
            EvalError::DatabaseNotOverDataSchema => {
                write!(f, "database is not over the OMQ's data schema")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates `Q(D) = q(chase(D, Σ))` by materializing the chase.
///
/// For non-recursive ontologies the stratified chase is used and the result
/// is exact. Otherwise the budgeted restricted chase runs; if it reaches a
/// fixpoint the result is exact, else `Err(ChaseIncomplete)` is returned.
/// (Classes with a non-terminating chase — linear, sticky, guarded — have
/// dedicated complete engines in `omq-rewrite` and `omq-guarded`.)
pub fn certain_answers_via_chase(
    omq: &Omq,
    db: &Instance,
    voc: &mut Vocabulary,
    cfg: &ChaseConfig,
) -> Result<HashSet<Vec<ConstId>>, EvalError> {
    for a in db.atoms() {
        if !omq.data_schema.contains(a.pred) {
            return Err(EvalError::DatabaseNotOverDataSchema);
        }
    }
    let outcome = if is_non_recursive(&omq.sigma) {
        stratified_chase(db, &omq.sigma, voc, cfg).expect("checked non-recursive")
    } else {
        chase(db, &omq.sigma, voc, cfg)
    };
    match outcome.guarantee {
        Guarantee::Exact => Ok(eval_ucq(&omq.query, &outcome.instance)),
        Guarantee::Capped(_) => Err(EvalError::ChaseIncomplete {
            steps: outcome.steps,
        }),
    }
}

/// Builds the *critical instance* for a schema: one constant `*` and, for
/// every predicate, the atom with `*` at every position.
///
/// Every `S`-database maps homomorphically into the critical instance, and
/// OMQs are closed under homomorphisms; hence an OMQ `Q` with data schema
/// `S` is satisfiable iff `Q(D_crit) ≠ ∅`. Used by the unsatisfiability
/// check behind distribution over components (§7.1).
pub fn critical_instance(schema: &Schema, voc: &mut Vocabulary) -> (Instance, ConstId) {
    let star = voc.fresh_const("star");
    let mut inst = Instance::new();
    for &p in schema.preds() {
        let args = vec![Term::Const(star); voc.arity(p)];
        inst.insert(Atom::new(p, args));
    }
    (inst, star)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_model::{parse_program, parse_tgd, Ucq};

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
    fn nr_evaluation_is_exact() {
        let prog = parse_program(
            "Emp(X) -> exists D . Works(X,D)\n\
             Works(X,D) -> Unit(D)\n\
             q(X) :- Works(X,D), Unit(D)\n",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let emp = voc.pred_id("Emp").unwrap();
        let works = voc.pred_id("Works").unwrap();
        let omq = Omq::new(
            Schema::from_preds([emp, works]),
            prog.tgds.clone(),
            prog.query("q").unwrap().clone(),
        );
        let d = db(&mut voc, &["Emp(alice)", "Works(bob, sales)"]);
        let ans = certain_answers_via_chase(&omq, &d, &mut voc, &ChaseConfig::default()).unwrap();
        // alice's department is a null => only bob is a certain answer...
        // but alice still matches q because Works(alice,⊥), Unit(⊥) holds
        // and X binds to alice (a constant).
        assert_eq!(ans.len(), 2);
    }

    #[test]
    fn rejects_out_of_schema_database() {
        let prog = parse_program("P(X) -> Q(X)\nq(X) :- Q(X)\n").unwrap();
        let mut voc = prog.voc.clone();
        let p = voc.pred_id("P").unwrap();
        let omq = Omq::new(
            Schema::from_preds([p]),
            prog.tgds.clone(),
            prog.query("q").unwrap().clone(),
        );
        let d = db(&mut voc, &["Q(a)"]);
        assert_eq!(
            certain_answers_via_chase(&omq, &d, &mut voc, &ChaseConfig::default()),
            Err(EvalError::DatabaseNotOverDataSchema)
        );
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut voc = Vocabulary::new();
        let sigma = vec![parse_tgd(&mut voc, "P(X) -> exists Y . P(Y), Q(X,Y)").unwrap()];
        let p = voc.pred_id("P").unwrap();
        let (_, q) = omq_model::parse_query(&mut voc, "ans :- Q(X,Y)").unwrap();
        let omq = Omq::new(Schema::from_preds([p]), sigma, Ucq::from_cq(q));
        let d = db(&mut voc, &["P(a)"]);
        let r = certain_answers_via_chase(&omq, &d, &mut voc, &ChaseConfig::with_steps(10));
        assert!(matches!(r, Err(EvalError::ChaseIncomplete { .. })));
    }

    #[test]
    fn critical_instance_detects_satisfiability() {
        let prog = parse_program(
            "P(X) -> exists Y . R(X,Y)\n\
             q :- R(X,Y)\n\
             unsat :- Z0(X)\n",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let p = voc.pred_id("P").unwrap();
        let schema = Schema::from_preds([p]);
        let (crit, _) = critical_instance(&schema, &mut voc);
        assert_eq!(crit.len(), 1);
        let omq = Omq::new(
            schema.clone(),
            prog.tgds.clone(),
            prog.query("q").unwrap().clone(),
        );
        let ans =
            certain_answers_via_chase(&omq, &crit, &mut voc, &ChaseConfig::default()).unwrap();
        assert!(!ans.is_empty());
        // An OMQ asking for a predicate outside S ∪ heads is unsatisfiable.
        let omq2 = Omq::new(
            schema,
            prog.tgds.clone(),
            prog.query("unsat").unwrap().clone(),
        );
        let ans2 =
            certain_answers_via_chase(&omq2, &crit, &mut voc, &ChaseConfig::default()).unwrap();
        assert!(ans2.is_empty());
    }
}
