//! Applications of containment (§7): unsatisfiability, distribution over
//! components (Prop. 27 / Thm. 28), and UCQ rewritability (§7.2).

use std::fmt;

use omq_chase::{critical_instance, Guarantee};
use omq_model::{Omq, Ucq, Vocabulary};
use omq_rewrite::{xrewrite, RewriteError};

use crate::containment::{contains, ContainmentConfig, ContainmentResult};
use crate::evaluate::{evaluate, EvalConfig, Trool};
use crate::languages::detect_language;

/// Is the OMQ unsatisfiable: no `S`-database makes it true?
///
/// Decided via the *critical instance*: every `S`-database maps
/// homomorphically into the single-constant instance, and OMQs are closed
/// under homomorphisms, so `Q` is satisfiable iff `Q(D_crit) ≠ ∅`.
pub fn is_unsatisfiable(omq: &Omq, voc: &mut Vocabulary, cfg: &EvalConfig) -> Trool {
    let (crit, _) = critical_instance(&omq.data_schema, voc);
    let out = evaluate(omq, &crit, voc, cfg);
    match out.guarantee {
        _ if !out.answers.is_empty() => Trool::False,
        Guarantee::Exact => Trool::True,
        Guarantee::Capped(_) => Trool::Unknown,
    }
}

/// Why a distribution question could not be posed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AppsError {
    /// Distribution over components is defined for CQ-based OMQs (§7.1).
    NotACq,
}

impl fmt::Display for AppsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppsError::NotACq => write!(f, "distribution over components needs a CQ query"),
        }
    }
}

impl std::error::Error for AppsError {}

/// The verdict of the distribution check.
#[derive(Clone, Debug)]
pub enum DistributionResult {
    /// `Q(D) = Q(D₁) ∪ … ∪ Q(Dₙ)` over the components of every database:
    /// `Q` can be evaluated coordination-free.
    Distributes,
    /// Some database distinguishes `Q` from its componentwise evaluation.
    DoesNotDistribute,
    /// Budgets did not suffice.
    Unknown(String),
}

/// Decides distribution over components via the semantic characterization
/// of Prop. 27: `Q` distributes iff it is unsatisfiable or some connected
/// component `q̂` of `q` satisfies `(S, Σ, q̂) ⊆ Q`.
///
/// Components that do not carry all answer variables cannot witness the
/// containment (their arity differs); if no component carries all of them,
/// only unsatisfiability can make `Q` distribute.
pub fn distributes_over_components(
    omq: &Omq,
    voc: &mut Vocabulary,
    cfg: &ContainmentConfig,
) -> Result<DistributionResult, AppsError> {
    let Some(q) = omq.query.as_cq() else {
        return Err(AppsError::NotACq);
    };
    match is_unsatisfiable(omq, voc, &cfg.eval) {
        Trool::True => return Ok(DistributionResult::Distributes),
        Trool::Unknown => {
            return Ok(DistributionResult::Unknown(
                "satisfiability check was inconclusive".into(),
            ))
        }
        Trool::False => {}
    }
    let mut saw_unknown = None;
    for comp in q.components() {
        if comp.head.len() != q.head.len() {
            continue; // cannot have the same answer arity
        }
        // Re-order check: the component's head must be the full head.
        if comp.head != q.head {
            continue;
        }
        let q_hat = Omq::new(
            omq.data_schema.clone(),
            omq.sigma.clone(),
            Ucq::from_cq(comp),
        );
        match contains(&q_hat, omq, voc, cfg) {
            Ok(out) => match out.result {
                ContainmentResult::Contained => return Ok(DistributionResult::Distributes),
                ContainmentResult::NotContained(_) => {}
                ContainmentResult::Unknown(r) => saw_unknown = Some(r),
            },
            Err(e) => saw_unknown = Some(e.to_string()),
        }
    }
    match saw_unknown {
        Some(r) => Ok(DistributionResult::Unknown(r)),
        None => Ok(DistributionResult::DoesNotDistribute),
    }
}

/// The verdict of the UCQ-rewritability check (§7.2).
#[derive(Clone, Debug)]
pub enum RewritabilityResult {
    /// A UCQ rewriting over the data schema exists — here it is.
    Rewritable(Ucq),
    /// The rewriting search exceeded its budget; for guarded OMQs the
    /// decision problem is 2EXPTIME-complete (Thm. 29), so budgets are
    /// inherent. The partial rewriting (sound, possibly incomplete) and the
    /// budget are reported.
    Unknown {
        /// Sound partial rewriting.
        partial: Ucq,
        /// The budget that was exhausted.
        budget: usize,
    },
}

/// Checks whether `Q` is UCQ rewritable and produces the rewriting.
///
/// For `L`/`NR`/`S` inputs the answer is always `Rewritable` (Def. 1); for
/// guarded and other inputs, saturation of XRewrite certifies rewritability
/// while budget exhaustion yields `Unknown` — this library does not decide
/// the negative side (the paper's Thm. 29 automaton for `G₂` certifies
/// non-rewritability; its state space is inherently double-exponential).
pub fn is_ucq_rewritable(
    omq: &Omq,
    voc: &mut Vocabulary,
    cfg: &ContainmentConfig,
) -> RewritabilityResult {
    let _ = detect_language(omq);
    match xrewrite(omq, voc, &cfg.rewrite) {
        Ok(out) => RewritabilityResult::Rewritable(out.ucq),
        Err(RewriteError::BudgetExceeded(_, partial)) => RewritabilityResult::Unknown {
            partial: partial.ucq,
            budget: cfg.rewrite.max_queries,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_model::{parse_program, Schema};

    fn omq(text: &str, data: &[&str], q: &str) -> (Omq, Vocabulary) {
        let prog = parse_program(text).unwrap();
        let voc = prog.voc.clone();
        let schema = Schema::from_preds(data.iter().map(|n| voc.pred_id(n).unwrap()));
        (
            Omq::new(schema, prog.tgds.clone(), prog.query(q).unwrap().clone()),
            voc,
        )
    }

    #[test]
    fn satisfiability_checks() {
        let (q, mut voc) = omq("P(X) -> exists Y . R(X,Y)\nq :- R(X,Y)\n", &["P"], "q");
        assert_eq!(
            is_unsatisfiable(&q, &mut voc, &EvalConfig::default()),
            Trool::False
        );
        // Asking for a predicate nothing can derive: unsatisfiable.
        let (q2, mut voc2) = omq("P(X) -> exists Y . R(X,Y)\nq :- Z0(X)\n", &["P"], "q");
        assert_eq!(
            is_unsatisfiable(&q2, &mut voc2, &EvalConfig::default()),
            Trool::True
        );
    }

    /// A connected query always distributes (its sole component is q).
    #[test]
    fn connected_query_distributes() {
        let (q, mut voc) = omq("q :- E(X,Y), E(Y,Z)\n", &["E"], "q");
        let r = distributes_over_components(&q, &mut voc, &ContainmentConfig::default()).unwrap();
        assert!(matches!(r, DistributionResult::Distributes));
    }

    /// The classic non-distributing query: two disconnected atoms. On a
    /// database with P-only and T-only components the conjunction holds
    /// globally but in no single component.
    #[test]
    fn disconnected_conjunction_does_not_distribute() {
        let (q, mut voc) = omq("q :- P(X), T(Y)\n", &["P", "T"], "q");
        let r = distributes_over_components(&q, &mut voc, &ContainmentConfig::default()).unwrap();
        assert!(matches!(r, DistributionResult::DoesNotDistribute), "{r:?}");
    }

    /// The ontology can make a disconnected query distribute: if P(x)
    /// implies ∃y T(y), then the component P(x) alone entails the whole
    /// query.
    #[test]
    fn ontology_restores_distribution() {
        let (q, mut voc) = omq(
            "P(X) -> exists Y . T(Y)\nq :- P(X), T(Y)\n",
            &["P", "T"],
            "q",
        );
        let r = distributes_over_components(&q, &mut voc, &ContainmentConfig::default()).unwrap();
        assert!(matches!(r, DistributionResult::Distributes), "{r:?}");
    }

    /// An unsatisfiable OMQ distributes vacuously.
    #[test]
    fn unsatisfiable_distributes() {
        // Z9 is not in the data schema and no tgd derives it.
        let (q, mut voc) = omq("q :- Z0(X), Z9(Y)\n", &["Z0"], "q");
        let r = distributes_over_components(&q, &mut voc, &ContainmentConfig::default()).unwrap();
        assert!(matches!(r, DistributionResult::Distributes));
    }

    #[test]
    fn ucq_query_rejected_for_distribution() {
        let (q, mut voc) = omq("q :- P(X)\nq :- T(X)\n", &["P", "T"], "q");
        assert_eq!(
            distributes_over_components(&q, &mut voc, &ContainmentConfig::default()).unwrap_err(),
            AppsError::NotACq
        );
    }

    #[test]
    fn rewritability_for_linear() {
        let (q, mut voc) = omq(
            "P(X) -> exists Y . R(X,Y)\nR(X,Y) -> P(Y)\nT(X) -> P(X)\nq(X) :- R(X,Y), P(Y)\n",
            &["P", "T"],
            "q",
        );
        match is_ucq_rewritable(&q, &mut voc, &ContainmentConfig::default()) {
            RewritabilityResult::Rewritable(ucq) => {
                assert_eq!(ucq.disjuncts.len(), 2); // P(x) ∨ T(x)
            }
            other => panic!("expected rewritable, got {other:?}"),
        }
    }

    /// A guarded OMQ with genuinely unbounded rewritings: budget exhaustion
    /// is reported as Unknown with a sound partial rewriting.
    #[test]
    fn rewritability_unknown_for_hard_guarded() {
        let (q, mut voc) = omq(
            "G(X,Y,Z), R(X,Y) -> exists W . G(Y,Z,W), R(Y,Z)\n\
             q :- G(X,Y,Z), R(X,Y)\n",
            &["G", "R"],
            "q",
        );
        let cfg = ContainmentConfig {
            rewrite: omq_rewrite::XRewriteConfig::with_max_queries(30),
            ..Default::default()
        };
        match is_ucq_rewritable(&q, &mut voc, &cfg) {
            RewritabilityResult::Unknown { partial, budget } => {
                assert_eq!(budget, 30);
                assert!(!partial.disjuncts.is_empty());
            }
            RewritabilityResult::Rewritable(_) => {
                // Acceptable if the fixpoint is genuinely small; but with
                // this recursion it should not be.
                panic!("expected budget exhaustion");
            }
        }
    }
}
