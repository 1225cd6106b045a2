//! A unified OMQ evaluation front-end: picks the complete strategy for the
//! detected language and reports the guarantee it achieved.
//!
//! | language | strategy | guarantee |
//! |---|---|---|
//! | `∅` | direct UCQ evaluation | exact |
//! | `NR` | stratified chase (Prop. 3) | exact |
//! | `L`, `S` | UCQ rewriting (Props. 2, 4 via Def. 1) | exact |
//! | `G` | stabilizing guarded chase (Prop. 1) | exact / stabilized |
//! | `F`, general | budgeted chase | exact if it terminates, else sound lower bound |

use std::collections::HashSet;

use omq_chase::chase::{chase, stratified_chase, ChaseConfig};
use omq_chase::eval::{eval_ucq, is_answer_ucq};
use omq_chase::{Budget, HomStats};
use omq_guarded::{guarded_certain_answers, Completeness, GuardedConfig};
use omq_model::{ConstId, Instance, Omq, Vocabulary};
use omq_rewrite::{DirectRewrite, RewriteSource, XRewriteConfig};

use crate::languages::{detect_language, OmqLanguage};

/// Budgets for every strategy the dispatcher may pick.
#[derive(Clone, Debug, Default)]
pub struct EvalConfig {
    /// Chase budgets (non-recursive / fallback paths).
    pub chase: ChaseConfig,
    /// Rewriting budgets (linear / sticky paths).
    pub rewrite: XRewriteConfig,
    /// Guarded-engine budgets.
    pub guarded: GuardedConfig,
}

impl EvalConfig {
    /// Installs `budget` on every strategy config, so whichever engine the
    /// dispatcher picks honours the same deadline/cancel token. Expiry
    /// degrades the guarantee to [`EvalGuarantee::SoundLowerBound`].
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.chase.budget = budget.clone();
        self.rewrite.budget = budget.clone();
        self.guarded.budget = budget;
        self
    }
}

/// The guarantee attached to an evaluation result.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EvalGuarantee {
    /// The answer set equals `Q(D)`.
    Exact,
    /// Complete under the guarded-chase regularity property (see
    /// `omq_guarded::guarded_eval`).
    Stabilized,
    /// Budgets ran out: the answers are sound but possibly incomplete.
    SoundLowerBound,
}

/// An evaluation result.
#[derive(Clone, Debug)]
pub struct EvalOutcome {
    /// The computed certain answers (always sound).
    pub answers: HashSet<Vec<ConstId>>,
    /// The guarantee achieved.
    pub guarantee: EvalGuarantee,
    /// The language the dispatcher detected.
    pub language: OmqLanguage,
}

/// Evaluates `Q(D)`, dispatching on the detected language.
pub fn evaluate(omq: &Omq, db: &Instance, voc: &mut Vocabulary, cfg: &EvalConfig) -> EvalOutcome {
    evaluate_with(omq, db, voc, cfg, &mut DirectRewrite)
}

/// [`evaluate`], with the rewriting (when the dispatcher picks the
/// rewriting strategy) drawn from `src` instead of computed from scratch.
pub fn evaluate_with(
    omq: &Omq,
    db: &Instance,
    voc: &mut Vocabulary,
    cfg: &EvalConfig,
    src: &mut dyn RewriteSource,
) -> EvalOutcome {
    evaluate_in_language(omq, db, voc, cfg, src, detect_language(omq))
}

/// [`evaluate_with`], with the language already detected by the caller (it
/// is trusted, not re-checked). Hot loops evaluating one fixed OMQ over
/// many databases hoist the per-call detection this way.
pub fn evaluate_in_language(
    omq: &Omq,
    db: &Instance,
    voc: &mut Vocabulary,
    cfg: &EvalConfig,
    src: &mut dyn RewriteSource,
    language: OmqLanguage,
) -> EvalOutcome {
    match language {
        OmqLanguage::Empty => EvalOutcome {
            answers: eval_ucq(&omq.query, db),
            guarantee: EvalGuarantee::Exact,
            language,
        },
        OmqLanguage::NonRecursive => {
            let out =
                stratified_chase(db, &omq.sigma, voc, &cfg.chase).expect("detected non-recursive");
            EvalOutcome {
                answers: eval_ucq(&omq.query, &out.instance),
                guarantee: if out.complete {
                    EvalGuarantee::Exact
                } else {
                    EvalGuarantee::SoundLowerBound
                },
                language,
            }
        }
        OmqLanguage::Linear | OmqLanguage::Sticky => {
            // Partial rewritings are sound, so a truncated artifact still
            // yields a lower bound.
            let art = src.rewrite(omq, voc, &cfg.rewrite);
            EvalOutcome {
                answers: eval_ucq(&art.ucq, db),
                guarantee: if art.complete {
                    EvalGuarantee::Exact
                } else {
                    EvalGuarantee::SoundLowerBound
                },
                language,
            }
        }
        OmqLanguage::Guarded => {
            let r = guarded_certain_answers(omq, db, voc, &cfg.guarded);
            EvalOutcome {
                answers: r.answers,
                guarantee: match r.completeness {
                    Completeness::Exact => EvalGuarantee::Exact,
                    Completeness::Stabilized => EvalGuarantee::Stabilized,
                    Completeness::LowerBound => EvalGuarantee::SoundLowerBound,
                },
                language,
            }
        }
        OmqLanguage::Full | OmqLanguage::General => {
            let out = chase(db, &omq.sigma, voc, &cfg.chase);
            EvalOutcome {
                answers: eval_ucq(&omq.query, &out.instance),
                guarantee: if out.complete {
                    EvalGuarantee::Exact
                } else {
                    EvalGuarantee::SoundLowerBound
                },
                language,
            }
        }
    }
}

/// Three-valued answer for membership questions under budgets.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Trool {
    /// Certainly yes.
    True,
    /// Certainly no.
    False,
    /// The budgets did not suffice to decide.
    Unknown,
}

/// Is `tuple` a certain answer of `Q` over `D`?
///
/// `True` is always sound; `False` is sound when the evaluation guarantee
/// is `Exact` or `Stabilized`; otherwise `Unknown`.
pub fn is_certain_answer(
    omq: &Omq,
    db: &Instance,
    tuple: &[ConstId],
    voc: &mut Vocabulary,
    cfg: &EvalConfig,
) -> Trool {
    // An empty ontology needs no chase and no rewriting: membership is one
    // seeded plan execution per disjunct (exact in both directions), instead
    // of enumerating the full answer set just to probe one tuple.
    if detect_language(omq) == OmqLanguage::Empty {
        return if is_answer_ucq(&omq.query, db, tuple, &mut HomStats::default()) {
            Trool::True
        } else {
            Trool::False
        };
    }
    let out = evaluate(omq, db, voc, cfg);
    if out.answers.contains(tuple) {
        Trool::True
    } else {
        match out.guarantee {
            EvalGuarantee::Exact | EvalGuarantee::Stabilized => Trool::False,
            EvalGuarantee::SoundLowerBound => Trool::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_model::{parse_program, parse_tgd, Schema};

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
    fn dispatches_linear_to_rewriting() {
        let (q, mut voc) = omq(
            "P(X) -> exists Y . R(X,Y)\nR(X,Y) -> P(Y)\nT(X) -> P(X)\n\
             q(X) :- R(X,Y), P(Y)\n",
            &["P", "T"],
            "q",
        );
        let d = db(&mut voc, &["T(a)"]);
        let out = evaluate(&q, &d, &mut voc, &EvalConfig::default());
        assert_eq!(out.language, OmqLanguage::Linear);
        assert_eq!(out.guarantee, EvalGuarantee::Exact);
        assert_eq!(out.answers.len(), 1);
    }

    #[test]
    fn dispatches_nr_to_stratified_chase() {
        let (q, mut voc) = omq(
            "A(X), B(X) -> exists Y . C(X,Y)\nq(X) :- C(X,Y)\n",
            &["A", "B"],
            "q",
        );
        let d = db(&mut voc, &["A(a)", "B(a)", "A(b)"]);
        let out = evaluate(&q, &d, &mut voc, &EvalConfig::default());
        assert_eq!(out.language, OmqLanguage::NonRecursive);
        assert_eq!(out.guarantee, EvalGuarantee::Exact);
        assert_eq!(out.answers.len(), 1);
    }

    #[test]
    fn dispatches_guarded_to_stabilizing_engine() {
        let (q, mut voc) = omq(
            "G(X,Y,Z), R(X,Y) -> exists W . G(Y,Z,W), R(Y,Z)\nq :- R(X,Y), R(Y,Z)\n",
            &["G", "R"],
            "q",
        );
        let d = db(&mut voc, &["G(a,b,c)", "R(a,b)"]);
        let out = evaluate(&q, &d, &mut voc, &EvalConfig::default());
        assert_eq!(out.language, OmqLanguage::Guarded);
        assert_ne!(out.guarantee, EvalGuarantee::SoundLowerBound);
        assert_eq!(out.answers.len(), 1);
    }

    #[test]
    fn certain_answer_three_valued() {
        let (q, mut voc) = omq("P(X) -> T(X)\nq(X) :- T(X)\n", &["P"], "q");
        let d = db(&mut voc, &["P(a)"]);
        let a = voc.const_id("a").unwrap();
        let b = voc.constant("b");
        assert_eq!(
            is_certain_answer(&q, &d, &[a], &mut voc, &EvalConfig::default()),
            Trool::True
        );
        assert_eq!(
            is_certain_answer(&q, &d, &[b], &mut voc, &EvalConfig::default()),
            Trool::False
        );
    }

    #[test]
    fn datalog_falls_back_to_chase() {
        let (q, mut voc) = omq(
            "E(X,Y) -> T(X,Y)\nT(X,Y), T(Y,Z) -> T(X,Z)\nq(X,Y) :- T(X,Y)\n",
            &["E"],
            "q",
        );
        let d = db(&mut voc, &["E(a,b)", "E(b,c)"]);
        let out = evaluate(&q, &d, &mut voc, &EvalConfig::default());
        assert_eq!(out.language, OmqLanguage::Full);
        assert_eq!(out.guarantee, EvalGuarantee::Exact);
        assert_eq!(out.answers.len(), 3);
    }
}
