//! Explanations for containment verdicts: replayable evidence instead of a
//! bare `Contained` / `NotContained`.
//!
//! A *non-containment* verdict is witnessed by a database `D` and a tuple
//! `c̄ ∈ Q₁(D) \ Q₂(D)` (Prop. 10). The explanation re-derives the positive
//! half as a chase proof tree: which tgds of `Σ₁` fired, on which body
//! images, to produce the facts a disjunct of `q₁` maps onto (the
//! *witness facts*). The derivation is support-closed — every kept step's
//! inputs are database atoms or outputs of earlier kept steps — so a
//! consumer can replay it fact-by-fact and check `c̄ ∈ Q₁(D)` without
//! trusting the engine (`crates/serve` exposes this as the `explain` op;
//! its tests do exactly that replay).
//!
//! A *containment* verdict is certified per frozen disjunct of the
//! left-hand rewriting: which disjunct of the right-hand rewriting maps
//! into it, and by which homomorphism (the Chandra–Merlin certificate
//! underlying the disjunct sweep). Non-rewritable right-hand sides are
//! checked by chase evaluation, which yields no finite homomorphism object;
//! those entries carry `rhs_disjunct: None`.
//!
//! Everything is rendered to strings in the caller's vocabulary, so the
//! output is deterministic and serializable without further lookups.

use std::collections::HashSet;
use std::ops::ControlFlow;

use omq_chase::{chase, ChaseConfig, DerivationStep, Guarantee, HomStats, JoinPlan};
use omq_model::display::{render_atom, render_cq, render_term, render_tgd};
use omq_model::{Atom, ConstId, Instance, Omq, Term, Ucq, VarId, Vocabulary};
use omq_rewrite::{DirectRewrite, RewriteSource, XRewriteConfig};

use crate::containment::{
    contains_with, ContainmentConfig, ContainmentError, ContainmentOutcome, ContainmentResult,
    Witness,
};
use crate::languages::detect_language;

/// One replayed chase firing, rendered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExplainStep {
    /// Index of the fired tgd in `Σ₁`.
    pub tgd_index: usize,
    /// The tgd, rendered in parser syntax.
    pub tgd: String,
    /// The body image the trigger matched (facts already present).
    pub inputs: Vec<String>,
    /// The head image the firing added (fresh nulls render as `⊥n`).
    pub outputs: Vec<String>,
}

/// Why `Q₁ ⊄ Q₂`: the witness plus a replayable derivation of the
/// positive half `c̄ ∈ Q₁(D)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WitnessExplanation {
    /// The witnessing database `D`, rendered fact by fact.
    pub database: Vec<String>,
    /// The tuple `c̄` (empty for Boolean queries).
    pub tuple: Vec<String>,
    /// Facts of `chase(D, Σ₁)` that a disjunct of `q₁` maps onto — the image
    /// whose existence makes `c̄` a certain answer of `Q₁`.
    pub witness_facts: Vec<String>,
    /// Support-closed firing log deriving every non-database witness fact.
    pub derivation: Vec<ExplainStep>,
}

/// How one frozen disjunct of the left rewriting is covered by `Q₂`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DisjunctCoverage {
    /// Index in the left-hand rewriting's disjunct list.
    pub disjunct: usize,
    /// The disjunct, rendered as a query.
    pub disjunct_cq: String,
    /// Index of the right-hand rewriting disjunct that maps into the frozen
    /// database (`None` when `Q₂` was checked by chase evaluation instead).
    pub rhs_disjunct: Option<usize>,
    /// The homomorphism as `(variable, image)` pairs, in first-occurrence
    /// order of the rhs disjunct's variables.
    pub homomorphism: Vec<(String, String)>,
}

/// Why `Q₁ ⊆ Q₂`: a per-disjunct coverage certificate (capped).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContainmentCoverage {
    /// Coverage for the first [`EXPLAIN_DISJUNCT_CAP`] disjuncts.
    pub shown: Vec<DisjunctCoverage>,
    /// Total disjuncts in the left-hand rewriting (may exceed `shown`).
    pub total_disjuncts: usize,
}

/// Verdict-specific explanation payload.
#[derive(Clone, Debug)]
pub enum ExplainDetail {
    NotContained(WitnessExplanation),
    Contained(ContainmentCoverage),
    /// Budgets ran out, or the evidence could not be reconstructed; the
    /// string says which.
    Unknown(String),
}

/// A containment verdict plus its evidence.
#[derive(Clone, Debug)]
pub struct Explanation {
    pub outcome: ContainmentOutcome,
    pub detail: ExplainDetail,
}

/// Max disjuncts a `Contained` explanation renders coverage for.
pub const EXPLAIN_DISJUNCT_CAP: usize = 32;

/// Depth ladder for re-deriving the witness match; the witness database is
/// a frozen rewriting disjunct, so a bounded chase reproduces the query
/// image at small depth (the rewriting unfolds only finitely many tgds).
const REPLAY_DEPTHS: [usize; 4] = [2, 4, 8, 16];

/// Decides `Q₁ ⊆ Q₂` and explains the verdict.
pub fn explain(
    q1: &Omq,
    q2: &Omq,
    voc: &mut Vocabulary,
    cfg: &ContainmentConfig,
) -> Result<Explanation, ContainmentError> {
    explain_with(q1, q2, voc, cfg, &mut DirectRewrite)
}

/// [`explain`], with rewritings drawn from `src` (a cache, a replay log, …).
pub fn explain_with(
    q1: &Omq,
    q2: &Omq,
    voc: &mut Vocabulary,
    cfg: &ContainmentConfig,
    src: &mut dyn RewriteSource,
) -> Result<Explanation, ContainmentError> {
    let outcome = contains_with(q1, q2, voc, cfg, src)?;
    let _span = omq_obs::span("explain");
    let detail = match &outcome.result {
        ContainmentResult::NotContained(w) => match explain_witness(q1, w, voc, cfg) {
            Some(we) => ExplainDetail::NotContained(we),
            None => ExplainDetail::Unknown(
                "the witness was found, but its derivation could not be re-chased \
                 within the replay depth ladder"
                    .into(),
            ),
        },
        ContainmentResult::Contained => {
            ExplainDetail::Contained(explain_contained(q1, q2, voc, cfg, src))
        }
        ContainmentResult::Unknown(reason) => ExplainDetail::Unknown(reason.clone()),
    };
    Ok(Explanation { outcome, detail })
}

/// Re-derives `c̄ ∈ Q₁(D)` on the witness: chases `D` under `Σ₁` with the
/// firing log on, finds the query image, and support-closes the log.
fn explain_witness(
    q1: &Omq,
    w: &Witness,
    voc: &mut Vocabulary,
    cfg: &ContainmentConfig,
) -> Option<WitnessExplanation> {
    for depth in REPLAY_DEPTHS {
        let chase_cfg = ChaseConfig {
            max_depth: Some(depth),
            record_derivation: true,
            budget: cfg.budget.clone(),
            ..ChaseConfig::default()
        };
        let out = chase(&w.database, &q1.sigma, voc, &chase_cfg);
        if let Some(image) = query_image(&q1.query, &out.instance, &w.tuple) {
            let steps = support_closure(&w.database, &out.derivation, &image);
            let render_steps = steps
                .iter()
                .map(|s| ExplainStep {
                    tgd_index: s.tgd,
                    tgd: render_tgd(voc, &q1.sigma[s.tgd]),
                    inputs: s.inputs.iter().map(|a| render_atom(voc, a)).collect(),
                    outputs: s.outputs.iter().map(|a| render_atom(voc, a)).collect(),
                })
                .collect();
            return Some(WitnessExplanation {
                database: w
                    .database
                    .atoms()
                    .iter()
                    .map(|a| render_atom(voc, a))
                    .collect(),
                tuple: w
                    .tuple
                    .iter()
                    .map(|&c| voc.const_name(c).to_owned())
                    .collect(),
                witness_facts: image.iter().map(|a| render_atom(voc, a)).collect(),
                derivation: render_steps,
            });
        }
        if out.guarantee == Guarantee::Exact {
            // Fixpoint reached without a match: deeper chases cannot help.
            return None;
        }
    }
    None
}

/// The image of some disjunct of `q` in `inst` under a homomorphism mapping
/// the head to `tuple`, or `None` if no disjunct matches.
fn query_image(q: &Ucq, inst: &Instance, tuple: &[ConstId]) -> Option<Vec<Atom>> {
    for d in &q.disjuncts {
        if d.head.len() != tuple.len() {
            continue;
        }
        let mut stats = HomStats::default();
        let plan = JoinPlan::compile(&d.body, &d.head, None, &mut stats);
        let pairs: Vec<(VarId, Term)> = d
            .head
            .iter()
            .copied()
            .zip(tuple.iter().map(|&c| Term::Const(c)))
            .collect();
        let Some(seed) = plan.seed_values(&pairs) else {
            continue;
        };
        let mut image: Option<Vec<Atom>> = None;
        let _ = plan.execute(inst, &seed, None, &mut stats, |h| {
            image = Some(
                d.body
                    .iter()
                    .map(|a| {
                        let args: Vec<Term> = a
                            .args
                            .iter()
                            .map(|&t| match t {
                                Term::Var(v) => h
                                    .slot(plan.slot_of(v).expect("body var"))
                                    .expect("complete hom binds all slots"),
                                other => other,
                            })
                            .collect();
                        Atom::new(a.pred, args)
                    })
                    .collect(),
            );
            ControlFlow::Break(())
        });
        if image.is_some() {
            return image;
        }
    }
    None
}

/// Keeps exactly the firing-log steps needed to derive `targets` from `db`:
/// walking the log backwards, a step is kept iff it outputs a needed fact,
/// and its non-database inputs become needed in turn. The result (in firing
/// order) replays forward: every kept step's inputs are in
/// `db ∪ outputs(earlier kept steps)`.
fn support_closure(
    db: &Instance,
    derivation: &[DerivationStep],
    targets: &[Atom],
) -> Vec<DerivationStep> {
    let mut needed: HashSet<Atom> = targets
        .iter()
        .filter(|a| !db.contains(a))
        .cloned()
        .collect();
    let mut kept: Vec<DerivationStep> = Vec::new();
    for step in derivation.iter().rev() {
        if step.outputs.iter().any(|o| needed.contains(o)) {
            for input in &step.inputs {
                if !db.contains(input) {
                    needed.insert(input.clone());
                }
            }
            kept.push(step.clone());
        }
    }
    kept.reverse();
    kept
}

/// Renders per-disjunct coverage for a `Contained` verdict.
fn explain_contained(
    q1: &Omq,
    q2: &Omq,
    voc: &mut Vocabulary,
    cfg: &ContainmentConfig,
    src: &mut dyn RewriteSource,
) -> ContainmentCoverage {
    let lhs_language = detect_language(q1);
    let disjuncts = if lhs_language.is_ucq_rewritable() {
        src.rewrite(q1, voc, &cfg.rewrite).ucq.disjuncts
    } else {
        // Mirror the anytime ladder (`prune_subsumed: false` keeps the
        // prefix property): the verdict was `Contained`, so some budget
        // saturated — its disjunct list is the one the sweep checked.
        let mut got: Vec<_> = Vec::new();
        for &budget in &cfg.anytime_budgets {
            let rw_cfg = XRewriteConfig {
                max_queries: budget,
                prune_subsumed: false,
                ..cfg.rewrite.clone()
            };
            let art = src.rewrite(q1, voc, &rw_cfg);
            got = art.ucq.disjuncts;
            if art.guarantee == Guarantee::Exact {
                break;
            }
        }
        got
    };

    let rhs_language = if q1 == q2 {
        lhs_language
    } else {
        detect_language(q2)
    };
    let rhs_ucq: Option<Ucq> = rhs_language
        .is_ucq_rewritable()
        .then(|| src.rewrite(q2, voc, &cfg.eval.rewrite).ucq);

    let total_disjuncts = disjuncts.len();
    let shown = disjuncts
        .iter()
        .take(EXPLAIN_DISJUNCT_CAP)
        .enumerate()
        .map(|(i, d)| {
            let (db, tuple) = d.freeze(voc);
            let (rhs_disjunct, homomorphism) = rhs_ucq
                .as_ref()
                .and_then(|u| find_cover(u, &db, &tuple, voc))
                .map_or((None, Vec::new()), |(j, hom)| (Some(j), hom));
            DisjunctCoverage {
                disjunct: i,
                disjunct_cq: render_cq(voc, "q", d),
                rhs_disjunct,
                homomorphism,
            }
        })
        .collect();
    ContainmentCoverage {
        shown,
        total_disjuncts,
    }
}

/// The first rhs disjunct mapping into `db` with head image `tuple`, plus
/// the homomorphism, rendered.
fn find_cover(
    rhs: &Ucq,
    db: &Instance,
    tuple: &[ConstId],
    voc: &Vocabulary,
) -> Option<(usize, Vec<(String, String)>)> {
    for (j, d) in rhs.disjuncts.iter().enumerate() {
        if d.head.len() != tuple.len() {
            continue;
        }
        let mut stats = HomStats::default();
        let plan = JoinPlan::compile(&d.body, &d.head, None, &mut stats);
        let pairs: Vec<(VarId, Term)> = d
            .head
            .iter()
            .copied()
            .zip(tuple.iter().map(|&c| Term::Const(c)))
            .collect();
        let Some(seed) = plan.seed_values(&pairs) else {
            continue;
        };
        // Variables in first-occurrence order (head, then body), so the
        // rendered pairs are deterministic.
        let mut vars: Vec<VarId> = Vec::new();
        for &v in &d.head {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        for a in &d.body {
            for &t in &a.args {
                if let Term::Var(v) = t {
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
            }
        }
        let mut result: Option<Vec<(String, String)>> = None;
        let _ = plan.execute(db, &seed, None, &mut stats, |h| {
            result = Some(
                vars.iter()
                    .filter_map(|&v| {
                        plan.slot_of(v)
                            .and_then(|s| h.slot(s))
                            .map(|t| (voc.var_name(v).to_owned(), render_term(voc, t)))
                    })
                    .collect(),
            );
            ControlFlow::Break(())
        });
        if let Some(hom) = result {
            return Some((j, hom));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_model::{parse_program, Schema};

    fn setup(text: &str, data: &[&str], n1: &str, n2: &str) -> (Omq, Omq, Vocabulary) {
        let prog = parse_program(text).unwrap();
        let voc = prog.voc.clone();
        let schema = Schema::from_preds(data.iter().map(|n| voc.pred_id(n).unwrap()));
        let q1 = Omq::new(
            schema.clone(),
            prog.tgds.clone(),
            prog.query(n1).unwrap().clone(),
        );
        let q2 = Omq::new(schema, prog.tgds.clone(), prog.query(n2).unwrap().clone());
        (q1, q2, voc)
    }

    /// The non-containment explanation's derivation must replay: starting
    /// from the witness database, fire the steps in order (inputs must
    /// already be present) and end with every witness fact derived.
    #[test]
    fn witness_derivation_replays() {
        let (q1, q2, mut voc) = setup(
            "P(X) -> exists Y . R(X,Y)\n\
             R(X,Y) -> P(Y)\n\
             a(X) :- P(X)\n\
             b(X) :- T(X)\n",
            &["P", "T"],
            "a",
            "b",
        );
        let cfg = ContainmentConfig::default();
        let ex = explain(&q1, &q2, &mut voc, &cfg).unwrap();
        assert!(ex.outcome.result.is_not_contained());
        let ExplainDetail::NotContained(we) = &ex.detail else {
            panic!("expected a witness explanation, got {:?}", ex.detail);
        };
        // Replay over rendered facts: a set-based chase of the derivation.
        let mut state: HashSet<String> = we.database.iter().cloned().collect();
        for step in &we.derivation {
            for input in &step.inputs {
                assert!(state.contains(input), "unjustified input {input}");
            }
            state.extend(step.outputs.iter().cloned());
        }
        assert!(!we.witness_facts.is_empty());
        for fact in &we.witness_facts {
            assert!(state.contains(fact), "witness fact {fact} not derived");
        }
    }

    /// Ontology-free witness: the query image is entirely in the database,
    /// so the derivation is empty but the facts are still certified.
    #[test]
    fn witness_without_ontology_has_empty_derivation() {
        let (q1, q2, mut voc) = setup("p1 :- E(U,V)\np2 :- E(X,Y), E(Y,Z)\n", &["E"], "p1", "p2");
        let cfg = ContainmentConfig::default();
        let ex = explain(&q1, &q2, &mut voc, &cfg).unwrap();
        let ExplainDetail::NotContained(we) = &ex.detail else {
            panic!("expected witness explanation, got {:?}", ex.detail);
        };
        assert!(we.derivation.is_empty());
        assert_eq!(we.witness_facts.len(), 1);
        assert!(we.database.contains(&we.witness_facts[0]));
    }

    /// A contained verdict yields per-disjunct coverage with a concrete
    /// homomorphism from the rhs rewriting into each frozen disjunct.
    #[test]
    fn contained_coverage_names_rhs_disjunct_and_hom() {
        let (q1, q2, mut voc) = setup(
            "T(X) -> P(X)\n\
             qt(X) :- T(X)\n\
             qp(X) :- P(X)\n",
            &["P", "T"],
            "qt",
            "qp",
        );
        let cfg = ContainmentConfig::default();
        let ex = explain(&q1, &q2, &mut voc, &cfg).unwrap();
        assert!(ex.outcome.result.is_contained());
        let ExplainDetail::Contained(cov) = &ex.detail else {
            panic!("expected coverage, got {:?}", ex.detail);
        };
        assert_eq!(cov.total_disjuncts, cov.shown.len());
        assert!(!cov.shown.is_empty());
        for dc in &cov.shown {
            assert!(dc.rhs_disjunct.is_some(), "no cover for {}", dc.disjunct_cq);
            assert!(!dc.homomorphism.is_empty());
        }
    }

    /// Unknown verdicts pass their reason through.
    #[test]
    fn unknown_verdict_is_passed_through() {
        let (q1, q2, mut voc) = setup(
            "G(X,Y,Z), R(X,Y) -> exists W . G(Y,Z,W), R(Y,Z)\n\
             g :- G(X,Y,Z), R(X,Y)\n\
             h :- G(X,Y,Z)\n",
            &["G", "R"],
            "g",
            "h",
        );
        let cfg = ContainmentConfig {
            anytime_budgets: vec![5],
            ..Default::default()
        };
        let ex = explain(&q1, &q2, &mut voc, &cfg).unwrap();
        match (&ex.outcome.result, &ex.detail) {
            (ContainmentResult::Unknown(_), ExplainDetail::Unknown(reason)) => {
                assert!(!reason.is_empty());
            }
            (ContainmentResult::Contained, ExplainDetail::Contained(_)) => {}
            other => panic!("verdict/detail mismatch: {other:?}"),
        }
    }
}
