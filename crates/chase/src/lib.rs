//! # omq-chase
//!
//! The query-evaluation substrate: homomorphism search, (U)CQ evaluation,
//! Chandra–Merlin containment and cores, and the chase procedure (paper §2,
//! "Tgds and the chase procedure").
//!
//! The chase is the central algorithmic tool for reasoning with tgds: for an
//! OMQ `Q = (S, Σ, q)` and database `D`, the certain answers are
//! `Q(D) = q(chase(D, Σ))`. This crate implements
//!
//! * the **restricted** chase (a trigger fires only when its head is not yet
//!   satisfied) and the **oblivious** chase (every trigger fires once),
//! * the **stratified** chase for non-recursive sets (always terminates),
//! * step- and depth-budgeted chasing for classes where termination is not
//!   guaranteed, with honest [`chase::ChaseOutcome::guarantee`] reporting,
//! * chase-based OMQ evaluation and the critical-instance satisfiability
//!   test.

pub mod chase;
pub mod cq_ops;
pub mod eval;
pub mod hom;
pub mod omq_eval;
pub mod runtime;

pub use chase::{
    chase, resume_chase, stratified_chase, ChaseConfig, ChaseOutcome, ChaseStats, ChaseVariant,
    DerivationStep,
};
pub use cq_ops::{
    cq_canonical_form, cq_contained, cq_contained_stats, cq_core, cq_core_budgeted,
    cq_core_budgeted_report, cq_equivalent, cq_isomorphic, ucq_contained, CqCanonicalForm,
    SubsumptionSieve,
};
pub use eval::{
    eval_cq, eval_ucq, holds_cq, holds_ucq, is_answer, is_answer_ucq, CompiledCq, CompiledUcq,
};
pub use hom::{
    find_hom, for_each_hom, for_each_hom_with_delta, global_hom_snapshot, instance_sig, pred_sig,
    sig_may_hom, Assignment, HomStats, HomView, JoinPlan, PlanCache, NO_LIMIT,
};
pub use omq_eval::{certain_answers_via_chase, critical_instance, EvalError};
pub use runtime::{effective_threads, parallel_indexed, Budget, CancelToken, Cap, Guarantee};
