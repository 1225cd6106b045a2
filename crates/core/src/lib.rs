//! # omq-core
//!
//! The paper's primary contribution: **containment for rule-based
//! ontology-mediated queries** (`Cont(O₁, O₂)`, §3), together with the
//! static-analysis applications built on it (§7).
//!
//! * [`languages`] — the OMQ languages `(C, (U)CQ)` for
//!   `C ∈ {∅, L, NR, S, G, F, TGD}` and their automatic detection;
//! * [`evaluate`] — a unified evaluation front-end choosing the complete
//!   strategy per class (rewriting for `L`/`S`, stratified chase for `NR`,
//!   the stabilizing guarded engine for `G`) and reporting the guarantee;
//! * [`containment`] — the containment decision:
//!   - the **small-witness algorithm** of Prop. 10/Thm. 11 for
//!     UCQ-rewritable left-hand sides (exact for `L`, `NR`, `S` against any
//!     right-hand side with decidable evaluation, covering Theorems 13, 16,
//!     19 and the §6.1 combinations), and
//!   - the **anytime algorithm** for guarded left-hand sides: partial
//!     rewritings yield sound refutations, saturation yields exact answers
//!     (§5/§6.2 are 2EXPTIME-complete, so any implementation must budget);
//! * [`reductions`] — the evaluation⇄containment reductions of Props. 5–6;
//! * [`apps`] — unsatisfiability, distribution over components (Prop. 27 /
//!   Thm. 28) and UCQ rewritability (§7.2).

pub mod apps;
pub mod containment;
pub mod evaluate;
pub mod explain;
pub mod languages;
pub mod reductions;

pub use apps::{
    distributes_over_components, is_ucq_rewritable, is_unsatisfiable, AppsError,
    DistributionResult, RewritabilityResult,
};
pub use containment::{
    contains, contains_with, equivalent, equivalent_with, ContainmentConfig, ContainmentError,
    ContainmentOutcome, ContainmentResult, Witness,
};
pub use evaluate::{
    evaluate, evaluate_in_language, evaluate_with, is_certain_answer, EvalConfig, EvalOutcome,
    Trool,
};
pub use explain::{
    explain, explain_with, ContainmentCoverage, DisjunctCoverage, ExplainDetail, ExplainStep,
    Explanation, WitnessExplanation, EXPLAIN_DISJUNCT_CAP,
};
pub use languages::{detect_language, OmqLanguage};
