//! The OMQ containment decision (`Cont(O₁, O₂)`, §3–§6).
//!
//! ## UCQ-rewritable left-hand sides (exact)
//!
//! For `Q₁` in `{∅, L, NR, S}` we implement the small-witness algorithm of
//! Prop. 10 / Thm. 11, derandomized through the structure of its proof: if
//! `Q₁ ⊄ Q₂` then some disjunct `qᵢ` of a UCQ rewriting of `Q₁`, frozen
//! into the canonical database `D_{qᵢ}` with tuple `c(x̄)`, witnesses
//! non-containment. So
//!
//! ```text
//! Q₁ ⊆ Q₂   ⟺   for every disjunct qᵢ of XRewrite(Q₁):  c(x̄) ∈ Q₂(D_{qᵢ})
//! ```
//!
//! Each right-hand check is one evaluation, dispatched per `Q₂`'s language.
//! This realizes the optimal-complexity algorithms behind Theorems 13
//! (linear: PSPACE), 16 (non-recursive) and 19 (sticky: coNEXPTIME), and
//! the `§6.1` combinations where the LHS is UCQ rewritable.
//!
//! ## Guarded (and other non-rewritable) left-hand sides (anytime)
//!
//! `(G, CQ)` is not UCQ rewritable (witness sizes are unbounded), and
//! `Cont((G,CQ))` is 2EXPTIME-complete (Thm. 20) — any implementation must
//! budget. We run XRewrite with growing budgets: every disjunct the partial
//! rewriting produces is a sound witness candidate (the Prop. 10 argument
//! applies to each disjunct individually), so a failing frozen disjunct
//! *refutes* containment; if the rewriting saturates, the decision is exact
//! in both directions; otherwise the result is [`ContainmentResult::Unknown`]
//! with the budgets spent.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use omq_chase::{runtime, Budget, CompiledUcq, Guarantee, HomStats};
use omq_guarded::{compile_encoding, EncodingArtifact, EncodingConfig};
use omq_model::{ConstId, Cq, Instance, Vocabulary};
use omq_model::{Omq, Ucq};
use omq_rewrite::{DirectRewrite, RewriteSource, XRewriteConfig};

use crate::evaluate::{is_certain_answer, EvalConfig, Trool};
use crate::languages::{detect_language, OmqLanguage};

/// A concrete counterexample to containment: a database over the shared
/// data schema and a tuple that answers `Q₁` but not `Q₂`.
#[derive(Clone, Debug)]
pub struct Witness {
    /// The witnessing database.
    pub database: Instance,
    /// The tuple in `Q₁(D) \ Q₂(D)` (empty for Boolean queries).
    pub tuple: Vec<ConstId>,
}

/// The outcome of a containment check.
#[derive(Clone, Debug)]
pub enum ContainmentResult {
    /// `Q₁ ⊆ Q₂`, with an exact certificate (complete rewriting checked).
    Contained,
    /// `Q₁ ⊄ Q₂`, with a concrete witness (always sound). Boxed: the
    /// witness carries a full `Instance`, which would otherwise dominate
    /// the enum's by-value size.
    NotContained(Box<Witness>),
    /// Budgets were exhausted before a decision; the string explains which.
    Unknown(String),
}

impl ContainmentResult {
    /// Is this a definite `Contained`?
    pub fn is_contained(&self) -> bool {
        matches!(self, ContainmentResult::Contained)
    }

    /// Is this a definite `NotContained`?
    pub fn is_not_contained(&self) -> bool {
        matches!(self, ContainmentResult::NotContained(_))
    }
}

/// Errors for ill-posed containment questions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContainmentError {
    /// The two OMQs have different answer arities.
    ArityMismatch,
}

impl fmt::Display for ContainmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainmentError::ArityMismatch => {
                write!(f, "containment requires OMQs of equal answer arity")
            }
        }
    }
}

impl std::error::Error for ContainmentError {}

/// Budgets for the containment check.
#[derive(Clone, Debug)]
pub struct ContainmentConfig {
    /// Rewriting budget for the (exact) UCQ-rewritable path.
    pub rewrite: XRewriteConfig,
    /// Evaluation budgets for the right-hand side checks.
    pub eval: EvalConfig,
    /// Budget ladder for the anytime (guarded) path.
    pub anytime_budgets: Vec<usize>,
    /// Worker threads for the disjunct sweep and the propositional
    /// enumeration. `0` means "use the machine's available parallelism";
    /// `1` forces the sequential path. The parallel sweep is deterministic:
    /// it reproduces the sequential verdict and witness exactly (the
    /// lowest-index refutation wins).
    pub threads: usize,
    /// Cooperative wall-clock/cancellation budget for the containment
    /// check itself (the disjunct sweep and the propositional enumeration
    /// poll it). Install one budget across *all* nested engines with
    /// [`ContainmentConfig::with_budget`]. Expiry always degrades to
    /// [`ContainmentResult::Unknown`] — never a flipped verdict.
    pub budget: Budget,
    /// A precompiled encoding artifact of the *left-hand side* OMQ (as
    /// produced by `omq_guarded::compile_encoding`). Serving layers supply
    /// their per-key cached artifact here so the anytime ladder reuses the
    /// cached NTA and satisfiability verdict instead of recompiling them;
    /// when `None` and the lhs is guarded, the ladder compiles one itself.
    /// The verdict is identical either way — the artifact is a pure
    /// function of the OMQ.
    pub lhs_encoding: Option<std::sync::Arc<EncodingArtifact>>,
}

impl Default for ContainmentConfig {
    fn default() -> Self {
        ContainmentConfig {
            rewrite: XRewriteConfig::default(),
            eval: EvalConfig::default(),
            anytime_budgets: vec![50, 500, 2_000, 8_000],
            threads: 0,
            budget: Budget::unlimited(),
            lhs_encoding: None,
        }
    }
}

impl ContainmentConfig {
    /// Installs `budget` on this config *and* every nested engine config
    /// (rewriting, chase, guarded evaluation), so a single deadline or
    /// cancel token governs the entire check, however deep it recurses.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.rewrite.budget = budget.clone();
        self.eval = self.eval.with_budget(budget.clone());
        self.budget = budget;
        self
    }
}

/// Statistics and result of one containment check.
#[derive(Clone, Debug)]
pub struct ContainmentOutcome {
    /// The verdict.
    pub result: ContainmentResult,
    /// Language detected for the left-hand side.
    pub lhs_language: OmqLanguage,
    /// Language detected for the right-hand side.
    pub rhs_language: OmqLanguage,
    /// Number of frozen disjuncts tested against `Q₂`.
    pub witnesses_checked: usize,
    /// Size (atoms) of the largest disjunct tested — the empirical
    /// counterpart of the `f_O` bounds of Props. 12/14/17.
    pub max_witness_size: usize,
    /// Kernel work of the disjunct sweep against a rewritten right-hand
    /// side: compiling its probe plans and the answer probes. Rewritings
    /// and per-disjunct evaluations of other right-hand sides are not
    /// included.
    pub hom: HomStats,
}

/// How the right-hand side is evaluated on each frozen disjunct.
///
/// For UCQ-rewritable `Q₂` (`∅`, `L`, `S`) the rewriting is computed *once*
/// per containment call, compiled into per-disjunct join plans, and every
/// disjunct check becomes a seeded plan execution behind the
/// predicate-signature prefilter — previously each check re-ran the greedy
/// join ordering (and originally the whole rewriting) from scratch.
/// Other languages dispatch through [`is_certain_answer`] per disjunct.
pub(crate) enum RhsChecker {
    /// The (possibly partial) rewriting of `Q₂`, computed and compiled once.
    Rewritten {
        ucq: CompiledUcq,
        guarantee: Guarantee,
    },
    /// Per-disjunct dispatch on `Q₂`'s language (NR, guarded, full, …).
    Direct,
}

/// The verdict of one disjunct check.
pub(crate) enum DisjunctVerdict {
    Pass,
    Refuted,
    Inconclusive(String),
}

impl RhsChecker {
    /// Builds the checker, computing `Q₂`'s rewriting up front when its
    /// language is UCQ-rewritable. `reuse` supplies an already-computed
    /// exact rewriting of `Q₂` (e.g. the left-hand side's, when `Q₁ == Q₂`);
    /// otherwise the rewriting is obtained through `src` (which may replay
    /// a cached artifact).
    pub(crate) fn build(
        q2: &Omq,
        rhs_language: OmqLanguage,
        reuse: Option<&Ucq>,
        voc: &mut Vocabulary,
        cfg: &ContainmentConfig,
        src: &mut dyn RewriteSource,
        hom: &mut HomStats,
    ) -> RhsChecker {
        match rhs_language {
            OmqLanguage::Empty | OmqLanguage::Linear | OmqLanguage::Sticky => {
                if let Some(ucq) = reuse {
                    return RhsChecker::Rewritten {
                        ucq: CompiledUcq::new(ucq, hom),
                        guarantee: Guarantee::Exact,
                    };
                }
                let art = src.rewrite(q2, voc, &cfg.eval.rewrite);
                RhsChecker::Rewritten {
                    ucq: CompiledUcq::new(&art.ucq, hom),
                    guarantee: art.guarantee,
                }
            }
            _ => RhsChecker::Direct,
        }
    }

    /// Checks one already-frozen disjunct (canonical database plus frozen
    /// head tuple) against `Q₂`, counting the probes' kernel work into
    /// `hom`.
    pub(crate) fn check_one(
        &self,
        db: &Instance,
        tuple: &[ConstId],
        q2: &Omq,
        voc: &mut Vocabulary,
        cfg: &ContainmentConfig,
        hom: &mut HomStats,
    ) -> DisjunctVerdict {
        let inconclusive = || {
            DisjunctVerdict::Inconclusive(format!(
                "evaluation of the right-hand side on a {}-atom witness was inconclusive",
                db.len()
            ))
        };
        match self {
            RhsChecker::Rewritten { ucq, guarantee } => match guarantee {
                _ if ucq.is_answer(db, tuple, hom) => DisjunctVerdict::Pass,
                Guarantee::Exact => DisjunctVerdict::Refuted,
                // A partial rewriting is sound but incomplete: a miss
                // proves nothing.
                Guarantee::Capped(_) => inconclusive(),
            },
            RhsChecker::Direct => match is_certain_answer(q2, db, tuple, voc, &cfg.eval) {
                Trool::True => DisjunctVerdict::Pass,
                Trool::False => DisjunctVerdict::Refuted,
                Trool::Unknown => inconclusive(),
            },
        }
    }
}

/// Tests the frozen disjuncts of the left-hand rewriting against `q2`.
/// Returns a witness on refutation, `Ok(None)` when all disjuncts pass, or
/// `Err(reason)` when an evaluation was inconclusive. The probes' kernel
/// work, every worker's included, is counted into `hom`.
///
/// With more than one worker the sweep fans the per-disjunct checks across
/// a scoped thread pool. The parallel path is deterministic: the verdict is
/// decided by the *lowest-index* refutation (matching the sequential scan),
/// an `AtomicBool` cancels workers early once a refutation exists, and the
/// winning witness is re-frozen in the caller's vocabulary so its constants
/// are interned exactly as a sequential run would have.
fn check_disjuncts(
    disjuncts: &[Cq],
    rhs: &RhsChecker,
    q2: &Omq,
    voc: &mut Vocabulary,
    cfg: &ContainmentConfig,
    stats: &mut (usize, usize),
    hom: &mut HomStats,
) -> Result<Option<Witness>, String> {
    const EXPIRED: &str = "deadline expired during the disjunct sweep";
    let _span = omq_obs::span("contain.sweep");
    let threads = runtime::effective_threads(cfg.threads, disjuncts.len());
    if threads <= 1 {
        let mut inconclusive: Option<String> = None;
        for d in disjuncts {
            // An expired budget leaves the remaining disjuncts unchecked:
            // no `Contained` verdict is possible, only a refutation already
            // found (below) stays definite.
            if cfg.budget.expired() {
                inconclusive.get_or_insert(EXPIRED.into());
                break;
            }
            stats.0 += 1;
            stats.1 = stats.1.max(d.num_atoms());
            let (db, tuple) = d.freeze(voc);
            match rhs.check_one(&db, &tuple, q2, voc, cfg, hom) {
                DisjunctVerdict::Pass => {}
                DisjunctVerdict::Refuted => {
                    // A definite refutation wins even if earlier disjuncts
                    // were inconclusive: the witness is sound on its own.
                    return Ok(Some(Witness {
                        database: db,
                        tuple,
                    }));
                }
                DisjunctVerdict::Inconclusive(reason) => {
                    inconclusive.get_or_insert(reason);
                }
            }
        }
        return match inconclusive {
            Some(reason) => Err(reason),
            None => Ok(None),
        };
    }

    let best_refuted = AtomicUsize::new(usize::MAX);
    let cancel = AtomicBool::new(false);
    let checked = AtomicUsize::new(0);
    let max_size = AtomicUsize::new(0);
    let inconclusive: Mutex<Option<(usize, String)>> = Mutex::new(None);
    let record_inconclusive = |i: usize, reason: String| {
        let mut slot = inconclusive.lock().unwrap();
        if slot.as_ref().is_none_or(|(j, _)| i < *j) {
            *slot = Some((i, reason));
        }
    };
    let seed_voc: &Vocabulary = voc;
    let workers = runtime::parallel_indexed(
        threads,
        disjuncts.len(),
        || (seed_voc.clone(), HomStats::default()),
        |(wvoc, whom), i| {
            // Early cancel: once some refutation exists, only indices
            // below it can still change the outcome.
            if cancel.load(Ordering::Relaxed) && i > best_refuted.load(Ordering::Relaxed) {
                return;
            }
            // A skipped index must leave a trace, or the final resolution
            // would read an all-pass sweep as `Contained`.
            if cfg.budget.expired() {
                record_inconclusive(i, EXPIRED.into());
                return;
            }
            let d = &disjuncts[i];
            checked.fetch_add(1, Ordering::Relaxed);
            max_size.fetch_max(d.num_atoms(), Ordering::Relaxed);
            let (db, tuple) = d.freeze(wvoc);
            match rhs.check_one(&db, &tuple, q2, wvoc, cfg, whom) {
                DisjunctVerdict::Pass => {}
                DisjunctVerdict::Refuted => {
                    best_refuted.fetch_min(i, Ordering::Relaxed);
                    cancel.store(true, Ordering::Relaxed);
                }
                DisjunctVerdict::Inconclusive(reason) => record_inconclusive(i, reason),
            }
        },
    );
    for (_, whom) in &workers {
        hom.add(whom);
    }
    stats.0 += checked.load(Ordering::Relaxed);
    stats.1 = stats.1.max(max_size.load(Ordering::Relaxed));

    let best = best_refuted.load(Ordering::Relaxed);
    if best != usize::MAX {
        // Replay the freezes up to the winner in the caller's vocabulary:
        // constants are interned in the same order as a sequential run, so
        // the witness is bit-for-bit identical.
        let mut witness = None;
        for d in &disjuncts[..=best] {
            witness = Some(d.freeze(voc));
        }
        let (database, tuple) = witness.expect("non-empty prefix");
        return Ok(Some(Witness { database, tuple }));
    }
    match inconclusive.into_inner().unwrap() {
        Some((_, reason)) => Err(reason),
        None => Ok(None),
    }
}

/// Decides `Q₁ ⊆ Q₂` for OMQs over a shared data schema.
///
/// See the module docs for the exactness guarantees per language pair.
pub fn contains(
    q1: &Omq,
    q2: &Omq,
    voc: &mut Vocabulary,
    cfg: &ContainmentConfig,
) -> Result<ContainmentOutcome, ContainmentError> {
    contains_with(q1, q2, voc, cfg, &mut DirectRewrite)
}

/// [`contains`], with the rewritings drawn from `src` (a cache, a replay
/// log, …) instead of computed from scratch. The source contract (see
/// `omq_rewrite::source`) guarantees identical verdicts and witnesses.
pub fn contains_with(
    q1: &Omq,
    q2: &Omq,
    voc: &mut Vocabulary,
    cfg: &ContainmentConfig,
    src: &mut dyn RewriteSource,
) -> Result<ContainmentOutcome, ContainmentError> {
    if q1.arity() != q2.arity() {
        return Err(ContainmentError::ArityMismatch);
    }
    let _span = omq_obs::span("contain");
    let lhs_language = detect_language(q1);
    // Self-containment (the equivalence check `Q ⊑ Q`) is common enough to
    // skip re-detecting the identical right-hand side.
    let rhs_language = if q1 == q2 {
        lhs_language
    } else {
        detect_language(q2)
    };
    let mut stats = (0usize, 0usize);
    let mut hom = HomStats::default();

    if let Some(result) =
        propositional_enumeration(q1, q2, (lhs_language, rhs_language), voc, cfg, &mut stats)
    {
        return Ok(ContainmentOutcome {
            result,
            lhs_language,
            rhs_language,
            witnesses_checked: stats.0,
            max_witness_size: stats.1,
            hom,
        });
    }

    let result = if lhs_language.is_ucq_rewritable() {
        // A capped rewriting should not happen for genuinely rewritable
        // classes, but budgets are budgets: a partial rewriting still
        // supports sound refutation.
        let lhs = src.rewrite(q1, voc, &cfg.rewrite);
        // When both sides are the same OMQ (self-containment, the inner
        // half of every equivalence check) the left rewriting *is* the
        // right one: reuse it instead of rewriting again.
        let reuse = (lhs.guarantee == Guarantee::Exact && q1 == q2).then_some(&lhs.ucq);
        let rhs = RhsChecker::build(q2, rhs_language, reuse, voc, cfg, src, &mut hom);
        let sweep = check_disjuncts(&lhs.ucq.disjuncts, &rhs, q2, voc, cfg, &mut stats, &mut hom);
        match (sweep, lhs.guarantee) {
            (Ok(Some(w)), _) => ContainmentResult::NotContained(Box::new(w)),
            (Ok(None), Guarantee::Exact) => ContainmentResult::Contained,
            (Ok(None), Guarantee::Capped(_)) => ContainmentResult::Unknown(
                "rewriting budget exceeded on a UCQ-rewritable input".into(),
            ),
            (Err(reason), _) => ContainmentResult::Unknown(reason),
        }
    } else {
        anytime_guarded(
            q1,
            q2,
            lhs_language,
            rhs_language,
            voc,
            cfg,
            src,
            &mut stats,
            &mut hom,
        )
    };

    omq_obs::counters(&[
        ("contain.witnesses_checked", stats.0 as u64),
        ("contain.checks", 1),
    ]);
    Ok(ContainmentOutcome {
        result,
        lhs_language,
        rhs_language,
        witnesses_checked: stats.0,
        max_witness_size: stats.1,
        hom,
    })
}

/// When every data-schema predicate is 0-ary (a *propositional* schema, as
/// in the Thm. 16 reduction) and the schema has at most this many
/// predicates, containment is decided by exhaustively enumerating all
/// `2^|S|` databases — exact and usually much cheaper than rewriting.
const MAX_PROPOSITIONAL_SCHEMA: usize = 12;

/// Exhaustive decision for *propositional* data schemas (all predicates
/// 0-ary): the `S`-databases are exactly the subsets of the `|S|` facts, so
/// containment is decided by checking `Q₁(D) ⊆ Q₂(D)` on each of the
/// `2^|S|` databases. Exact whenever both evaluations carry a completeness
/// guarantee; returns `None` (falling back to the general algorithms) when
/// the schema is not propositional, too large, or an evaluation was
/// inconclusive.
fn propositional_enumeration(
    q1: &Omq,
    q2: &Omq,
    langs: (OmqLanguage, OmqLanguage),
    voc: &mut Vocabulary,
    cfg: &ContainmentConfig,
    stats: &mut (usize, usize),
) -> Option<ContainmentResult> {
    let preds = q1.data_schema.preds();
    if preds.len() > MAX_PROPOSITIONAL_SCHEMA || preds.iter().any(|&p| voc.arity(p) != 0) {
        return None;
    }

    if let Some(result) = propositional_bitset(q1, q2, voc, cfg, stats) {
        return Some(result);
    }

    /// What checking one mask concluded (beyond "Q₁(D) ⊆ Q₂(D) here").
    enum MaskEvent {
        /// An evaluation lacked a completeness guarantee: fall back to the
        /// general algorithms.
        Fallback,
        /// A tuple in `Q₁(D) \ Q₂(D)`: non-containment.
        Counterexample(Box<Witness>),
    }

    let mask_db = |mask: u64| {
        Instance::from_atoms(
            preds
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &p)| omq_model::Atom::new(p, vec![])),
        )
    };
    // Checks one database; all-propositional schemas make the witness
    // tuple-free of interning concerns (0-ary atoms, Boolean queries), so
    // workers can build complete witnesses in their own vocabulary clones.
    // `min()` (rather than an arbitrary set-iteration pick) keeps the
    // chosen tuple deterministic. The languages are hoisted out of the
    // sweep (`langs`), and `Q₂(D)` is only evaluated when an exact
    // `Q₁(D)` is non-empty — an empty left side can't witness anything
    // regardless of the right side. The second bool reports "`Q₂(D)` was
    // evaluated exactly true" for the monotone pruning below.
    // Relaxation pruners for the generic sweep. [`HornMode::Over`] bounds
    // the real chase's 0-ary consequences from above: if even the relaxed
    // Q₁ cannot hold at a mask then Q₁(D) = ∅ there — exactly, regardless
    // of what budget the real evaluation would have hit — so the mask
    // cannot be a counterexample and needs no evaluation. [`HornMode::
    // Under`] certifies a Boolean Q₂ true from its fully-propositional
    // rules alone, which also settles the mask. Either test costs
    // nanoseconds against the microseconds of a chase.
    let over1 = compile_horn(q1, voc, preds, HornMode::Over);
    let under2 = (q2.arity() == 0)
        .then(|| compile_horn(q2, voc, preds, HornMode::Under))
        .flatten();

    let check_mask = |mask: u64, voc: &mut Vocabulary| -> (Option<MaskEvent>, bool) {
        use crate::evaluate::evaluate_in_language;
        if let Some(p) = &over1 {
            if !p.holds(p.closure(mask)) {
                omq_obs::counter("contain.masks_pruned", 1);
                return (None, false);
            }
        }
        if let Some(p) = &under2 {
            if p.holds(p.closure(mask)) {
                omq_obs::counter("contain.masks_pruned", 1);
                return (None, true);
            }
        }
        let db = mask_db(mask);
        let a1 = evaluate_in_language(q1, &db, voc, &cfg.eval, &mut DirectRewrite, langs.0);
        if let Guarantee::Capped(_) = a1.guarantee {
            return (Some(MaskEvent::Fallback), false);
        }
        if a1.answers.is_empty() {
            return (None, false);
        }
        let a2 = evaluate_in_language(q2, &db, voc, &cfg.eval, &mut DirectRewrite, langs.1);
        if let Guarantee::Capped(_) = a2.guarantee {
            return (Some(MaskEvent::Fallback), false);
        }
        let q2_true = !a2.answers.is_empty();
        let event = a1.answers.difference(&a2.answers).min().map(|tuple| {
            MaskEvent::Counterexample(Box::new(Witness {
                database: db,
                tuple: tuple.clone(),
            }))
        });
        (event, q2_true)
    };

    let n_masks = 1usize << preds.len();
    let threads = runtime::effective_threads(cfg.threads, n_masks);
    if threads <= 1 {
        // Boolean certain answers are monotone in the database: once
        // `Q₂(D)` is (exactly) true at some mask, it is true at every
        // superset mask, which therefore cannot be a counterexample and
        // needs no evaluation at all. (For non-Boolean queries both answer
        // sets grow, so nothing transfers.)
        let boolean = q1.arity() == 0;
        let mut q2_true_at: Vec<u64> = Vec::new();
        for mask in 0..n_masks as u64 {
            // Expired budget: fall through to the general algorithms, which
            // poll the same budget and degrade to `Unknown` immediately.
            if cfg.budget.expired() {
                return None;
            }
            stats.0 += 1;
            stats.1 = stats.1.max(mask.count_ones() as usize);
            if boolean && q2_true_at.iter().any(|&t| t & !mask == 0) {
                continue;
            }
            match check_mask(mask, voc) {
                (Some(MaskEvent::Fallback), _) => return None,
                (Some(MaskEvent::Counterexample(w)), _) => {
                    return Some(ContainmentResult::NotContained(w))
                }
                (None, q2_true) => {
                    if boolean && q2_true {
                        q2_true_at.push(mask);
                    }
                }
            }
        }
        return Some(ContainmentResult::Contained);
    }

    // Parallel sweep with sequential semantics: the event at the *lowest*
    // mask decides, exactly as the in-order scan would; an `AtomicBool`
    // cancels masks that can no longer matter.
    let best_mask = AtomicUsize::new(usize::MAX);
    let cancel = AtomicBool::new(false);
    let checked = AtomicUsize::new(0);
    let max_size = AtomicUsize::new(0);
    let best_event: Mutex<Option<(usize, MaskEvent)>> = Mutex::new(None);
    let record = |m: usize, event: MaskEvent| {
        let mut slot = best_event.lock().unwrap();
        if slot.as_ref().is_none_or(|(j, _)| m < *j) {
            *slot = Some((m, event));
        }
    };
    let seed_voc: &Vocabulary = voc;
    runtime::parallel_indexed(
        threads,
        n_masks,
        || seed_voc.clone(),
        |wvoc, m| {
            if cancel.load(Ordering::Relaxed) && m > best_mask.load(Ordering::Relaxed) {
                return;
            }
            // A skipped mask leaves the sweep undecidable here: record a
            // fallback event so the caller routes to the budget-aware
            // general path instead of concluding `Contained`.
            if cfg.budget.expired() {
                best_mask.fetch_min(m, Ordering::Relaxed);
                cancel.store(true, Ordering::Relaxed);
                record(m, MaskEvent::Fallback);
                return;
            }
            checked.fetch_add(1, Ordering::Relaxed);
            max_size.fetch_max((m as u64).count_ones() as usize, Ordering::Relaxed);
            if let (Some(event), _) = check_mask(m as u64, wvoc) {
                best_mask.fetch_min(m, Ordering::Relaxed);
                cancel.store(true, Ordering::Relaxed);
                record(m, event);
            }
        },
    );
    stats.0 += checked.load(Ordering::Relaxed);
    stats.1 = stats.1.max(max_size.load(Ordering::Relaxed));
    match best_event.into_inner().unwrap() {
        Some((_, MaskEvent::Fallback)) => None,
        Some((_, MaskEvent::Counterexample(w))) => Some(ContainmentResult::NotContained(w)),
        None => Some(ContainmentResult::Contained),
    }
}

/// One OMQ compiled to Horn-bitmask form: a propositional tgd is a rule
/// `state ⊇ body ⟹ state ∪= head`, a Boolean UCQ over 0-ary atoms is a
/// disjunction of required-fact masks.
struct HornProgram {
    rules: Vec<(u64, u64)>,
    disjuncts: Vec<u64>,
}

impl HornProgram {
    /// The least model of `rules` above `db`, as a bitmask. Terminates in at
    /// most 64 sweeps (each sweep that changes anything sets a new bit), so
    /// this is the exact propositional chase.
    fn closure(&self, db: u64) -> u64 {
        let mut state = db;
        loop {
            let mut next = state;
            for &(body, head) in &self.rules {
                if next & body == body {
                    next |= head;
                }
            }
            if next == state {
                return state;
            }
            state = next;
        }
    }

    /// Does the query hold in the (closed) state? (Some disjunct's required
    /// facts are a subset of the state: `d \ state = ∅`.)
    fn holds(&self, state: u64) -> bool {
        self.disjuncts.iter().any(|&d| d & !state == 0)
    }
}

/// How [`compile_horn`] treats predicates of non-zero arity.
#[derive(Copy, Clone, PartialEq, Eq)]
enum HornMode {
    /// Refuse to compile: the program is only usable when the OMQ is fully
    /// propositional, and then its verdicts are exact.
    Exact,
    /// Over-approximate: non-propositional body/query atoms are treated as
    /// satisfiable (dropped from the required mask), non-propositional head
    /// atoms are ignored. The closure then *bounds the real chase's 0-ary
    /// consequences from above*, and `holds` is a necessary condition for
    /// the real query to have any answer.
    Over,
    /// Under-approximate: rules with a non-propositional body atom and
    /// disjuncts with a non-propositional atom are dropped entirely. The
    /// closure only contains certainly-derived 0-ary facts, and `holds` is
    /// a sufficient condition for the (Boolean) query to be true.
    Under,
}

/// Compiles one OMQ to a [`HornProgram`] over the shared bit assignment:
/// data-schema predicates take bits `0..|S|` (so a database mask *is* its
/// enumeration mask), 0-ary intensional predicates take the bits above.
/// `None` when more than 64 propositional predicates occur, or — in
/// [`HornMode::Exact`] — when any mentioned predicate has non-zero arity.
fn compile_horn(
    q: &Omq,
    voc: &Vocabulary,
    preds: &[omq_model::PredId],
    mode: HornMode,
) -> Option<HornProgram> {
    struct BitAlloc<'a> {
        voc: &'a Vocabulary,
        mode: HornMode,
        bits: std::collections::HashMap<omq_model::PredId, u32>,
        next_bit: u32,
    }
    impl BitAlloc<'_> {
        /// `Ok(None)` = "atom abstracted away", `Err(())` = "cannot compile".
        fn bit_of(&mut self, p: omq_model::PredId) -> Result<Option<u32>, ()> {
            if self.voc.arity(p) != 0 {
                return match self.mode {
                    HornMode::Over => Ok(None),
                    HornMode::Exact | HornMode::Under => Err(()),
                };
            }
            if let Some(&b) = self.bits.get(&p) {
                return Ok(Some(b));
            }
            if self.next_bit >= 64 {
                return Err(());
            }
            self.bits.insert(p, self.next_bit);
            self.next_bit += 1;
            Ok(Some(self.next_bit - 1))
        }
        fn atoms_mask(&mut self, atoms: &[omq_model::Atom]) -> Result<u64, ()> {
            let mut m = 0u64;
            for a in atoms {
                if let Some(b) = self.bit_of(a.pred)? {
                    m |= 1u64 << b;
                }
            }
            Ok(m)
        }
    }

    let mut alloc = BitAlloc {
        voc,
        mode,
        bits: preds
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u32))
            .collect(),
        next_bit: preds.len() as u32,
    };
    let mut rules = Vec::with_capacity(q.sigma.len());
    for t in &q.sigma {
        let body = match alloc.atoms_mask(&t.body) {
            Ok(b) => b,
            // `Under`: a rule whose body we cannot certify is simply
            // dropped (weakening the closure is sound); any other failure
            // aborts compilation.
            Err(()) if mode == HornMode::Under => continue,
            Err(()) => return None,
        };
        // Head atoms of non-zero arity are ignored in both relaxations: in
        // `Over` nothing 0-ary is lost, in `Under` only 0-ary facts are
        // tracked (they are certainly derived once the all-0-ary body is).
        let head = match alloc.atoms_mask(&t.head) {
            Ok(h) => h,
            Err(()) if mode != HornMode::Exact => {
                let mut h = 0u64;
                for a in &t.head {
                    if let Ok(Some(b)) = alloc.bit_of(a.pred) {
                        h |= 1u64 << b;
                    }
                }
                h
            }
            Err(()) => return None,
        };
        rules.push((body, head));
    }
    let mut disjuncts = Vec::with_capacity(q.query.disjuncts.len());
    for cq in &q.query.disjuncts {
        match alloc.atoms_mask(&cq.body) {
            Ok(d) => disjuncts.push(d),
            // `Under`: a disjunct we cannot certify never fires `holds`.
            Err(()) if mode == HornMode::Under => {}
            Err(()) => return None,
        }
    }
    Some(HornProgram { rules, disjuncts })
}

/// Fully-propositional fast path for [`propositional_enumeration`]: when
/// *every* predicate either OMQ mentions (data schema, ontology, query) is
/// 0-ary and at most 64 predicates occur, each database is a `u64`, each
/// tgd is a Horn implication between masks, and certain answers are a
/// bitmask closure — the per-mask chase/rewriting machinery is bypassed
/// entirely. The scan order, lowest-mask winner, witness shape, and stats
/// accounting match the sequential generic sweep exactly; `None` falls back
/// to it (non-propositional ontology predicates, bit-space overflow, or an
/// expired budget — the callers poll the same budget and degrade
/// identically).
fn propositional_bitset(
    q1: &Omq,
    q2: &Omq,
    voc: &Vocabulary,
    cfg: &ContainmentConfig,
    stats: &mut (usize, usize),
) -> Option<ContainmentResult> {
    let preds = q1.data_schema.preds();
    // Boolean queries only: with 0-ary atoms throughout, a safe query head
    // cannot bind variables anyway, so this only rejects ill-formed input.
    if q1.arity() != 0 || q2.arity() != 0 {
        return None;
    }
    let p1 = compile_horn(q1, voc, preds, HornMode::Exact)?;
    let p2 = compile_horn(q2, voc, preds, HornMode::Exact)?;
    omq_obs::counter("contain.prop_bitset", 1);

    let mask_db = |mask: u64| {
        Instance::from_atoms(
            preds
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &p)| omq_model::Atom::new(p, vec![])),
        )
    };

    let n_masks = 1u64 << preds.len();
    for mask in 0..n_masks {
        // Budget polling is coarser than the generic sweep's because a mask
        // costs nanoseconds here; expiry still routes to the same fallback.
        if mask & 0xFF == 0 && cfg.budget.expired() {
            return None;
        }
        stats.0 += 1;
        stats.1 = stats.1.max(mask.count_ones() as usize);
        if p1.holds(p1.closure(mask)) && !p2.holds(p2.closure(mask)) {
            return Some(ContainmentResult::NotContained(Box::new(Witness {
                database: mask_db(mask),
                tuple: Vec::new(),
            })));
        }
    }
    Some(ContainmentResult::Contained)
}

/// The anytime path for non-UCQ-rewritable left-hand sides.
///
/// For a guarded lhs the ladder first consults the lhs encoding artifact —
/// the one [`ContainmentConfig::lhs_encoding`] supplies (a serving layer's
/// cache), or a freshly compiled one otherwise. An artifact certifying
/// `critical_satisfiable == Some(false)` decides the question outright:
/// an unsatisfiable `Q₁` is contained in everything (and the ladder could
/// never refute such a containment anyway — every rewriting disjunct is a
/// sound witness candidate *for an answer of `Q₁`*, of which there are
/// none). The check runs on a vocabulary clone so cache state (supplied vs.
/// compiled) can never move the interning order of the main run.
#[allow(clippy::too_many_arguments)]
fn anytime_guarded(
    q1: &Omq,
    q2: &Omq,
    lhs_language: OmqLanguage,
    rhs_language: OmqLanguage,
    voc: &mut Vocabulary,
    cfg: &ContainmentConfig,
    src: &mut dyn RewriteSource,
    stats: &mut (usize, usize),
    hom: &mut HomStats,
) -> ContainmentResult {
    if lhs_language == OmqLanguage::Guarded {
        let supplied = cfg.lhs_encoding.clone();
        let compiled;
        let art: Option<&EncodingArtifact> = match &supplied {
            Some(a) => Some(a),
            None => {
                let ecfg = EncodingConfig {
                    budget: cfg.budget.clone(),
                    ..EncodingConfig::default()
                };
                compiled = compile_encoding(q1, &mut voc.clone(), &ecfg);
                compiled.as_ref()
            }
        };
        if art.is_some_and(|a| a.critical_satisfiable == Some(false)) {
            omq_obs::counter("contain.unsat_lhs_short_circuit", 1);
            return ContainmentResult::Contained;
        }
    }
    let rhs = RhsChecker::build(q2, rhs_language, None, voc, cfg, src, hom);
    let mut tested = 0usize;
    for &budget in &cfg.anytime_budgets {
        if cfg.budget.expired() {
            return ContainmentResult::Unknown(
                "deadline expired during the anytime budget ladder".into(),
            );
        }
        let rw_cfg = XRewriteConfig {
            max_queries: budget,
            // The `skip(tested)` ladder below relies on the disjunct list of
            // a smaller budget being a prefix of a larger budget's list,
            // which holds for truncated raw output but not after
            // subsumption pruning (a later disjunct can evict an earlier
            // one). Witness search needs every sound disjunct anyway.
            prune_subsumed: false,
            ..cfg.rewrite.clone()
        };
        let art = src.rewrite(q1, voc, &rw_cfg);
        // Only test disjuncts not covered in earlier (smaller) rounds.
        let fresh: Vec<Cq> = art.ucq.disjuncts.iter().skip(tested).cloned().collect();
        tested = art.ucq.disjuncts.len().max(tested);
        let sweep = check_disjuncts(&fresh, &rhs, q2, voc, cfg, stats, hom);
        match (sweep, art.guarantee) {
            (Ok(Some(w)), _) => return ContainmentResult::NotContained(Box::new(w)),
            (Ok(None), Guarantee::Exact) => return ContainmentResult::Contained,
            (Ok(None), Guarantee::Capped(_)) => {}
            (Err(reason), _) => return ContainmentResult::Unknown(reason),
        }
    }
    ContainmentResult::Unknown(format!(
        "anytime rewriting budgets exhausted ({} disjuncts refuted nothing); \
         the guarded containment problem is 2EXPTIME-complete — raise \
         `anytime_budgets` to search further",
        tested
    ))
}

/// Mutual containment.
pub fn equivalent(
    q1: &Omq,
    q2: &Omq,
    voc: &mut Vocabulary,
    cfg: &ContainmentConfig,
) -> Result<(ContainmentOutcome, ContainmentOutcome), ContainmentError> {
    equivalent_with(q1, q2, voc, cfg, &mut DirectRewrite)
}

/// Mutual containment through a [`RewriteSource`]: the second direction
/// reuses whatever the first one put in the source's cache.
pub fn equivalent_with(
    q1: &Omq,
    q2: &Omq,
    voc: &mut Vocabulary,
    cfg: &ContainmentConfig,
    src: &mut dyn RewriteSource,
) -> Result<(ContainmentOutcome, ContainmentOutcome), ContainmentError> {
    // `lhs_encoding` describes `q1` only; the backward direction's lhs is
    // `q2`, so it must not inherit the artifact.
    let back_cfg = ContainmentConfig {
        lhs_encoding: None,
        ..cfg.clone()
    };
    Ok((
        contains_with(q1, q2, voc, cfg, src)?,
        contains_with(q2, q1, voc, &back_cfg, src)?,
    ))
}

/// Convenience: containment of a plain (U)CQ in a plain (U)CQ over the same
/// schema, as OMQs with empty ontologies (classical Chandra–Merlin /
/// Sagiv–Yannakakis, the `O_∅` baseline of §3.1).
pub fn ucq_contains(
    q1: &Ucq,
    q2: &Ucq,
    schema: &omq_model::Schema,
    voc: &mut Vocabulary,
    cfg: &ContainmentConfig,
) -> Result<ContainmentOutcome, ContainmentError> {
    let o1 = Omq::new(schema.clone(), vec![], q1.clone());
    let o2 = Omq::new(schema.clone(), vec![], q2.clone());
    contains(&o1, &o2, voc, cfg)
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

    #[test]
    fn plain_cq_containment() {
        // path2 ⊆ path1, not conversely.
        let (q1, q2, mut voc) = setup("p2 :- E(X,Y), E(Y,Z)\np1 :- E(U,V)\n", &["E"], "p2", "p1");
        let cfg = ContainmentConfig::default();
        let out = contains(&q1, &q2, &mut voc, &cfg).unwrap();
        assert!(out.result.is_contained());
        assert_eq!(out.lhs_language, OmqLanguage::Empty);
        let back = contains(&q2, &q1, &mut voc, &cfg).unwrap();
        match back.result {
            ContainmentResult::NotContained(w) => {
                assert_eq!(w.database.len(), 1); // the frozen single edge
                assert!(w.tuple.is_empty());
            }
            other => panic!("expected a witness, got {other:?}"),
        }
    }

    /// The ontology makes a containment hold that fails without it.
    #[test]
    fn ontology_enables_containment() {
        // With T(x) → P(x): answering P subsumes answering T.
        let (q1, q2, mut voc) = setup(
            "T(X) -> P(X)\n\
             qt(X) :- T(X)\n\
             qp(X) :- P(X)\n",
            &["P", "T"],
            "qt",
            "qp",
        );
        let cfg = ContainmentConfig::default();
        assert!(contains(&q1, &q2, &mut voc, &cfg)
            .unwrap()
            .result
            .is_contained());
        // Without help in the other direction: P(a) does not make T true.
        assert!(contains(&q2, &q1, &mut voc, &cfg)
            .unwrap()
            .result
            .is_not_contained());
    }

    /// Example 1 of the paper as a containment statement: the rewriting of
    /// q(x) :- R(x,y), P(y) is P(x) ∨ T(x), so Q1 is contained in the OMQ
    /// asking P(x) ∨ T(x) directly and vice versa.
    #[test]
    fn paper_example_equivalence() {
        let (q1, q2, mut voc) = setup(
            "P(X) -> exists Y . R(X,Y)\n\
             R(X,Y) -> P(Y)\n\
             T(X) -> P(X)\n\
             q(X) :- R(X,Y), P(Y)\n\
             r(X) :- P(X)\n\
             r(X) :- T(X)\n",
            &["P", "T"],
            "q",
            "r",
        );
        let cfg = ContainmentConfig::default();
        let (a, b) = equivalent(&q1, &q2, &mut voc, &cfg).unwrap();
        assert!(a.result.is_contained(), "{:?}", a.result);
        assert!(b.result.is_contained(), "{:?}", b.result);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let (q1, q2, mut voc) = setup("a(X) :- P(X)\nb :- P(X)\n", &["P"], "a", "b");
        assert_eq!(
            contains(&q1, &q2, &mut voc, &ContainmentConfig::default()).unwrap_err(),
            ContainmentError::ArityMismatch
        );
    }

    /// Sticky LHS (recursive, unguarded, marking-clean) — exercises the
    /// sticky rewriting path of Thm. 19.
    #[test]
    fn sticky_lhs_containment() {
        let (q1, q2, mut voc) = setup(
            "R(X,Y), P(Y,Z) -> exists W . T(X,Y,W)\n\
             T(X,Y,W) -> R(Y,X)\n\
             qs :- T(X,Y,W)\n\
             ql :- T(X,Y,W)\n",
            &["R", "P"],
            "qs",
            "ql",
        );
        // Same ontology and query on both sides: containment must hold.
        let cfg = ContainmentConfig::default();
        let out = contains(&q1, &q2, &mut voc, &cfg).unwrap();
        assert_eq!(out.lhs_language, OmqLanguage::Sticky);
        assert!(out.result.is_contained(), "{:?}", out.result);
        assert!(out.witnesses_checked >= 1);
    }

    /// Guarded LHS: the anytime path still refutes non-containment with a
    /// concrete witness.
    #[test]
    fn guarded_lhs_refutation() {
        let (q1, q2, mut voc) = setup(
            "G(X,Y,Z), R(X,Y) -> exists W . G(Y,Z,W), R(Y,Z)\n\
             g :- G(X,Y,Z)\n\
             h :- R(X,Y), R(Y,Z), R(Z,X)\n",
            &["G", "R"],
            "g",
            "h",
        );
        let cfg = ContainmentConfig::default();
        let out = contains(&q1, &q2, &mut voc, &cfg).unwrap();
        assert_eq!(out.lhs_language, OmqLanguage::Guarded);
        assert!(out.result.is_not_contained(), "{:?}", out.result);
    }

    /// A non-UCQ-rewritable LHS (full tgds) whose particular query still
    /// saturates the rewriting: the anytime path returns an exact
    /// `Contained`.
    #[test]
    fn anytime_saturating_containment() {
        let (q1, q2, mut voc) = setup(
            "B(X,Y), C(Y,Z) -> B(X,Z)\n\
             g :- C(U,V)\n\
             h :- C(U,V)\n",
            &["B", "C"],
            "g",
            "h",
        );
        let cfg = ContainmentConfig::default();
        let out = contains(&q1, &q2, &mut voc, &cfg).unwrap();
        assert_eq!(out.lhs_language, OmqLanguage::Full);
        assert!(out.result.is_contained(), "{:?}", out.result);
    }

    /// A guarded LHS where neither a refutation nor saturation is reachable
    /// within tiny budgets: the anytime path reports Unknown honestly.
    #[test]
    fn anytime_unknown_on_tiny_budgets() {
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
        let out = contains(&q1, &q2, &mut voc, &cfg).unwrap();
        // Every rewriting disjunct of g keeps a G-atom, so h is never
        // refuted; but the rewriting does not saturate either.
        assert!(
            matches!(out.result, ContainmentResult::Unknown(_)) || out.result.is_contained(),
            "{:?}",
            out.result
        );
    }

    /// Witnesses respect the data schema: the rewriting only emits
    /// disjuncts over S, so the counterexample database is S-only.
    #[test]
    fn witness_is_over_data_schema() {
        let (q1, q2, mut voc) = setup(
            "P(X) -> exists Y . R(X,Y)\n\
             a(X) :- P(X)\n\
             b(X) :- T(X)\n",
            &["P", "T"],
            "a",
            "b",
        );
        let cfg = ContainmentConfig::default();
        let out = contains(&q1, &q2, &mut voc, &cfg).unwrap();
        match out.result {
            ContainmentResult::NotContained(w) => {
                for atom in w.database.atoms() {
                    assert!(q1.data_schema.contains(atom.pred));
                }
                assert_eq!(w.tuple.len(), 1);
            }
            other => panic!("expected witness, got {other:?}"),
        }
    }

    #[test]
    fn ucq_convenience_wrapper() {
        let prog = parse_program("a(X) :- P(X)\nb(X) :- P(X)\nb(X) :- T(X)\n").unwrap();
        let mut voc = prog.voc.clone();
        let schema = Schema::from_preds([voc.pred_id("P").unwrap(), voc.pred_id("T").unwrap()]);
        let cfg = ContainmentConfig::default();
        let out = ucq_contains(
            prog.query("a").unwrap(),
            prog.query("b").unwrap(),
            &schema,
            &mut voc,
            &cfg,
        )
        .unwrap();
        assert!(out.result.is_contained());
        let back = ucq_contains(
            prog.query("b").unwrap(),
            prog.query("a").unwrap(),
            &schema,
            &mut voc,
            &cfg,
        )
        .unwrap();
        assert!(back.result.is_not_contained());
    }

    /// Differential: the bitset fast path must agree with the generic
    /// per-mask evaluation sweep — verdict, winning (lowest) mask, witness
    /// database, and stats accounting — on randomized propositional Horn
    /// OMQs with intensional predicates.
    #[test]
    fn propositional_bitset_matches_generic_enumeration() {
        use omq_model::{Atom, PredId, Tgd, Ucq};

        fn next(s: &mut u64) -> u64 {
            *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        let cfg = ContainmentConfig {
            threads: 1,
            ..ContainmentConfig::default()
        };
        for seed in 0..60u64 {
            let mut s = seed;
            let mut voc = Vocabulary::new();
            let n_data = 3 + (next(&mut s) % 3) as usize;
            let data: Vec<PredId> = (0..n_data).map(|i| voc.pred(&format!("D{i}"), 0)).collect();
            let aux: Vec<PredId> = (0..3).map(|i| voc.pred(&format!("X{i}"), 0)).collect();
            let all: Vec<PredId> = data.iter().chain(aux.iter()).copied().collect();
            let rand_atoms = |s: &mut u64, lo: usize, hi: usize| -> Vec<Atom> {
                let n = lo + (next(s) as usize) % (hi - lo + 1);
                (0..n)
                    .map(|_| Atom::new(all[(next(s) as usize) % all.len()], vec![]))
                    .collect()
            };
            let rand_omq = |s: &mut u64| -> Omq {
                let sigma = (0..(next(s) % 5) as usize)
                    .map(|_| Tgd::new(rand_atoms(s, 0, 2), rand_atoms(s, 1, 2)))
                    .collect();
                let disjuncts = (0..1 + (next(s) % 2) as usize)
                    .map(|_| Cq::new(vec![], rand_atoms(s, 1, 2)))
                    .collect();
                Omq::new(
                    Schema::from_preds(data.iter().copied()),
                    sigma,
                    Ucq::new(0, disjuncts),
                )
            };
            let q1 = rand_omq(&mut s);
            let q2 = rand_omq(&mut s);

            // Generic reference: the exact semantics of the evaluate-based
            // sweep the fast path replaces.
            let mut expected: Option<(u64, Instance)> = None;
            for mask in 0..(1u64 << n_data) {
                let db = Instance::from_atoms(
                    data.iter()
                        .enumerate()
                        .filter(|(i, _)| mask >> i & 1 == 1)
                        .map(|(_, &p)| Atom::new(p, vec![])),
                );
                let a1 = crate::evaluate::evaluate(&q1, &db, &mut voc, &cfg.eval);
                let a2 = crate::evaluate::evaluate(&q2, &db, &mut voc, &cfg.eval);
                assert_eq!(a1.guarantee, Guarantee::Exact, "seed {seed}");
                assert_eq!(a2.guarantee, Guarantee::Exact, "seed {seed}");
                if !a1.answers.is_empty() && a2.answers.is_empty() {
                    expected = Some((mask, db));
                    break;
                }
            }

            let mut stats = (0usize, 0usize);
            let got = propositional_bitset(&q1, &q2, &voc, &cfg, &mut stats)
                .unwrap_or_else(|| panic!("seed {seed}: fast path must engage"));
            match (&expected, &got) {
                (Some((mask, db)), ContainmentResult::NotContained(w)) => {
                    assert_eq!(&w.database, db, "seed {seed}");
                    assert!(w.tuple.is_empty(), "seed {seed}");
                    assert_eq!(stats.0 as u64, mask + 1, "seed {seed}");
                }
                (None, ContainmentResult::Contained) => {
                    assert_eq!(stats.0 as u64, 1u64 << n_data, "seed {seed}");
                }
                (e, g) => panic!("seed {seed}: generic {e:?} vs bitset {g:?}"),
            }
        }
    }

    /// Differential: the relaxation-pruned generic sweep (mixed 0-ary and
    /// unary predicates, so the exact bitset path declines) must agree
    /// with a brute-force per-mask evaluation reference — verdict and
    /// witness database both.
    #[test]
    fn pruned_enumeration_matches_bruteforce() {
        use omq_model::{Atom, PredId, Term, Tgd, Ucq, VarId};

        fn next(s: &mut u64) -> u64 {
            *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        let cfg = ContainmentConfig {
            threads: 1,
            ..ContainmentConfig::default()
        };
        for seed in 0..40u64 {
            let mut s = seed.wrapping_add(1000);
            let mut voc = Vocabulary::new();
            let n_data = 3 + (next(&mut s) % 2) as usize;
            let data: Vec<PredId> = (0..n_data).map(|i| voc.pred(&format!("D{i}"), 0)).collect();
            let zero: Vec<PredId> = (0..2).map(|i| voc.pred(&format!("Z{i}"), 0)).collect();
            let unary: Vec<PredId> = (0..2).map(|i| voc.pred(&format!("U{i}"), 1)).collect();
            let x = Term::Var(VarId(0));
            // Datalog-only generation (no existential head variables), so
            // every chase terminates and the reference is exact: a unary
            // head atom is only emitted under a unary body atom providing
            // its variable; the seed constant grounds unary facts.
            let c = Term::Const(voc.constant("c"));
            let rand_omq = |s: &mut u64, voc: &mut Vocabulary| -> Omq {
                let _ = voc;
                let mut sigma = Vec::new();
                for _ in 0..2 + (next(s) % 3) as usize {
                    let mut body = Vec::new();
                    let mut has_unary = false;
                    for _ in 0..1 + (next(s) % 2) as usize {
                        match next(s) % 3 {
                            0 => {
                                body.push(Atom::new(data[(next(s) as usize) % data.len()], vec![]))
                            }
                            1 => {
                                body.push(Atom::new(zero[(next(s) as usize) % zero.len()], vec![]))
                            }
                            _ => {
                                has_unary = true;
                                body.push(Atom::new(
                                    unary[(next(s) as usize) % unary.len()],
                                    vec![x],
                                ));
                            }
                        }
                    }
                    let head = if has_unary && next(s).is_multiple_of(2) {
                        vec![Atom::new(unary[(next(s) as usize) % unary.len()], vec![x])]
                    } else if next(s).is_multiple_of(3) {
                        vec![Atom::new(unary[(next(s) as usize) % unary.len()], vec![c])]
                    } else {
                        vec![Atom::new(zero[(next(s) as usize) % zero.len()], vec![])]
                    };
                    sigma.push(Tgd::new(body, head));
                }
                let disjuncts = (0..1 + (next(s) % 2) as usize)
                    .map(|_| {
                        let mut b = Vec::new();
                        for _ in 0..1 + (next(s) % 2) as usize {
                            match next(s) % 3 {
                                0 => {
                                    b.push(Atom::new(data[(next(s) as usize) % data.len()], vec![]))
                                }
                                1 => {
                                    b.push(Atom::new(zero[(next(s) as usize) % zero.len()], vec![]))
                                }
                                _ => b.push(Atom::new(
                                    unary[(next(s) as usize) % unary.len()],
                                    vec![Term::Var(VarId(1))],
                                )),
                            }
                        }
                        Cq::new(vec![], b)
                    })
                    .collect();
                Omq::new(
                    Schema::from_preds(data.iter().copied()),
                    sigma,
                    Ucq::new(0, disjuncts),
                )
            };
            let q1 = rand_omq(&mut s, &mut voc);
            let q2 = rand_omq(&mut s, &mut voc);
            let langs = (detect_language(&q1), detect_language(&q2));

            // Brute-force reference over all masks.
            let mut expected: Option<(u64, Instance)> = None;
            for mask in 0..(1u64 << n_data) {
                let db = Instance::from_atoms(
                    data.iter()
                        .enumerate()
                        .filter(|(i, _)| mask >> i & 1 == 1)
                        .map(|(_, &p)| Atom::new(p, vec![])),
                );
                let a1 = crate::evaluate::evaluate(&q1, &db, &mut voc, &cfg.eval);
                let a2 = crate::evaluate::evaluate(&q2, &db, &mut voc, &cfg.eval);
                assert_eq!(a1.guarantee, Guarantee::Exact, "seed {seed}");
                assert_eq!(a2.guarantee, Guarantee::Exact, "seed {seed}");
                if !a1.answers.is_empty() && a2.answers.is_empty() {
                    expected = Some((mask, db));
                    break;
                }
            }

            let mut stats = (0usize, 0usize);
            let got = propositional_enumeration(&q1, &q2, langs, &mut voc, &cfg, &mut stats)
                .unwrap_or_else(|| panic!("seed {seed}: exact evaluations cannot fall back"));
            match (&expected, &got) {
                (Some((_, db)), ContainmentResult::NotContained(w)) => {
                    assert_eq!(&w.database, db, "seed {seed}");
                    assert!(w.tuple.is_empty(), "seed {seed}");
                }
                (None, ContainmentResult::Contained) => {}
                (e, g) => panic!("seed {seed}: reference {e:?} vs pruned sweep {g:?}"),
            }
        }
    }

    /// The fast path declines (and the generic machinery takes over) as
    /// soon as an intensional predicate is non-propositional.
    #[test]
    fn propositional_bitset_declines_nonzero_arity() {
        let (q1, q2, voc) = setup(
            "A -> exists Y . R(Y)\n\
             a :- A\n\
             b :- R(Y)\n",
            &["A"],
            "a",
            "b",
        );
        let mut stats = (0usize, 0usize);
        assert!(
            propositional_bitset(&q1, &q2, &voc, &ContainmentConfig::default(), &mut stats)
                .is_none()
        );
        assert_eq!(stats.0, 0, "no masks may be counted before compiling");
    }

    /// A guarded lhs whose critical-instance check certifies emptiness is
    /// contained in everything — the anytime ladder short-circuits off the
    /// encoding artifact, whether it compiles one itself or a serving layer
    /// supplies its cached copy via [`ContainmentConfig::lhs_encoding`].
    #[test]
    fn unsatisfiable_guarded_lhs_short_circuits_to_contained() {
        // `q1` asks for `U`, which is outside the data schema and no tgd
        // head ever produces; the guarded tgd keeps the lhs in the guarded
        // (non-UCQ-rewritable) language so the ladder rung actually runs.
        let (q1, q2, mut voc) = setup(
            "G(X,Y,Z), R(X,Y) -> exists W . G(Y,Z,W), R(Y,Z)\n\
             U(X) -> U(X)\n\
             q1 :- U(X)\n\
             q2 :- R(X,Y)\n",
            &["G", "R"],
            "q1",
            "q2",
        );
        assert_eq!(detect_language(&q1), OmqLanguage::Guarded);
        let cfg = ContainmentConfig::default();
        let out = contains(&q1, &q2, &mut voc, &cfg).unwrap();
        assert!(out.result.is_contained(), "got {:?}", out.result);

        // Same verdict when the artifact arrives pre-compiled, as the
        // serve layer's encoding cache hands it over.
        let ecfg = omq_guarded::EncodingConfig::default();
        let art = omq_guarded::compile_encoding(&q1, &mut voc.clone(), &ecfg)
            .expect("the encoding compiles");
        assert_eq!(art.critical_satisfiable, Some(false));
        let cached = ContainmentConfig {
            lhs_encoding: Some(std::sync::Arc::new(art)),
            ..ContainmentConfig::default()
        };
        let out = contains(&q1, &q2, &mut voc, &cached).unwrap();
        assert!(out.result.is_contained(), "got {:?}", out.result);
    }
}
