//! The XRewrite algorithm (Algorithm 1 of the paper, after \[40\]).
//!
//! Starting from the OMQ's (U)CQ, exhaustively apply two steps until
//! fixpoint:
//!
//! * **rewriting** (resolution): pick a set `S` of body atoms to which a tgd
//!   `σ` is *applicable* (Def. 6) — `S ∪ {head(σ)}` unifies and no constant
//!   or shared-variable position of `S` meets an existential position of the
//!   head — and replace `S` by `body(σ)` under the MGU;
//! * **factorization** (Def. 7): unify a set of atoms whose shared
//!   existential-position variable blocks applicability, producing auxiliary
//!   queries that keep the procedure complete.
//!
//! The worklist is processed in **rounds**: every unexplored query of a
//! round is expanded — across a scoped thread pool when
//! [`XRewriteConfig::threads`] allows — and the candidate queries are merged
//! back in a fixed order (parent entry, tgd, subset; rewriting before
//! factorization), so entry numbering, deduplication, and the final disjunct
//! list are identical at any thread count. All fresh-variable allocation
//! (the `σⁱ` renamings) happens once per round on the caller thread, which
//! both keeps the [`Vocabulary`] deterministic and hoists the per-entry
//! renaming of the old per-entry loop.
//!
//! **Selection over Datalog-defined predicates.** A predicate is
//! *selectable* when it is outside the data schema and every tgd whose head
//! has that predicate is full. An entry whose body holds an atom over a
//! selectable predicate is expanded only on the *first* such atom: that atom
//! alone is resolved against each tgd with its head predicate, and no other
//! atom, no multi-atom set and no factorization is tried for the entry.
//! Entries without a selectable atom expand as described above. This is the
//! computation rule of SLD resolution, and it stays complete. Fix a chase
//! sequence of `D` under `Σ`, take a match `h` of a query `q` into its
//! result, and charge each body atom `α` with the step that created `h(α)`
//! (0 for atoms of `D`). The selected atom `α` is not over the data schema,
//! so `h(α)` was derived, and only a full tgd `σ` can have derived it, by a
//! trigger `g` with `g(head(σ)) = h(α)`. Since `h ∪ g` unifies `α` with the
//! renamed-apart `head(σ)`, it factors through their MGU, so the resolvent
//! has a match that keeps every other atom's image and sends the body of
//! `σ` to atoms created at strictly earlier steps. The multiset of steps
//! decreases (as it does for the unselected steps, which resolve the atoms
//! mapped to the latest-created image), so every match of `q` is
//! eventually reached by an output disjunct that matches `D` itself. An
//! entry whose selected atom has no defining tgd at all is unsatisfiable
//! and yields no candidates.
//!
//! A query that still holds a selectable atom is never an output disjunct,
//! so when no selectable predicate is recursive (the graph from each
//! selectable head predicate to the selectable predicates of its bodies is
//! acyclic) such candidates are deduplicated on their fingerprint with
//! `cq_isomorphic` and are neither cored nor canonically labelled. Selection
//! steps alone then terminate: each replaces a selectable atom by atoms of
//! strictly lower rank in that graph or by unselectable ones, so the
//! multiset of ranks decreases. Queries without a selectable atom, the ones
//! the unselected steps expand, are cored as before, so the size bounds
//! behind termination still hold for them. With a recursive selectable
//! predicate every candidate is cored: under `P(x), R(x,y) → P(x)` the
//! uncored resolvents `P(x), R(x,y1), …, R(x,yk)` never repeat, while their
//! cores do.
//!
//! Queries are deduplicated modulo bijective variable renaming (`≃`): by
//! default via canonical forms (`omq_chase::cq_canonical_form`, hash-map
//! equality), with the PR 1 fingerprint + `cq_isomorphic` path available
//! behind [`DedupStrategy::FingerprintIso`] and as the fallback for queries
//! whose symmetry exceeds the canonical-labeling budget. The final rewriting
//! keeps the explored `r`-labeled queries over the data schema only, and —
//! unless [`XRewriteConfig::prune_subsumed`] is off — drops disjuncts
//! homomorphically subsumed by another disjunct (the pruned UCQ is
//! semantically equivalent; see `omq_chase::SubsumptionSieve`).
//!
//! Termination is guaranteed for linear, non-recursive and sticky inputs;
//! for other inputs (e.g. guarded) the procedure may diverge, so a query
//! budget is enforced and exceeding it is reported as
//! [`RewriteError::BudgetExceeded`] — the partial rewriting is still sound
//! and is exploited by the anytime guarded-containment algorithm. The budget
//! caps the number of entries ever created: generation stops *before* the
//! entry that would cross `max_queries`, and the truncated run carries the
//! same [`RewriteStats`] as a completed one.

use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

use omq_chase::{
    cq_canonical_form, cq_core_budgeted_report, cq_isomorphic, runtime, Budget, CqCanonicalForm,
    HomStats, SubsumptionSieve,
};
use omq_model::{mgu_refs, Atom, Cq, Omq, PredId, Substitution, Term, Tgd, Ucq, VarId, Vocabulary};

/// Relabelings a canonical-labeling call may enumerate before giving up
/// (product of color-class factorials, i.e. 7!): rewriting-generated queries
/// are almost always rigid after color refinement, so the budget is only hit
/// by pathological symmetric queries, which fall back to the pairwise path.
const SYMMETRY_BUDGET: usize = 5_040;

/// Flush cadence of the incremental subsumption sieve: finalized disjuncts
/// are folded into the sieve whenever at least this many new queries have
/// been generated since the last flush (and once more at the end). The
/// surviving disjunct list is independent of it.
const PRUNE_INTERVAL: usize = 256;

/// Endomorphism budget per core-folding round (see `cq_core_budgeted`).
const CORE_BUDGET: usize = 2_000;

/// How generated queries are deduplicated (the `≃` check of Algorithm 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DedupStrategy {
    /// Canonical labeling (invariant-refined coloring + backtracking
    /// tie-break): duplicate detection is a hash-map lookup. Queries whose
    /// symmetry exceeds the labeling budget use the fingerprint path below;
    /// the budget test is isomorphism-invariant, so no duplicate escapes.
    Canonical,
    /// Fingerprint buckets + pairwise `cq_isomorphic` (the pre-canonical
    /// behaviour, kept as a cross-checkable reference).
    FingerprintIso,
}

/// Budgets for the rewriting procedure.
#[derive(Clone, Debug)]
pub struct XRewriteConfig {
    /// Maximum number of distinct CQs ever enqueued (safety budget for
    /// non-UCQ-rewritable inputs). Enforced as a hard cap: the run is
    /// truncated on the first query that would cross it.
    pub max_queries: usize,
    /// Maximum number of atoms allowed in an intermediate CQ (prevents
    /// blow-ups from pathological factorizations); `None` = unbounded.
    pub max_atoms: Option<usize>,
    /// Maximum number of atoms resolved simultaneously against one tgd
    /// head (the size of the set `S` in Def. 6/7). Simultaneous resolution
    /// of `k` atoms is only needed when a single chase atom matches `k`
    /// query atoms at once; beyond small `k` this is vanishingly rare,
    /// while enumerating all `2^pool` subsets dominates the runtime on
    /// queries with many same-predicate atoms.
    pub max_subset: usize,
    /// Canonicalize every generated CQ to its core before deduplication.
    ///
    /// Resolution can produce syntactically growing but semantically
    /// equivalent queries (e.g. accumulating `P(y,z), P(y,z')` pairs under
    /// recursive sticky sets); coring collapses them, which keeps the
    /// procedure within the theoretical bounds of Props. 12/14/17 and is
    /// semantics-preserving (the core is homomorphically equivalent).
    pub canonicalize: bool,
    /// Duplicate-detection strategy (see [`DedupStrategy`]).
    pub dedup: DedupStrategy,
    /// Drop output disjuncts homomorphically subsumed by another disjunct.
    /// The pruned UCQ is semantically equivalent to the unpruned one, but
    /// its disjunct list is no longer a *prefix* of a larger-budget run's
    /// list — callers that ladder budgets and skip already-tested prefixes
    /// must turn this off.
    pub prune_subsumed: bool,
    /// Reuse each sieve entry's compiled join plan across subsumption
    /// probes instead of recompiling per check. Purely a performance knob:
    /// the surviving disjunct list is bit-identical either way (only the
    /// `plans_compiled`/`plan_cache_hits` counters differ).
    pub plan_cache: bool,
    /// Worker threads for the per-round frontier expansion. `0` means "use
    /// the machine's available parallelism"; `1` forces the sequential
    /// path. Any setting produces bit-identical output.
    pub threads: usize,
    /// Cooperative wall-clock/cancellation budget, polled at round
    /// boundaries, per frontier entry, and per merged candidate. Expiry is
    /// reported exactly like the query budget — the run is truncated and
    /// returned as [`RewriteError::BudgetExceeded`] with the sound partial
    /// rewriting — so an expired run never masquerades as complete.
    pub budget: Budget,
}

impl Default for XRewriteConfig {
    fn default() -> Self {
        XRewriteConfig {
            max_queries: 20_000,
            max_atoms: None,
            max_subset: 4,
            canonicalize: true,
            dedup: DedupStrategy::Canonical,
            prune_subsumed: true,
            plan_cache: true,
            threads: 0,
            budget: Budget::unlimited(),
        }
    }
}

impl XRewriteConfig {
    /// A config with the given query budget.
    pub fn with_max_queries(max_queries: usize) -> Self {
        XRewriteConfig {
            max_queries,
            ..Default::default()
        }
    }
}

/// Rewriting failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RewriteError {
    /// The query budget was exhausted before the fixpoint; carries the
    /// partial output (sound: every disjunct is a correct rewriting, the
    /// union may be incomplete). Boxed to keep the `Err` variant small.
    BudgetExceeded(Box<RewriteOutput>),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::BudgetExceeded(out) => write!(
                f,
                "XRewrite budget exceeded after generating {} queries",
                out.generated
            ),
        }
    }
}

impl std::error::Error for RewriteError {}

/// Work counters of one rewriting run, carried by both the success and the
/// budget-exceeded paths. Wall clocks are in nanoseconds (integers, so the
/// containing types stay `Eq`); every other field is a deterministic
/// function of the input and config, identical at any thread count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Worklist rounds (frontier generations) processed.
    pub rounds: usize,
    /// Candidate CQs produced by rewriting/factorization steps, before
    /// deduplication.
    pub candidates: usize,
    /// Candidates discarded by the `max_atoms` budget.
    pub atom_budget_skips: usize,
    /// Duplicates detected by the raw-form fast path: the *uncored*
    /// candidate's canonical form aliased a known entry slot, so the
    /// candidate was rejected without ever being cored.
    pub dedup_hits_raw: usize,
    /// Duplicates detected by canonical-form hash equality after coring.
    pub dedup_hits_canonical: usize,
    /// Duplicates detected by the fingerprint + `cq_isomorphic` path.
    pub dedup_hits_iso: usize,
    /// Pairwise `cq_isomorphic` calls performed (bucket scans).
    pub dedup_iso_checks: usize,
    /// Candidates whose symmetry exceeded the canonical-labeling budget and
    /// fell back to the fingerprint path.
    pub canonical_fallbacks: usize,
    /// Core computations that hit their endomorphism budget (result kept,
    /// possibly non-minimal).
    pub core_budget_exhaustions: usize,
    /// Output disjuncts dropped as homomorphically subsumed.
    pub subsumption_kills: usize,
    /// Homomorphism-kernel work of the subsumption sieve.
    pub hom: HomStats,
    /// Wall clock spent expanding frontier entries (worker side).
    pub expand_nanos: u64,
    /// Wall clock spent merging + deduplicating candidates (caller side).
    pub merge_nanos: u64,
    /// Wall clock spent in the subsumption sieve.
    pub prune_nanos: u64,
}

impl RewriteStats {
    /// Mirrors the counters into the installed omq-obs recorder, once per
    /// run (a no-op without a recorder).
    pub fn emit_obs(&self) {
        if !omq_obs::active() {
            return;
        }
        omq_obs::counters(&[
            ("rewrite.rounds", self.rounds as u64),
            ("rewrite.candidates", self.candidates as u64),
            ("rewrite.atom_budget_skips", self.atom_budget_skips as u64),
            ("rewrite.dedup_hits_raw", self.dedup_hits_raw as u64),
            (
                "rewrite.dedup_hits_canonical",
                self.dedup_hits_canonical as u64,
            ),
            ("rewrite.dedup_hits_iso", self.dedup_hits_iso as u64),
            ("rewrite.dedup_iso_checks", self.dedup_iso_checks as u64),
            (
                "rewrite.canonical_fallbacks",
                self.canonical_fallbacks as u64,
            ),
            (
                "rewrite.core_budget_exhaustions",
                self.core_budget_exhaustions as u64,
            ),
            ("rewrite.subsumption_kills", self.subsumption_kills as u64),
        ]);
        self.hom.emit_obs();
    }
}

/// The result of a (partial or complete) rewriting run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RewriteOutput {
    /// The UCQ rewriting over the data schema.
    pub ucq: Ucq,
    /// Total number of distinct CQs generated (explored and auxiliary).
    pub generated: usize,
    /// Number of rewriting steps applied.
    pub rewrite_steps: usize,
    /// Number of factorization steps applied.
    pub factorization_steps: usize,
    /// Work counters of the run.
    pub stats: RewriteStats,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Label {
    Rewriting,
    Factorization,
}

struct Entry {
    cq: Cq,
    label: Label,
    explored: bool,
}

/// A cheap isomorphism-invariant fingerprint of a CQ: head arity, and the
/// sorted multiset of (predicate, per-position term kinds) with variable
/// occurrence counts abstracted. Two isomorphic CQs always collide, so the
/// expensive `cq_isomorphic` check only runs within a bucket.
fn fingerprint(q: &Cq) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut counts: std::collections::HashMap<VarId, u32> = std::collections::HashMap::new();
    for a in &q.body {
        for v in a.vars() {
            *counts.entry(v).or_insert(0) += 1;
        }
    }
    let mut atoms: Vec<(u32, Vec<i64>)> = q
        .body
        .iter()
        .map(|a| {
            (
                a.pred.0,
                a.args
                    .iter()
                    .map(|t| match t {
                        Term::Const(c) => -(c.0 as i64) - 1,
                        Term::Var(v) => counts[v] as i64,
                        Term::Null(_) => unreachable!(),
                    })
                    .collect(),
            )
        })
        .collect();
    atoms.sort();
    let mut h = DefaultHasher::new();
    q.head.len().hash(&mut h);
    atoms.hash(&mut h);
    h.finish()
}

/// Which labels a dedup slot has seen: a slot's existence means "some entry
/// with an aliased form exists"; `has_rewriting` narrows it for the
/// rewriting-step check, which deduplicates only against `r`-labeled
/// entries.
#[derive(Clone, Copy, Default)]
struct SlotFlags {
    has_rewriting: bool,
}

/// Dedup index for the canonical strategy.
///
/// Canonical forms (of cored entries *and* of uncored candidates proved
/// equal to them) map to shared slots, so the expensive coring step runs
/// only for queries that survive the cheap raw-form check — a duplicate
/// candidate is usually rejected before ever being cored. Queries whose
/// symmetry exceeds the labeling budget live in fingerprint `buckets` and
/// are compared pairwise with `cq_isomorphic`, as are the uncored
/// candidates the selection rule defers; both decisions are
/// isomorphism-invariant, so the two sides never need cross-checking. In
/// `FingerprintIso` mode everything goes through `buckets`.
struct DedupIndex {
    canon: std::collections::HashMap<CqCanonicalForm, usize>,
    slots: Vec<SlotFlags>,
    buckets: std::collections::HashMap<u64, Vec<usize>>,
}

impl DedupIndex {
    fn new() -> Self {
        DedupIndex {
            canon: std::collections::HashMap::new(),
            slots: Vec::new(),
            buckets: std::collections::HashMap::new(),
        }
    }

    /// Looks a canonical form up; `Some(slot)` when an entry with an
    /// aliased form exists (the caller still gates on the slot's flags).
    fn slot_of(&self, form: &CqCanonicalForm) -> Option<usize> {
        self.canon.get(form).copied()
    }

    /// Binds `form` to slot `slot` (aliases may bind many forms to one).
    fn alias(&mut self, form: CqCanonicalForm, slot: usize) {
        self.canon.insert(form, slot);
    }

    /// A fresh slot with the given flags.
    fn new_slot(&mut self, flags: SlotFlags) -> usize {
        self.slots.push(flags);
        self.slots.len() - 1
    }

    /// Registers the keys of an admitted candidate for entry `idx` and
    /// hands its CQ back to the caller.
    fn register(&mut self, adm: Admitted, idx: usize, label: Label) -> Cq {
        let is_rw = label == Label::Rewriting;
        match adm.form {
            Some(f) => {
                // The form may already have a slot whose flags blocked the
                // dup (a factorization entry seen by a rewriting candidate):
                // upgrade it rather than shadowing it.
                let s = match self.slot_of(&f) {
                    Some(s) => {
                        if is_rw {
                            self.slots[s].has_rewriting = true;
                        }
                        s
                    }
                    None => {
                        let s = self.new_slot(SlotFlags {
                            has_rewriting: is_rw,
                        });
                        self.alias(f, s);
                        s
                    }
                };
                if let Some(r) = adm.raw {
                    self.alias(r, s);
                }
            }
            None => {
                self.buckets
                    .entry(adm.fp.expect("fallback admissions carry a fingerprint"))
                    .or_default()
                    .push(idx);
                if let Some(r) = adm.raw {
                    let s = self.new_slot(SlotFlags {
                        has_rewriting: is_rw,
                    });
                    self.alias(r, s);
                }
            }
        }
        adm.cq
    }

    /// Scans the fingerprint bucket of `fp` for an entry isomorphic to `q`,
    /// honouring the rewriting-only restriction; returns its index.
    fn find_iso(
        &self,
        entries: &[Entry],
        q: &Cq,
        fp: u64,
        rewriting_only: bool,
        stats: &mut RewriteStats,
    ) -> Option<usize> {
        let ids = self.buckets.get(&fp)?;
        let hit = ids.iter().copied().find(|&i| {
            (!rewriting_only || entries[i].label == Label::Rewriting) && {
                stats.dedup_iso_checks += 1;
                cq_isomorphic(&entries[i].cq, q)
            }
        });
        if hit.is_some() {
            stats.dedup_hits_iso += 1;
        }
        hit
    }
}

/// Positions (0-based) of the head atom of `t` that hold an existentially
/// quantified variable (`π∃(σ)` generalized to a set, as in \[40\]).
fn existential_positions(t: &Tgd) -> Vec<usize> {
    let ex = t.existential_vars();
    let head = &t.head[0];
    head.args
        .iter()
        .enumerate()
        .filter_map(|(i, &a)| match a {
            Term::Var(v) if ex.contains(&v) => Some(i),
            _ => None,
        })
        .collect()
}

/// Renames every variable of `t` using fresh variables from `voc`
/// (the `σⁱ` renaming of Algorithm 1).
fn rename_apart(t: &Tgd, voc: &mut Vocabulary) -> Tgd {
    let mut sub = Substitution::new();
    for v in t.body_vars().into_iter().chain(t.head_vars()) {
        if sub.get(v).is_none() {
            sub.bind(v, Term::Var(voc.fresh_var("r")));
        }
    }
    Tgd::new(sub.apply_atoms(&t.body), sub.apply_atoms(&t.head))
}

/// The free-variable guard on an applicability MGU: reject a unifier that
/// binds a free variable to a constant — such rewritings would need
/// constants in query heads, which our CQ type does not model; see the
/// module docs. (Free variables never unify with existential variables
/// thanks to condition 2 of Def. 6, checked via the blocked-atom flags.)
fn head_guard_ok(q: &Cq, mgu: &Substitution) -> bool {
    q.head
        .iter()
        .all(|&v| !matches!(mgu.get(v), Some(t) if !t.is_var()))
}

/// Reusable buffers for the subset enumeration.
#[derive(Default)]
struct SubsetScratch {
    /// Positions into the pool of the current combination.
    pos: Vec<usize>,
    /// The combination mapped back to pool values.
    vals: Vec<usize>,
}

/// Enumerates the subsets of `pool` (which is ascending) of sizes
/// `min..=max`, smallest size first and lexicographic within a size,
/// without allocating per subset.
fn for_each_subset(
    pool: &[usize],
    min: usize,
    max: usize,
    scratch: &mut SubsetScratch,
    mut f: impl FnMut(&[usize]),
) {
    let n = pool.len();
    for size in min.max(1)..=max.min(n) {
        let pos = &mut scratch.pos;
        pos.clear();
        pos.extend(0..size);
        'combos: loop {
            scratch.vals.clear();
            scratch.vals.extend(pos.iter().map(|&p| pool[p]));
            f(&scratch.vals);
            // Advance to the next lexicographic combination.
            let mut i = size;
            loop {
                if i == 0 {
                    break 'combos;
                }
                i -= 1;
                if pos[i] != i + n - size {
                    pos[i] += 1;
                    for j in i + 1..size {
                        pos[j] = pos[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }
}

/// Removes duplicate atoms from a CQ (keeps first occurrences). Quadratic
/// in the body size, which is small; beats hashing because the common case
/// (few or no duplicates) does one cheap slice comparison per pair.
fn dedup_atoms(mut q: Cq) -> Cq {
    let mut i = 0;
    while i < q.body.len() {
        if q.body[..i].contains(&q.body[i]) {
            q.body.remove(i);
        } else {
            i += 1;
        }
    }
    q
}

/// The worker-side dedup key of a candidate.
enum CandKey {
    /// Canonical strategy: the canonical form of the candidate as produced
    /// (uncored unless `Candidate::finalized`); `None` when its symmetry
    /// exceeded the labeling budget.
    Raw(Option<CqCanonicalForm>),
    /// Fingerprint strategy, or a candidate the selection rule defers: the
    /// fingerprint of the candidate as it will be stored.
    Fp(u64),
}

/// A candidate produced by expanding one frontier entry, together with the
/// dedup key computed worker-side. Under the canonical strategy the
/// expensive coring step is *deferred* to the merge side and runs only for
/// candidates that survive the cheap raw-form probe.
struct Candidate {
    kind: Label,
    cq: Cq,
    key: CandKey,
    /// `cq` needs no further coring (fingerprint mode, coring disabled, or
    /// the rare worker-side coring forced by the `max_atoms` budget).
    finalized: bool,
}

/// A candidate that survived deduplication, carrying the keys to register
/// once the caller has pushed its entry.
struct Admitted {
    cq: Cq,
    /// Final canonical form; `None` means the fingerprint fallback (`fp`).
    form: Option<CqCanonicalForm>,
    fp: Option<u64>,
    /// Uncored form to alias to the entry's slot (when it differs).
    raw: Option<CqCanonicalForm>,
}

/// All candidates of one frontier entry, in deterministic order (tgd index,
/// subset index; rewriting before factorization per subset), plus the
/// worker-side counters.
#[derive(Default)]
struct Expansion {
    candidates: Vec<Candidate>,
    seen: usize,
    atom_skips: usize,
    core_exhaustions: usize,
    canonical_fallbacks: usize,
    /// The worker found the budget expired and skipped this entry. The
    /// merge side ORs this into `truncated`, so a worker-side skip always
    /// surfaces as `BudgetExceeded` — candidates are dropped loudly, never
    /// silently.
    expired: bool,
}

impl Expansion {
    /// Normalizes a generated CQ (duplicate-atom removal; coring only when
    /// a budget forces it — otherwise coring is deferred to the merge side),
    /// applies the atom budget, and records it as a candidate.
    ///
    /// A candidate that still holds a selectable atom can never be an
    /// output disjunct. When the selection rule defers such candidates, it
    /// is keyed by its fingerprint and never cored or canonically labelled
    /// (whether a query holds a selectable atom is isomorphism-invariant,
    /// so its duplicates are all in the fingerprint buckets too).
    fn consider(&mut self, q: Cq, kind: Label, selection: &Selection, cfg: &XRewriteConfig) {
        self.seen += 1;
        let mut q = dedup_atoms(q);
        if selection.defer_selected
            && selection.selected(&q).is_some()
            && cfg.max_atoms.is_none_or(|m| q.body.len() <= m)
        {
            let key = CandKey::Fp(fingerprint(&q));
            self.candidates.push(Candidate {
                kind,
                cq: q,
                key,
                finalized: true,
            });
            return;
        }
        let mut finalized = !cfg.canonicalize;
        let core_here = |q: &Cq, exh: &mut usize| {
            let (core, exhausted) = cq_core_budgeted_report(q, CORE_BUDGET);
            if exhausted {
                *exh += 1;
            }
            core
        };
        if cfg.dedup == DedupStrategy::FingerprintIso {
            // The reference path cores worker-side: its dedup key (the
            // fingerprint) must be computed on the final query.
            if !finalized && !q.body.is_empty() {
                q = core_here(&q, &mut self.core_exhaustions);
            }
            if cfg.max_atoms.is_some_and(|m| q.body.len() > m) {
                self.atom_skips += 1;
                return;
            }
            let key = CandKey::Fp(fingerprint(&q));
            self.candidates.push(Candidate {
                kind,
                cq: q,
                key,
                finalized: true,
            });
            return;
        }
        // Canonical strategy: the atom budget compares against the *cored*
        // size, so an oversized candidate is cored here (rare — the budget
        // is off by default) and re-checked; within-budget candidates stay
        // uncored, since coring never grows a query.
        if !finalized && !q.body.is_empty() && cfg.max_atoms.is_some_and(|m| q.body.len() > m) {
            q = core_here(&q, &mut self.core_exhaustions);
            finalized = true;
        }
        if cfg.max_atoms.is_some_and(|m| q.body.len() > m) {
            self.atom_skips += 1;
            return;
        }
        let key = CandKey::Raw(cq_canonical_form(&q, SYMMETRY_BUDGET));
        self.candidates.push(Candidate {
            kind,
            cq: q,
            key,
            finalized,
        });
    }
}

/// Merge-side admission of one candidate: the cheap probe on the worker-side
/// key first; survivors are cored (canonical strategy) and re-probed with
/// their final form. Returns `None` for duplicates, otherwise the finalized
/// candidate for the caller to push and [`DedupIndex::register`].
fn admit(
    index: &mut DedupIndex,
    entries: &[Entry],
    cand: Candidate,
    rewriting_only: bool,
    stats: &mut RewriteStats,
) -> Option<Admitted> {
    let raw_form = match cand.key {
        CandKey::Fp(fp) => {
            if index
                .find_iso(entries, &cand.cq, fp, rewriting_only, stats)
                .is_some()
            {
                return None;
            }
            return Some(Admitted {
                cq: cand.cq,
                form: None,
                fp: Some(fp),
                raw: None,
            });
        }
        CandKey::Raw(form) => form,
    };
    // Fast path: the possibly-uncored form already aliases a known slot.
    if let Some(form) = &raw_form {
        if let Some(s) = index.slot_of(form) {
            if !rewriting_only || index.slots[s].has_rewriting {
                stats.dedup_hits_raw += 1;
                return None;
            }
        }
    }
    // Slow path: finalize (core) and re-probe with the final form.
    let (cq, form, raw) = if cand.finalized || cand.cq.body.is_empty() {
        (cand.cq, raw_form, None)
    } else {
        let (core, exhausted) = cq_core_budgeted_report(&cand.cq, CORE_BUDGET);
        if exhausted {
            stats.core_budget_exhaustions += 1;
        }
        if core == cand.cq {
            // Coring was a no-op, so the raw form already is the final
            // form; no alias entry is needed either.
            (core, raw_form, None)
        } else {
            let form = cq_canonical_form(&core, SYMMETRY_BUDGET);
            (core, form, raw_form)
        }
    };
    match form {
        Some(f) => {
            if let Some(s) = index.slot_of(&f) {
                if !rewriting_only || index.slots[s].has_rewriting {
                    stats.dedup_hits_canonical += 1;
                    // Alias the raw form so the next identical candidate
                    // takes the fast path.
                    if let Some(r) = raw {
                        index.alias(r, s);
                    }
                    return None;
                }
            }
            Some(Admitted {
                cq,
                form: Some(f),
                fp: None,
                raw,
            })
        }
        None => {
            stats.canonical_fallbacks += 1;
            let fp = fingerprint(&cq);
            if let Some(i) = index.find_iso(entries, &cq, fp, rewriting_only, stats) {
                if let Some(r) = raw {
                    let flags = SlotFlags {
                        has_rewriting: entries[i].label == Label::Rewriting,
                    };
                    let s = index.new_slot(flags);
                    index.alias(r, s);
                }
                return None;
            }
            Some(Admitted {
                cq,
                form: None,
                fp: Some(fp),
                raw,
            })
        }
    }
}

/// Emits the rewriting step `q' = γ(q[S / body(σⁱ)])` for an applicable set
/// (given by its body indices `s_idx`) with MGU `gamma`.
fn emit_rewriting(
    q: &Cq,
    s_idx: &[usize],
    gamma: &Substitution,
    t: &Tgd,
    out: &mut Expansion,
    selection: &Selection,
    cfg: &XRewriteConfig,
) {
    let mut body: Vec<Atom> = q
        .body
        .iter()
        .enumerate()
        .filter(|(i, _)| !s_idx.contains(i))
        .map(|(_, a)| gamma.apply_atom(a))
        .collect();
    body.extend(gamma.apply_atoms(&t.body));
    let head: Vec<VarId> = q
        .head
        .iter()
        .map(|&v| match gamma.apply_term(Term::Var(v)) {
            Term::Var(w) => w,
            _ => unreachable!("applicability protects free variables"),
        })
        .collect();
    if !body.is_empty() || head.is_empty() {
        out.consider(Cq::new(head, body), Label::Rewriting, selection, cfg);
    }
}

/// The selection rule of one `xrewrite` call (see the module docs).
struct Selection {
    /// The predicates no entry may be expanded by selection on: the data
    /// schema and the heads of non-full tgds. Every other predicate is
    /// *selectable*.
    unselectable: HashSet<PredId>,
    /// No selectable predicate is recursive, so a candidate that still
    /// holds a selectable atom is deduplicated on its fingerprint and never
    /// cored or canonically labelled.
    defer_selected: bool,
}

impl Selection {
    fn new(omq: &Omq, sigma: &[Tgd]) -> Self {
        let unselectable: HashSet<PredId> = omq
            .data_schema
            .preds()
            .iter()
            .copied()
            .chain(
                sigma
                    .iter()
                    .filter(|t| !t.is_full())
                    .map(|t| t.head[0].pred),
            )
            .collect();
        // Kahn's algorithm on the selectable dependency graph (head
        // predicate -> selectable body predicates): it is acyclic iff every
        // selectable predicate can be peeled off.
        let edges: Vec<(PredId, PredId)> = sigma
            .iter()
            .filter(|t| !unselectable.contains(&t.head[0].pred))
            .flat_map(|t| {
                let h = t.head[0].pred;
                t.body
                    .iter()
                    .filter(|a| !unselectable.contains(&a.pred))
                    .map(move |a| (h, a.pred))
            })
            .collect();
        let mut out_deg: std::collections::HashMap<PredId, usize> =
            std::collections::HashMap::new();
        for &(h, b) in &edges {
            *out_deg.entry(h).or_default() += 1;
            out_deg.entry(b).or_default();
        }
        let mut ready: Vec<PredId> = out_deg
            .iter()
            .filter(|&(_, &d)| d == 0)
            .map(|(&p, _)| p)
            .collect();
        let mut peeled = 0;
        while let Some(b) = ready.pop() {
            peeled += 1;
            for &(h, _) in edges.iter().filter(|&&(_, e)| e == b) {
                let d = out_deg.get_mut(&h).expect("every edge end has a degree");
                *d -= 1;
                if *d == 0 {
                    ready.push(h);
                }
            }
        }
        Selection {
            defer_selected: peeled == out_deg.len(),
            unselectable,
        }
    }

    /// The position of the first body atom over a selectable predicate.
    fn selected(&self, q: &Cq) -> Option<usize> {
        q.body
            .iter()
            .position(|a| !self.unselectable.contains(&a.pred))
    }
}

/// Expands one query against every (pre-renamed) tgd: the pure, worker-side
/// part of a round. Needs no vocabulary access — all fresh variables were
/// drawn by the caller when renaming the tgds.
///
/// When the body holds an atom over a selectable predicate, only the first
/// such atom is resolved, as a single-atom rewriting step against each tgd
/// with its head predicate (full tgds: applicability always holds).
///
/// The applicability check (Def. 6) is split across the loop structure: the
/// *pool* prefilter keeps atoms whose predicate matches and which unify
/// with the head on their own (condition 1 for singletons, necessary for
/// any set); *blocked* atoms — a constant or shared variable at an
/// existential position — violate condition 2 in every set containing them,
/// so the rewriting subset enumeration runs over the unblocked pool only,
/// and singleton sets reuse the MGU computed by the prefilter.
///
/// The factorizability check (Def. 7) needs no subset enumeration at all:
/// its conditions force `S` to be *exactly* the set of atoms containing the
/// blocking variable `x` (x occurs in every atom of S and nowhere else), so
/// it suffices to enumerate the candidate variables found at existential
/// positions of pool atoms.
fn expand_entry(
    q: &Cq,
    renamed: &[(Tgd, Vec<usize>)],
    selection: &Selection,
    cfg: &XRewriteConfig,
    scratch: &mut SubsetScratch,
) -> Expansion {
    let mut out = Expansion::default();
    if let Some(sel) = selection.selected(q) {
        let atom = &q.body[sel];
        for (t, _) in renamed.iter().filter(|(t, _)| t.head[0].pred == atom.pred) {
            if let Some(mgu) = omq_model::mgu_atoms(atom, &t.head[0]) {
                if head_guard_ok(q, &mgu) {
                    emit_rewriting(q, &[sel], &mgu, t, &mut out, selection, cfg);
                }
            }
        }
        return out;
    }
    let max_subset = cfg.max_subset.max(1);
    for (t, expos) in renamed {
        let head = &t.head[0];
        let mut pool: Vec<usize> = Vec::new();
        let mut rw_pool: Vec<usize> = Vec::new();
        let mut rw_mgu: Vec<Substitution> = Vec::new();
        for (i, a) in q.body.iter().enumerate() {
            if a.pred != head.pred {
                continue;
            }
            let Some(mgu) = omq_model::mgu_atoms(a, head) else {
                continue;
            };
            pool.push(i);
            let blocked = a.args.iter().enumerate().any(|(p, &arg)| {
                expos.contains(&p)
                    && match arg {
                        Term::Const(_) => true,
                        Term::Var(v) => q.is_shared(v),
                        Term::Null(_) => unreachable!("CQs contain no nulls"),
                    }
            });
            if !blocked {
                rw_pool.push(i);
                rw_mgu.push(mgu);
            }
        }
        if pool.is_empty() {
            continue;
        }

        // --- rewriting steps: singletons first (cached MGU)... ---
        for (k, &i) in rw_pool.iter().enumerate() {
            if head_guard_ok(q, &rw_mgu[k]) {
                emit_rewriting(q, &[i], &rw_mgu[k], t, &mut out, selection, cfg);
            }
        }
        // --- ...then the multi-atom sets. ---
        for_each_subset(&rw_pool, 2, max_subset, scratch, |s_idx| {
            let mut atoms: Vec<&Atom> = s_idx.iter().map(|&i| &q.body[i]).collect();
            atoms.push(head);
            if let Some(gamma) = mgu_refs(&atoms) {
                if head_guard_ok(q, &gamma) {
                    emit_rewriting(q, s_idx, &gamma, t, &mut out, selection, cfg);
                }
            }
        });

        // --- factorization steps: one forced set per blocking variable. ---
        if expos.is_empty() {
            continue;
        }
        let mut seen_vars: Vec<VarId> = Vec::new();
        let mut tried: Vec<Vec<usize>> = Vec::new();
        for &i in &pool {
            for &p in expos {
                let Term::Var(x) = q.body[i].args[p] else {
                    continue;
                };
                if seen_vars.contains(&x) {
                    continue;
                }
                seen_vars.push(x);
                if q.head.contains(&x) {
                    continue;
                }
                // The forced set: every body atom containing x. Conditions:
                // at least two atoms, all in the pool, x only at existential
                // positions within them.
                let occ: Vec<usize> = (0..q.body.len())
                    .filter(|&j| q.body[j].args.contains(&Term::Var(x)))
                    .collect();
                if occ.len() < 2 || occ.len() > max_subset {
                    continue;
                }
                let ok = occ.iter().all(|&j| {
                    pool.contains(&j)
                        && q.body[j]
                            .positions_of(Term::Var(x))
                            .iter()
                            .all(|p2| expos.contains(p2))
                });
                if !ok || tried.contains(&occ) {
                    continue;
                }
                let atoms: Vec<&Atom> = occ.iter().map(|&j| &q.body[j]).collect();
                if let Some(gamma) = mgu_refs(&atoms) {
                    out.consider(gamma.apply_cq(q), Label::Factorization, selection, cfg);
                }
                tried.push(occ);
            }
        }
    }
    out
}

/// Expands every entry of the frontier, in parallel when the pool and the
/// frontier are big enough. Results are slotted by frontier position, so the
/// caller merges them in exactly the sequential order. Workers poll the
/// budget before each entry; a skipped entry reports `expired` so the merge
/// side truncates the run instead of silently losing candidates.
fn expand_frontier(
    frontier: &[Entry],
    renamed: &[(Tgd, Vec<usize>)],
    selection: &Selection,
    cfg: &XRewriteConfig,
    threads: usize,
) -> Vec<Expansion> {
    let n = frontier.len();
    let expand_one = |e: &Entry, scratch: &mut SubsetScratch| {
        if cfg.budget.expired() {
            return Expansion {
                expired: true,
                ..Default::default()
            };
        }
        expand_entry(&e.cq, renamed, selection, cfg, scratch)
    };
    if threads <= 1 || n < 2 {
        let mut scratch = SubsetScratch::default();
        return frontier
            .iter()
            .map(|e| expand_one(e, &mut scratch))
            .collect();
    }
    let slots: Vec<OnceLock<Expansion>> = (0..n).map(|_| OnceLock::new()).collect();
    runtime::parallel_indexed(threads, n, SubsetScratch::default, |scratch, i| {
        let _ = slots[i].set(expand_one(&frontier[i], scratch));
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every slot was filled"))
        .collect()
}

/// Runs XRewrite on `omq`, producing a UCQ rewriting over the data schema.
///
/// The input query may be a UCQ; all its disjuncts seed the worklist. The
/// ontology is used as-is when every head is a single atom; multi-atom heads
/// are normalized first (see `omq_classes::normalize_heads`) — note the
/// normalization's auxiliary predicates never reach the output because they
/// are not in the data schema.
pub fn xrewrite(
    omq: &Omq,
    voc: &mut Vocabulary,
    cfg: &XRewriteConfig,
) -> Result<RewriteOutput, RewriteError> {
    let _span = omq_obs::span("rewrite");
    let sigma: Vec<Tgd> = if omq.sigma.iter().all(|t| t.head.len() == 1) {
        omq.sigma.clone()
    } else {
        omq_classes::normalize_heads(voc, &omq.sigma)
    };
    let selection = Selection::new(omq, &sigma);

    let mut stats = RewriteStats::default();
    let mut entries: Vec<Entry> = Vec::new();
    let mut index = DedupIndex::new();
    let mut truncated = false;

    // Seed the worklist with the input disjuncts.
    {
        let merge_start = Instant::now();
        let mut seed_exp = Expansion::default();
        for d in &omq.query.disjuncts {
            seed_exp.consider(d.clone(), Label::Rewriting, &selection, cfg);
        }
        // Seeds are inputs, not generated candidates.
        seed_exp.seen = 0;
        stats.core_budget_exhaustions += seed_exp.core_exhaustions;
        stats.canonical_fallbacks += seed_exp.canonical_fallbacks;
        for cand in seed_exp.candidates {
            let Some(adm) = admit(&mut index, &entries, cand, false, &mut stats) else {
                continue;
            };
            if entries.len() >= cfg.max_queries {
                truncated = true;
                break;
            }
            let cq = index.register(adm, entries.len(), Label::Rewriting);
            entries.push(Entry {
                cq,
                label: Label::Rewriting,
                explored: false,
            });
        }
        stats.merge_nanos += merge_start.elapsed().as_nanos() as u64;
    }

    let threads = runtime::effective_threads(cfg.threads, usize::MAX);
    let mut rewrite_steps = 0usize;
    let mut factorization_steps = 0usize;

    // The subsumption sieve receives every finalized disjunct (explored,
    // r-labeled, data-schema-only) in entry order; `pending` buffers them
    // between flushes. Streaming through the sieve in a fixed order makes
    // the surviving list independent of the flush cadence.
    let mut sieve = SubsumptionSieve::with_plan_cache(cfg.plan_cache);
    let mut pending: Vec<Cq> = Vec::new();
    let mut last_flush = 0usize;
    let flush = |sieve: &mut SubsumptionSieve, pending: &mut Vec<Cq>, stats: &mut RewriteStats| {
        let _span = omq_obs::span("rewrite.prune");
        let t = Instant::now();
        for cq in pending.drain(..) {
            sieve.insert(cq);
        }
        stats.prune_nanos += t.elapsed().as_nanos() as u64;
    };
    let is_output = |e: &Entry| {
        e.label == Label::Rewriting
            && e.explored
            && e.cq.body.iter().all(|a| omq.data_schema.contains(a.pred))
    };

    // Round-based worklist: entries are appended in merge order and explored
    // in index order, so each round's frontier is the contiguous range
    // `[cursor, frontier_end)`.
    let mut cursor = 0usize;
    while cursor < entries.len() && !truncated {
        if cfg.budget.expired() {
            truncated = true;
            break;
        }
        stats.rounds += 1;
        let _round = omq_obs::span("rewrite.round");
        let frontier_end = entries.len();

        // Rename each tgd once for this round, on the caller thread: fresh
        // variables are drawn in a deterministic order regardless of thread
        // count, and frontier entries were built from *earlier* rounds'
        // renamings, so round-local sharing keeps the tgds apart from every
        // query they meet. Tgds whose head predicate appears in no frontier
        // body are skipped — their atom pool is empty for every entry — and
        // since the frontier itself is deterministic, so is the skip set.
        let frontier_preds: HashSet<_> = entries[cursor..frontier_end]
            .iter()
            .flat_map(|e| e.cq.body.iter().map(|a| a.pred))
            .collect();
        let renamed: Vec<(Tgd, Vec<usize>)> = sigma
            .iter()
            .filter(|t| frontier_preds.contains(&t.head[0].pred))
            .map(|t| {
                let r = rename_apart(t, voc);
                let expos = existential_positions(&r);
                (r, expos)
            })
            .collect();

        let expand_start = Instant::now();
        let expansions = {
            let _span = omq_obs::span("rewrite.expand");
            expand_frontier(
                &entries[cursor..frontier_end],
                &renamed,
                &selection,
                cfg,
                threads,
            )
        };
        stats.expand_nanos += expand_start.elapsed().as_nanos() as u64;

        let merge_span = omq_obs::span("rewrite.merge");
        let merge_start = Instant::now();
        for (off, exp) in expansions.into_iter().enumerate() {
            let idx = cursor + off;
            entries[idx].explored = true;
            if cfg.prune_subsumed && is_output(&entries[idx]) {
                pending.push(entries[idx].cq.clone());
            }
            stats.candidates += exp.seen;
            stats.atom_budget_skips += exp.atom_skips;
            stats.core_budget_exhaustions += exp.core_exhaustions;
            stats.canonical_fallbacks += exp.canonical_fallbacks;
            truncated |= exp.expired;
            for cand in exp.candidates {
                let kind = cand.kind;
                let rewriting_only = kind == Label::Rewriting;
                let Some(adm) = admit(&mut index, &entries, cand, rewriting_only, &mut stats)
                else {
                    continue;
                };
                if entries.len() >= cfg.max_queries {
                    truncated = true;
                    break;
                }
                match kind {
                    Label::Rewriting => rewrite_steps += 1,
                    Label::Factorization => factorization_steps += 1,
                }
                let cq = index.register(adm, entries.len(), kind);
                entries.push(Entry {
                    cq,
                    label: kind,
                    explored: false,
                });
            }
            if truncated {
                break;
            }
        }
        stats.merge_nanos += merge_start.elapsed().as_nanos() as u64;
        drop(merge_span);
        cursor = frontier_end;

        if cfg.prune_subsumed && entries.len() - last_flush >= PRUNE_INTERVAL {
            last_flush = entries.len();
            flush(&mut sieve, &mut pending, &mut stats);
        }
    }

    let disjuncts: Vec<Cq> = if cfg.prune_subsumed {
        flush(&mut sieve, &mut pending, &mut stats);
        stats.subsumption_kills = sieve.kills();
        stats.hom = sieve.hom_stats();
        sieve.into_disjuncts()
    } else {
        entries
            .iter()
            .filter(|e| is_output(e))
            .map(|e| e.cq.clone())
            .collect()
    };
    stats.emit_obs();
    omq_obs::counter("rewrite.generated", entries.len() as u64);
    let out = RewriteOutput {
        ucq: Ucq::new(omq.query.arity, disjuncts),
        generated: entries.len(),
        rewrite_steps,
        factorization_steps,
        stats,
    };
    if truncated {
        Err(RewriteError::BudgetExceeded(Box::new(out)))
    } else {
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_model::{parse_program, Schema};

    /// Builds an OMQ from program text: all predicates named in `data` form
    /// the data schema; the query is the one named `q`.
    fn omq(text: &str, data: &[&str]) -> (Omq, Vocabulary) {
        let prog = parse_program(text).unwrap();
        let voc = prog.voc.clone();
        let schema = Schema::from_preds(data.iter().map(|n| voc.pred_id(n).unwrap()));
        (
            Omq::new(schema, prog.tgds.clone(), prog.query("q").unwrap().clone()),
            voc,
        )
    }

    /// Example 1 of the paper: the rewriting of q(x) :- R(x,y), P(y) under
    ///   P(x) → ∃y R(x,y);  R(x,y) → P(y);  T(x) → P(x)
    /// over S = {P, T} is `P(x) ∨ T(x)`.
    #[test]
    fn paper_example_1() {
        let (q, mut voc) = omq(
            "P(X) -> exists Y . R(X,Y)\n\
             R(X,Y) -> P(Y)\n\
             T(X) -> P(X)\n\
             q(X) :- R(X,Y), P(Y)\n",
            &["P", "T"],
        );
        let out = xrewrite(&q, &mut voc, &XRewriteConfig::default()).unwrap();
        let p = voc.pred_id("P").unwrap();
        let t = voc.pred_id("T").unwrap();
        // Expect exactly the single-atom disjuncts P(x) and T(x).
        let mut found_p = false;
        let mut found_t = false;
        for d in &out.ucq.disjuncts {
            if d.body.len() == 1 {
                let a = &d.body[0];
                if a.pred == p && a.args[0] == Term::Var(d.head[0]) {
                    found_p = true;
                }
                if a.pred == t && a.args[0] == Term::Var(d.head[0]) {
                    found_t = true;
                }
            }
        }
        assert!(found_p, "P(x) missing from rewriting: {:?}", out.ucq);
        assert!(found_t, "T(x) missing from rewriting");
        assert!(out.stats.rounds >= 2);
        assert!(out.stats.candidates > 0);
    }

    /// Every disjunct of the rewriting must have at most |q| atoms for
    /// linear ontologies (Prop. 12).
    #[test]
    fn linear_disjuncts_never_grow() {
        let (q, mut voc) = omq(
            "A(X) -> exists Y . R(X,Y)\n\
             R(X,Y) -> exists Z . R(Y,Z)\n\
             B(X,Y) -> R(X,Y)\n\
             q(X) :- R(X,Y), R(Y,Z)\n",
            &["A", "B"],
        );
        let out = xrewrite(&q, &mut voc, &XRewriteConfig::default()).unwrap();
        assert!(out.ucq.max_disjunct_size() <= 2);
        assert!(!out.ucq.disjuncts.is_empty());
    }

    /// The factorization example from the appendix: q = ∃x∃y∃z (R(x,y) ∧
    /// R(x,z)) with σ = P(u,v) → ∃w R(w,u). Applicability fails on either
    /// atom alone (x is shared and sits at the existential position), but
    /// factorizing {R(x,y), R(x,z)} unifies y and z, after which the
    /// rewriting step produces P(u,v).
    #[test]
    fn factorization_unblocks_rewriting() {
        let (q, mut voc) = omq(
            "P(U,V) -> exists W . R(W,U)\n\
             q :- R(X,Y), R(X,Z)\n",
            &["P"],
        );
        // Without coring, the factorization step of Def. 7 is what unifies
        // {R(x,y), R(x,z)} so the tgd becomes applicable.
        let cfg = XRewriteConfig {
            canonicalize: false,
            ..Default::default()
        };
        let out = xrewrite(&q, &mut voc, &cfg).unwrap();
        assert!(out.factorization_steps >= 1);
        let p = voc.pred_id("P").unwrap();
        let has_p = |out: &RewriteOutput| {
            out.ucq
                .disjuncts
                .iter()
                .any(|d| d.body.len() == 1 && d.body[0].pred == p)
        };
        assert!(has_p(&out), "expected P(u,v) disjunct, got {:?}", out.ucq);
        // With coring (the default) the redundant atom collapses up front
        // and the same rewriting is reached without factorization.
        let out2 = xrewrite(&q, &mut voc, &XRewriteConfig::default()).unwrap();
        assert!(has_p(&out2));
    }

    /// Without factorization the blocked step must NOT fire: x is shared and
    /// at an existential position, so R(x,y) alone is not applicable.
    #[test]
    fn applicability_blocks_shared_existential_position() {
        let (q, mut voc) = omq(
            "P(U,V) -> exists W . R(W,U)\n\
             q(X) :- R(X,Y)\n",
            &["P", "R"],
        );
        // X is free (hence shared) and sits at position 0 = π∃(σ).
        let out = xrewrite(&q, &mut voc, &XRewriteConfig::default()).unwrap();
        // The only disjunct over {P, R} is the original query itself.
        assert_eq!(out.ucq.disjuncts.len(), 1);
        assert_eq!(out.ucq.disjuncts[0].body[0].pred, voc.pred_id("R").unwrap());
    }

    /// Non-shared variables at existential positions resolve fine.
    #[test]
    fn existential_position_with_lone_variable() {
        let (q, mut voc) = omq(
            "P(X) -> exists Y . R(X,Y)\n\
             q(X) :- R(X,Y)\n",
            &["P", "R"],
        );
        let out = xrewrite(&q, &mut voc, &XRewriteConfig::default()).unwrap();
        let p = voc.pred_id("P").unwrap();
        assert!(out
            .ucq
            .disjuncts
            .iter()
            .any(|d| d.body.len() == 1 && d.body[0].pred == p));
    }

    /// Non-recursive multi-atom bodies: rewriting replaces the head atom by
    /// the body, growing the query (Prop. 14 behaviour).
    #[test]
    fn nonrecursive_body_expansion() {
        let (q, mut voc) = omq(
            "A(X), B(X) -> C(X)\n\
             q :- C(X)\n",
            &["A", "B"],
        );
        let out = xrewrite(&q, &mut voc, &XRewriteConfig::default()).unwrap();
        assert_eq!(out.ucq.disjuncts.len(), 1);
        assert_eq!(out.ucq.disjuncts[0].body.len(), 2);
    }

    /// UCQ input: both disjuncts are rewritten.
    #[test]
    fn ucq_input_seeds_all_disjuncts() {
        let (q, mut voc) = omq(
            "A(X) -> P(X)\n\
             B(X) -> T(X)\n\
             q(X) :- P(X)\n\
             q(X) :- T(X)\n",
            &["A", "B"],
        );
        let out = xrewrite(&q, &mut voc, &XRewriteConfig::default()).unwrap();
        assert_eq!(out.ucq.disjuncts.len(), 2);
    }

    /// A guarded, non-UCQ-rewritable input exhausts the budget. The cap is
    /// hard — generation stops *before* the query that would cross it — and
    /// the partial run still carries its stats.
    #[test]
    fn budget_exceeded_on_transitive_guarded() {
        let (q, mut voc) = omq(
            "E(X,Y) -> exists Z . E(Y,Z)\n\
             R(X,Y), E(Y,Z) -> R(X,Z)\n\
             q :- R(X,Y), E(Y,Z)\n",
            &["E", "R"],
        );
        let r = xrewrite(&q, &mut voc, &XRewriteConfig::with_max_queries(25));
        match r {
            Err(RewriteError::BudgetExceeded(out)) => {
                assert!(out.generated <= 25, "hard cap overshot: {}", out.generated);
                assert!(out.stats.rounds >= 1);
                assert!(out.stats.candidates > 0);
            }
            Ok(out) => {
                // Fine too: the fixpoint may be small. But then it must
                // contain the original query.
                assert!(!out.ucq.disjuncts.is_empty());
            }
        }
    }

    /// Fact tgds can erase atoms entirely.
    #[test]
    fn fact_tgd_resolves_to_smaller_query() {
        let (q, mut voc) = omq(
            "true -> Bit(0)\n\
             Bit(X) -> Num(X)\n\
             q :- Num(0), P(Z)\n",
            &["P"],
        );
        let out = xrewrite(&q, &mut voc, &XRewriteConfig::default()).unwrap();
        // Num(0) resolves to Bit(0) resolves to nothing: q :- P(Z) remains.
        assert!(out
            .ucq
            .disjuncts
            .iter()
            .any(|d| d.body.len() == 1 && d.body[0].pred == voc.pred_id("P").unwrap()));
    }

    /// Multi-atom heads are normalized internally and still rewrite fully.
    #[test]
    fn multi_atom_heads_normalized() {
        let (q, mut voc) = omq(
            "A(X) -> P(X), T(X)\n\
             q :- P(X), T(X)\n",
            &["A"],
        );
        let out = xrewrite(&q, &mut voc, &XRewriteConfig::default()).unwrap();
        let a = voc.pred_id("A").unwrap();
        assert!(
            out.ucq
                .disjuncts
                .iter()
                .any(|d| d.body.iter().all(|at| at.pred == a)),
            "expected a disjunct over A, got {:?}",
            out.ucq
        );
    }

    /// Subsumption pruning drops a disjunct strictly implied by another
    /// (here: the seed query is subsumed by the more general rewriting
    /// P(x)), while the unpruned run keeps both; the pruned and unpruned
    /// UCQs stay mutually contained.
    #[test]
    fn subsumption_prunes_redundant_disjuncts() {
        let (q, mut voc) = omq(
            "P(X) -> R(X)\n\
             q(X) :- R(X), P(X)\n",
            &["P", "R"],
        );
        let unpruned = xrewrite(
            &q,
            &mut voc,
            &XRewriteConfig {
                prune_subsumed: false,
                ..Default::default()
            },
        )
        .unwrap();
        let pruned = xrewrite(&q, &mut voc, &XRewriteConfig::default()).unwrap();
        assert!(pruned.ucq.disjuncts.len() < unpruned.ucq.disjuncts.len());
        assert!(pruned.stats.subsumption_kills >= 1);
        assert!(omq_chase::ucq_contained(&pruned.ucq, &unpruned.ucq));
        assert!(omq_chase::ucq_contained(&unpruned.ucq, &pruned.ucq));
    }

    /// A pre-expired wall-clock budget truncates the run through the same
    /// channel as the query budget: `BudgetExceeded` with a sound partial
    /// output, never a silently incomplete `Ok`.
    #[test]
    fn expired_budget_truncates_as_budget_exceeded() {
        let (q, mut voc) = omq(
            "P(X) -> exists Y . R(X,Y)\n\
             R(X,Y) -> P(Y)\n\
             T(X) -> P(X)\n\
             q(X) :- R(X,Y), P(Y)\n",
            &["P", "T"],
        );
        let (budget, token) = Budget::unlimited().cancellable();
        token.cancel();
        let cfg = XRewriteConfig {
            budget,
            ..Default::default()
        };
        match xrewrite(&q, &mut voc, &cfg) {
            Err(RewriteError::BudgetExceeded(out)) => {
                // The seeds were admitted before the first round poll.
                assert!(out.generated >= 1);
            }
            Ok(_) => panic!("expired budget must not report a complete rewriting"),
        }
    }

    /// Does some disjunct use exactly the predicates `preds` (as a set)?
    fn has_disjunct_over(out: &RewriteOutput, voc: &Vocabulary, preds: &[&str]) -> bool {
        let mut want: Vec<PredId> = preds.iter().map(|n| voc.pred_id(n).unwrap()).collect();
        want.sort();
        out.ucq.disjuncts.iter().any(|d| {
            let mut got: Vec<PredId> = d.body.iter().map(|a| a.pred).collect();
            got.sort();
            got.dedup();
            got == want
        })
    }

    /// A predicate with a full and an existential defining tgd is not
    /// selectable: the query needs factorization on the existential
    /// position (`Y` is shared), which selection would skip, losing `B(x)`.
    #[test]
    fn mixed_full_and_existential_head_is_not_selected() {
        let (q, mut voc) = omq(
            "A(X) -> P(X,X)
             B(X) -> exists Y . P(X,Y)
             q :- P(X,Y), P(Z,Y)
",
            &["A", "B"],
        );
        let sigma = q.sigma.clone();
        assert!(Selection::new(&q, &sigma)
            .unselectable
            .contains(&voc.pred_id("P").unwrap()));
        let out = xrewrite(&q, &mut voc, &XRewriteConfig::default()).unwrap();
        assert!(has_disjunct_over(&out, &voc, &["A"]), "{:?}", out.ucq);
        assert!(has_disjunct_over(&out, &voc, &["B"]), "{:?}", out.ucq);
    }

    /// A head predicate that is also in the data schema is not selectable:
    /// the entry keeping `P(x)` must still resolve its `R` atom, which
    /// gives the disjunct `P(x), C(x)`.
    #[test]
    fn data_schema_head_is_not_selected() {
        let (q, mut voc) = omq(
            "A(X) -> P(X)
             C(X) -> exists Y . R(X,Y)
             q(X) :- P(X), R(X,Y)
",
            &["A", "P", "C"],
        );
        let sigma = q.sigma.clone();
        assert!(Selection::new(&q, &sigma)
            .unselectable
            .contains(&voc.pred_id("P").unwrap()));
        let out = xrewrite(&q, &mut voc, &XRewriteConfig::default()).unwrap();
        assert!(has_disjunct_over(&out, &voc, &["P", "C"]), "{:?}", out.ucq);
        assert!(has_disjunct_over(&out, &voc, &["A", "C"]), "{:?}", out.ucq);
    }

    /// An atom over a predicate outside the data schema that no tgd defines
    /// is selected, and its entry yields no candidates: the query holds on
    /// no database.
    #[test]
    fn undefined_selected_atom_yields_no_candidates() {
        let (q, mut voc) = omq(
            "A(X) -> P(X)
             q(X) :- U(X), A(X)
",
            &["A"],
        );
        let out = xrewrite(&q, &mut voc, &XRewriteConfig::default()).unwrap();
        assert_eq!(out.stats.candidates, 0);
        assert_eq!(out.generated, 1);
        assert!(out.ucq.disjuncts.is_empty());
    }

    /// The E3 family: `L{i}(X,Y), L{i}(Y,Z) -> L{i+1}(X,Z)` for
    /// `i < strata`, the query `q(X,Z) :- L{strata}(X,Z)`, data schema
    /// `{L0}`. The rewriting is one path of `2^strata` `L0` atoms.
    fn strata_program(strata: usize) -> String {
        let mut text: String = (0..strata)
            .map(|i| {
                format!(
                    "L{i}(X,Y), L{i}(Y,Z) -> L{}(X,Z)
",
                    i + 1
                )
            })
            .collect();
        text.push_str(&format!(
            "q(X,Z) :- L{strata}(X,Z)
"
        ));
        text
    }

    /// The E2 counter family for `n` bits (see
    /// `omq_reductions::counter_family`): every predicate but `S` is
    /// Datalog-defined, and the rewriting is the `2^n` atoms `S(b̄,0,1)`.
    fn counter_program(n: usize) -> String {
        let xs = |i: usize, bit: &str| -> String {
            (1..=n)
                .map(|j| {
                    if j == i {
                        bit.to_owned()
                    } else {
                        format!("X{j}")
                    }
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut text = format!(
            "S({0},Z,O) -> P{n}({0},Z,O)
",
            xs(0, "")
        );
        for i in 1..=n {
            text.push_str(&format!(
                "P{i}({z},Z,O), P{i}({o},Z,O) -> P{}({z},Z,O)
",
                i - 1,
                z = xs(i, "Z"),
                o = xs(i, "O"),
            ));
        }
        text.push_str(&format!(
            "P0({},Z,O) -> Ans(Z,O)
",
            vec!["Z"; n].join(",")
        ));
        text.push_str(
            "q :- Ans(0,1)
",
        );
        text
    }

    /// Selection resolves one atom per query, so the E3 and E2 families
    /// reach their single disjunct without enumerating resolution orders
    /// (unselected: 10,857 queries for strata=4, 678 for n=3).
    #[test]
    fn selection_collapses_resolution_orders() {
        let (q, mut voc) = omq(&strata_program(4), &["L0"]);
        let out = xrewrite(&q, &mut voc, &XRewriteConfig::default()).unwrap();
        assert_eq!(out.generated, 16);
        assert!(out.stats.candidates <= 64, "{}", out.stats.candidates);
        assert_eq!(out.ucq.disjuncts.len(), 1);
        assert_eq!(out.ucq.disjuncts[0].body.len(), 16);

        let (q, mut voc) = omq(&counter_program(3), &["S"]);
        let out = xrewrite(&q, &mut voc, &XRewriteConfig::default()).unwrap();
        assert!(out.generated <= 17, "{}", out.generated);
        assert_eq!(out.ucq.disjuncts.len(), 1);
        assert_eq!(out.ucq.disjuncts[0].body.len(), 8);
    }

    /// With non-recursive selectable predicates, queries that still hold a
    /// selectable atom are left uncored but are still deduplicated modulo
    /// renaming: `S(x)` is reached through `Q` and through `R`, and its
    /// second copy is dropped.
    #[test]
    fn deferred_candidates_are_deduplicated() {
        let (q, mut voc) = omq(
            "Q(X) -> P(X)
             R(X) -> P(X)
             S(X) -> Q(X)
             S(X) -> R(X)
             A(X) -> S(X)
             q(X) :- P(X)
",
            &["A"],
        );
        let sigma = q.sigma.clone();
        assert!(Selection::new(&q, &sigma).defer_selected);
        let out = xrewrite(&q, &mut voc, &XRewriteConfig::default()).unwrap();
        assert_eq!(out.stats.dedup_hits_iso, 1);
        assert_eq!(out.generated, 5);
        assert!(has_disjunct_over(&out, &voc, &["A"]), "{:?}", out.ucq);
    }

    /// A recursive selectable predicate turns deferral off: uncored, the
    /// resolvents `P(x), R(x,y1), ..., R(x,yk)` would all be new, while
    /// their cores collapse to `P(x), R(x,y1)` and the run terminates.
    #[test]
    fn recursive_selectable_predicate_keeps_coring() {
        let (q, mut voc) = omq(
            "P0(X) -> P(X)
             P(X), R(X,Y) -> P(X)
             q(X) :- P(X)
",
            &["P0", "R"],
        );
        let sigma = q.sigma.clone();
        assert!(!Selection::new(&q, &sigma).defer_selected);
        let out = xrewrite(&q, &mut voc, &XRewriteConfig::default()).unwrap();
        assert!(out.generated < 10, "{}", out.generated);
        assert!(has_disjunct_over(&out, &voc, &["P0"]), "{:?}", out.ucq);
    }

    /// The two dedup strategies and any thread count produce identical
    /// outputs (spot check; the differential test sweeps random OMQs).
    #[test]
    fn dedup_strategies_and_threads_agree() {
        let make = || {
            omq(
                "P(X) -> exists Y . R(X,Y)\n\
                 R(X,Y) -> P(Y)\n\
                 T(X) -> P(X)\n\
                 q(X) :- R(X,Y), P(Y)\n",
                &["P", "T"],
            )
        };
        let (q, mut voc) = make();
        let base = xrewrite(&q, &mut voc, &XRewriteConfig::default()).unwrap();
        for (dedup, threads) in [
            (DedupStrategy::Canonical, 1),
            (DedupStrategy::Canonical, 4),
            (DedupStrategy::FingerprintIso, 1),
            (DedupStrategy::FingerprintIso, 8),
        ] {
            let (q2, mut voc2) = make();
            let cfg = XRewriteConfig {
                dedup,
                threads,
                ..Default::default()
            };
            let out = xrewrite(&q2, &mut voc2, &cfg).unwrap();
            assert_eq!(out.ucq.disjuncts, base.ucq.disjuncts, "{dedup:?}/{threads}");
            assert_eq!(out.generated, base.generated);
        }
    }
}
