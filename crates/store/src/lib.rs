//! `omq-store`: an immutable, versioned fact store with an incrementally
//! maintained chase fixpoint.
//!
//! The store keeps databases the way ledger-style databases (Datomic,
//! Fluree) do: a **frozen base** of per-predicate sorted index runs plus an
//! append-only list of **novelty** overlays, one [`Delta`] per version.
//! Reads at version `v` replay the novelty on top of the base; once the
//! novelty grows past a threshold it is **compacted** into a new frozen
//! base, establishing a floor below which unpinned versions become
//! unreadable ([`StoreError::Stale`]). [`VersionedStore::snapshot`] pins
//! the current version against compaction so `evaluate`-at-version stays
//! answerable for as long as the handle is held.
//!
//! On top of the raw store, [`MaintainedStore`] keeps the chase fixpoint of
//! the head version **incrementally maintained**:
//!
//! * **Assertions** enter as a new delta generation and resume the
//!   semi-naive fixpoint from the generation watermark
//!   ([`omq_chase::resume_chase`]) — the prior fixpoint is never re-chased.
//! * **Retractions** run DRed (delete-and-rederive): the support cone of
//!   the retracted facts is over-deleted by a forward pass over the
//!   recorded [`DerivationStep`] log, then a delta-0 resume re-derives
//!   every over-deleted atom that still has an alternative derivation.
//!   Restricted-chase head-satisfaction makes the re-derivation pass skip
//!   everything already justified, so the pass is cheap when cones are
//!   small.
//!
//! Because the restricted chase is order-dependent, the maintained instance
//! need not be *syntactically* identical to a from-scratch chase of the
//! same database — but both are universal models of `(D, Σ)`, so certain
//! answers (constant-only query answers) agree exactly. The differential
//! tests in `tests/` pin that equivalence byte-for-byte on rendered
//! answers.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;

use omq_chase::{chase, eval_ucq, resume_chase, ChaseConfig, DerivationStep, Guarantee};
use omq_model::{Atom, ConstId, Instance, PredId, Term, Tgd, Ucq, Vocabulary};

/// A ground fact in code form: one [`Term::code`] per argument position.
pub type Row = Vec<i64>;

/// The novelty overlay producing one version: facts asserted into and
/// retracted from the previous version. Only *effective* changes are
/// recorded (asserting a present fact or retracting an absent one leaves
/// the delta untouched, though the version still advances).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Delta {
    pub asserts: Vec<(PredId, Row)>,
    pub retracts: Vec<(PredId, Row)>,
}

impl Delta {
    fn rows(&self) -> usize {
        self.asserts.len() + self.retracts.len()
    }
}

/// Errors surfaced by version-addressed reads and ground-fact ingestion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The requested version predates the compaction floor and no snapshot
    /// pinned it: the novelty needed to reconstruct it has been merged away.
    Stale { version: u64, floor: u64 },
    /// The requested version is beyond the store's head.
    Future { version: u64, head: u64 },
    /// A fact passed to assert/retract contains a variable or null.
    NotGround { atom: String },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Stale { version, floor } => write!(
                f,
                "version {version} is below the compaction floor {floor} and was not pinned"
            ),
            StoreError::Future { version, head } => {
                write!(f, "version {version} does not exist yet (head is {head})")
            }
            StoreError::NotGround { atom } => {
                write!(f, "fact {atom} is not ground")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Tuning knobs for [`VersionedStore`].
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Total novelty rows (asserts + retracts across all pending deltas)
    /// that trigger a compaction after a mutation. `0` disables automatic
    /// compaction (tests drive [`VersionedStore::compact`] by hand).
    pub compact_threshold: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            compact_threshold: 64,
        }
    }
}

/// Counters for store mutations and fixpoint maintenance, threaded through
/// the serve `stats` op and mirrored into the omq-obs counter taxonomy
/// (`store.assert`, `store.retract`, `store.compact`, `chase.incremental`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Assert operations (each advances the version by one).
    pub asserts: u64,
    /// Retract operations.
    pub retracts: u64,
    /// Facts that actually entered the store (not already present).
    pub facts_asserted: u64,
    /// Facts that actually left the store (present at the head).
    pub facts_retracted: u64,
    /// Snapshot handles taken.
    pub snapshots: u64,
    /// Novelty→base merges performed.
    pub compactions: u64,
    /// Rows currently sitting in novelty overlays (gauge).
    pub novelty_size: u64,
    /// Instance atoms removed by DRed over-deletion (support cones).
    pub dred_deleted: u64,
    /// Triggers re-fired by the DRed re-derivation pass.
    pub rederived: u64,
    /// Fixpoint maintenances that resumed from a watermark instead of
    /// re-chasing from scratch.
    pub incremental_resumes: u64,
    /// Fixpoint constructions that had to chase from scratch.
    pub full_rechases: u64,
    /// DRed support-cone passes actually run (one per retract *batch*, not
    /// per retract call — see [`MaintainedStore::retract_batch`]).
    pub cone_batches: u64,
    /// Retract versions that shared a batch's cone pass instead of paying
    /// their own (`versions_in_batch - 1`, summed over batches).
    pub cone_reuses: u64,
}

fn ground_row(atom: &Atom) -> Result<Row, StoreError> {
    if atom.args.iter().all(|t| matches!(t, Term::Const(_))) {
        Ok(atom.args.iter().map(|t| t.code()).collect())
    } else {
        Err(StoreError::NotGround {
            atom: format!("{atom:?}"),
        })
    }
}

fn insert_sorted(rows: &mut Vec<Row>, row: Row) {
    if let Err(i) = rows.binary_search(&row) {
        rows.insert(i, row);
    }
}

fn remove_sorted(rows: &mut Vec<Row>, row: &Row) {
    if let Ok(i) = rows.binary_search(row) {
        rows.remove(i);
    }
}

/// The raw versioned store: frozen base runs + novelty overlays + pins.
///
/// Versions are dense `floor..=head` integers; every mutation (assert or
/// retract, effective or not) advances the head by one. The base always
/// materializes exactly version `floor`.
#[derive(Clone, Debug, Default)]
pub struct VersionedStore {
    /// Frozen, per-predicate sorted index runs as of version `floor`.
    base: BTreeMap<PredId, Vec<Row>>,
    /// Version the base materializes; versions below it are gone.
    floor: u64,
    /// `novelty[i]` is the overlay producing version `floor + i + 1`.
    novelty: Vec<Delta>,
    /// The head state, maintained incrementally: `base` + all novelty.
    /// Gives O(log n) membership for effective-change detection and DRed's
    /// surviving-EDB test without replaying overlays.
    head_state: BTreeMap<PredId, BTreeSet<Row>>,
    /// Pinned versions (snapshot handles) → pin count. Compaction never
    /// advances the floor past the smallest pinned version.
    pins: BTreeMap<u64, usize>,
    cfg: StoreConfig,
    stats: StoreStats,
}

/// Result of a mutation: the new head version plus the facts that actually
/// changed (deduplicated against the prior head state).
#[derive(Clone, Debug)]
pub struct MutationOutcome {
    pub version: u64,
    pub changed: Vec<Atom>,
}

impl VersionedStore {
    pub fn new(cfg: StoreConfig) -> Self {
        VersionedStore {
            cfg,
            ..VersionedStore::default()
        }
    }

    /// The newest version.
    pub fn head(&self) -> u64 {
        self.floor + self.novelty.len() as u64
    }

    /// The oldest version still materializable.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Rows currently held in novelty overlays.
    pub fn novelty_rows(&self) -> usize {
        self.novelty.iter().map(Delta::rows).sum()
    }

    /// Mutation/compaction counters (with the `novelty_size` gauge fresh).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            novelty_size: self.novelty_rows() as u64,
            ..self.stats
        }
    }

    /// Is the ground fact present at the head version?
    pub fn head_contains(&self, atom: &Atom) -> bool {
        match ground_row(atom) {
            Ok(row) => self
                .head_state
                .get(&atom.pred)
                .is_some_and(|s| s.contains(&row)),
            Err(_) => false,
        }
    }

    /// Appends a new version asserting `facts`. Facts already present are
    /// skipped (the version still advances). Errors on non-ground facts
    /// without changing the store.
    pub fn assert_facts(&mut self, facts: &[Atom]) -> Result<MutationOutcome, StoreError> {
        let rows: Vec<(Row, &Atom)> = facts
            .iter()
            .map(|a| ground_row(a).map(|r| (r, a)))
            .collect::<Result<_, _>>()?;
        let mut delta = Delta::default();
        let mut changed = Vec::new();
        for (row, atom) in rows {
            if self
                .head_state
                .entry(atom.pred)
                .or_default()
                .insert(row.clone())
            {
                delta.asserts.push((atom.pred, row));
                changed.push(atom.clone());
            }
        }
        self.stats.asserts += 1;
        self.stats.facts_asserted += changed.len() as u64;
        self.novelty.push(delta);
        omq_obs::counter("store.assert", 1);
        let version = self.head();
        self.maybe_compact();
        Ok(MutationOutcome { version, changed })
    }

    /// Appends a new version retracting `facts`. Facts absent from the head
    /// are skipped (the version still advances).
    pub fn retract_facts(&mut self, facts: &[Atom]) -> Result<MutationOutcome, StoreError> {
        let rows: Vec<(Row, &Atom)> = facts
            .iter()
            .map(|a| ground_row(a).map(|r| (r, a)))
            .collect::<Result<_, _>>()?;
        let mut delta = Delta::default();
        let mut changed = Vec::new();
        for (row, atom) in rows {
            if self
                .head_state
                .get_mut(&atom.pred)
                .is_some_and(|s| s.remove(&row))
            {
                delta.retracts.push((atom.pred, row));
                changed.push(atom.clone());
            }
        }
        self.stats.retracts += 1;
        self.stats.facts_retracted += changed.len() as u64;
        self.novelty.push(delta);
        omq_obs::counter("store.retract", 1);
        let version = self.head();
        self.maybe_compact();
        Ok(MutationOutcome { version, changed })
    }

    /// Pins the head version against compaction and returns it. Pins stack;
    /// each must be released with [`VersionedStore::release`].
    pub fn snapshot(&mut self) -> u64 {
        let v = self.head();
        *self.pins.entry(v).or_insert(0) += 1;
        self.stats.snapshots += 1;
        v
    }

    /// Releases one pin on `version` (no-op if it was not pinned).
    pub fn release(&mut self, version: u64) {
        if let Some(n) = self.pins.get_mut(&version) {
            *n -= 1;
            if *n == 0 {
                self.pins.remove(&version);
            }
        }
    }

    /// Compacts after a mutation when novelty exceeds the threshold.
    fn maybe_compact(&mut self) -> bool {
        self.cfg.compact_threshold > 0
            && self.novelty_rows() >= self.cfg.compact_threshold
            && self.compact()
    }

    /// Merges novelty into a new frozen base, advancing the floor as far as
    /// pins allow (up to the smallest pinned version, else to the head).
    /// Returns `false` when pins make the merge a no-op.
    pub fn compact(&mut self) -> bool {
        let limit = self
            .pins
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.head())
            .min(self.head());
        if limit <= self.floor {
            return false;
        }
        let merged = (limit - self.floor) as usize;
        for delta in self.novelty.drain(..merged) {
            for (p, row) in delta.asserts {
                insert_sorted(self.base.entry(p).or_default(), row);
            }
            for (p, row) in delta.retracts {
                if let Some(rows) = self.base.get_mut(&p) {
                    remove_sorted(rows, &row);
                }
            }
        }
        self.base.retain(|_, rows| !rows.is_empty());
        self.floor = limit;
        self.stats.compactions += 1;
        omq_obs::counter("store.compact", 1);
        true
    }

    /// Reconstructs the database at `version`: clone the frozen base,
    /// replay the first `version - floor` novelty overlays, and emit atoms
    /// in sorted `(pred, row)` order — byte-deterministic regardless of the
    /// mutation order that produced the version.
    pub fn materialize(&self, version: u64) -> Result<Instance, StoreError> {
        let head = self.head();
        if version > head {
            return Err(StoreError::Future { version, head });
        }
        if version < self.floor {
            return Err(StoreError::Stale {
                version,
                floor: self.floor,
            });
        }
        let mut state = self.base.clone();
        for delta in &self.novelty[..(version - self.floor) as usize] {
            for (p, row) in &delta.asserts {
                insert_sorted(state.entry(*p).or_default(), row.clone());
            }
            for (p, row) in &delta.retracts {
                if let Some(rows) = state.get_mut(p) {
                    remove_sorted(rows, row);
                }
            }
        }
        Ok(Instance::from_atoms(state.into_iter().flat_map(
            |(p, rows)| {
                rows.into_iter()
                    .map(move |row| Atom::new(p, row.iter().map(|&c| Term::from_code(c)).collect()))
            },
        )))
    }
}

/// The head-version chase fixpoint plus the derivation log DRed walks.
#[derive(Clone, Debug)]
struct Fixpoint {
    version: u64,
    instance: Instance,
    guarantee: Guarantee,
    derivation: Vec<DerivationStep>,
}

/// Answers of one version-addressed evaluation.
#[derive(Clone, Debug)]
pub struct Evaluation {
    pub answers: HashSet<Vec<ConstId>>,
    /// `true` iff the underlying chase reached its fixpoint; `false` means
    /// the budget truncated it and the answers are a sound lower bound.
    pub complete: bool,
    /// The version the evaluation ran against.
    pub version: u64,
}

/// A [`VersionedStore`] whose head chase fixpoint is kept incrementally
/// maintained across assertions (watermark resume) and retractions (DRed).
///
/// The rule set, vocabulary, and chase budget are supplied per call — the
/// serving layer owns those and they may change between requests (budgets
/// are per-request deadlines). The maintained fixpoint is only reused while
/// it matches the store's head version; a budget expiry mid-maintenance
/// leaves it marked incomplete and the next call resumes where it stopped,
/// so an expired deadline can never poison the store.
#[derive(Clone, Debug, Default)]
pub struct MaintainedStore {
    store: VersionedStore,
    fixpoint: Option<Fixpoint>,
    dred_deleted: u64,
    rederived: u64,
    incremental_resumes: u64,
    full_rechases: u64,
    cone_batches: u64,
    cone_reuses: u64,
}

impl MaintainedStore {
    pub fn new(cfg: StoreConfig) -> Self {
        MaintainedStore {
            store: VersionedStore::new(cfg),
            ..MaintainedStore::default()
        }
    }

    pub fn store(&self) -> &VersionedStore {
        &self.store
    }

    pub fn head(&self) -> u64 {
        self.store.head()
    }

    /// Store + maintenance counters, merged.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            dred_deleted: self.dred_deleted,
            rederived: self.rederived,
            incremental_resumes: self.incremental_resumes,
            full_rechases: self.full_rechases,
            cone_batches: self.cone_batches,
            cone_reuses: self.cone_reuses,
            ..self.store.stats()
        }
    }

    /// Pins the head version; see [`VersionedStore::snapshot`].
    pub fn snapshot(&mut self) -> u64 {
        self.store.snapshot()
    }

    /// Releases a snapshot pin.
    pub fn release(&mut self, version: u64) {
        self.store.release(version)
    }

    /// Forces a novelty→base merge now; see [`VersionedStore::compact`].
    /// Compaction only rewrites storage layout — the maintained fixpoint
    /// and every still-reachable version are unaffected.
    pub fn compact(&mut self) -> bool {
        self.store.compact()
    }

    fn recording(cfg: &ChaseConfig) -> ChaseConfig {
        ChaseConfig {
            record_derivation: true,
            ..cfg.clone()
        }
    }

    /// Asserts `facts` as a new version and maintains the fixpoint by
    /// resuming the semi-naive chase from the generation watermark: only
    /// triggers touching the new delta are enumerated, the prior fixpoint
    /// is never re-chased.
    pub fn assert_facts(
        &mut self,
        facts: &[Atom],
        sigma: &[Tgd],
        voc: &mut Vocabulary,
        cfg: &ChaseConfig,
    ) -> Result<u64, StoreError> {
        let out = self.store.assert_facts(facts)?;
        if let Some(fp) = self.fixpoint.take() {
            let mut inst = fp.instance;
            inst.begin_generation();
            let watermark = inst.len();
            for atom in &out.changed {
                inst.insert(atom.clone());
            }
            // A complete prior fixpoint resumes from the watermark; an
            // incomplete one (earlier deadline expiry) restarts trigger
            // enumeration from 0 — head-satisfaction skips everything the
            // truncated run already justified.
            let delta_start = match fp.guarantee {
                Guarantee::Exact => watermark,
                Guarantee::Capped(_) => 0,
            };
            let _span = omq_obs::span("store.maintain.assert");
            let res = resume_chase(inst, delta_start, sigma, voc, &Self::recording(cfg));
            self.incremental_resumes += 1;
            let mut derivation = fp.derivation;
            derivation.extend(res.derivation);
            self.fixpoint = Some(Fixpoint {
                version: out.version,
                instance: res.instance,
                guarantee: res.guarantee,
                derivation,
            });
        }
        Ok(out.version)
    }

    /// Retracts `facts` as a new version and maintains the fixpoint with
    /// DRed: over-delete the support cone by a forward pass over the
    /// derivation log, then re-derive survivors with a delta-0 resume.
    /// A single call is a batch of one; see [`MaintainedStore::retract_batch`]
    /// for amortizing the cone pass across several retract versions.
    pub fn retract_facts(
        &mut self,
        facts: &[Atom],
        sigma: &[Tgd],
        voc: &mut Vocabulary,
        cfg: &ChaseConfig,
    ) -> Result<u64, StoreError> {
        let results = self.retract_batch(&[facts.to_vec()], sigma, voc, cfg);
        results.into_iter().next().expect("one group, one result")
    }

    /// Retracts each group in `groups` as its own store version (one
    /// version per group, in input order), then maintains the fixpoint with
    /// **one** DRed pass over the union of every group's effective
    /// retractions — the support cone is computed once per batch instead of
    /// once per call. Groups whose facts fail validation report their error
    /// in place without blocking the rest of the batch.
    ///
    /// Joint maintenance is equivalent to sequential per-call maintenance
    /// for certain answers (both end in a universal model of the final
    /// head database), and strictly cheaper: intermediate cones and
    /// re-derivations of facts a later group deletes again are skipped.
    pub fn retract_batch(
        &mut self,
        groups: &[Vec<Atom>],
        sigma: &[Tgd],
        voc: &mut Vocabulary,
        cfg: &ChaseConfig,
    ) -> Vec<Result<u64, StoreError>> {
        let mut results = Vec::with_capacity(groups.len());
        let mut all_changed: Vec<Atom> = Vec::new();
        let mut versions = 0u64;
        for facts in groups {
            match self.store.retract_facts(facts) {
                Ok(out) => {
                    all_changed.extend(out.changed);
                    versions += 1;
                    results.push(Ok(out.version));
                }
                Err(e) => results.push(Err(e)),
            }
        }
        if versions > 0 && self.fixpoint.is_some() {
            self.dred_maintain(&all_changed, sigma, voc, cfg);
            self.cone_batches += 1;
            self.cone_reuses += versions - 1;
            omq_obs::counter("store.cone_batch", 1);
            omq_obs::counter("store.cone_reuse", versions - 1);
        }
        results
    }

    /// One DRed maintenance pass: over-delete the support cone of `changed`
    /// by a forward pass over the derivation log, then re-derive survivors
    /// with a delta-0 resume. The rebuilt fixpoint is stamped with the
    /// store's *current* head, so a batch of retract versions lands on the
    /// final one.
    fn dred_maintain(
        &mut self,
        changed: &[Atom],
        sigma: &[Tgd],
        voc: &mut Vocabulary,
        cfg: &ChaseConfig,
    ) {
        let Some(fp) = self.fixpoint.take() else {
            return;
        };
        let _span = omq_obs::span("store.maintain.dred");
        // Over-delete: anything downstream of a deleted atom dies with
        // it. A step is dead when any input *or* output is deleted; a
        // dead step's outputs join the cone (multi-head tgds over-delete
        // sibling outputs too — the re-derivation pass reinstates them).
        let mut deleted: HashSet<Atom> = changed.iter().cloned().collect();
        let mut kept_steps = Vec::with_capacity(fp.derivation.len());
        for step in fp.derivation {
            let dead = step.inputs.iter().any(|a| deleted.contains(a))
                || step.outputs.iter().any(|a| deleted.contains(a));
            if dead {
                deleted.extend(step.outputs.iter().cloned());
            } else {
                kept_steps.push(step);
            }
        }
        // Survivors keep their insertion order; an over-deleted atom
        // survives if it is still an EDB fact at the new head (it was
        // independently asserted).
        let mut survivor = Instance::default();
        for atom in fp.instance.atoms() {
            if !deleted.contains(atom) || self.store.head_contains(atom) {
                survivor.insert(atom.clone());
            }
        }
        self.dred_deleted += (fp.instance.len() - survivor.len()) as u64;
        let res = resume_chase(survivor, 0, sigma, voc, &Self::recording(cfg));
        self.rederived += res.steps as u64;
        let mut derivation = kept_steps;
        derivation.extend(res.derivation);
        self.fixpoint = Some(Fixpoint {
            version: self.store.head(),
            instance: res.instance,
            guarantee: res.guarantee,
            derivation,
        });
    }

    /// Ensures the head fixpoint exists and is as complete as `cfg`'s
    /// budget allows, resuming an earlier truncated maintenance run rather
    /// than restarting it.
    fn ensure_head(
        &mut self,
        sigma: &[Tgd],
        voc: &mut Vocabulary,
        cfg: &ChaseConfig,
    ) -> Result<(), StoreError> {
        let head = self.store.head();
        match self.fixpoint.take() {
            Some(fp) if fp.version == head && fp.guarantee == Guarantee::Exact => {
                self.fixpoint = Some(fp);
            }
            Some(fp) if fp.version == head => {
                let _span = omq_obs::span("store.maintain.rechase");
                let res = resume_chase(fp.instance, 0, sigma, voc, &Self::recording(cfg));
                self.incremental_resumes += 1;
                let mut derivation = fp.derivation;
                derivation.extend(res.derivation);
                self.fixpoint = Some(Fixpoint {
                    version: head,
                    instance: res.instance,
                    guarantee: res.guarantee,
                    derivation,
                });
            }
            _ => {
                let _span = omq_obs::span("store.maintain.rechase");
                let db = self.store.materialize(head)?;
                let res = chase(&db, sigma, voc, &Self::recording(cfg));
                self.full_rechases += 1;
                self.fixpoint = Some(Fixpoint {
                    version: head,
                    instance: res.instance,
                    guarantee: res.guarantee,
                    derivation: res.derivation,
                });
            }
        }
        Ok(())
    }

    /// Certain answers of `query` over the chase of version `at` (default:
    /// head). The head uses the maintained fixpoint; pinned or pre-head
    /// versions materialize and chase from scratch (they are off the
    /// maintenance path by construction).
    pub fn evaluate(
        &mut self,
        at: Option<u64>,
        query: &Ucq,
        sigma: &[Tgd],
        voc: &mut Vocabulary,
        cfg: &ChaseConfig,
    ) -> Result<Evaluation, StoreError> {
        let head = self.store.head();
        let version = at.unwrap_or(head);
        if version == head {
            self.ensure_head(sigma, voc, cfg)?;
            let fp = self.fixpoint.as_ref().expect("ensure_head installed it");
            Ok(Evaluation {
                answers: eval_ucq(query, &fp.instance),
                complete: fp.guarantee == Guarantee::Exact,
                version,
            })
        } else {
            let db = self.store.materialize(version)?;
            let res = chase(&db, sigma, voc, cfg);
            Ok(Evaluation {
                answers: eval_ucq(query, &res.instance),
                complete: res.guarantee == Guarantee::Exact,
                version,
            })
        }
    }

    /// Is the maintained head fixpoint present and complete?
    pub fn head_complete(&self) -> bool {
        self.fixpoint
            .as_ref()
            .is_some_and(|fp| fp.version == self.store.head() && fp.guarantee == Guarantee::Exact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_model::parse_program;

    fn edge(voc: &Vocabulary, p: &str, a: &str, b: &str) -> Atom {
        Atom::new(
            voc.pred_id(p).unwrap(),
            vec![
                Term::Const(voc.const_id(a).unwrap()),
                Term::Const(voc.const_id(b).unwrap()),
            ],
        )
    }

    /// Transitive closure: E ⊆ T, E;T ⊆ T over a seed chain, with the query
    /// and constants pre-interned so `voc` lookups never miss.
    fn tc_setup() -> (Vec<Tgd>, Ucq, Vocabulary) {
        let prog = parse_program(
            "E(X,Y) -> T(X,Y)\nE(X,Y), T(Y,Z) -> T(X,Z)\n\
             q(X,Y) :- T(X,Y)\n\
             seed :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f)\n",
        )
        .unwrap();
        let q = prog.query("q").unwrap().clone();
        (prog.tgds.clone(), q, prog.voc)
    }

    fn chain(voc: &Vocabulary, names: &[&str]) -> Vec<Atom> {
        names
            .windows(2)
            .map(|w| edge(voc, "E", w[0], w[1]))
            .collect()
    }

    fn sorted_answers(ans: &HashSet<Vec<ConstId>>) -> Vec<Vec<ConstId>> {
        let mut v: Vec<_> = ans.iter().cloned().collect();
        v.sort();
        v
    }

    #[test]
    fn versions_are_dense_and_materialize_deterministically() {
        let (_, _, voc) = tc_setup();
        let mut store = VersionedStore::new(StoreConfig {
            compact_threshold: 0,
        });
        assert_eq!(store.head(), 0);
        let v1 = store
            .assert_facts(&chain(&voc, &["a", "b", "c"]))
            .unwrap()
            .version;
        let v2 = store
            .assert_facts(&[edge(&voc, "E", "c", "d")])
            .unwrap()
            .version;
        assert_eq!((v1, v2), (1, 2));
        let at1 = store.materialize(1).unwrap();
        assert_eq!(at1.len(), 2);
        let at2 = store.materialize(2).unwrap();
        assert_eq!(at2.len(), 3);
        assert_eq!(store.materialize(0).unwrap().len(), 0);
        assert_eq!(
            store.materialize(7),
            Err(StoreError::Future {
                version: 7,
                head: 2
            })
        );
    }

    #[test]
    fn reasserting_a_present_fact_is_an_empty_delta() {
        let (_, _, voc) = tc_setup();
        let mut store = VersionedStore::new(StoreConfig::default());
        store.assert_facts(&[edge(&voc, "E", "a", "b")]).unwrap();
        let out = store.assert_facts(&[edge(&voc, "E", "a", "b")]).unwrap();
        assert_eq!(out.version, 2, "the version still advances");
        assert!(out.changed.is_empty(), "but nothing changed");
        assert_eq!(store.materialize(2).unwrap().len(), 1);
    }

    #[test]
    fn compaction_preserves_content_and_stales_unpinned_versions() {
        let (_, _, voc) = tc_setup();
        let mut store = VersionedStore::new(StoreConfig {
            compact_threshold: 0,
        });
        store
            .assert_facts(&chain(&voc, &["a", "b", "c", "d"]))
            .unwrap();
        store.retract_facts(&[edge(&voc, "E", "b", "c")]).unwrap();
        let before = store.materialize(store.head()).unwrap();
        let sketch = before.card_sketch();
        assert!(store.compact());
        assert_eq!(store.floor(), 2);
        assert_eq!(store.novelty_rows(), 0);
        let after = store.materialize(store.head()).unwrap();
        assert_eq!(before, after, "compaction rewrites layout, not content");
        assert_eq!(sketch, after.card_sketch());
        assert_eq!(
            store.materialize(1),
            Err(StoreError::Stale {
                version: 1,
                floor: 2
            })
        );
    }

    #[test]
    fn snapshots_pin_versions_against_compaction() {
        let (_, _, voc) = tc_setup();
        let mut store = VersionedStore::new(StoreConfig {
            compact_threshold: 0,
        });
        store.assert_facts(&[edge(&voc, "E", "a", "b")]).unwrap();
        let pinned = store.snapshot();
        store.assert_facts(&[edge(&voc, "E", "b", "c")]).unwrap();
        store.assert_facts(&[edge(&voc, "E", "c", "d")]).unwrap();
        assert!(store.compact());
        assert_eq!(store.floor(), pinned, "floor stops at the pin");
        assert_eq!(store.materialize(pinned).unwrap().len(), 1);
        store.release(pinned);
        assert!(store.compact());
        assert_eq!(store.floor(), store.head());
        assert_eq!(
            store.materialize(pinned),
            Err(StoreError::Stale {
                version: pinned,
                floor: 3
            })
        );
    }

    #[test]
    fn threshold_triggers_automatic_compaction() {
        let (_, _, voc) = tc_setup();
        let mut store = VersionedStore::new(StoreConfig {
            compact_threshold: 3,
        });
        store.assert_facts(&[edge(&voc, "E", "a", "b")]).unwrap();
        store.assert_facts(&[edge(&voc, "E", "b", "c")]).unwrap();
        assert_eq!(store.stats().compactions, 0);
        store.assert_facts(&[edge(&voc, "E", "c", "d")]).unwrap();
        let stats = store.stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.novelty_size, 0);
        assert_eq!(store.floor(), 3);
    }

    #[test]
    fn non_ground_facts_are_rejected_without_a_version_bump() {
        let (_, _, voc) = tc_setup();
        let mut store = VersionedStore::new(StoreConfig::default());
        let bad = Atom::new(
            voc.pred_id("E").unwrap(),
            vec![
                Term::Var(omq_model::VarId(0)),
                Term::Const(voc.const_id("a").unwrap()),
            ],
        );
        assert!(matches!(
            store.assert_facts(&[bad]),
            Err(StoreError::NotGround { .. })
        ));
        assert_eq!(store.head(), 0);
    }

    #[test]
    fn incremental_assert_matches_from_scratch_answers() {
        let (sigma, q, voc) = tc_setup();
        let mut voc = voc;
        let cfg = ChaseConfig::default();
        let mut ms = MaintainedStore::new(StoreConfig::default());
        ms.assert_facts(
            &chain(&voc.clone(), &["a", "b", "c", "d"]),
            &sigma,
            &mut voc,
            &cfg,
        )
        .unwrap();
        let base = ms.evaluate(None, &q, &sigma, &mut voc, &cfg).unwrap();
        assert!(base.complete);
        // One more edge: the fixpoint resumes from the watermark.
        let e = edge(&voc, "E", "d", "e");
        ms.assert_facts(&[e], &sigma, &mut voc, &cfg).unwrap();
        let inc = ms.evaluate(None, &q, &sigma, &mut voc, &cfg).unwrap();
        let scratch = {
            let db = ms.store().materialize(ms.head()).unwrap();
            let out = chase(&db, &sigma, &mut voc.clone(), &cfg);
            assert_eq!(out.guarantee, Guarantee::Exact);
            eval_ucq(&q, &out.instance)
        };
        assert_eq!(sorted_answers(&inc.answers), sorted_answers(&scratch));
        let stats = ms.stats();
        assert!(stats.incremental_resumes >= 1);
        assert_eq!(stats.full_rechases, 1, "only the initial evaluate chased");
    }

    #[test]
    fn dred_retract_matches_from_scratch_answers() {
        let (sigma, q, voc) = tc_setup();
        let mut voc = voc;
        let cfg = ChaseConfig::default();
        let mut ms = MaintainedStore::new(StoreConfig::default());
        ms.assert_facts(
            &chain(&voc.clone(), &["a", "b", "c", "d", "e"]),
            &sigma,
            &mut voc,
            &cfg,
        )
        .unwrap();
        ms.evaluate(None, &q, &sigma, &mut voc, &cfg).unwrap();
        // Cutting b→c severs every a/b → c/d/e path.
        ms.retract_facts(&[edge(&voc, "E", "b", "c")], &sigma, &mut voc, &cfg)
            .unwrap();
        let inc = ms.evaluate(None, &q, &sigma, &mut voc, &cfg).unwrap();
        let scratch = {
            let db = ms.store().materialize(ms.head()).unwrap();
            let out = chase(&db, &sigma, &mut voc.clone(), &cfg);
            eval_ucq(&q, &out.instance)
        };
        assert_eq!(sorted_answers(&inc.answers), sorted_answers(&scratch));
        let stats = ms.stats();
        assert!(stats.dred_deleted > 0, "the cone was over-deleted");
        assert_eq!(stats.full_rechases, 1, "retract maintained incrementally");
    }

    #[test]
    fn dred_rederives_atoms_with_alternative_derivations() {
        let (sigma, q, voc) = tc_setup();
        let mut voc = voc;
        let cfg = ChaseConfig::default();
        let mut ms = MaintainedStore::new(StoreConfig::default());
        // Two parallel edges a→b (E and a direct T assertion is not possible
        // here; instead duplicate the path): a→b plus a→c→b keeps T(a,b)
        // derivable after the direct edge is cut.
        let facts = vec![
            edge(&voc, "E", "a", "b"),
            edge(&voc, "E", "a", "c"),
            edge(&voc, "E", "c", "b"),
        ];
        ms.assert_facts(&facts, &sigma, &mut voc, &cfg).unwrap();
        ms.evaluate(None, &q, &sigma, &mut voc, &cfg).unwrap();
        ms.retract_facts(&[edge(&voc, "E", "a", "b")], &sigma, &mut voc, &cfg)
            .unwrap();
        let ans = ms.evaluate(None, &q, &sigma, &mut voc, &cfg).unwrap();
        let a = voc.const_id("a").unwrap();
        let b = voc.const_id("b").unwrap();
        assert!(
            ans.answers.contains(&vec![a, b]),
            "T(a,b) re-derived through a→c→b"
        );
        assert!(ms.stats().rederived > 0);
    }

    #[test]
    fn batched_retracts_share_one_cone_pass_and_match_from_scratch() {
        let (sigma, q, voc) = tc_setup();
        let cfg = ChaseConfig::default();
        let seed = |voc: &Vocabulary| chain(voc, &["a", "b", "c", "d", "e", "f"]);
        let cuts = [("b", "c"), ("d", "e")];
        // Batched: both retract versions share one DRed pass.
        let mut voc_b = voc.clone();
        let mut batched = MaintainedStore::new(StoreConfig::default());
        batched
            .assert_facts(&seed(&voc_b), &sigma, &mut voc_b, &cfg)
            .unwrap();
        batched
            .evaluate(None, &q, &sigma, &mut voc_b, &cfg)
            .unwrap();
        let groups: Vec<Vec<Atom>> = cuts
            .iter()
            .map(|(x, y)| vec![edge(&voc_b, "E", x, y)])
            .collect();
        let versions = batched.retract_batch(&groups, &sigma, &mut voc_b, &cfg);
        assert_eq!(versions.len(), 2);
        assert_eq!(*versions[0].as_ref().unwrap(), 2);
        assert_eq!(*versions[1].as_ref().unwrap(), 3);
        let b_ans = batched
            .evaluate(None, &q, &sigma, &mut voc_b, &cfg)
            .unwrap();
        let stats = batched.stats();
        assert_eq!(stats.cone_batches, 1, "one pass for two retract versions");
        assert_eq!(stats.cone_reuses, 1);
        assert_eq!(stats.retracts, 2, "each group is its own store version");
        // Sequential per-call retracts and a from-scratch chase agree.
        let mut voc_s = voc.clone();
        let mut seq = MaintainedStore::new(StoreConfig::default());
        seq.assert_facts(&seed(&voc_s), &sigma, &mut voc_s, &cfg)
            .unwrap();
        seq.evaluate(None, &q, &sigma, &mut voc_s, &cfg).unwrap();
        for (x, y) in cuts {
            seq.retract_facts(&[edge(&voc_s, "E", x, y)], &sigma, &mut voc_s, &cfg)
                .unwrap();
        }
        let s_ans = seq.evaluate(None, &q, &sigma, &mut voc_s, &cfg).unwrap();
        assert_eq!(
            sorted_answers(&b_ans.answers),
            sorted_answers(&s_ans.answers)
        );
        assert_eq!(seq.stats().cone_batches, 2, "per-call = batch of one");
        assert_eq!(seq.stats().cone_reuses, 0);
        let scratch = {
            let db = batched.store().materialize(batched.head()).unwrap();
            eval_ucq(&q, &chase(&db, &sigma, &mut voc_b.clone(), &cfg).instance)
        };
        assert_eq!(sorted_answers(&b_ans.answers), sorted_answers(&scratch));
    }

    #[test]
    fn batch_with_a_bad_group_reports_in_place_and_maintains_the_rest() {
        let (sigma, q, voc) = tc_setup();
        let mut voc = voc;
        let cfg = ChaseConfig::default();
        let mut ms = MaintainedStore::new(StoreConfig::default());
        ms.assert_facts(
            &chain(&voc.clone(), &["a", "b", "c", "d"]),
            &sigma,
            &mut voc,
            &cfg,
        )
        .unwrap();
        ms.evaluate(None, &q, &sigma, &mut voc, &cfg).unwrap();
        let bad = Atom::new(
            voc.pred_id("E").unwrap(),
            vec![
                Term::Var(omq_model::VarId(0)),
                Term::Const(voc.const_id("a").unwrap()),
            ],
        );
        let groups = vec![
            vec![edge(&voc, "E", "b", "c")],
            vec![bad],
            vec![edge(&voc, "E", "c", "d")],
        ];
        let results = ms.retract_batch(&groups, &sigma, &mut voc, &cfg);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(StoreError::NotGround { .. })));
        assert!(results[2].is_ok());
        let ans = ms.evaluate(None, &q, &sigma, &mut voc, &cfg).unwrap();
        let scratch = {
            let db = ms.store().materialize(ms.head()).unwrap();
            eval_ucq(&q, &chase(&db, &sigma, &mut voc.clone(), &cfg).instance)
        };
        assert_eq!(sorted_answers(&ans.answers), sorted_answers(&scratch));
        assert_eq!(ms.stats().cone_batches, 1);
        assert_eq!(ms.stats().cone_reuses, 1, "two good groups, one pass");
    }

    #[test]
    fn evaluate_at_a_pinned_version_is_stable_across_later_mutations() {
        let (sigma, q, voc) = tc_setup();
        let mut voc = voc;
        let cfg = ChaseConfig::default();
        let mut ms = MaintainedStore::new(StoreConfig {
            compact_threshold: 1,
        });
        ms.assert_facts(
            &chain(&voc.clone(), &["a", "b", "c"]),
            &sigma,
            &mut voc,
            &cfg,
        )
        .unwrap();
        let pinned = ms.snapshot();
        let before = ms
            .evaluate(Some(pinned), &q, &sigma, &mut voc, &cfg)
            .unwrap();
        for pair in [("c", "d"), ("d", "e"), ("e", "f")] {
            ms.assert_facts(&[edge(&voc, "E", pair.0, pair.1)], &sigma, &mut voc, &cfg)
                .unwrap();
        }
        assert!(ms.stats().compactions > 0, "threshold=1 compacts eagerly");
        let after = ms
            .evaluate(Some(pinned), &q, &sigma, &mut voc, &cfg)
            .unwrap();
        assert_eq!(
            sorted_answers(&before.answers),
            sorted_answers(&after.answers),
            "the pinned version's answers never move"
        );
        // An unpinned early version is gone.
        assert!(matches!(
            ms.evaluate(Some(0), &q, &sigma, &mut voc, &cfg),
            Err(StoreError::Stale { .. })
        ));
    }

    #[test]
    fn expired_budget_degrades_without_poisoning_the_store() {
        let (sigma, q, voc) = tc_setup();
        let mut voc = voc;
        let cfg = ChaseConfig::default();
        let mut ms = MaintainedStore::new(StoreConfig::default());
        ms.assert_facts(
            &chain(&voc.clone(), &["a", "b", "c", "d"]),
            &sigma,
            &mut voc,
            &cfg,
        )
        .unwrap();
        // Maintenance under an already-expired budget truncates the chase.
        let dead = ChaseConfig {
            budget: omq_chase::Budget::deadline_in(std::time::Duration::ZERO),
            ..ChaseConfig::default()
        };
        ms.assert_facts(&[edge(&voc, "E", "d", "e")], &sigma, &mut voc, &dead)
            .unwrap();
        let degraded = ms.evaluate(None, &q, &sigma, &mut voc, &dead).unwrap();
        assert!(!degraded.complete, "truncated fixpoint reports lower bound");
        // A later call with a live budget resumes and completes.
        let healed = ms.evaluate(None, &q, &sigma, &mut voc, &cfg).unwrap();
        assert!(healed.complete, "maintenance resumed, store not poisoned");
        let scratch = {
            let db = ms.store().materialize(ms.head()).unwrap();
            eval_ucq(&q, &chase(&db, &sigma, &mut voc.clone(), &cfg).instance)
        };
        assert_eq!(sorted_answers(&healed.answers), sorted_answers(&scratch));
        assert!(
            degraded.answers.is_subset(&healed.answers),
            "sound lower bound"
        );
    }
}
