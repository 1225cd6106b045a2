//! Homomorphism search: mapping a set of atoms with variables into an
//! instance, the workhorse behind CQ evaluation (paper §2), chase triggers,
//! and Chandra–Merlin containment.
//!
//! The kernel is organised around a compiled, reusable [`JoinPlan`]: a CQ
//! body is compiled **once** into (a) a fixed atom order chosen by the
//! greedy join heuristic, (b) a dense variable-slot layout replacing the
//! per-candidate `HashMap` bindings with a `Vec<Option<Term>>`, and (c) a
//! per-atom probe strategy — which `(pred, pos, term)` index of
//! [`Instance`] can be hit given which slots are bound at that point. Plans
//! are pure functions of `(atoms, seeded vars, pivot)`, so a [`PlanCache`]
//! lets the thousands of subsumption/containment probes above this layer
//! reuse plans instead of re-deriving orderings.
//!
//! Plan execution is byte-for-byte equivalent to the historical
//! backtracking search (kept verbatim in [`reference`]): the same atom
//! order, the same runtime probe selection (first strictly smaller
//! candidate list wins), the same candidate scan order, and therefore the
//! same enumeration order and the same `candidates_scanned`/`backtracks`
//! counters.
//!
//! For CQ→CQ checks a 64-bit predicate **signature prefilter** applies
//! before any plan executes: a homomorphism from `q1` into `q2` maps every
//! atom onto an atom of the same predicate, so it is impossible unless
//! `sig(q1) & !sig(q2) == 0` (see [`pred_sig`]). The filter is sound — it
//! only ever rejects pairs where no homomorphism exists — and rejections
//! are counted as `prefilter_rejects`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use omq_model::{Atom, CardSketch, Instance, PredId, Term, VarId};

/// A variable assignment: the mapping `h` restricted to variables. Constants
/// are always mapped to themselves (homomorphisms are the identity on `C`).
pub type Assignment = HashMap<VarId, Term>;

/// Declares [`HomStats`] from one field list, so that the struct, its
/// process-global mirror and every rendering of it (the obs `hom.<field>`
/// events, the serve `stats` block and scrape, the BENCH columns) share one
/// name per counter. The event counts come first; the one timing field
/// follows the `;` and stays out of the count surfaces.
macro_rules! hom_stats {
    ($($(#[$doc:meta])* $count:ident,)* ; $(#[$tdoc:meta])* $timing:ident) => {
        /// Work counters for one or more homomorphism searches: the one
        /// record of kernel work. Each event is counted once, by a single
        /// statement in this module that feeds both the caller's
        /// `HomStats` and the process-global mirror behind
        /// [`global_hom_snapshot`].
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct HomStats {
            $($(#[$doc])* pub $count: u64,)*
            $(#[$tdoc])* pub $timing: u64,
        }

        const HOM_COUNTS: usize = [$(stringify!($count)),*].len();
        const HOM_FIELDS: usize = HOM_COUNTS + 1;

        impl HomStats {
            /// Every event count as `(name, value)`: all fields but the
            /// timing.
            pub fn counts(&self) -> [(&'static str, u64); HOM_COUNTS] {
                [$((stringify!($count), self.$count)),*]
            }

            /// Mirrors the event counts into the installed omq-obs recorder
            /// as `hom.<field>` counters (a no-op without a recorder).
            pub fn emit_obs(&self) {
                omq_obs::counters(&[$((concat!("hom.", stringify!($count)), self.$count)),*]);
            }

            fn values(&self) -> [u64; HOM_FIELDS] {
                [$(self.$count,)* self.$timing]
            }

            fn from_values(values: [u64; HOM_FIELDS]) -> HomStats {
                let [$($count,)* $timing] = values;
                HomStats { $($count,)* $timing }
            }
        }
    };
}

hom_stats! {
    /// Candidate instance atoms inspected while extending partial matches.
    candidates_scanned,
    /// Candidate atoms rejected (bindings rolled back).
    backtracks,
    /// Complete homomorphisms handed to the callback.
    homs_found,
    /// Join plans compiled, re-optimizations included.
    plans_compiled,
    /// Compiled plans handed out again without recompiling (a
    /// [`PlanCache`] hit or an inline [`JoinPlan::reuse`]).
    plan_cache_hits,
    /// Homomorphism checks rejected by the predicate-signature prefilter
    /// before any plan executed.
    prefilter_rejects,
    /// Cached cost-based plans recompiled because their observed probe work
    /// diverged from the predicted cost (see [`PlanCache`]).
    plans_reoptimized,
    /// Costed-plan executions whose scanned candidates were at or under the
    /// predicted cost (estimate held).
    est_ratio_le_1,
    /// Costed-plan executions whose scanned candidates exceeded the
    /// prediction by up to the re-optimization factor.
    est_ratio_le_4,
    /// Costed-plan executions whose scanned candidates exceeded the
    /// prediction by more than the re-optimization factor.
    est_ratio_gt_4,
    ;
    /// Nanoseconds spent building cardinality sketches for cost-based
    /// planning. A timing, not a count: never compare exact values.
    sketch_build_ns
}

impl HomStats {
    /// The work done between `earlier` and `self`, field by field (for
    /// deltas of the monotone [`global_hom_snapshot`]).
    pub fn since(&self, earlier: &HomStats) -> HomStats {
        self.zip_with(earlier, |a, b| a - b)
    }

    /// Adds `other`'s work to this record, field by field (to merge
    /// per-worker records; the global mirror already counted it).
    pub fn add(&mut self, other: &HomStats) {
        *self = self.zip_with(other, |a, b| a + b);
    }

    fn zip_with(&self, other: &HomStats, f: impl Fn(u64, u64) -> u64) -> HomStats {
        let (a, b) = (self.values(), other.values());
        HomStats::from_values(std::array::from_fn(|i| f(a[i], b[i])))
    }
}

/// The process-global mirror: one slot per [`HomStats`] field, summed over
/// every [`record`] since process start on every thread (relaxed: monotone
/// telemetry, never synchronisation).
static GLOBAL: [AtomicU64; HOM_FIELDS] = [const { AtomicU64::new(0) }; HOM_FIELDS];

/// Counts kernel work into the caller's `stats` and into the process-global
/// mirror: `event` fills in an empty delta (one event, or one search's
/// worth from [`JoinPlan::execute`]). Every kernel event goes through here
/// exactly once; zero fields cost no atomic operation.
fn record(stats: &mut HomStats, event: impl FnOnce(&mut HomStats)) {
    let mut delta = HomStats::default();
    event(&mut delta);
    stats.add(&delta);
    for (slot, v) in GLOBAL.iter().zip(delta.values()) {
        if v != 0 {
            slot.fetch_add(v, Ordering::Relaxed);
        }
    }
}

/// A snapshot of the process-wide kernel counters (all searches since
/// process start, across every thread). Monotone between calls.
pub fn global_hom_snapshot() -> HomStats {
    HomStats::from_values(std::array::from_fn(|i| GLOBAL[i].load(Ordering::Relaxed)))
}

/// The signature prefilter as a counted event: [`sig_may_hom`]`(src, dst)`,
/// with every rejection counted as `prefilter_rejects`.
pub(crate) fn prefilter(src: u64, dst: u64, stats: &mut HomStats) -> bool {
    let admitted = sig_may_hom(src, dst);
    if !admitted {
        record(stats, |d| d.prefilter_rejects = 1);
    }
    admitted
}

/// Sentinel for "no upper bound" in an atom's candidate index range.
pub const NO_LIMIT: usize = usize::MAX;

/// Restricts a sorted slice of atom indices to those in `[lo, hi)`.
fn clamp(c: &[usize], lo: usize, hi: usize) -> &[usize] {
    let start = if lo == 0 {
        0
    } else {
        c.partition_point(|&i| i < lo)
    };
    let end = if hi == NO_LIMIT {
        c.len()
    } else {
        c.partition_point(|&i| i < hi)
    };
    &c[start..end.max(start)]
}

/// The 64-bit predicate signature of a set of atoms: bit `p mod 64` is set
/// for every predicate `p` that occurs. A homomorphism maps each atom onto
/// an atom of the *same* predicate, so `hom(q1 → q2)` requires
/// `pred_sig(q1) & !pred_sig(q2) == 0` — a sound, constant-time prefilter.
pub fn pred_sig(atoms: &[Atom]) -> u64 {
    atoms.iter().fold(0u64, |s, a| s | 1u64 << (a.pred.0 % 64))
}

/// The predicate signature of an instance (see [`pred_sig`]).
pub fn instance_sig(inst: &Instance) -> u64 {
    inst.atoms()
        .iter()
        .fold(0u64, |s, a| s | 1u64 << (a.pred.0 % 64))
}

/// Can a homomorphism from something with signature `src` exist into
/// something with signature `dst`? (Necessary, not sufficient.)
pub fn sig_may_hom(src: u64, dst: u64) -> bool {
    src & !dst == 0
}

/// Orders atoms so that atoms sharing variables with already-placed atoms
/// come early (greedy join ordering); reduces backtracking dramatically on
/// chain/star queries. When `first` is given, that atom is pinned to the
/// front (used to lead with the delta pivot, whose candidate set is small)
/// and the greedy rule orders the rest.
///
/// Fully deterministic: the bound-variable set is a sorted vector (no hash
/// iteration anywhere), candidates are scanned in atom-index order, and a
/// tie on (bound terms, unbound variables) keeps the earliest atom.
pub(crate) fn join_order(atoms: &[Atom], seeded: &[VarId], first: Option<usize>) -> Vec<usize> {
    let n = atoms.len();
    let mut placed = vec![false; n];
    let mut bound: Vec<VarId> = seeded.to_vec();
    debug_assert!(
        bound.windows(2).all(|w| w[0] < w[1]),
        "seeded sorted+deduped"
    );
    fn bind(bound: &mut Vec<VarId>, atom: &Atom) {
        for v in atom.vars() {
            if let Err(i) = bound.binary_search(&v) {
                bound.insert(i, v);
            }
        }
    }
    let mut order = Vec::with_capacity(n);
    if let Some(i) = first {
        placed[i] = true;
        order.push(i);
        bind(&mut bound, &atoms[i]);
    }
    while order.len() < n {
        // Pick the unplaced atom with the most bound terms (constants and
        // bound variables), tie-breaking on fewer unbound variables; a full
        // tie keeps the lowest atom index.
        let mut best: Option<(usize, usize, usize)> = None; // (idx, bound#, unbound#)
        for (i, a) in atoms.iter().enumerate() {
            if placed[i] {
                continue;
            }
            let mut b = 0usize;
            let mut u = 0usize;
            for &t in &a.args {
                match t {
                    Term::Var(v) => {
                        if bound.binary_search(&v).is_ok() {
                            b += 1;
                        } else {
                            u += 1;
                        }
                    }
                    _ => b += 1,
                }
            }
            let better = match best {
                None => true,
                Some((_, bb, bu)) => b > bb || (b == bb && u < bu),
            };
            if better {
                best = Some((i, b, u));
            }
        }
        let (i, _, _) = best.unwrap();
        placed[i] = true;
        order.push(i);
        bind(&mut bound, &atoms[i]);
    }
    order
}

/// A costed plan's observed probe work may exceed its prediction by this
/// factor before a [`PlanCache`] re-optimizes it against fresh statistics.
/// Deterministic by construction: the decision depends only on counters
/// that are themselves deterministic per call sequence.
pub const REOPT_FACTOR: u64 = 4;

/// Predictions below this floor are never re-optimization triggers — tiny
/// plans mispredict by large *ratios* while the absolute waste is noise.
pub const REOPT_FLOOR: u64 = 64;

/// Cost-based join ordering over a [`CardSketch`]: picks, at each step, the
/// unplaced atom with the fewest *estimated candidates per probe* and
/// propagates bound variables forward. Returns the order plus the predicted
/// total candidate scans (`Σ frontier × est_candidates`, saturating).
///
/// Estimation: an atom over predicate `p` with `rows` matching atoms is
/// probed through its most selective bound position (`rows / distinct`,
/// rounded up); with no bound position the probe is a full predicate scan
/// (`rows`). The estimated match count per partial assignment — the
/// frontier multiplier — divides `rows` by the product of the bound
/// positions' distinct counts (floored at 1 while the predicate is
/// non-empty). Empty predicates cost 0 and zero the frontier, which sorts
/// them to the front — exactly where a doomed search should start.
///
/// Like [`join_order`], fully deterministic: sketch lookups are keyed (no
/// hash iteration), ties keep (fewer unbound variables, lowest atom index),
/// and `first` pins the semi-naive pivot.
pub(crate) fn cost_order(
    atoms: &[Atom],
    seeded: &[VarId],
    first: Option<usize>,
    sketch: &CardSketch,
) -> (Vec<usize>, u64) {
    let n = atoms.len();
    let mut placed = vec![false; n];
    let mut bound: Vec<VarId> = seeded.to_vec();
    debug_assert!(
        bound.windows(2).all(|w| w[0] < w[1]),
        "seeded sorted+deduped"
    );
    fn bind(bound: &mut Vec<VarId>, atom: &Atom) {
        for v in atom.vars() {
            if let Err(i) = bound.binary_search(&v) {
                bound.insert(i, v);
            }
        }
    }
    // Estimated candidate scans per probe and estimated matches per probe
    // for `atom` under the current bound set; also reports the unbound
    // variable count for tie-breaking.
    let estimate = |atom: &Atom, bound: &[VarId]| -> (u64, u64, usize) {
        let rows = sketch.rows(atom.pred);
        if rows == 0 {
            return (0, 0, 0);
        }
        let mut best_distinct = 1u64; // no bound position => full scan
        let mut sel_product = 1u128;
        let mut unbound = 0usize;
        for (pos, &t) in atom.args.iter().enumerate() {
            let is_bound = match t {
                Term::Var(v) => bound.binary_search(&v).is_ok(),
                _ => true,
            };
            if !is_bound {
                unbound += 1;
                continue;
            }
            let d = sketch.distinct(atom.pred, pos).max(1);
            best_distinct = best_distinct.max(d);
            sel_product = sel_product.saturating_mul(d as u128);
        }
        let cands = rows.div_ceil(best_distinct);
        let matches = ((rows as u128) / sel_product).max(1) as u64;
        (cands, matches, unbound)
    };
    let mut order = Vec::with_capacity(n);
    let mut predicted: u64 = 0;
    let mut frontier: u64 = 1;
    let mut pending = first;
    while order.len() < n {
        let i = match pending.take() {
            Some(i) => i, // the pinned pivot goes first, cost notwithstanding
            None => {
                let mut best: Option<(usize, u64, usize)> = None; // (idx, cands, unbound#)
                for (i, a) in atoms.iter().enumerate() {
                    if placed[i] {
                        continue;
                    }
                    let (cands, _, unbound) = estimate(a, &bound);
                    let better = match best {
                        None => true,
                        Some((_, bc, bu)) => cands < bc || (cands == bc && unbound < bu),
                    };
                    if better {
                        best = Some((i, cands, unbound));
                    }
                }
                best.unwrap().0
            }
        };
        let (cands, matches, _) = estimate(&atoms[i], &bound);
        predicted = predicted.saturating_add(frontier.saturating_mul(cands));
        frontier = frontier.saturating_mul(matches);
        placed[i] = true;
        order.push(i);
        bind(&mut bound, &atoms[i]);
    }
    (order, predicted)
}

/// What to do with one argument position of a plan step when matching a
/// candidate atom.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotAction {
    /// The pattern term is ground: the candidate value must equal it. The
    /// term's [`Term::code`] is precomputed so the inner scan compares
    /// plain `i64`s against the columnar store.
    Fixed(Term, i64),
    /// First occurrence of an unbound variable: write the candidate value
    /// into the slot.
    Bind(usize),
    /// The slot is already bound (seed, earlier step, or earlier position
    /// of this atom): the candidate value must equal the slot.
    Eq(usize),
}

/// The "unbound" sentinel in a dense binding vector. [`Term::code`] is
/// always non-negative, so the sentinel can never collide with a real
/// binding.
const UNBOUND: i64 = i64::MIN;

/// One atom of a compiled plan, in execution order.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PlanStep {
    /// Index of the atom in the *original* body (delta ranges are keyed by
    /// original atom index, not execution position).
    atom: usize,
    pred: PredId,
    /// Per-position actions, left to right.
    actions: Vec<SlotAction>,
    /// Positions whose value is known *before* the candidate scan starts
    /// (ground terms, and variables bound by the seed or an earlier step —
    /// not by an earlier position of the same atom). Ascending; these are
    /// the positions eligible for `(pred, pos, term)` index probes.
    probes: Vec<usize>,
}

/// A compiled homomorphism search: fixed atom order, dense variable slots,
/// and a precomputed per-atom probe strategy. Compile once with
/// [`JoinPlan::compile`] (or fetch from a [`PlanCache`]), then
/// [`JoinPlan::execute`] any number of times against different instances,
/// seeds, and delta ranges.
///
/// The slot layout is independent of the pivot: seeded variables occupy
/// slots `0..seeded.len()` in sorted order, followed by the remaining body
/// variables in first-occurrence order over the *original* atom list. All
/// per-pivot plans of one body therefore share a layout, so callers can
/// precompute slot indices once and reuse them across every pivot plan.
#[derive(Clone, Debug)]
pub struct JoinPlan {
    atoms: Vec<Atom>,
    seeded: Vec<VarId>,
    pivot: Option<usize>,
    order: Vec<usize>,
    slots: Vec<VarId>,
    steps: Vec<PlanStep>,
    sig: u64,
    /// Predicted candidate scans per execution for cost-based plans;
    /// `u64::MAX` for greedy (uncosted) plans, which never re-optimize.
    predicted_cost: u64,
}

/// The slot layout shared by every plan over `(atoms, seeded)`: seeded
/// variables first (sorted), then body variables in first-occurrence order.
fn slot_layout(atoms: &[Atom], seeded: &[VarId]) -> Vec<VarId> {
    let mut slots: Vec<VarId> = seeded.to_vec();
    for a in atoms {
        for v in a.vars() {
            if !slots.contains(&v) {
                slots.push(v);
            }
        }
    }
    slots
}

impl JoinPlan {
    /// Compiles a plan for homomorphisms from `atoms` extending a seed over
    /// `seeded` (sorted and deduplicated internally). `pivot` pins that atom
    /// to the front of the join order (the semi-naive delta pivot). Uses the
    /// statically pinned greedy [`join_order`]; see [`JoinPlan::compile_costed`]
    /// for the statistics-driven variant. Counted as `plans_compiled`.
    pub fn compile(
        atoms: &[Atom],
        seeded: &[VarId],
        pivot: Option<usize>,
        stats: &mut HomStats,
    ) -> JoinPlan {
        let _span = omq_obs::span("hom.compile");
        let mut seeded: Vec<VarId> = seeded.to_vec();
        seeded.sort_unstable();
        seeded.dedup();
        let order = join_order(atoms, &seeded, pivot);
        Self::finish(atoms, seeded, pivot, order, u64::MAX, stats)
    }

    /// Compiles a cost-based plan: the atom order comes from [`cost_order`]
    /// over `sketch` (per-predicate cardinalities and per-position
    /// distinct-value counts) and the resulting predicted candidate count is
    /// stored on the plan, enabling the [`PlanCache`] divergence check.
    /// Deterministic for a given `(atoms, seeded, pivot, sketch)` — and the
    /// sketch itself is a function of instance content only. Counted as
    /// `plans_compiled`.
    pub fn compile_costed(
        atoms: &[Atom],
        seeded: &[VarId],
        pivot: Option<usize>,
        sketch: &CardSketch,
        stats: &mut HomStats,
    ) -> JoinPlan {
        let _span = omq_obs::span("hom.plan.cost");
        let mut seeded: Vec<VarId> = seeded.to_vec();
        seeded.sort_unstable();
        seeded.dedup();
        let (order, predicted) = cost_order(atoms, &seeded, pivot, sketch);
        Self::finish(atoms, seeded, pivot, order, predicted, stats)
    }

    fn finish(
        atoms: &[Atom],
        seeded: Vec<VarId>,
        pivot: Option<usize>,
        order: Vec<usize>,
        predicted_cost: u64,
        stats: &mut HomStats,
    ) -> JoinPlan {
        let slots = slot_layout(atoms, &seeded);
        let slot_of = |v: VarId| slots.iter().position(|&w| w == v).unwrap();
        let mut bound = vec![false; slots.len()];
        bound[..seeded.len()].fill(true);
        let mut steps = Vec::with_capacity(order.len());
        for &ai in &order {
            let a = &atoms[ai];
            let mut actions = Vec::with_capacity(a.args.len());
            let mut probes = Vec::new();
            let mut bound_now = bound.clone();
            for (pos, &t) in a.args.iter().enumerate() {
                match t {
                    Term::Var(v) => {
                        let s = slot_of(v);
                        if bound_now[s] {
                            actions.push(SlotAction::Eq(s));
                            if bound[s] {
                                probes.push(pos); // known before the scan
                            }
                        } else {
                            actions.push(SlotAction::Bind(s));
                            bound_now[s] = true;
                        }
                    }
                    ground => {
                        actions.push(SlotAction::Fixed(ground, ground.code()));
                        probes.push(pos);
                    }
                }
            }
            bound = bound_now;
            steps.push(PlanStep {
                atom: ai,
                pred: a.pred,
                actions,
                probes,
            });
        }
        let sig = pred_sig(atoms);
        record(stats, |d| d.plans_compiled = 1);
        JoinPlan {
            atoms: atoms.to_vec(),
            seeded,
            pivot,
            order,
            slots,
            steps,
            sig,
            predicted_cost,
        }
    }

    /// Hands out a compiled plan again instead of recompiling it, counted
    /// as a `plan_cache_hits` event — for [`PlanCache`] hits and for callers
    /// that store compiled plans inline (e.g. per sieve entry).
    pub fn reuse(plan: &Arc<JoinPlan>, stats: &mut HomStats) -> Arc<JoinPlan> {
        record(stats, |d| d.plan_cache_hits = 1);
        Arc::clone(plan)
    }

    /// The predicted candidate scans per execution, for cost-based plans.
    pub fn predicted_cost(&self) -> Option<u64> {
        (self.predicted_cost != u64::MAX).then_some(self.predicted_cost)
    }

    /// The atoms this plan matches (original order).
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The seeded variables, sorted and deduplicated; [`JoinPlan::execute`]
    /// seeds are parallel to this list.
    pub fn seeded(&self) -> &[VarId] {
        &self.seeded
    }

    /// The pinned delta pivot, if any.
    pub fn pivot(&self) -> Option<usize> {
        self.pivot
    }

    /// The compiled join order (original atom indices, execution order).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The slot layout: `slots()[s]` is the variable stored in slot `s`.
    pub fn slots(&self) -> &[VarId] {
        &self.slots
    }

    /// The slot of `v`, if `v` occurs in the plan.
    pub fn slot_of(&self, v: VarId) -> Option<usize> {
        self.slots.iter().position(|&w| w == v)
    }

    /// The predicate signature of the plan's atoms (see [`pred_sig`]).
    pub fn sig(&self) -> u64 {
        self.sig
    }

    /// Converts seed `(var, value)` pairs into the dense seed vector
    /// expected by [`JoinPlan::execute`] (parallel to [`JoinPlan::seeded`]).
    /// Returns `None` when duplicate pairs conflict — the caller should
    /// treat that as "no homomorphism" (e.g. `q(x,x)` probed with tuple
    /// `(a,b)`).
    ///
    /// # Panics
    /// Panics (debug) if the pairs do not cover exactly the seeded set.
    pub fn seed_values(&self, pairs: &[(VarId, Term)]) -> Option<Vec<Term>> {
        let mut vals: Vec<Option<Term>> = vec![None; self.seeded.len()];
        for &(v, t) in pairs {
            let i = self
                .seeded
                .binary_search(&v)
                .expect("seed var not in the plan's seeded set");
            match vals[i] {
                Some(prev) if prev != t => return None,
                _ => vals[i] = Some(t),
            }
        }
        Some(
            vals.into_iter()
                .map(|o| o.expect("seed pairs must cover the seeded set"))
                .collect(),
        )
    }

    /// Enumerates homomorphisms from the plan's atoms into `inst` extending
    /// `seed` (parallel to [`JoinPlan::seeded`]), invoking `f` for each;
    /// stop early by returning [`ControlFlow::Break`]. `ranges`, when given,
    /// restricts each *original* atom index to candidate instance-atom
    /// indices in `[lo, hi)` (`hi == NO_LIMIT` for unbounded) — the
    /// semi-naive delta discipline.
    ///
    /// Work counters accumulate into `stats` (and the process-global
    /// mirror behind [`global_hom_snapshot`]): the search itself runs on
    /// plain locals, folded in once at the end.
    pub fn execute<B>(
        &self,
        inst: &Instance,
        seed: &[Term],
        ranges: Option<&[(usize, usize)]>,
        stats: &mut HomStats,
        mut f: impl FnMut(&HomView) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        debug_assert_eq!(seed.len(), self.seeded.len());
        let mut bindings: Vec<i64> = vec![UNBOUND; self.slots.len()];
        for (b, &t) in bindings.iter_mut().zip(seed) {
            *b = t.code();
        }
        let mut local = HomStats::default();
        let res = self.step(0, inst, ranges, &mut bindings, &mut local, &mut f);
        record(stats, |d| *d = local);
        res
    }

    /// The backtracking core over compiled steps: candidates come from the
    /// most selective probe index (first strictly smaller candidate list in
    /// position order — the same runtime rule as the reference kernel),
    /// restricted to the atom's `[lo, hi)` range. The per-candidate match
    /// runs over the instance's columnar `i64` store (one flat column per
    /// argument position) rather than the boxed `Atom` vector — same
    /// candidate lists, same scan order, same counters, but the inner loop
    /// is branch-light integer compares with no pointer chasing.
    fn step<B>(
        &self,
        depth: usize,
        inst: &Instance,
        ranges: Option<&[(usize, usize)]>,
        bindings: &mut Vec<i64>,
        stats: &mut HomStats,
        f: &mut impl FnMut(&HomView) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        if depth == self.steps.len() {
            stats.homs_found += 1;
            return f(&HomView {
                slots: &self.slots,
                bindings,
            });
        }
        let st = &self.steps[depth];
        let (lo, hi) = match ranges {
            Some(r) => r[st.atom],
            None => (0, NO_LIMIT),
        };
        let mut best: Option<&[usize]> = None;
        for &pos in &st.probes {
            let val = match st.actions[pos] {
                SlotAction::Fixed(t, _) => t,
                SlotAction::Eq(s) => {
                    debug_assert_ne!(bindings[s], UNBOUND, "probe slot is bound");
                    Term::from_code(bindings[s])
                }
                SlotAction::Bind(_) => unreachable!("a bind position is never a probe"),
            };
            let c = clamp(inst.atoms_with_pred_term(st.pred, pos, val), lo, hi);
            if best.is_none_or(|b| c.len() < b.len()) {
                best = Some(c);
            }
        }
        let candidates = best.unwrap_or_else(|| clamp(inst.atoms_with_pred(st.pred), lo, hi));
        let cols = inst.columns(st.pred);

        // SIMD-width unrolled probe scan. Every probe position compares the
        // candidate against a value that is *constant for the whole scan*
        // (a ground code, or a slot bound before this step — deeper steps
        // never rebind it and this step's own binds are reset per row), so
        // those compares are hoisted into an 8-candidate-at-a-time filter
        // pass over the columnar store with compile-time lane counts. Only
        // survivors run the per-row bind/intra-row-equality actions.
        // Candidates are *attributed* strictly in order — a lane's counters
        // are bumped only when its turn comes, and an early `Break` leaves
        // later lanes uncounted — so enumeration order, `candidates_scanned`
        // and `backtracks` are bit-identical to the scalar reference (a
        // candidate fails iff some compare fails, wherever it runs).
        const LANES: usize = 8;
        let arity = st.actions.len();
        let mut pre_vals = [0i64; 64];
        let mut probe_mask = 0u64;
        let unrolled = arity <= 64;
        if unrolled {
            for (k, &pos) in st.probes.iter().enumerate() {
                probe_mask |= 1u64 << pos;
                pre_vals[k] = match st.actions[pos] {
                    SlotAction::Fixed(_, code) => code,
                    SlotAction::Eq(s) => bindings[s],
                    SlotAction::Bind(_) => unreachable!("a bind position is never a probe"),
                };
            }
        }
        let full = if unrolled {
            candidates.len() / LANES * LANES
        } else {
            0
        };
        for chunk in candidates[..full].chunks_exact(LANES) {
            let mut rows = [0usize; LANES];
            for j in 0..LANES {
                rows[j] = inst.row_of(chunk[j]);
            }
            let mut fail = [false; LANES];
            for (k, &pos) in st.probes.iter().enumerate() {
                let expected = pre_vals[k];
                let col = &cols[pos];
                for j in 0..LANES {
                    fail[j] |= col[rows[j]] != expected;
                }
            }
            for j in 0..LANES {
                stats.candidates_scanned += 1;
                if fail[j] {
                    stats.backtracks += 1;
                    continue;
                }
                let row = rows[j];
                let mut failed_at = None;
                for (pos, action) in st.actions.iter().enumerate() {
                    if probe_mask >> pos & 1 == 1 {
                        continue; // already filtered
                    }
                    let val = cols[pos][row];
                    let ok = match *action {
                        SlotAction::Fixed(_, code) => code == val,
                        SlotAction::Eq(s) => bindings[s] == val,
                        SlotAction::Bind(s) => {
                            bindings[s] = val;
                            true
                        }
                    };
                    if !ok {
                        failed_at = Some(pos);
                        break;
                    }
                }
                if let Some(pos) = failed_at {
                    for (p, a) in st.actions.iter().enumerate().take(pos) {
                        if probe_mask >> p & 1 == 0 {
                            if let SlotAction::Bind(s) = *a {
                                bindings[s] = UNBOUND;
                            }
                        }
                    }
                    stats.backtracks += 1;
                    continue;
                }
                let res = self.step(depth + 1, inst, ranges, bindings, stats, f);
                for a in &st.actions {
                    if let SlotAction::Bind(s) = *a {
                        bindings[s] = UNBOUND;
                    }
                }
                res?;
            }
        }

        // Scalar tail (and fallback for atoms wider than the 64-position
        // probe mask): the original reference loop, byte for byte.
        'cands: for &ci in &candidates[full..] {
            stats.candidates_scanned += 1;
            let row = inst.row_of(ci);
            for (pos, action) in st.actions.iter().enumerate() {
                let val = cols[pos][row];
                let ok = match *action {
                    SlotAction::Fixed(_, code) => code == val,
                    SlotAction::Eq(s) => bindings[s] == val,
                    SlotAction::Bind(s) => {
                        bindings[s] = val;
                        true
                    }
                };
                if !ok {
                    for a in &st.actions[..pos] {
                        if let SlotAction::Bind(s) = *a {
                            bindings[s] = UNBOUND;
                        }
                    }
                    stats.backtracks += 1;
                    continue 'cands;
                }
            }
            let res = self.step(depth + 1, inst, ranges, bindings, stats, f);
            for a in &st.actions {
                if let SlotAction::Bind(s) = *a {
                    bindings[s] = UNBOUND;
                }
            }
            res?;
        }
        ControlFlow::Continue(())
    }
}

/// A complete homomorphism as seen by a plan-execution callback: dense slot
/// bindings (as [`Term::code`]s) plus the plan's slot layout. Borrow-only;
/// call [`HomView::to_assignment`] to materialise a map (the legacy shape).
pub struct HomView<'a> {
    slots: &'a [VarId],
    bindings: &'a [i64],
}

impl HomView<'_> {
    /// The image of variable `v`, if bound.
    pub fn get(&self, v: VarId) -> Option<Term> {
        self.slots
            .iter()
            .position(|&w| w == v)
            .and_then(|s| self.slot(s))
    }

    /// The value in slot `s` (precompute slots via [`JoinPlan::slot_of`]).
    pub fn slot(&self, s: usize) -> Option<Term> {
        let code = self.bindings[s];
        (code != UNBOUND).then(|| Term::from_code(code))
    }

    /// The raw dense binding codes, parallel to [`JoinPlan::slots`]; every
    /// slot of a complete homomorphism holds a [`Term::code`].
    pub fn codes(&self) -> &[i64] {
        self.bindings
    }

    /// Materialises the bound slots as an [`Assignment`] (seed entries
    /// included — exactly the map the pre-plan kernel handed out).
    pub fn to_assignment(&self) -> Assignment {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(s, &v)| self.slot(s).map(|t| (v, t)))
            .collect()
    }
}

/// Fingerprint of a plan's identity `(atoms, seeded, pivot)` for cache
/// bucketing; buckets resolve collisions by full structural comparison.
fn plan_fingerprint(atoms: &[Atom], seeded: &[VarId], pivot: Option<usize>) -> u64 {
    let mut h = DefaultHasher::new();
    atoms.hash(&mut h);
    seeded.hash(&mut h);
    pivot.hash(&mut h);
    h.finish()
}

/// One cached plan plus its running estimate-vs-observation ledger, the
/// state behind adaptive re-optimization.
struct CachedPlan {
    plan: Arc<JoinPlan>,
    /// Candidate scans reported through [`PlanCache::note_execution`] since
    /// the plan was (re)compiled.
    observed: u64,
    /// Executions reported since the plan was (re)compiled.
    execs: u64,
}

impl CachedPlan {
    fn fresh(plan: Arc<JoinPlan>) -> CachedPlan {
        CachedPlan {
            plan,
            observed: 0,
            execs: 0,
        }
    }

    /// Has the observed per-execution probe work diverged from the
    /// prediction by more than [`REOPT_FACTOR`]? Only costed plans with at
    /// least one observed execution can diverge; predictions below
    /// [`REOPT_FLOOR`] are clamped up so tiny plans never churn.
    fn diverged(&self) -> bool {
        if self.plan.predicted_cost == u64::MAX || self.execs == 0 {
            return false;
        }
        let allowance = REOPT_FACTOR
            .saturating_mul(self.plan.predicted_cost.max(REOPT_FLOOR))
            .saturating_mul(self.execs);
        self.observed > allowance
    }
}

/// A cache of compiled [`JoinPlan`]s keyed by `(atoms, seeded, pivot)`.
/// Single-owner (`&mut` API); share plans across threads via the returned
/// `Arc`s. Hits and misses are counted into the caller's [`HomStats`].
///
/// Plans fetched through [`PlanCache::get_or_compile_costed`] are
/// *adaptive*: callers report each execution's candidate scans back via
/// [`PlanCache::note_execution`], and a later fetch whose accumulated
/// observation exceeds the plan's prediction by [`REOPT_FACTOR`] recompiles
/// the plan against fresh instance statistics (counted as
/// `plans_reoptimized`). Both the estimates and the observations are
/// deterministic per call sequence, so replan decisions are reproducible at
/// any thread count.
#[derive(Default)]
pub struct PlanCache {
    map: HashMap<u64, Vec<CachedPlan>>,
}

impl PlanCache {
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Returns the cached plan for `(atoms, seeded, pivot)`, compiling and
    /// inserting it on a miss (greedy order; never re-optimized).
    pub fn get_or_compile(
        &mut self,
        atoms: &[Atom],
        seeded: &[VarId],
        pivot: Option<usize>,
        stats: &mut HomStats,
    ) -> Arc<JoinPlan> {
        self.fetch(atoms, seeded, pivot, stats, None)
    }

    /// Like [`PlanCache::get_or_compile`], but misses compile a cost-based
    /// plan from `inst`'s cardinality sketch, and hits whose observed probe
    /// work has diverged from the prediction (see [`REOPT_FACTOR`]) are
    /// recompiled against the *current* sketch first.
    pub fn get_or_compile_costed(
        &mut self,
        atoms: &[Atom],
        seeded: &[VarId],
        pivot: Option<usize>,
        inst: &Instance,
        stats: &mut HomStats,
    ) -> Arc<JoinPlan> {
        self.fetch(atoms, seeded, pivot, stats, Some(inst))
    }

    fn fetch(
        &mut self,
        atoms: &[Atom],
        seeded: &[VarId],
        pivot: Option<usize>,
        stats: &mut HomStats,
        inst: Option<&Instance>,
    ) -> Arc<JoinPlan> {
        let mut norm: Vec<VarId> = seeded.to_vec();
        norm.sort_unstable();
        norm.dedup();
        let fp = plan_fingerprint(atoms, &norm, pivot);
        let bucket = self.map.entry(fp).or_default();
        if let Some(entry) = bucket
            .iter_mut()
            .find(|e| e.plan.pivot == pivot && e.plan.seeded == norm && e.plan.atoms == atoms)
        {
            if let Some(inst) = inst {
                if entry.diverged() {
                    let sketch = timed_sketch(inst, stats);
                    *entry = CachedPlan::fresh(Arc::new(JoinPlan::compile_costed(
                        atoms, &norm, pivot, &sketch, stats,
                    )));
                    record(stats, |d| d.plans_reoptimized = 1);
                    return Arc::clone(&entry.plan);
                }
            }
            return JoinPlan::reuse(&entry.plan, stats);
        }
        let plan = match inst {
            Some(inst) => {
                let sketch = timed_sketch(inst, stats);
                Arc::new(JoinPlan::compile_costed(
                    atoms, &norm, pivot, &sketch, stats,
                ))
            }
            None => Arc::new(JoinPlan::compile(atoms, &norm, pivot, stats)),
        };
        bucket.push(CachedPlan::fresh(Arc::clone(&plan)));
        plan
    }

    /// Reports one execution of `plan`: `candidates` is the execution's
    /// `candidates_scanned` delta. Feeds the divergence ledger and the
    /// estimate-quality buckets (`est_ratio_*`). No-op for plans this cache
    /// does not hold (e.g. compiled inline by the caller).
    pub fn note_execution(&mut self, plan: &Arc<JoinPlan>, candidates: u64, stats: &mut HomStats) {
        record_estimate_quality(plan, candidates, stats);
        let fp = plan_fingerprint(&plan.atoms, &plan.seeded, plan.pivot);
        if let Some(entry) = self
            .map
            .get_mut(&fp)
            .and_then(|b| b.iter_mut().find(|e| Arc::ptr_eq(&e.plan, plan)))
        {
            entry.observed = entry.observed.saturating_add(candidates);
            entry.execs += 1;
        }
    }
}

/// Builds `inst`'s cardinality sketch, charging the build time to
/// `sketch_build_ns`.
fn timed_sketch(inst: &Instance, stats: &mut HomStats) -> CardSketch {
    let t = Instant::now();
    let sketch = inst.card_sketch();
    record(stats, |d| d.sketch_build_ns = t.elapsed().as_nanos() as u64);
    sketch
}

/// Buckets one costed-plan execution by observed/predicted candidate ratio
/// (`≤1`, `≤REOPT_FACTOR`, `>REOPT_FACTOR`). Greedy plans carry no
/// prediction and are not bucketed.
pub(crate) fn record_estimate_quality(plan: &JoinPlan, candidates: u64, stats: &mut HomStats) {
    let Some(predicted) = plan.predicted_cost() else {
        return;
    };
    let predicted = predicted.max(1);
    record(stats, |d| {
        if candidates <= predicted {
            d.est_ratio_le_1 = 1;
        } else if candidates <= REOPT_FACTOR.saturating_mul(predicted) {
            d.est_ratio_le_4 = 1;
        } else {
            d.est_ratio_gt_4 = 1;
        }
    });
}

/// Builds the instance's cardinality sketch (timed into the sketch
/// counters) and compiles an uncached cost-based plan — the convenience
/// path for call sites that hold plans inline rather than in a
/// [`PlanCache`].
pub fn compile_costed_for(
    atoms: &[Atom],
    seeded: &[VarId],
    pivot: Option<usize>,
    inst: &Instance,
    stats: &mut HomStats,
) -> JoinPlan {
    let sketch = timed_sketch(inst, stats);
    JoinPlan::compile_costed(atoms, seeded, pivot, &sketch, stats)
}

/// Splits a legacy [`Assignment`] seed into the sorted var list and the
/// parallel value vector a plan expects.
fn split_seed(seed: &Assignment) -> (Vec<VarId>, Vec<Term>) {
    let mut pairs: Vec<(VarId, Term)> = seed.iter().map(|(&v, &t)| (v, t)).collect();
    pairs.sort_unstable_by_key(|&(v, _)| v);
    pairs.into_iter().unzip()
}

/// Enumerates homomorphisms from `atoms` into `inst` extending `seed`,
/// invoking `f` for each; stop early by returning [`ControlFlow::Break`].
///
/// Returns `Break(x)` when `f` broke with `x`, `Continue(())` when the
/// enumeration was exhausted.
///
/// Thin wrapper over uncached plan compilation; hot callers should compile
/// (or cache) a [`JoinPlan`] and call [`JoinPlan::execute`] directly.
pub fn for_each_hom<B>(
    atoms: &[Atom],
    inst: &Instance,
    seed: &Assignment,
    mut f: impl FnMut(&Assignment) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let mut stats = HomStats::default();
    for_each_hom_with_delta(atoms, inst, seed, 0, &mut stats, &mut f)
}

/// Like [`for_each_hom`], but restricted to homomorphisms whose image uses
/// at least one atom with index `>= delta_start` — the "new" atoms of a
/// semi-naive round. With `delta_start == 0` this is exactly
/// [`for_each_hom`] (everything is new).
///
/// The delta constraint is enforced by pivoting: for each body-atom position
/// `p`, one enumeration pass maps atoms before `p` into the old prefix
/// (`< delta_start`), atom `p` into the delta (`>= delta_start`), and later
/// atoms anywhere. Each qualifying homomorphism has exactly one first-new
/// position, so the passes partition the delta-touching homomorphisms: no
/// duplicates, no misses, no dedup set.
///
/// Work counters accumulate into `stats`.
pub fn for_each_hom_with_delta<B>(
    atoms: &[Atom],
    inst: &Instance,
    seed: &Assignment,
    delta_start: usize,
    stats: &mut HomStats,
    mut f: impl FnMut(&Assignment) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let (vars, vals) = split_seed(seed);
    if delta_start == 0 {
        let plan = JoinPlan::compile(atoms, &vars, None, stats);
        return plan.execute(inst, &vals, None, stats, |h| f(&h.to_assignment()));
    }
    if delta_start >= inst.len() {
        return ControlFlow::Continue(()); // no new atoms, hence no new homs
    }
    let mut ranges = vec![(0usize, NO_LIMIT); atoms.len()];
    for pivot in 0..atoms.len() {
        if inst
            .atoms_with_pred_from(atoms[pivot].pred, delta_start)
            .is_empty()
        {
            continue; // this pivot's delta slice is empty
        }
        for (i, r) in ranges.iter_mut().enumerate() {
            *r = match i.cmp(&pivot) {
                std::cmp::Ordering::Less => (0, delta_start),
                std::cmp::Ordering::Equal => (delta_start, NO_LIMIT),
                std::cmp::Ordering::Greater => (0, NO_LIMIT),
            };
        }
        let plan = JoinPlan::compile(atoms, &vars, Some(pivot), stats);
        plan.execute(inst, &vals, Some(&ranges), stats, |h| f(&h.to_assignment()))?;
    }
    ControlFlow::Continue(())
}

/// Finds one homomorphism from `atoms` into `inst` extending `seed`.
pub fn find_hom(atoms: &[Atom], inst: &Instance, seed: &Assignment) -> Option<Assignment> {
    match for_each_hom(atoms, inst, seed, |h| ControlFlow::Break(h.clone())) {
        ControlFlow::Break(h) => Some(h),
        ControlFlow::Continue(()) => None,
    }
}

/// The pre-plan backtracking kernel, kept verbatim as the differential
/// oracle for the compiled executor (see the `plan_vs_reference` property
/// test). Not part of the supported API.
#[doc(hidden)]
pub mod reference {
    use std::collections::HashSet;

    use super::*;

    /// Applies an assignment to a term (identity on constants and nulls;
    /// unbound variables stay put).
    fn image(h: &Assignment, t: Term) -> Term {
        match t {
            Term::Var(v) => h.get(&v).copied().unwrap_or(t),
            other => other,
        }
    }

    fn join_order(atoms: &[Atom], seed: &Assignment, first: Option<usize>) -> Vec<usize> {
        let n = atoms.len();
        let mut placed = vec![false; n];
        let mut bound: HashSet<VarId> = seed.keys().copied().collect();
        let mut order = Vec::with_capacity(n);
        if let Some(i) = first {
            placed[i] = true;
            order.push(i);
            bound.extend(atoms[i].vars());
        }
        while order.len() < n {
            let mut best: Option<(usize, usize, usize)> = None;
            for (i, a) in atoms.iter().enumerate() {
                if placed[i] {
                    continue;
                }
                let mut b = 0usize;
                let mut u = 0usize;
                for &t in &a.args {
                    match t {
                        Term::Var(v) => {
                            if bound.contains(&v) {
                                b += 1;
                            } else {
                                u += 1;
                            }
                        }
                        _ => b += 1,
                    }
                }
                let better = match best {
                    None => true,
                    Some((_, bb, bu)) => b > bb || (b == bb && u < bu),
                };
                if better {
                    best = Some((i, b, u));
                }
            }
            let (i, _, _) = best.unwrap();
            placed[i] = true;
            order.push(i);
            bound.extend(atoms[i].vars());
        }
        order
    }

    /// Reference twin of [`super::for_each_hom`].
    pub fn for_each_hom<B>(
        atoms: &[Atom],
        inst: &Instance,
        seed: &Assignment,
        mut f: impl FnMut(&Assignment) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let mut stats = HomStats::default();
        for_each_hom_with_delta(atoms, inst, seed, 0, &mut stats, &mut f)
    }

    /// Reference twin of [`super::for_each_hom_with_delta`].
    pub fn for_each_hom_with_delta<B>(
        atoms: &[Atom],
        inst: &Instance,
        seed: &Assignment,
        delta_start: usize,
        stats: &mut HomStats,
        mut f: impl FnMut(&Assignment) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        if delta_start == 0 {
            let order = join_order(atoms, seed, None);
            let ranges = vec![(0, NO_LIMIT); atoms.len()];
            let mut h = seed.clone();
            return rec(atoms, &order, &ranges, 0, inst, &mut h, stats, &mut f);
        }
        if delta_start >= inst.len() {
            return ControlFlow::Continue(());
        }
        let mut ranges = vec![(0usize, NO_LIMIT); atoms.len()];
        for pivot in 0..atoms.len() {
            if inst
                .atoms_with_pred_from(atoms[pivot].pred, delta_start)
                .is_empty()
            {
                continue;
            }
            for (i, r) in ranges.iter_mut().enumerate() {
                *r = match i.cmp(&pivot) {
                    std::cmp::Ordering::Less => (0, delta_start),
                    std::cmp::Ordering::Equal => (delta_start, NO_LIMIT),
                    std::cmp::Ordering::Greater => (0, NO_LIMIT),
                };
            }
            let order = join_order(atoms, seed, Some(pivot));
            let mut h = seed.clone();
            rec(atoms, &order, &ranges, 0, inst, &mut h, stats, &mut f)?;
        }
        ControlFlow::Continue(())
    }

    #[allow(clippy::too_many_arguments)]
    fn rec<B>(
        atoms: &[Atom],
        order: &[usize],
        ranges: &[(usize, usize)],
        depth: usize,
        inst: &Instance,
        h: &mut Assignment,
        stats: &mut HomStats,
        f: &mut impl FnMut(&Assignment) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        if depth == order.len() {
            stats.homs_found += 1;
            return f(h);
        }
        let ai = order[depth];
        let a = &atoms[ai];
        let (lo, hi) = ranges[ai];
        let mut best: Option<&[usize]> = None;
        for (pos, &t) in a.args.iter().enumerate() {
            let ti = image(h, t);
            if !ti.is_var() {
                let c = clamp(inst.atoms_with_pred_term(a.pred, pos, ti), lo, hi);
                if best.is_none_or(|b| c.len() < b.len()) {
                    best = Some(c);
                }
            }
        }
        let candidates = best.unwrap_or_else(|| clamp(inst.atoms_with_pred(a.pred), lo, hi));
        'cands: for &ci in candidates {
            stats.candidates_scanned += 1;
            let cand = inst.atom(ci);
            let mut newly: Vec<VarId> = Vec::new();
            for (&pat, &val) in a.args.iter().zip(&cand.args) {
                match pat {
                    Term::Var(v) => match h.get(&v) {
                        Some(&bound) => {
                            if bound != val {
                                for w in newly.drain(..) {
                                    h.remove(&w);
                                }
                                stats.backtracks += 1;
                                continue 'cands;
                            }
                        }
                        None => {
                            h.insert(v, val);
                            newly.push(v);
                        }
                    },
                    t => {
                        if t != val {
                            for w in newly.drain(..) {
                                h.remove(&w);
                            }
                            stats.backtracks += 1;
                            continue 'cands;
                        }
                    }
                }
            }
            let res = rec(atoms, order, ranges, depth + 1, inst, h, stats, f);
            for w in newly.drain(..) {
                h.remove(&w);
            }
            res?;
        }
        ControlFlow::Continue(())
    }

    /// Reference twin of [`super::find_hom`].
    pub fn find_hom(atoms: &[Atom], inst: &Instance, seed: &Assignment) -> Option<Assignment> {
        match for_each_hom(atoms, inst, seed, |h| ControlFlow::Break(h.clone())) {
            ControlFlow::Break(h) => Some(h),
            ControlFlow::Continue(()) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_model::{parse_program, parse_query, Vocabulary};

    fn db(voc: &mut Vocabulary, facts: &[&str]) -> Instance {
        let mut inst = Instance::new();
        for f in facts {
            // Parse each fact as a fact tgd head.
            let t = omq_model::parse_tgd(voc, &format!("true -> {f}")).unwrap();
            for a in t.head {
                inst.insert(a);
            }
        }
        inst
    }

    #[test]
    fn finds_simple_hom() {
        let mut voc = Vocabulary::new();
        let d = db(&mut voc, &["R(a,b)", "R(b,c)", "P(c)"]);
        let (_, q) = parse_query(&mut voc, "q :- R(X,Y), R(Y,Z), P(Z)").unwrap();
        let h = find_hom(&q.body, &d, &Assignment::new()).expect("hom exists");
        let a = voc.const_id("a").unwrap();
        assert_eq!(h[&voc.var_id("X").unwrap()], Term::Const(a));
    }

    #[test]
    fn no_hom_when_pattern_absent() {
        let mut voc = Vocabulary::new();
        let d = db(&mut voc, &["R(a,b)", "P(a)"]);
        let (_, q) = parse_query(&mut voc, "q :- R(X,Y), P(Y)").unwrap();
        assert!(find_hom(&q.body, &d, &Assignment::new()).is_none());
    }

    #[test]
    fn respects_seed() {
        let mut voc = Vocabulary::new();
        let d = db(&mut voc, &["R(a,b)", "R(c,b)"]);
        let (_, q) = parse_query(&mut voc, "q(X) :- R(X,Y)").unwrap();
        let x = voc.var_id("X").unwrap();
        let c = voc.const_id("c").unwrap();
        let mut seed = Assignment::new();
        seed.insert(x, Term::Const(c));
        let h = find_hom(&q.body, &d, &seed).unwrap();
        assert_eq!(h[&x], Term::Const(c));
        let a = voc.const_id("a").unwrap();
        let mut bad = Assignment::new();
        bad.insert(x, Term::Const(voc.constant("zz")));
        assert!(find_hom(&q.body, &d, &bad).is_none());
        let _ = a;
    }

    #[test]
    fn repeated_variables_must_agree() {
        let mut voc = Vocabulary::new();
        let d = db(&mut voc, &["R(a,b)"]);
        let (_, q) = parse_query(&mut voc, "q :- R(X,X)").unwrap();
        assert!(find_hom(&q.body, &d, &Assignment::new()).is_none());
        let d2 = db(&mut voc, &["R(a,a)"]);
        assert!(find_hom(&q.body, &d2, &Assignment::new()).is_some());
    }

    #[test]
    fn constants_in_query_must_match() {
        let mut voc = Vocabulary::new();
        let d = db(&mut voc, &["R(a,b)"]);
        let (_, q) = parse_query(&mut voc, "q :- R(a,X)").unwrap();
        assert!(find_hom(&q.body, &d, &Assignment::new()).is_some());
        let (_, q2) = parse_query(&mut voc, "q :- R(b,X)").unwrap();
        assert!(find_hom(&q2.body, &d, &Assignment::new()).is_none());
    }

    #[test]
    fn enumerates_all_homs() {
        let mut voc = Vocabulary::new();
        let d = db(&mut voc, &["R(a,b)", "R(a,c)", "R(b,c)"]);
        let (_, q) = parse_query(&mut voc, "q(X,Y) :- R(X,Y)").unwrap();
        let mut count = 0;
        let _ = for_each_hom(&q.body, &d, &Assignment::new(), |_| {
            count += 1;
            ControlFlow::<()>::Continue(())
        });
        assert_eq!(count, 3);
    }

    #[test]
    fn early_break_stops_enumeration() {
        let mut voc = Vocabulary::new();
        let d = db(&mut voc, &["P(a)", "P(b)", "P(c)"]);
        let (_, q) = parse_query(&mut voc, "q(X) :- P(X)").unwrap();
        let mut count = 0;
        let r = for_each_hom(&q.body, &d, &Assignment::new(), |_| {
            count += 1;
            if count == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(r, ControlFlow::Break(()));
        assert_eq!(count, 2);
    }

    #[test]
    fn delta_enumeration_partitions_new_homs() {
        let mut voc = Vocabulary::new();
        let mut d = db(&mut voc, &["R(a,b)", "R(b,c)"]);
        let (_, q) = parse_query(&mut voc, "q(X,Z) :- R(X,Y), R(Y,Z)").unwrap();
        // Baseline: one hom (a,b,c).
        let delta_start = d.len();
        // Add R(c,d): the new homs are exactly those using it.
        let t = omq_model::parse_tgd(&mut voc, "true -> R(c,d)").unwrap();
        for a in t.head {
            d.insert(a);
        }
        let mut stats = HomStats::default();
        let mut delta_homs = 0;
        let _ = for_each_hom_with_delta(
            &q.body,
            &d,
            &Assignment::new(),
            delta_start,
            &mut stats,
            |_| {
                delta_homs += 1;
                ControlFlow::<()>::Continue(())
            },
        );
        // Only (b,c,d) is new; (a,b,c) predates the watermark.
        assert_eq!(delta_homs, 1);
        assert_eq!(stats.homs_found, 1);
        assert!(stats.candidates_scanned > 0);
        // Full enumeration still sees both.
        let mut all = 0;
        let _ = for_each_hom(&q.body, &d, &Assignment::new(), |_| {
            all += 1;
            ControlFlow::<()>::Continue(())
        });
        assert_eq!(all, 2);
    }

    #[test]
    fn delta_enumeration_no_duplicates_on_multi_new() {
        // Both body atoms can map into the delta; the pivot decomposition
        // must yield each new hom exactly once.
        let mut voc = Vocabulary::new();
        let mut d = db(&mut voc, &["P(z)"]);
        let delta_start = d.len();
        for f in ["R(a,b)", "R(b,c)", "R(c,a)"] {
            let t = omq_model::parse_tgd(&mut voc, &format!("true -> {f}")).unwrap();
            for a in t.head {
                d.insert(a);
            }
        }
        let (_, q) = parse_query(&mut voc, "q(X,Z) :- R(X,Y), R(Y,Z)").unwrap();
        let mut stats = HomStats::default();
        let mut seen = Vec::new();
        let _ = for_each_hom_with_delta(
            &q.body,
            &d,
            &Assignment::new(),
            delta_start,
            &mut stats,
            |h| {
                let mut tuple: Vec<String> =
                    h.iter().map(|(k, v)| format!("{k:?}->{v:?}")).collect();
                tuple.sort();
                seen.push(tuple);
                ControlFlow::<()>::Continue(())
            },
        );
        let n = seen.len();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), n, "pivot passes must not duplicate homs");
        assert_eq!(n, 3, "the 3-cycle has 3 R-R paths, all new");
    }

    #[test]
    fn delta_enumeration_empty_when_no_new_atoms() {
        let mut voc = Vocabulary::new();
        let d = db(&mut voc, &["R(a,b)"]);
        let (_, q) = parse_query(&mut voc, "q :- R(X,Y)").unwrap();
        let mut stats = HomStats::default();
        let mut count = 0;
        let _ =
            for_each_hom_with_delta(&q.body, &d, &Assignment::new(), d.len(), &mut stats, |_| {
                count += 1;
                ControlFlow::<()>::Continue(())
            });
        assert_eq!(count, 0);
        assert_eq!(stats.candidates_scanned, 0);
    }

    #[test]
    fn larger_join_uses_program_parser() {
        let prog =
            parse_program("q(X,Z) :- E(X,Y), E(Y,Z), Color(X, red), Color(Z, red)\n").unwrap();
        let mut voc = prog.voc.clone();
        let d = db(
            &mut voc,
            &[
                "E(n1,n2)",
                "E(n2,n3)",
                "E(n3,n4)",
                "Color(n1, red)",
                "Color(n3, red)",
                "Color(n4, blue)",
            ],
        );
        let q = prog.query("q").unwrap().as_cq().unwrap();
        let h = find_hom(&q.body, &d, &Assignment::new()).expect("n1 -E-> n2 -E-> n3");
        let n1 = voc.const_id("n1").unwrap();
        assert_eq!(h[&q.head[0]], Term::Const(n1));
    }

    /// Satellite: the greedy join order is pinned for a chain query. All
    /// three atoms tie initially (0 bound, 2 unbound), so the earliest atom
    /// wins; each later pick has one bound variable.
    #[test]
    fn join_order_is_pinned_for_chain() {
        let mut voc = Vocabulary::new();
        let (_, q) = parse_query(&mut voc, "q(X,W) :- E(X,Y), E(Y,Z), E(Z,W)").unwrap();
        let plan = JoinPlan::compile(&q.body, &[], None, &mut HomStats::default());
        assert_eq!(plan.order(), &[0, 1, 2]);
        // Seeding W flips the chain: the last atom now has a bound term.
        let w = voc.var_id("W").unwrap();
        let plan = JoinPlan::compile(&q.body, &[w], None, &mut HomStats::default());
        assert_eq!(plan.order(), &[2, 1, 0]);
    }

    /// Satellite: the greedy join order is pinned for a star query. The
    /// unary hub atom wins the unbound tie-break, then the spokes follow in
    /// atom-index order (full ties keep the earliest index).
    #[test]
    fn join_order_is_pinned_for_star() {
        let mut voc = Vocabulary::new();
        let (_, q) = parse_query(&mut voc, "q(X) :- E(X,A), E(X,B), E(X,C), Hub(X)").unwrap();
        let plan = JoinPlan::compile(&q.body, &[], None, &mut HomStats::default());
        assert_eq!(plan.order(), &[3, 0, 1, 2]);
        // Pinning a pivot keeps the greedy rule for the rest.
        let plan = JoinPlan::compile(&q.body, &[], Some(1), &mut HomStats::default());
        assert_eq!(plan.order(), &[1, 3, 0, 2]);
    }

    /// The compiled executor reproduces the reference kernel exactly:
    /// same homs, same order, same counters.
    #[test]
    fn plan_matches_reference_on_join() {
        let mut voc = Vocabulary::new();
        let d = db(
            &mut voc,
            &["R(a,b)", "R(b,c)", "R(a,c)", "R(c,d)", "P(c)", "P(d)"],
        );
        let (_, q) = parse_query(&mut voc, "q(X,Z) :- R(X,Y), R(Y,Z), P(Z)").unwrap();
        let mut plan_homs = Vec::new();
        let mut plan_stats = HomStats::default();
        let plan = JoinPlan::compile(&q.body, &[], None, &mut HomStats::default());
        let _ = plan.execute(&d, &[], None, &mut plan_stats, |h| {
            plan_homs.push(h.to_assignment());
            ControlFlow::<()>::Continue(())
        });
        let mut ref_homs = Vec::new();
        let mut ref_stats = HomStats::default();
        let _ = reference::for_each_hom_with_delta(
            &q.body,
            &d,
            &Assignment::new(),
            0,
            &mut ref_stats,
            |h| {
                ref_homs.push(h.clone());
                ControlFlow::<()>::Continue(())
            },
        );
        assert_eq!(plan_homs, ref_homs);
        assert_eq!(plan_stats.candidates_scanned, ref_stats.candidates_scanned);
        assert_eq!(plan_stats.backtracks, ref_stats.backtracks);
        assert_eq!(plan_stats.homs_found, ref_stats.homs_found);
    }

    #[test]
    fn plan_cache_counts_hits_and_misses() {
        let mut voc = Vocabulary::new();
        let (_, q) = parse_query(&mut voc, "q :- R(X,Y), P(Y)").unwrap();
        let mut cache = PlanCache::new();
        let mut stats = HomStats::default();
        let p1 = cache.get_or_compile(&q.body, &[], None, &mut stats);
        let p2 = cache.get_or_compile(&q.body, &[], None, &mut stats);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(stats.plans_compiled, 1);
        assert_eq!(stats.plan_cache_hits, 1);
        // A different pivot is a different plan.
        let _ = cache.get_or_compile(&q.body, &[], Some(1), &mut stats);
        assert_eq!(stats.plans_compiled, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn seed_values_detects_conflicts() {
        let mut voc = Vocabulary::new();
        let (_, q) = parse_query(&mut voc, "q(X,X) :- R(X,X)").unwrap();
        let x = voc.var_id("X").unwrap();
        let a = Term::Const(voc.constant("a"));
        let b = Term::Const(voc.constant("b"));
        let plan = JoinPlan::compile(&q.body, &[x, x], None, &mut HomStats::default());
        assert_eq!(plan.seeded(), &[x]);
        assert_eq!(plan.seed_values(&[(x, a), (x, a)]), Some(vec![a]));
        assert_eq!(plan.seed_values(&[(x, a), (x, b)]), None);
    }

    #[test]
    fn signature_prefilter_is_sound() {
        let mut voc = Vocabulary::new();
        let (_, q1) = parse_query(&mut voc, "q :- R(X,Y), P(Y)").unwrap();
        let (_, q2) = parse_query(&mut voc, "q :- R(X,Y)").unwrap();
        // q1 mentions P, q2 does not: no hom q1 -> q2 can exist.
        assert!(!sig_may_hom(pred_sig(&q1.body), pred_sig(&q2.body)));
        // The other direction stays possible.
        assert!(sig_may_hom(pred_sig(&q2.body), pred_sig(&q1.body)));
        let d = db(&mut voc, &["R(a,b)", "P(b)"]);
        assert!(sig_may_hom(pred_sig(&q1.body), instance_sig(&d)));
    }

    #[test]
    fn empty_body_fires_callback_once_with_seed() {
        let mut voc = Vocabulary::new();
        let d = db(&mut voc, &["P(a)"]);
        let x = voc.var("X");
        let a = Term::Const(voc.constant("a"));
        let plan = JoinPlan::compile(&[], &[x], None, &mut HomStats::default());
        let mut stats = HomStats::default();
        let mut homs = Vec::new();
        let _ = plan.execute(&d, &[a], None, &mut stats, |h| {
            homs.push(h.to_assignment());
            ControlFlow::<()>::Continue(())
        });
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0][&x], a);
        assert_eq!(stats.homs_found, 1);
        assert_eq!(stats.candidates_scanned, 0);
    }

    #[test]
    fn global_counters_are_monotone() {
        let before = global_hom_snapshot();
        let mut voc = Vocabulary::new();
        let d = db(&mut voc, &["P(a)", "P(b)"]);
        let (_, q) = parse_query(&mut voc, "q(X) :- P(X)").unwrap();
        let _ = find_hom(&q.body, &d, &Assignment::new());
        let mut stats = HomStats::default();
        assert!(!prefilter(pred_sig(&q.body), 0, &mut stats));
        let after = global_hom_snapshot();
        assert!(after.candidates_scanned > before.candidates_scanned);
        assert!(after.plans_compiled > before.plans_compiled);
        assert!(after.prefilter_rejects > before.prefilter_rejects);
        assert_eq!(stats.prefilter_rejects, 1);
    }
}
