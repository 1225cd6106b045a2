//! The chase procedure (paper §2).
//!
//! A chase step fires a tgd `τ = φ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄)` on a trigger (a
//! homomorphism from `φ` into the instance), extending the instance with
//! `ψ(ā, ⊥̄)` for fresh nulls `⊥̄`. We provide the **restricted** variant
//! (fire only when the head is not already satisfied by an extension of the
//! trigger) and the **oblivious** variant (fire every trigger once).
//!
//! The chase need not terminate (e.g. under guarded or sticky sets), so all
//! entry points take step and null-depth budgets and report honestly whether
//! a fixpoint was reached. For non-recursive sets, [`stratified_chase`]
//! always terminates (§2, "Non-recursiveness").

use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::Arc;

use omq_classes::stratify;
use omq_model::{Atom, Instance, NullId, PredId, Term, Tgd, Vocabulary};

use crate::hom::{HomStats, JoinPlan, PlanCache, NO_LIMIT};
use crate::runtime::{Budget, Cap, Guarantee};

/// Which chase variant to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum ChaseVariant {
    /// Fire a trigger only if its head has no extension in the instance.
    #[default]
    Restricted,
    /// Fire every trigger exactly once (larger, but order-independent).
    Oblivious,
}

/// Budgets and variant selection for a chase run.
#[derive(Clone, Debug)]
pub struct ChaseConfig {
    /// Restricted or oblivious.
    pub variant: ChaseVariant,
    /// Maximum number of chase steps (fired triggers).
    pub max_steps: usize,
    /// Maximum null depth: a null created by a trigger whose body image only
    /// involves terms of depth `< d` has depth `d`. `None` = unbounded.
    pub max_depth: Option<usize>,
    /// Wall-clock/cancellation budget, polled at trigger granularity. An
    /// expired budget aborts the run as `Capped(Cap::Deadline)` — the partial
    /// instance is still a sound under-approximation, exactly as when the
    /// step budget runs out.
    pub budget: Budget,
    /// Record a [`DerivationStep`] for every firing that grew the instance
    /// (inputs = body image, outputs = head image). Off by default: the log
    /// can be as large as the chase itself. Used by the `explain` machinery.
    pub record_derivation: bool,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            variant: ChaseVariant::Restricted,
            max_steps: 200_000,
            max_depth: None,
            budget: Budget::unlimited(),
            record_derivation: false,
        }
    }
}

impl ChaseConfig {
    /// A config with the given step budget.
    pub fn with_steps(max_steps: usize) -> Self {
        ChaseConfig {
            max_steps,
            ..Default::default()
        }
    }

    /// A config with the given null-depth budget.
    pub fn with_depth(max_depth: usize) -> Self {
        ChaseConfig {
            max_depth: Some(max_depth),
            ..Default::default()
        }
    }
}

/// One recorded chase firing: tgd index, the body image that triggered it,
/// and the head image it inserted. A derivation log is a replayable proof
/// tree — every output is justified by inputs that are database atoms or
/// outputs of earlier steps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DerivationStep {
    /// Index of the fired tgd in the `sigma` slice passed to the chase.
    pub tgd: usize,
    /// The trigger's body image (atoms present before the firing).
    pub inputs: Vec<Atom>,
    /// The head image (atoms the firing inserted; fresh nulls included).
    pub outputs: Vec<Atom>,
}

/// The result of a chase run.
#[derive(Clone, Debug)]
pub struct ChaseOutcome {
    /// The (partial) chase result.
    pub instance: Instance,
    /// `Exact` iff a fixpoint was reached: the instance satisfies `Σ`.
    /// When `Capped`, the named budget was exhausted and the result is a
    /// sound but possibly incomplete under-approximation of `chase(D, Σ)`.
    pub guarantee: Guarantee,
    /// Number of fired triggers.
    pub steps: usize,
    /// Depth of the deepest null created.
    pub deepest: usize,
    /// Work counters for the run.
    pub stats: ChaseStats,
    /// Firing log, in firing order (empty unless
    /// [`ChaseConfig::record_derivation`] was set).
    pub derivation: Vec<DerivationStep>,
}

/// Work counters for a chase run: how much the semi-naive engine actually
/// did, as opposed to how long it took. Surfaced by `ChaseOutcome` and the
/// benchmark reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Semi-naive rounds executed (including the final fixpoint round).
    pub rounds: usize,
    /// Triggers enumerated (delta-restricted body homomorphisms).
    pub triggers_considered: usize,
    /// Triggers fired (equals `ChaseOutcome::steps`).
    pub triggers_fired: usize,
    /// Oblivious-variant triggers skipped via the fingerprint set.
    pub dedup_hits: usize,
    /// Restricted-variant triggers skipped because the head was satisfied.
    pub satisfied_skips: usize,
    /// Homomorphism-kernel work: trigger enumeration, head-satisfaction
    /// checks and plan compilation.
    pub hom: HomStats,
}

impl ChaseStats {
    /// Mirrors the counters into the installed omq-obs recorder, once per
    /// run (a no-op without a recorder).
    pub fn emit_obs(&self) {
        if !omq_obs::active() {
            return;
        }
        omq_obs::counters(&[
            ("chase.rounds", self.rounds as u64),
            ("chase.triggers_considered", self.triggers_considered as u64),
            ("chase.triggers_fired", self.triggers_fired as u64),
            ("chase.dedup_hits", self.dedup_hits as u64),
            ("chase.satisfied_skips", self.satisfied_skips as u64),
        ]);
        self.hom.emit_obs();
    }
}

/// A 64-bit fingerprint of a trigger: the tgd index plus the body-variable
/// image, mixed SplitMix64-style. Collisions would silently drop an
/// oblivious-chase firing, but at 64 bits the chance is negligible for any
/// feasible trigger count (~2⁻²⁴ even at a billion triggers).
fn trigger_fingerprint(ti: usize, key: &[Term]) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let mut h = mix(ti as u64 ^ 0xd6e8_feb8_6659_fd93);
    for &t in key {
        let enc = match t {
            Term::Const(c) => u64::from(c.0) << 2,
            Term::Null(n) => (u64::from(n.0) << 2) | 1,
            Term::Var(v) => (u64::from(v.0) << 2) | 2,
        };
        h = mix(h ^ enc);
    }
    h
}

/// How to build one head-atom argument from a dense trigger key.
#[derive(Copy, Clone, Debug)]
enum HeadArg {
    /// A constant or null written literally in the tgd head.
    Fixed(Term),
    /// The body slot (trigger-key position) of a frontier variable.
    FromBody(usize),
    /// The `i`-th fresh null of this firing (existential variable).
    Fresh(usize),
}

/// Per-tgd compiled artifacts: the body join plan (pivot variants are pulled
/// from the runner's [`PlanCache`] on demand), the head-satisfaction plan of
/// the restricted variant, and a dense recipe for building head atoms from a
/// trigger key without any `HashMap` assignment.
struct TgdPlan {
    /// Body plan with no pivot (round 0); its slot order defines the
    /// trigger key, which equals `Tgd::body_vars` order.
    body_base: Arc<JoinPlan>,
    /// Trigger-key slot of each sorted frontier variable — the seed order of
    /// `head_plan`.
    frontier_slots: Vec<usize>,
    /// Head plan seeded on the frontier (restricted variant only).
    head_plan: Option<Arc<JoinPlan>>,
    /// Number of existential variables (fresh nulls per firing).
    n_exist: usize,
    /// Head atoms as `(pred, arg recipes)`.
    head_atoms: Vec<(PredId, Vec<HeadArg>)>,
}

impl TgdPlan {
    fn new(
        t: &Tgd,
        variant: ChaseVariant,
        cache: &mut PlanCache,
        db: &Instance,
        hstats: &mut HomStats,
    ) -> Self {
        // Cost the body plan against the initial database; the runner's
        // round-0 fetch revisits the same cache entry and re-optimizes it if
        // observed probe work diverges. Slot layout (and thus the trigger
        // key) depends only on the atom set, not the join order.
        let body_base = cache.get_or_compile_costed(&t.body, &[], None, db, hstats);
        let mut frontier = t.frontier();
        frontier.sort_unstable();
        frontier.dedup();
        let frontier_slots: Vec<usize> = frontier
            .iter()
            .map(|&v| {
                body_base
                    .slot_of(v)
                    .expect("frontier vars occur in the body")
            })
            .collect();
        let head_plan = (variant == ChaseVariant::Restricted)
            .then(|| Arc::new(JoinPlan::compile(&t.head, &frontier, None, hstats)));
        let existentials = t.existential_vars();
        let head_atoms = t
            .head
            .iter()
            .map(|a| {
                let args = a
                    .args
                    .iter()
                    .map(|&tm| match tm {
                        Term::Var(v) => match body_base.slot_of(v) {
                            Some(s) => HeadArg::FromBody(s),
                            None => HeadArg::Fresh(
                                existentials
                                    .iter()
                                    .position(|&z| z == v)
                                    .expect("non-body head var is existential"),
                            ),
                        },
                        other => HeadArg::Fixed(other),
                    })
                    .collect();
                (a.pred, args)
            })
            .collect();
        TgdPlan {
            body_base,
            frontier_slots,
            head_plan,
            n_exist: existentials.len(),
            head_atoms,
        }
    }
}

struct Runner<'a> {
    sigma: &'a [Tgd],
    voc: &'a mut Vocabulary,
    cfg: &'a ChaseConfig,
    instance: Instance,
    depth: HashMap<NullId, usize>,
    /// Fingerprints of already-fired triggers (oblivious variant only; the
    /// restricted variant's firing condition is the head-satisfaction check).
    fired: HashSet<u64>,
    steps: usize,
    deepest: usize,
    /// Set when a trigger was skipped due to the depth budget.
    truncated: bool,
    stats: ChaseStats,
    /// Firing log (only populated when `cfg.record_derivation`).
    derivation: Vec<DerivationStep>,
    /// Per-tgd compiled plans and head recipes, built once up front.
    tgd_plans: Vec<TgdPlan>,
    /// Cache of pivoted body plans across semi-naive rounds.
    plans: PlanCache,
}

impl<'a> Runner<'a> {
    fn new(db: &Instance, sigma: &'a [Tgd], voc: &'a mut Vocabulary, cfg: &'a ChaseConfig) -> Self {
        Self::with_instance(db.clone(), sigma, voc, cfg)
    }

    /// Like [`Runner::new`] but takes ownership of the starting instance —
    /// the resume path hands a prior fixpoint straight back to the engine
    /// without cloning it.
    fn with_instance(
        instance: Instance,
        sigma: &'a [Tgd],
        voc: &'a mut Vocabulary,
        cfg: &'a ChaseConfig,
    ) -> Self {
        let mut stats = ChaseStats::default();
        let mut plans = PlanCache::new();
        let tgd_plans = sigma
            .iter()
            .map(|t| TgdPlan::new(t, cfg.variant, &mut plans, &instance, &mut stats.hom))
            .collect();
        Runner {
            sigma,
            voc,
            cfg,
            instance,
            depth: HashMap::new(),
            fired: HashSet::new(),
            steps: 0,
            deepest: 0,
            truncated: false,
            stats,
            derivation: Vec::new(),
            tgd_plans,
            plans,
        }
    }

    fn term_depth(&self, t: Term) -> usize {
        match t {
            Term::Null(n) => self.depth.get(&n).copied().unwrap_or(0),
            _ => 0,
        }
    }

    /// Fires tgd `ti` on the trigger with dense key `key` (the body-variable
    /// image in body-plan slot order) if the variant's condition allows;
    /// returns whether the instance grew.
    fn fire(&mut self, ti: usize, key: &[Term]) -> bool {
        let fp = trigger_fingerprint(ti, key);
        match self.cfg.variant {
            ChaseVariant::Oblivious => {
                if self.fired.contains(&fp) {
                    self.stats.dedup_hits += 1;
                    return false;
                }
            }
            ChaseVariant::Restricted => {
                // Applicable iff there is no extension of h|frontier mapping
                // the head into the instance.
                let tp = &self.tgd_plans[ti];
                let plan = tp.head_plan.as_ref().expect("restricted head plan");
                let seed: Vec<Term> = tp.frontier_slots.iter().map(|&s| key[s]).collect();
                let satisfied = plan
                    .execute(&self.instance, &seed, None, &mut self.stats.hom, |_| {
                        ControlFlow::Break(())
                    })
                    .is_break();
                if satisfied {
                    self.stats.satisfied_skips += 1;
                    return false;
                }
            }
        }

        // Depth of nulls this step would create.
        let base_depth = key.iter().map(|&t| self.term_depth(t)).max().unwrap_or(0);
        let new_depth = base_depth + 1;
        let n_exist = self.tgd_plans[ti].n_exist;
        if n_exist > 0 {
            if let Some(max) = self.cfg.max_depth {
                if new_depth > max {
                    self.truncated = true;
                    return false;
                }
            }
        }

        let mut fresh: Vec<Term> = Vec::with_capacity(n_exist);
        for _ in 0..n_exist {
            let n = self.voc.fresh_null();
            self.depth.insert(n, new_depth);
            self.deepest = self.deepest.max(new_depth);
            fresh.push(Term::Null(n));
        }
        let mut grew = false;
        let mut outputs: Vec<Atom> = Vec::new();
        for (pred, args) in &self.tgd_plans[ti].head_atoms {
            let img: Vec<Term> = args
                .iter()
                .map(|a| match *a {
                    HeadArg::Fixed(t) => t,
                    HeadArg::FromBody(s) => key[s],
                    HeadArg::Fresh(i) => fresh[i],
                })
                .collect();
            let atom = Atom::new(*pred, img);
            if self.cfg.record_derivation {
                outputs.push(atom.clone());
            }
            grew |= self.instance.insert(atom);
        }
        if self.cfg.variant == ChaseVariant::Oblivious {
            self.fired.insert(fp);
        }
        if self.cfg.record_derivation && grew {
            // Reconstruct the body image by substituting the trigger key
            // back into the tgd body (the key is in body-plan slot order).
            let tp = &self.tgd_plans[ti];
            let inputs: Vec<Atom> = self.sigma[ti]
                .body
                .iter()
                .map(|a| {
                    let args: Vec<Term> = a
                        .args
                        .iter()
                        .map(|&tm| match tm {
                            Term::Var(v) => {
                                key[tp.body_base.slot_of(v).expect("body var has a slot")]
                            }
                            other => other,
                        })
                        .collect();
                    Atom::new(a.pred, args)
                })
                .collect();
            self.derivation.push(DerivationStep {
                tgd: ti,
                inputs,
                outputs,
            });
        }
        self.steps += 1;
        self.stats.triggers_fired += 1;
        grew
    }

    /// Can any body atom of `tgd` map onto an atom at index `>= delta_start`?
    /// Cheap per-predicate pre-filter for skipping whole tgds in a round.
    fn body_touches_delta(&self, tgd: &Tgd, delta_start: usize) -> bool {
        tgd.body.iter().any(|a| {
            !self
                .instance
                .atoms_with_pred_from(a.pred, delta_start)
                .is_empty()
        })
    }

    /// Runs semi-naive rounds until fixpoint or budget exhaustion over the
    /// tgds whose indices are in `active`.
    ///
    /// Round 0 enumerates every trigger; each later round only enumerates
    /// triggers that touch the delta — the atoms inserted since the previous
    /// round began. Because head satisfaction (restricted) and the fired set
    /// (oblivious) are both monotone in the instance, a trigger skipped once
    /// stays skippable, so old-only triggers never need revisiting.
    fn run(&mut self, active: &[usize]) -> Guarantee {
        self.run_from(active, 0)
    }

    /// [`Runner::run`], with the first round's delta watermark supplied by
    /// the caller: atoms at index `>= initial_delta` are treated as new. A
    /// resumed chase passes the prior fixpoint's length here, so the first
    /// round only enumerates triggers touching the freshly asserted atoms —
    /// the semi-naive invariant (skipped triggers stay skippable) makes
    /// re-enumerating the old fixpoint unnecessary.
    fn run_from(&mut self, active: &[usize], initial_delta: usize) -> Guarantee {
        let sigma = self.sigma;
        // Atoms at or past this index are "new" for the current round.
        let mut delta_start = initial_delta;
        let mut triggers: Vec<Vec<Term>> = Vec::new();
        loop {
            self.stats.rounds += 1;
            let _round = omq_obs::span("chase.round");
            // Atoms inserted during this round carry a fresh generation; its
            // start index is the next round's delta watermark.
            let round_gen = self.instance.begin_generation();
            let round_start = self.instance.generation_start(round_gen);
            for &ti in active {
                if self.cfg.budget.expired() {
                    return Guarantee::Capped(Cap::Deadline);
                }
                let tgd = &sigma[ti];
                if tgd.body.is_empty() {
                    // Fact tgds have a single, empty trigger; it only exists
                    // while the whole instance is the delta (round 0).
                    if delta_start == 0 {
                        if self.steps >= self.cfg.max_steps {
                            return Guarantee::Capped(Cap::Steps);
                        }
                        self.stats.triggers_considered += 1;
                        self.fire(ti, &[]);
                    }
                    continue;
                }
                if delta_start > 0 && !self.body_touches_delta(tgd, delta_start) {
                    continue;
                }
                // Collect triggers against the current instance first, then
                // fire, so the enumeration is not invalidated by inserts. A
                // complete homomorphism binds every slot, so the dense
                // binding vector unwraps directly into the trigger key.
                triggers.clear();
                let hstats = &mut self.stats.hom;
                let push = |triggers: &mut Vec<Vec<Term>>, h: &crate::hom::HomView| {
                    triggers.push(h.codes().iter().map(|&c| Term::from_code(c)).collect());
                };
                if delta_start == 0 {
                    let plan = self.plans.get_or_compile_costed(
                        &tgd.body,
                        &[],
                        None,
                        &self.instance,
                        hstats,
                    );
                    let before = hstats.candidates_scanned;
                    let _ = plan.execute(&self.instance, &[], None, hstats, |h| {
                        push(&mut triggers, h);
                        ControlFlow::<()>::Continue(())
                    });
                    self.plans
                        .note_execution(&plan, hstats.candidates_scanned - before, hstats);
                } else if delta_start < self.instance.len() {
                    // One pivoted plan per body atom that can touch the
                    // delta: the pivot atom is confined to new instance
                    // atoms, earlier atoms to old ones, later atoms roam.
                    for p in 0..tgd.body.len() {
                        if self
                            .instance
                            .atoms_with_pred_from(tgd.body[p].pred, delta_start)
                            .is_empty()
                        {
                            continue;
                        }
                        let plan = self.plans.get_or_compile_costed(
                            &tgd.body,
                            &[],
                            Some(p),
                            &self.instance,
                            hstats,
                        );
                        let ranges: Vec<(usize, usize)> = (0..tgd.body.len())
                            .map(|i| match i.cmp(&p) {
                                std::cmp::Ordering::Less => (0, delta_start),
                                std::cmp::Ordering::Equal => (delta_start, NO_LIMIT),
                                std::cmp::Ordering::Greater => (0, NO_LIMIT),
                            })
                            .collect();
                        let before = hstats.candidates_scanned;
                        let _ = plan.execute(&self.instance, &[], Some(&ranges), hstats, |h| {
                            push(&mut triggers, h);
                            ControlFlow::<()>::Continue(())
                        });
                        self.plans.note_execution(
                            &plan,
                            hstats.candidates_scanned - before,
                            hstats,
                        );
                    }
                }
                self.stats.triggers_considered += triggers.len();
                for key in triggers.drain(..) {
                    if self.steps >= self.cfg.max_steps {
                        return Guarantee::Capped(Cap::Steps);
                    }
                    if self.cfg.budget.expired() {
                        return Guarantee::Capped(Cap::Deadline);
                    }
                    self.fire(ti, &key);
                }
            }
            if self.instance.len() == round_start {
                // Fixpoint, unless depth truncation hid some work.
                return if self.truncated {
                    Guarantee::Capped(Cap::Depth)
                } else {
                    Guarantee::Exact
                };
            }
            delta_start = round_start;
        }
    }
}

/// Runs the chase of `db` under `sigma` with the given budgets.
pub fn chase(
    db: &Instance,
    sigma: &[Tgd],
    voc: &mut Vocabulary,
    cfg: &ChaseConfig,
) -> ChaseOutcome {
    let _span = omq_obs::span("chase");
    let mut runner = Runner::new(db, sigma, voc, cfg);
    let active: Vec<usize> = (0..sigma.len()).collect();
    let guarantee = runner.run(&active);
    runner.stats.emit_obs();
    ChaseOutcome {
        instance: runner.instance,
        guarantee,
        steps: runner.steps,
        deepest: runner.deepest,
        stats: runner.stats,
        derivation: runner.derivation,
    }
}

/// Resumes a chase from a prior fixpoint instead of re-chasing from
/// scratch: `prior` is the result of an earlier chase of some database
/// under the same `sigma`, extended with newly asserted facts, and atoms at
/// index `>= delta_start` are exactly those new facts (append them under a
/// fresh [`Instance::begin_generation`] and pass that generation's start).
///
/// The first semi-naive round then enumerates only triggers touching the
/// delta — the prior fixpoint is never re-enumerated, which is what makes
/// incremental maintenance of a live store cheap. Sound for the
/// **restricted** variant: its skip condition (head satisfaction) is
/// monotone in the instance and carries no state across runs. The oblivious
/// fingerprint set is *not* persisted, so an oblivious resume may re-fire
/// old triggers; incremental callers should use `ChaseVariant::Restricted`.
///
/// Passing `delta_start == 0` re-enumerates every trigger (a "re-derive"
/// pass): still cheap on a near-fixpoint instance because almost every
/// trigger is skipped by head satisfaction. The DRed deletion algorithm in
/// `omq-store` uses exactly this after over-deleting a support cone.
///
/// Null depths of the prior run are not carried over (old nulls resume at
/// depth 0), so `cfg.max_depth` budgets are measured per-resume; callers
/// that rely on depth budgets should re-chase from scratch instead.
pub fn resume_chase(
    prior: Instance,
    delta_start: usize,
    sigma: &[Tgd],
    voc: &mut Vocabulary,
    cfg: &ChaseConfig,
) -> ChaseOutcome {
    let _span = omq_obs::span("chase.incremental");
    let mut runner = Runner::with_instance(prior, sigma, voc, cfg);
    let active: Vec<usize> = (0..sigma.len()).collect();
    let guarantee = runner.run_from(&active, delta_start);
    runner.stats.emit_obs();
    omq_obs::counter("chase.incremental", 1);
    ChaseOutcome {
        instance: runner.instance,
        guarantee,
        steps: runner.steps,
        deepest: runner.deepest,
        stats: runner.stats,
        derivation: runner.derivation,
    }
}

/// Runs the stratified chase for a non-recursive `sigma` (Lemma 32):
/// saturates each stratum bottom-up. Returns `None` when `sigma` is
/// recursive.
///
/// Always terminates and always returns a complete chase, so the outcome is
/// `Exact` (the budgets of `cfg` still apply as a safety net; the first cap
/// hit is the outcome's guarantee).
pub fn stratified_chase(
    db: &Instance,
    sigma: &[Tgd],
    voc: &mut Vocabulary,
    cfg: &ChaseConfig,
) -> Option<ChaseOutcome> {
    let strata = stratify(sigma)?;
    let _span = omq_obs::span("chase");
    let mut runner = Runner::new(db, sigma, voc, cfg);
    let mut guarantee = Guarantee::Exact;
    for stratum in &strata {
        let g = runner.run(stratum);
        if guarantee == Guarantee::Exact {
            guarantee = g;
        }
    }
    runner.stats.emit_obs();
    Some(ChaseOutcome {
        instance: runner.instance,
        guarantee,
        steps: runner.steps,
        deepest: runner.deepest,
        stats: runner.stats,
        derivation: runner.derivation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::holds_cq;
    use crate::hom::HomStats;
    use omq_model::{parse_query, parse_tgd};

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
    fn full_tgds_reach_fixpoint() {
        let mut voc = Vocabulary::new();
        let sigma = vec![
            parse_tgd(&mut voc, "E(X,Y) -> T(X,Y)").unwrap(),
            parse_tgd(&mut voc, "E(X,Y), T(Y,Z) -> T(X,Z)").unwrap(),
        ];
        let d = db(&mut voc, &["E(a,b)", "E(b,c)", "E(c,d)"]);
        let out = chase(&d, &sigma, &mut voc, &ChaseConfig::default());
        assert_eq!(out.guarantee, Guarantee::Exact);
        // Transitive closure: T has 3+2+1 = 6 atoms.
        let t = voc.pred_id("T").unwrap();
        assert_eq!(out.instance.atoms_with_pred(t).len(), 6);
    }

    #[test]
    fn restricted_chase_reuses_witnesses() {
        let mut voc = Vocabulary::new();
        // Every P-node has an R-successor; b already has one.
        let sigma = vec![parse_tgd(&mut voc, "P(X) -> exists Y . R(X,Y)").unwrap()];
        let d = db(&mut voc, &["P(a)", "P(b)", "R(b,c)"]);
        let out = chase(&d, &sigma, &mut voc, &ChaseConfig::default());
        assert_eq!(out.guarantee, Guarantee::Exact);
        let r = voc.pred_id("R").unwrap();
        // Only one new R-atom (for a); b's obligation was already satisfied.
        assert_eq!(out.instance.atoms_with_pred(r).len(), 2);
        assert_eq!(out.steps, 1);
    }

    #[test]
    fn oblivious_chase_fires_everything() {
        let mut voc = Vocabulary::new();
        let sigma = vec![parse_tgd(&mut voc, "P(X) -> exists Y . R(X,Y)").unwrap()];
        let d = db(&mut voc, &["P(a)", "P(b)", "R(b,c)"]);
        let cfg = ChaseConfig {
            variant: ChaseVariant::Oblivious,
            ..Default::default()
        };
        let out = chase(&d, &sigma, &mut voc, &cfg);
        assert_eq!(out.guarantee, Guarantee::Exact);
        let r = voc.pred_id("R").unwrap();
        assert_eq!(out.instance.atoms_with_pred(r).len(), 3); // b gets a fresh one too
    }

    #[test]
    fn nonterminating_chase_hits_budget() {
        let mut voc = Vocabulary::new();
        let sigma = vec![parse_tgd(&mut voc, "P(X) -> exists Y . Q(X,Y), P(Y)").unwrap()];
        let d = db(&mut voc, &["P(a)"]);
        let out = chase(&d, &sigma, &mut voc, &ChaseConfig::with_steps(50));
        assert_eq!(out.guarantee, Guarantee::Capped(Cap::Steps));
        assert_eq!(out.steps, 50);
    }

    #[test]
    fn depth_budget_truncates() {
        let mut voc = Vocabulary::new();
        let sigma = vec![parse_tgd(&mut voc, "P(X) -> exists Y . Q(X,Y), P(Y)").unwrap()];
        let d = db(&mut voc, &["P(a)"]);
        let out = chase(&d, &sigma, &mut voc, &ChaseConfig::with_depth(3));
        assert_eq!(out.guarantee, Guarantee::Capped(Cap::Depth));
        assert_eq!(out.deepest, 3);
        let q = voc.pred_id("Q").unwrap();
        assert_eq!(out.instance.atoms_with_pred(q).len(), 3);
    }

    #[test]
    fn certain_atoms_via_chase_result() {
        let mut voc = Vocabulary::new();
        // Example 1 of the paper (linear set).
        let sigma = vec![
            parse_tgd(&mut voc, "P(X) -> exists Y . R(X,Y)").unwrap(),
            parse_tgd(&mut voc, "R(X,Y) -> P(Y)").unwrap(),
            parse_tgd(&mut voc, "T(X) -> P(X)").unwrap(),
        ];
        let d = db(&mut voc, &["T(a)"]);
        // Infinite chase: budget by depth.
        let out = chase(&d, &sigma, &mut voc, &ChaseConfig::with_depth(4));
        let (_, q) = parse_query(&mut voc, "q :- R(X,Y), P(Y)").unwrap();
        assert!(holds_cq(&q, &out.instance, &mut HomStats::default()));
    }

    #[test]
    fn stratified_chase_terminates_and_matches() {
        let mut voc = Vocabulary::new();
        let sigma = vec![
            parse_tgd(&mut voc, "A(X) -> exists Y . B(X,Y)").unwrap(),
            parse_tgd(&mut voc, "B(X,Y) -> C(Y)").unwrap(),
            parse_tgd(&mut voc, "C(X) -> D(X)").unwrap(),
        ];
        let d = db(&mut voc, &["A(a)", "A(b)"]);
        let out = stratified_chase(&d, &sigma, &mut voc, &ChaseConfig::default()).unwrap();
        assert_eq!(out.guarantee, Guarantee::Exact);
        let dpred = voc.pred_id("D").unwrap();
        assert_eq!(out.instance.atoms_with_pred(dpred).len(), 2);
        // Same atoms as the plain restricted chase.
        let out2 = chase(&d, &sigma, &mut voc, &ChaseConfig::default());
        assert_eq!(out.instance.len(), out2.instance.len());
    }

    #[test]
    fn stratified_chase_rejects_recursion() {
        let mut voc = Vocabulary::new();
        let sigma = vec![parse_tgd(&mut voc, "P(X) -> exists Y . P(Y)").unwrap()];
        let d = db(&mut voc, &["P(a)"]);
        assert!(stratified_chase(&d, &sigma, &mut voc, &ChaseConfig::default()).is_none());
    }

    #[test]
    fn fact_tgds_fire_on_empty_database() {
        let mut voc = Vocabulary::new();
        let sigma = vec![
            parse_tgd(&mut voc, "true -> Bit(0), Bit(1)").unwrap(),
            parse_tgd(&mut voc, "Bit(X) -> Num(X)").unwrap(),
        ];
        let out = chase(&Instance::new(), &sigma, &mut voc, &ChaseConfig::default());
        assert_eq!(out.guarantee, Guarantee::Exact);
        assert_eq!(out.instance.len(), 4);
    }

    #[test]
    fn stats_count_rounds_and_triggers() {
        let mut voc = Vocabulary::new();
        let sigma = vec![
            parse_tgd(&mut voc, "E(X,Y) -> T(X,Y)").unwrap(),
            parse_tgd(&mut voc, "E(X,Y), T(Y,Z) -> T(X,Z)").unwrap(),
        ];
        let d = db(&mut voc, &["E(a,b)", "E(b,c)", "E(c,d)"]);
        let out = chase(&d, &sigma, &mut voc, &ChaseConfig::default());
        assert_eq!(out.guarantee, Guarantee::Exact);
        assert_eq!(out.stats.triggers_fired, out.steps);
        assert!(out.stats.rounds >= 3, "chain of 3 needs several rounds");
        assert!(out.stats.triggers_considered >= out.stats.triggers_fired);
        assert!(out.stats.hom.candidates_scanned > 0);
        // The restricted variant records its skips, not dedup hits.
        assert_eq!(out.stats.dedup_hits, 0);
    }

    #[test]
    fn oblivious_stats_record_dedup() {
        let mut voc = Vocabulary::new();
        // B(a) appears mid-round, so the trigger B(a) of the second tgd is
        // enumerated both in the round that created it and in the next one;
        // the second consideration must hit the fingerprint set.
        let sigma = vec![
            parse_tgd(&mut voc, "A(X) -> B(X)").unwrap(),
            parse_tgd(&mut voc, "B(X) -> C(X)").unwrap(),
        ];
        let d = db(&mut voc, &["A(a)"]);
        let cfg = ChaseConfig {
            variant: ChaseVariant::Oblivious,
            ..Default::default()
        };
        let out = chase(&d, &sigma, &mut voc, &cfg);
        assert_eq!(out.guarantee, Guarantee::Exact);
        assert_eq!(out.stats.triggers_fired, 2);
        assert!(out.stats.dedup_hits >= 1);
    }

    #[test]
    fn expired_budget_aborts_with_incomplete() {
        let mut voc = Vocabulary::new();
        // Non-terminating set: without the budget this would run to the step
        // cap; the pre-expired budget must stop it almost immediately.
        let sigma = vec![parse_tgd(&mut voc, "P(X) -> exists Y . Q(X,Y), P(Y)").unwrap()];
        let d = db(&mut voc, &["P(a)"]);
        let (budget, token) = crate::runtime::Budget::unlimited().cancellable();
        token.cancel();
        let cfg = ChaseConfig {
            budget,
            ..Default::default()
        };
        let out = chase(&d, &sigma, &mut voc, &cfg);
        assert_eq!(out.guarantee, Guarantee::Capped(Cap::Deadline));
        assert_eq!(out.steps, 0);
    }

    #[test]
    fn unlimited_budget_preserves_fixpoint() {
        let mut voc = Vocabulary::new();
        let sigma = vec![parse_tgd(&mut voc, "E(X,Y) -> T(X,Y)").unwrap()];
        let d = db(&mut voc, &["E(a,b)"]);
        let cfg = ChaseConfig {
            budget: crate::runtime::Budget::deadline_in(std::time::Duration::from_secs(600)),
            ..Default::default()
        };
        let out = chase(&d, &sigma, &mut voc, &cfg);
        assert_eq!(out.guarantee, Guarantee::Exact);
    }

    #[test]
    fn resumed_chase_matches_from_scratch() {
        let mut voc = Vocabulary::new();
        let sigma = vec![
            parse_tgd(&mut voc, "E(X,Y) -> T(X,Y)").unwrap(),
            parse_tgd(&mut voc, "E(X,Y), T(Y,Z) -> T(X,Z)").unwrap(),
        ];
        let d = db(&mut voc, &["E(a,b)", "E(b,c)", "E(c,d)"]);
        let cfg = ChaseConfig::default();
        let out = chase(&d, &sigma, &mut voc, &cfg);
        assert_eq!(out.guarantee, Guarantee::Exact);

        // Assert a new edge as a fresh delta generation and resume.
        let mut inst = out.instance;
        inst.begin_generation();
        let delta_start = inst.len();
        let extra = parse_tgd(&mut voc, "true -> E(d,e)").unwrap();
        for a in extra.head.clone() {
            inst.insert(a);
        }
        let resumed = resume_chase(inst, delta_start, &sigma, &mut voc, &cfg);
        assert_eq!(resumed.guarantee, Guarantee::Exact);

        // From-scratch chase of the full database: same atom set (no
        // existentials, so no null-renaming slack).
        let mut full = d.clone();
        for a in extra.head {
            full.insert(a);
        }
        let scratch = chase(&full, &sigma, &mut voc, &cfg);
        assert_eq!(resumed.instance, scratch.instance);
        // The resume did strictly less work than the re-chase.
        assert!(resumed.stats.triggers_considered < scratch.stats.triggers_considered);
    }

    #[test]
    fn resume_with_empty_delta_is_a_fixpoint_check() {
        let mut voc = Vocabulary::new();
        let sigma = vec![parse_tgd(&mut voc, "E(X,Y) -> T(X,Y)").unwrap()];
        let d = db(&mut voc, &["E(a,b)"]);
        let out = chase(&d, &sigma, &mut voc, &ChaseConfig::default());
        let len = out.instance.len();
        let mut inst = out.instance;
        inst.begin_generation();
        let resumed = resume_chase(inst, len, &sigma, &mut voc, &ChaseConfig::default());
        assert_eq!(resumed.guarantee, Guarantee::Exact);
        assert_eq!(resumed.steps, 0);
        assert_eq!(resumed.stats.rounds, 1);
        assert_eq!(resumed.instance.len(), len);
    }

    #[test]
    fn resumed_chase_with_existentials_preserves_answers() {
        let mut voc = Vocabulary::new();
        let sigma = vec![
            parse_tgd(&mut voc, "P(X) -> exists Y . R(X,Y)").unwrap(),
            parse_tgd(&mut voc, "R(X,Y) -> S(X)").unwrap(),
        ];
        let d = db(&mut voc, &["P(a)"]);
        let cfg = ChaseConfig::default();
        let out = chase(&d, &sigma, &mut voc, &cfg);
        let mut inst = out.instance;
        inst.begin_generation();
        let delta_start = inst.len();
        for a in parse_tgd(&mut voc, "true -> P(b)").unwrap().head {
            inst.insert(a);
        }
        let resumed = resume_chase(inst, delta_start, &sigma, &mut voc, &cfg);
        assert_eq!(resumed.guarantee, Guarantee::Exact);
        let full = db(&mut voc, &["P(a)", "P(b)"]);
        let scratch = chase(&full, &sigma, &mut voc, &cfg);
        // Nulls differ across the two runs; the constant-only certain
        // answers must not.
        let (_, q) = parse_query(&mut voc, "q(X) :- S(X)").unwrap();
        let mut a1: Vec<_> = crate::eval::eval_cq(&q, &resumed.instance)
            .into_iter()
            .collect();
        let mut a2: Vec<_> = crate::eval::eval_cq(&q, &scratch.instance)
            .into_iter()
            .collect();
        a1.sort();
        a2.sort();
        assert_eq!(a1, a2);
    }

    #[test]
    fn constants_in_heads() {
        let mut voc = Vocabulary::new();
        let sigma = vec![parse_tgd(&mut voc, "P(X) -> R(X, marker)").unwrap()];
        let d = db(&mut voc, &["P(a)"]);
        let out = chase(&d, &sigma, &mut voc, &ChaseConfig::default());
        let (_, q) = parse_query(&mut voc, "q :- R(a, marker)").unwrap();
        assert!(holds_cq(&q, &out.instance, &mut HomStats::default()));
    }
}
