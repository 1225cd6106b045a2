//! Randomized differential test: the semi-naive delta chase must agree with
//! a naive (full re-enumeration) reference implementation on hundreds of
//! generated programs.
//!
//! The reference chase below re-enumerates every trigger of every tgd on
//! every round, deduplicating fired triggers with plain `(tgd, image)` keys
//! — deliberately sharing nothing with the production engine's generation
//! watermarks, delta pivoting, or 64-bit fingerprints.
//!
//! Comparison discipline per generated shape:
//!
//! * **full (Datalog)** programs, restricted variant: the chase is a
//!   confluent least fixpoint, so the atom *sets* must match exactly.
//! * **linear / guarded** programs with existentials, oblivious variant with
//!   a null-depth budget: the set of fired triggers (all triggers of null
//!   depth within budget) is order-independent, so the results must match up
//!   to null renaming — equal per-predicate counts, equal step counts, and
//!   mutual homomorphisms with nulls read as variables.

use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

use omq_chase::{chase, find_hom, for_each_hom, Assignment, ChaseConfig, ChaseVariant, Guarantee};
use omq_model::rng::SplitMix64;
use omq_model::{Atom, ConstId, Instance, NullId, PredId, Term, Tgd, VarId, Vocabulary};

// ---------------------------------------------------------------------------
// Naive reference chase
// ---------------------------------------------------------------------------

struct Naive {
    inst: Instance,
    fired: HashSet<(usize, Vec<Term>)>,
    depth: HashMap<NullId, usize>,
    steps: usize,
    truncated: bool,
}

fn naive_fire(
    st: &mut Naive,
    sigma: &[Tgd],
    voc: &mut Vocabulary,
    cfg: &ChaseConfig,
    ti: usize,
    h: &Assignment,
) {
    let tgd = &sigma[ti];
    let key: Vec<Term> = tgd
        .body_vars()
        .iter()
        .map(|v| h.get(v).copied().unwrap_or(Term::Var(*v)))
        .collect();
    match cfg.variant {
        ChaseVariant::Oblivious => {
            if st.fired.contains(&(ti, key.clone())) {
                return;
            }
        }
        ChaseVariant::Restricted => {
            let mut seed = Assignment::new();
            for v in tgd.frontier() {
                if let Some(&t) = h.get(&v) {
                    seed.insert(v, t);
                }
            }
            if find_hom(&tgd.head, &st.inst, &seed).is_some() {
                return;
            }
        }
    }
    let base = key
        .iter()
        .map(|&t| match t {
            Term::Null(n) => st.depth.get(&n).copied().unwrap_or(0),
            _ => 0,
        })
        .max()
        .unwrap_or(0);
    let new_depth = base + 1;
    if !tgd.existential_vars().is_empty() {
        if let Some(max) = cfg.max_depth {
            if new_depth > max {
                st.truncated = true;
                return;
            }
        }
    }
    let mut ext = h.clone();
    for z in tgd.existential_vars() {
        let n = voc.fresh_null();
        st.depth.insert(n, new_depth);
        ext.insert(z, Term::Null(n));
    }
    for atom in &tgd.head {
        let img = atom.map_terms(|t| match t {
            Term::Var(v) => ext.get(&v).copied().unwrap_or(t),
            other => other,
        });
        st.inst.insert(img);
    }
    if cfg.variant == ChaseVariant::Oblivious {
        st.fired.insert((ti, key));
    }
    st.steps += 1;
}

/// Round-based naive chase: every round re-enumerates all triggers of every
/// tgd over the whole instance. Returns `(instance, steps, complete)`.
fn naive_chase(
    db: &Instance,
    sigma: &[Tgd],
    voc: &mut Vocabulary,
    cfg: &ChaseConfig,
) -> (Instance, usize, bool) {
    let mut st = Naive {
        inst: db.clone(),
        fired: HashSet::new(),
        depth: HashMap::new(),
        steps: 0,
        truncated: false,
    };
    loop {
        let before = st.inst.len();
        for (ti, tgd) in sigma.iter().enumerate() {
            let mut triggers: Vec<Assignment> = Vec::new();
            let _ = for_each_hom(&tgd.body, &st.inst, &Assignment::new(), |h| {
                triggers.push(h.clone());
                ControlFlow::<()>::Continue(())
            });
            for h in triggers {
                if st.steps >= cfg.max_steps {
                    return (st.inst, st.steps, false);
                }
                naive_fire(&mut st, sigma, voc, cfg, ti, &h);
            }
        }
        if st.inst.len() == before {
            return (st.inst, st.steps, !st.truncated);
        }
    }
}

// ---------------------------------------------------------------------------
// Program generator (SplitMix64-driven, no external crates)
// ---------------------------------------------------------------------------

const LINEAR: usize = 0;
const FULL: usize = 1;
// Any other shape value generates guarded programs.

fn gen_case(rng: &mut SplitMix64, shape: usize) -> (Vec<Tgd>, Instance, Vocabulary) {
    let mut voc = Vocabulary::new();
    let preds: Vec<PredId> = (0..rng.range(3..6))
        .map(|i| {
            let arity = rng.range(1..4);
            voc.pred(&format!("P{i}"), arity)
        })
        .collect();
    let consts: Vec<ConstId> = (0..3).map(|i| voc.constant(&format!("c{i}"))).collect();

    let mut db = Instance::new();
    for _ in 0..rng.range(3..7) {
        let p = preds[rng.below(preds.len())];
        let args: Vec<Term> = (0..voc.arity(p))
            .map(|_| Term::Const(consts[rng.below(consts.len())]))
            .collect();
        db.insert(Atom::new(p, args));
    }

    let ntgds = rng.range(2..5);
    let mut sigma = Vec::new();
    for t in 0..ntgds {
        let pool: Vec<VarId> = (0..3).map(|j| voc.var(&format!("V{t}_{j}"))).collect();
        let tgd = match shape {
            LINEAR => {
                let p = preds[rng.below(preds.len())];
                let args: Vec<Term> = (0..voc.arity(p))
                    .map(|_| Term::Var(pool[rng.below(pool.len())]))
                    .collect();
                let body = vec![Atom::new(p, args.clone())];
                let body_vars: Vec<VarId> = args
                    .iter()
                    .filter_map(|t| match t {
                        Term::Var(v) => Some(*v),
                        _ => None,
                    })
                    .collect();
                let head = head_atom(rng, &mut voc, &preds, &consts, &body_vars, true, t);
                Tgd::new(body, vec![head])
            }
            FULL => {
                let natoms = rng.range(1..4);
                let mut body = Vec::new();
                for _ in 0..natoms {
                    let p = preds[rng.below(preds.len())];
                    let args: Vec<Term> = (0..voc.arity(p))
                        .map(|_| {
                            if rng.chance(1, 6) {
                                Term::Const(consts[rng.below(consts.len())])
                            } else {
                                Term::Var(pool[rng.below(pool.len())])
                            }
                        })
                        .collect();
                    body.push(Atom::new(p, args));
                }
                let body_vars: Vec<VarId> = body
                    .iter()
                    .flat_map(Atom::vars)
                    .collect::<HashSet<_>>()
                    .into_iter()
                    .collect();
                let head = head_atom(rng, &mut voc, &preds, &consts, &body_vars, false, t);
                Tgd::new(body, vec![head])
            }
            _ => {
                // Guard atom holding every body variable, plus side atoms
                // over subsets of the guard's variables.
                let guard_pred = preds[rng.below(preds.len())];
                let ga = voc.arity(guard_pred);
                let gvars: Vec<VarId> = pool[..ga.min(pool.len())].to_vec();
                let gargs: Vec<Term> = (0..ga).map(|k| Term::Var(gvars[k % gvars.len()])).collect();
                let mut body = vec![Atom::new(guard_pred, gargs)];
                for _ in 0..rng.range(0..3) {
                    let p = preds[rng.below(preds.len())];
                    let args: Vec<Term> = (0..voc.arity(p))
                        .map(|_| {
                            if rng.chance(1, 6) {
                                Term::Const(consts[rng.below(consts.len())])
                            } else {
                                Term::Var(gvars[rng.below(gvars.len())])
                            }
                        })
                        .collect();
                    body.push(Atom::new(p, args));
                }
                let head = head_atom(rng, &mut voc, &preds, &consts, &gvars, true, t);
                Tgd::new(body, vec![head])
            }
        };
        sigma.push(tgd);
    }
    (sigma, db, voc)
}

fn head_atom(
    rng: &mut SplitMix64,
    voc: &mut Vocabulary,
    preds: &[PredId],
    consts: &[ConstId],
    body_vars: &[VarId],
    allow_existential: bool,
    t: usize,
) -> Atom {
    let p = preds[rng.below(preds.len())];
    let mut existential = None;
    let args: Vec<Term> = (0..voc.arity(p))
        .map(|k| {
            if allow_existential && rng.chance(1, 4) {
                let z = *existential.get_or_insert_with(|| voc.var(&format!("Z{t}_{k}")));
                Term::Var(z)
            } else if body_vars.is_empty() || rng.chance(1, 8) {
                Term::Const(consts[rng.below(consts.len())])
            } else {
                Term::Var(body_vars[rng.below(body_vars.len())])
            }
        })
        .collect();
    Atom::new(p, args)
}

// ---------------------------------------------------------------------------
// Comparison helpers
// ---------------------------------------------------------------------------

fn sorted_atoms(inst: &Instance) -> Vec<Atom> {
    let mut v = inst.atoms().to_vec();
    v.sort();
    v
}

fn pred_counts(inst: &Instance) -> HashMap<PredId, usize> {
    let mut m = HashMap::new();
    for a in inst.atoms() {
        *m.entry(a.pred).or_insert(0) += 1;
    }
    m
}

/// Reads `from`'s atoms as a pattern (each null becomes a variable) and asks
/// whether the pattern maps homomorphically into `into`.
fn maps_into(from: &Instance, into: &Instance, voc: &mut Vocabulary) -> bool {
    let mut renaming: HashMap<NullId, VarId> = HashMap::new();
    let pattern: Vec<Atom> = from
        .atoms()
        .iter()
        .map(|a| {
            a.map_terms(|t| match t {
                Term::Null(n) => {
                    Term::Var(*renaming.entry(n).or_insert_with(|| voc.fresh_var("null")))
                }
                other => other,
            })
        })
        .collect();
    find_hom(&pattern, into, &Assignment::new()).is_some()
}

// ---------------------------------------------------------------------------
// The differential test
// ---------------------------------------------------------------------------

const CASES: u64 = 240;
/// Skip the (expensive) mutual-homomorphism check above this instance size;
/// the per-predicate count and step-count checks still apply.
const HOM_CHECK_MAX_ATOMS: usize = 80;

#[test]
fn semi_naive_chase_matches_naive_reference() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0dde_ca5e_0001);
    let mut compared_full = 0usize;
    let mut compared_existential = 0usize;

    for case in 0..CASES {
        let shape = (case % 3) as usize;
        let (sigma, db, voc) = gen_case(&mut rng, shape);
        let cfg = if shape == FULL {
            ChaseConfig {
                variant: ChaseVariant::Restricted,
                max_steps: 50_000,
                max_depth: None,
                ..Default::default()
            }
        } else {
            ChaseConfig {
                variant: ChaseVariant::Oblivious,
                max_steps: 50_000,
                max_depth: Some(2),
                ..Default::default()
            }
        };

        let mut voc_semi = voc.clone();
        let out = chase(&db, &sigma, &mut voc_semi, &cfg);
        let mut voc_naive = voc.clone();
        let (ninst, nsteps, ncomplete) = naive_chase(&db, &sigma, &mut voc_naive, &cfg);

        // Step-budget truncation cuts the two runs at different points of
        // the same round, so only depth-truncated or complete runs are
        // content-comparable; none of the generated cases should come close
        // to the 50k-step budget.
        assert!(
            out.steps < cfg.max_steps && nsteps < cfg.max_steps,
            "case {case}: step budget hit (semi={}, naive={nsteps})",
            out.steps
        );

        if shape == FULL {
            assert!(
                out.guarantee == Guarantee::Exact && ncomplete,
                "case {case}: full chase must finish"
            );
            assert_eq!(
                sorted_atoms(&out.instance),
                sorted_atoms(&ninst),
                "case {case}: Datalog atom sets differ\nsigma: {sigma:?}\ndb: {db:?}"
            );
            assert_eq!(out.steps, nsteps, "case {case}: step counts differ");
            compared_full += 1;
        } else {
            assert_eq!(
                out.guarantee == Guarantee::Exact,
                ncomplete,
                "case {case}: completeness flags differ"
            );
            assert_eq!(
                pred_counts(&out.instance),
                pred_counts(&ninst),
                "case {case}: per-predicate counts differ\nsigma: {sigma:?}\ndb: {db:?}"
            );
            assert_eq!(out.steps, nsteps, "case {case}: step counts differ");
            if out.instance.len() <= HOM_CHECK_MAX_ATOMS {
                let mut voc_h = voc_semi.clone();
                assert!(
                    maps_into(&out.instance, &ninst, &mut voc_h),
                    "case {case}: semi-naive result does not map into naive result"
                );
                let mut voc_h = voc_naive.clone();
                assert!(
                    maps_into(&ninst, &out.instance, &mut voc_h),
                    "case {case}: naive result does not map into semi-naive result"
                );
            }
            compared_existential += 1;
        }
    }

    assert!(
        compared_full >= 80,
        "too few Datalog comparisons: {compared_full}"
    );
    assert!(
        compared_existential >= 160,
        "too few existential comparisons: {compared_existential}"
    );
}
