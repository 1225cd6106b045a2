//! Randomized differential tests for the rewriting engine: over a few
//! hundred generated linear / non-recursive / sticky OMQs,
//!
//! * the parallel frontier expansion must produce **byte-identical**
//!   disjunct lists at every thread count (1 vs 2/4/8),
//! * the canonical-form dedup strategy must agree with the fingerprint +
//!   `cq_isomorphic` reference strategy,
//! * subsumption pruning must preserve certain answers on random databases
//!   (the pruned and unpruned UCQs are semantically equivalent),
//! * canonical labeling must agree with `cq_isomorphic` across the output
//!   disjuncts (equal forms ⟺ isomorphic),
//! * the rewriting must give the certain answers the chase gives on random
//!   databases (a second sweep, the chase oracle).
//!
//! The generators are SplitMix64-driven (no external crates) and shaped per
//! class; membership is re-checked with the `omq-classes` deciders, and
//! sticky-shaped programs that fail the marking test are skipped (counted,
//! with a minimum number of surviving cases enforced).

use std::collections::HashSet;

use omq_chase::{
    certain_answers_via_chase, cq_canonical_form, cq_isomorphic, eval_ucq, ChaseConfig, EvalError,
};
use omq_classes::{is_linear, is_non_recursive, is_sticky};
use omq_model::rng::SplitMix64;
use omq_model::{
    Atom, ConstId, Cq, Instance, Omq, PredId, Schema, Term, Tgd, Ucq, VarId, Vocabulary,
};
use omq_rewrite::{xrewrite, DedupStrategy, RewriteError, RewriteOutput, XRewriteConfig};

const LINEAR: usize = 0;
const NONRECURSIVE: usize = 1;
const STICKY: usize = 2;

struct Case {
    omq: Omq,
    voc: Vocabulary,
    consts: Vec<ConstId>,
}

/// A random head atom for `pred` using `body_vars`, with a chance of one
/// existentially quantified variable (never more — keeps the shapes tame).
fn head_atom(
    rng: &mut SplitMix64,
    voc: &mut Vocabulary,
    pred: PredId,
    body_vars: &[VarId],
    tag: usize,
) -> Atom {
    let mut existential = None;
    let args: Vec<Term> = (0..voc.arity(pred))
        .map(|k| {
            if rng.chance(1, 4) {
                let z = *existential.get_or_insert_with(|| voc.var(&format!("Z{tag}_{k}")));
                Term::Var(z)
            } else {
                Term::Var(body_vars[rng.below(body_vars.len())])
            }
        })
        .collect();
    Atom::new(pred, args)
}

fn gen_case(rng: &mut SplitMix64, shape: usize) -> Case {
    let mut voc = Vocabulary::new();
    let preds: Vec<PredId> = (0..rng.range(3..6))
        .map(|i| voc.pred(&format!("P{i}"), rng.range(1..4)))
        .collect();
    let consts: Vec<ConstId> = (0..3).map(|i| voc.constant(&format!("c{i}"))).collect();

    let ntgds = rng.range(1..4);
    let mut sigma: Vec<Tgd> = Vec::new();
    for t in 0..ntgds {
        let pool: Vec<VarId> = (0..3).map(|j| voc.var(&format!("V{t}_{j}"))).collect();
        let tgd = match shape {
            LINEAR => {
                let p = preds[rng.below(preds.len())];
                let args: Vec<Term> = (0..voc.arity(p))
                    .map(|_| Term::Var(pool[rng.below(pool.len())]))
                    .collect();
                let body = vec![Atom::new(p, args)];
                let body_vars: Vec<VarId> = body[0].vars().collect();
                let hp = preds[rng.below(preds.len())];
                let head = head_atom(rng, &mut voc, hp, &body_vars, t);
                Tgd::new(body, vec![head])
            }
            NONRECURSIVE => {
                // Heads only use strictly-lower predicate indices than every
                // body atom: the predicate graph is acyclic by construction.
                let hi = rng.below(preds.len().saturating_sub(1));
                let natoms = rng.range(1..3);
                let mut body = Vec::new();
                for _ in 0..natoms {
                    let p = preds[rng.range(hi + 1..preds.len())];
                    let args: Vec<Term> = (0..voc.arity(p))
                        .map(|_| Term::Var(pool[rng.below(pool.len())]))
                        .collect();
                    body.push(Atom::new(p, args));
                }
                let mut body_vars: Vec<VarId> = body
                    .iter()
                    .flat_map(Atom::vars)
                    .collect::<HashSet<_>>()
                    .into_iter()
                    .collect();
                // HashSet order is per-process random; sort so the generated
                // stream is identical on every run.
                body_vars.sort();
                let head = head_atom(rng, &mut voc, preds[hi], &body_vars, t);
                Tgd::new(body, vec![head])
            }
            _ => {
                // Sticky-shaped: up to two body atoms, mostly join-free
                // (each variable used once), which the marking test usually
                // accepts; the caller re-checks `is_sticky` and skips
                // rejected programs.
                let natoms = rng.range(1..3);
                let mut body = Vec::new();
                let mut used = 0usize;
                for _ in 0..natoms {
                    let p = preds[rng.below(preds.len())];
                    let args: Vec<Term> = (0..voc.arity(p))
                        .map(|_| {
                            let v = if rng.chance(1, 5) && used > 0 {
                                pool[rng.below(used.min(pool.len()))]
                            } else {
                                let v = pool[used.min(pool.len() - 1)];
                                used += 1;
                                v
                            };
                            Term::Var(v)
                        })
                        .collect();
                    body.push(Atom::new(p, args));
                }
                let mut body_vars: Vec<VarId> = body
                    .iter()
                    .flat_map(Atom::vars)
                    .collect::<HashSet<_>>()
                    .into_iter()
                    .collect();
                body_vars.sort();
                let hp = preds[rng.below(preds.len())];
                let head = head_atom(rng, &mut voc, hp, &body_vars, t);
                Tgd::new(body, vec![head])
            }
        };
        sigma.push(tgd);
    }

    // A random query: 1–3 atoms, head = a subset of its variables.
    let qvars: Vec<VarId> = (0..4).map(|j| voc.var(&format!("X{j}"))).collect();
    let mut body = Vec::new();
    for _ in 0..rng.range(1..4) {
        let p = preds[rng.below(preds.len())];
        let args: Vec<Term> = (0..voc.arity(p))
            .map(|_| Term::Var(qvars[rng.below(qvars.len())]))
            .collect();
        body.push(Atom::new(p, args));
    }
    let mut used: Vec<VarId> = body
        .iter()
        .flat_map(Atom::vars)
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    used.sort();
    let mut head: Vec<VarId> = used
        .into_iter()
        .filter(|_| rng.chance(1, 3))
        .take(2)
        .collect();
    head.sort();
    let query = Cq::new(head, body);

    // Data schema: every predicate is data-accessible half the time, plus
    // always the ones no tgd derives (so the seed query itself can survive).
    let derived: HashSet<PredId> = sigma.iter().map(|t| t.head[0].pred).collect();
    let data: Vec<PredId> = preds
        .iter()
        .copied()
        .filter(|p| !derived.contains(p) || rng.chance(1, 2))
        .collect();

    Case {
        omq: Omq::new(Schema::from_preds(data), sigma, Ucq::from_cq(query)),
        voc,
        consts,
    }
}

/// A random database over the case's data schema.
fn gen_db(rng: &mut SplitMix64, case: &Case) -> Instance {
    let mut db = Instance::new();
    let preds: Vec<PredId> = case.omq.data_schema.preds().to_vec();
    if preds.is_empty() {
        return db;
    }
    for _ in 0..rng.range(2..8) {
        let p = preds[rng.below(preds.len())];
        let args: Vec<Term> = (0..case.voc.arity(p))
            .map(|_| Term::Const(case.consts[rng.below(case.consts.len())]))
            .collect();
        db.insert(Atom::new(p, args));
    }
    db
}

fn run(case: &Case, cfg: &XRewriteConfig) -> Result<RewriteOutput, RewriteError> {
    let mut voc = case.voc.clone();
    xrewrite(&case.omq, &mut voc, cfg)
}

const CASES: u64 = 240;
const MAX_QUERIES: usize = 3_000;

#[test]
fn rewriting_differential_sweep() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_2e11_a11e_0002);
    let mut ran = [0usize; 3];
    let mut nonsticky_skips = 0usize;
    let mut budget_skips = 0usize;

    for case_no in 0..CASES {
        let shape = (case_no % 3) as usize;
        let case = gen_case(&mut rng, shape);
        match shape {
            LINEAR => assert!(is_linear(&case.omq.sigma), "case {case_no}: not linear"),
            NONRECURSIVE => assert!(
                is_non_recursive(&case.omq.sigma),
                "case {case_no}: not non-recursive"
            ),
            _ => {
                if !is_sticky(&case.omq.sigma) {
                    nonsticky_skips += 1;
                    continue;
                }
            }
        }

        let base_cfg = XRewriteConfig {
            max_queries: MAX_QUERIES,
            threads: 1,
            ..Default::default()
        };
        let base = match run(&case, &base_cfg) {
            Ok(out) => out,
            Err(RewriteError::BudgetExceeded(..)) => {
                budget_skips += 1;
                continue;
            }
        };
        ran[shape] += 1;

        // Every output disjunct is over the data schema.
        for d in &base.ucq.disjuncts {
            assert!(
                d.body.iter().all(|a| case.omq.data_schema.contains(a.pred)),
                "case {case_no}: disjunct leaves the data schema"
            );
        }

        // (a) Thread-count independence: byte-identical disjunct lists and
        // identical deterministic counters — the sieve's whole kernel record
        // but the sketch timing, including the adaptive planner's (replan
        // decisions and estimate-quality buckets are functions of instance
        // content and call order, never of the thread count). `0` resolves
        // to the machine's parallelism.
        for threads in [0usize, 2, 4, 8] {
            let out = run(
                &case,
                &XRewriteConfig {
                    threads,
                    ..base_cfg.clone()
                },
            )
            .unwrap_or_else(|_| panic!("case {case_no}: budget at {threads} threads only"));
            assert_eq!(
                out.ucq.disjuncts, base.ucq.disjuncts,
                "case {case_no}: disjuncts differ at {threads} threads"
            );
            assert_eq!(out.generated, base.generated, "case {case_no}");
            assert_eq!(out.rewrite_steps, base.rewrite_steps, "case {case_no}");
            assert_eq!(
                out.factorization_steps, base.factorization_steps,
                "case {case_no}"
            );
            assert_eq!(
                out.stats.hom.counts(),
                base.stats.hom.counts(),
                "case {case_no}: kernel counters differ at {threads} threads"
            );
        }

        // (b) The fingerprint + pairwise-isomorphism reference strategy
        // agrees with canonical-form dedup.
        let fp = run(
            &case,
            &XRewriteConfig {
                dedup: DedupStrategy::FingerprintIso,
                ..base_cfg.clone()
            },
        )
        .expect("case: budget under FingerprintIso only");
        assert_eq!(
            fp.ucq.disjuncts, base.ucq.disjuncts,
            "case {case_no}: dedup strategies disagree"
        );
        assert_eq!(fp.generated, base.generated, "case {case_no}");

        // (c) Pruned vs unpruned: same certain answers on random databases.
        let unpruned = run(
            &case,
            &XRewriteConfig {
                prune_subsumed: false,
                ..base_cfg.clone()
            },
        )
        .expect("case: budget without pruning only");
        assert!(
            base.ucq.disjuncts.len() <= unpruned.ucq.disjuncts.len(),
            "case {case_no}: pruning grew the UCQ"
        );
        for _ in 0..3 {
            let db = gen_db(&mut rng, &case);
            assert_eq!(
                eval_ucq(&base.ucq, &db),
                eval_ucq(&unpruned.ucq, &db),
                "case {case_no}: pruning changed certain answers on {db:?}"
            );
        }

        // (d) Canonical labeling agrees with cq_isomorphic on the output
        // disjuncts: equal forms ⟺ isomorphic (skipping symmetry-budget
        // fallbacks, which are rare and isomorphism-invariant).
        let sample: Vec<&Cq> = base.ucq.disjuncts.iter().take(8).collect();
        let forms: Vec<Option<_>> = sample.iter().map(|d| cq_canonical_form(d, 5_040)).collect();
        for i in 0..sample.len() {
            for j in i + 1..sample.len() {
                if let (Some(fi), Some(fj)) = (&forms[i], &forms[j]) {
                    assert_eq!(
                        fi == fj,
                        cq_isomorphic(sample[i], sample[j]),
                        "case {case_no}: canonical form vs isomorphism mismatch\n{:?}\n{:?}",
                        sample[i],
                        sample[j]
                    );
                }
            }
        }
    }

    assert!(ran[LINEAR] >= 60, "too few linear cases: {}", ran[LINEAR]);
    assert!(
        ran[NONRECURSIVE] >= 60,
        "too few non-recursive cases: {}",
        ran[NONRECURSIVE]
    );
    assert!(ran[STICKY] >= 30, "too few sticky cases: {}", ran[STICKY]);
    assert!(
        budget_skips <= CASES as usize / 10,
        "too many budget skips: {budget_skips}"
    );
    // Sticky-shaped generation should mostly pass the marking test.
    assert!(
        nonsticky_skips <= 40,
        "sticky generator too lossy: {nonsticky_skips}"
    );
}

const ORACLE_CASES: u64 = 300;
/// Chase steps per database in the oracle sweep. Non-recursive chases
/// always finish; a linear or sticky chase that needs more steps is
/// skipped (and counted).
const ORACLE_CHASE_STEPS: usize = 2_000;

/// The chase oracle: on random databases, the UCQ rewriting evaluated over
/// the database gives exactly the certain answers computed by chasing it.
/// Covers every non-recursive case (whose chase terminates) and every
/// linear or sticky case whose chase completes within
/// [`ORACLE_CHASE_STEPS`]; skipped cases are counted and a minimum number
/// of compared cases per class is enforced.
#[test]
fn rewriting_agrees_with_chase_oracle() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_c4a5_e0ac_1e03);
    let mut compared = [0usize; 3];
    let mut chase_skips = [0usize; 3];
    let mut budget_skips = 0usize;
    let mut nonsticky_skips = 0usize;

    for case_no in 0..ORACLE_CASES {
        let shape = (case_no % 3) as usize;
        let case = gen_case(&mut rng, shape);
        if shape == STICKY && !is_sticky(&case.omq.sigma) {
            nonsticky_skips += 1;
            continue;
        }
        let cfg = XRewriteConfig {
            max_queries: MAX_QUERIES,
            threads: 1,
            ..Default::default()
        };
        let out = match run(&case, &cfg) {
            Ok(out) => out,
            Err(RewriteError::BudgetExceeded(..)) => {
                budget_skips += 1;
                continue;
            }
        };
        let mut any_compared = false;
        for _ in 0..4 {
            let db = gen_db(&mut rng, &case);
            let mut voc = case.voc.clone();
            let chased = certain_answers_via_chase(
                &case.omq,
                &db,
                &mut voc,
                &ChaseConfig::with_steps(ORACLE_CHASE_STEPS),
            );
            let expected = match chased {
                Ok(answers) => answers,
                Err(EvalError::ChaseIncomplete { .. }) => {
                    assert_ne!(
                        shape, NONRECURSIVE,
                        "case {case_no}: a non-recursive chase must terminate"
                    );
                    continue;
                }
                Err(e) => panic!("case {case_no}: {e}"),
            };
            assert_eq!(
                eval_ucq(&out.ucq, &db),
                expected,
                "case {case_no}: rewriting and chase disagree on {db:?}\nrewriting: {:?}",
                out.ucq
            );
            any_compared = true;
        }
        if any_compared {
            compared[shape] += 1;
        } else {
            chase_skips[shape] += 1;
        }
    }

    eprintln!(
        "chase oracle: compared L/NR/S = {compared:?}, chase skips = {chase_skips:?}, \
         budget skips = {budget_skips}, non-sticky skips = {nonsticky_skips}"
    );
    assert_eq!(
        chase_skips[NONRECURSIVE], 0,
        "every non-recursive case is compared"
    );
    assert!(
        compared[NONRECURSIVE] >= 80,
        "too few non-recursive cases compared: {}",
        compared[NONRECURSIVE]
    );
    assert!(
        compared[LINEAR] >= 50,
        "too few linear cases compared: {} (chase skips {})",
        compared[LINEAR],
        chase_skips[LINEAR]
    );
    assert!(
        compared[STICKY] >= 30,
        "too few sticky cases compared: {} (chase skips {})",
        compared[STICKY],
        chase_skips[STICKY]
    );
    assert!(
        budget_skips <= ORACLE_CASES as usize / 10,
        "too many budget skips: {budget_skips}"
    );
    assert!(
        nonsticky_skips <= 60,
        "sticky generator too lossy: {nonsticky_skips}"
    );
}
