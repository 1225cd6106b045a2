//! Property test for the compiled homomorphism kernel: on randomized
//! CQs/instances, plan execution (through the legacy `for_each_hom` /
//! `for_each_hom_with_delta` wrappers, which compile a plan per call) must
//! agree with the pre-refactor backtracking search kept verbatim in
//! `omq_chase::hom::reference` — same existence verdict, same full
//! enumeration, in the same order, with the same work counters.

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::Arc;

use omq_chase::hom::{reference, REOPT_FACTOR, REOPT_FLOOR};
use omq_chase::{
    for_each_hom, for_each_hom_with_delta, Assignment, HomStats, HomView, JoinPlan, PlanCache,
};
use omq_model::rng::SplitMix64;
use omq_model::{Atom, ConstId, Instance, PredId, Term, VarId};

const CASES: usize = 400;

/// One random schema: predicate arities, indexable by `PredId`.
fn gen_arities(rng: &mut SplitMix64) -> Vec<usize> {
    (0..rng.range(1..4)).map(|_| rng.range(1..4)).collect()
}

fn gen_instance(rng: &mut SplitMix64, arities: &[usize]) -> Instance {
    let mut inst = Instance::new();
    for _ in 0..rng.range(0..14) {
        let p = rng.below(arities.len());
        let args = (0..arities[p])
            .map(|_| Term::Const(ConstId(rng.below(5) as u32)))
            .collect();
        inst.insert(Atom::new(PredId(p as u32), args));
    }
    inst
}

fn gen_body(rng: &mut SplitMix64, arities: &[usize]) -> Vec<Atom> {
    (0..rng.range(1..6))
        .map(|_| {
            let p = rng.below(arities.len());
            let args = (0..arities[p])
                .map(|_| {
                    if rng.chance(3, 4) {
                        Term::Var(VarId(rng.below(4) as u32))
                    } else {
                        Term::Const(ConstId(rng.below(5) as u32))
                    }
                })
                .collect();
            Atom::new(PredId(p as u32), args)
        })
        .collect()
}

/// A random partial seed over the body's variables.
fn gen_seed(rng: &mut SplitMix64, body: &[Atom]) -> Assignment {
    let mut vars: Vec<VarId> = body.iter().flat_map(|a| a.vars()).collect();
    vars.sort_unstable();
    vars.dedup();
    let mut seed = Assignment::new();
    for v in vars {
        if rng.chance(1, 4) {
            seed.insert(v, Term::Const(ConstId(rng.below(5) as u32)));
        }
    }
    seed
}

/// Materializes an assignment as a sorted pair list for comparison.
fn canon(h: &Assignment) -> Vec<(VarId, Term)> {
    let mut v: Vec<(VarId, Term)> = h.iter().map(|(&k, &t)| (k, t)).collect();
    v.sort_unstable();
    v
}

#[test]
fn compiled_plans_agree_with_reference_kernel() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0000_c0de_0004);
    let mut nonempty = 0usize;
    let mut delta_runs = 0usize;
    for case in 0..CASES {
        let arities = gen_arities(&mut rng);
        let inst = gen_instance(&mut rng, &arities);
        let body = gen_body(&mut rng, &arities);
        let seed = gen_seed(&mut rng, &body);

        // Full enumeration, in order.
        let mut got: Vec<Vec<(VarId, Term)>> = Vec::new();
        let _ = for_each_hom(&body, &inst, &seed, |h| {
            got.push(canon(h));
            ControlFlow::<()>::Continue(())
        });
        let mut want: Vec<Vec<(VarId, Term)>> = Vec::new();
        let _ = reference::for_each_hom(&body, &inst, &seed, |h| {
            want.push(canon(h));
            ControlFlow::<()>::Continue(())
        });
        assert_eq!(got, want, "case {case}: enumeration diverged");
        if !got.is_empty() {
            nonempty += 1;
        }

        // Existence (first-hit short circuit) must agree with enumeration.
        let found = omq_chase::find_hom(&body, &inst, &seed).is_some();
        assert_eq!(found, !want.is_empty(), "case {case}: existence diverged");

        // Delta-restricted enumeration: same homs, same order, same
        // candidates/backtracks counters as the reference pivot loop.
        let delta_start = rng.below(inst.len() + 2);
        let mut got_d: Vec<Vec<(VarId, Term)>> = Vec::new();
        let mut stats_d = HomStats::default();
        let _ = for_each_hom_with_delta(&body, &inst, &seed, delta_start, &mut stats_d, |h| {
            got_d.push(canon(h));
            ControlFlow::<()>::Continue(())
        });
        let mut want_d: Vec<Vec<(VarId, Term)>> = Vec::new();
        let mut stats_r = HomStats::default();
        let _ = reference::for_each_hom_with_delta(
            &body,
            &inst,
            &seed,
            delta_start,
            &mut stats_r,
            |h| {
                want_d.push(canon(h));
                ControlFlow::<()>::Continue(())
            },
        );
        assert_eq!(got_d, want_d, "case {case}: delta enumeration diverged");
        assert_eq!(
            (stats_d.candidates_scanned, stats_d.backtracks),
            (stats_r.candidates_scanned, stats_r.backtracks),
            "case {case}: delta work counters diverged"
        );
        if !got_d.is_empty() {
            delta_runs += 1;
        }

        // The delta homs are exactly the full homs that touch the delta:
        // sanity-check subset-ness against the full enumeration.
        let full: HashMap<Vec<(VarId, Term)>, usize> =
            want.iter().cloned().map(|h| (h, 0)).collect();
        for h in &got_d {
            assert!(
                delta_start == 0 || full.contains_key(h),
                "case {case}: delta hom not among full homs"
            );
        }
    }
    // The generator must actually exercise the kernel, not just vacuous
    // empty matches.
    assert!(nonempty >= CASES / 10, "only {nonempty} non-empty cases");
    assert!(delta_runs >= CASES / 20, "only {delta_runs} delta matches");
}

// ---------------------------------------------------------------------------
// Cost-model fixtures (adaptive planner): on skewed, empty, and single-fact
// predicate shapes the costed order must never scan more candidates than the
// statically pinned greedy order, while enumerating the same answer set.
// ---------------------------------------------------------------------------

fn unary(p: u32, c: u32) -> Atom {
    Atom::new(PredId(p), vec![Term::Const(ConstId(c))])
}

/// A complete hom rendered as a sorted `(var, value)` list via the plan's
/// slot layout (comparable across plans with different join orders).
fn canon_view(plan: &JoinPlan, h: &HomView) -> Vec<(VarId, Term)> {
    let mut v: Vec<(VarId, Term)> = plan
        .slots()
        .iter()
        .enumerate()
        .map(|(s, &var)| (var, h.slot(s).expect("complete hom binds all slots")))
        .collect();
    v.sort_unstable();
    v
}

/// Runs an unseeded `plan`, returning the sorted answer set and the
/// candidates-scanned counter.
fn run_plan(plan: &JoinPlan, inst: &Instance) -> (Vec<Vec<(VarId, Term)>>, u64) {
    let mut stats = HomStats::default();
    let mut homs = Vec::new();
    let _ = plan.execute(inst, &[], None, &mut stats, |h| {
        homs.push(canon_view(plan, h));
        ControlFlow::<()>::Continue(())
    });
    homs.sort();
    (homs, stats.candidates_scanned)
}

/// Compiles `body` both ways, checks answer-set equality and the
/// no-more-candidates invariant, and returns `(costed, greedy)` scan counts
/// so fixtures can additionally assert a strict win.
fn assert_costed_no_worse(body: &[Atom], inst: &Instance) -> (u64, u64) {
    let mut stats = HomStats::default();
    let greedy = JoinPlan::compile(body, &[], None, &mut stats);
    let costed = JoinPlan::compile_costed(body, &[], None, &inst.card_sketch(), &mut stats);
    let (homs_g, cands_g) = run_plan(&greedy, inst);
    let (homs_c, cands_c) = run_plan(&costed, inst);
    assert_eq!(homs_c, homs_g, "costed plan changed the answer set");
    assert!(
        cands_c <= cands_g,
        "costed plan scanned more candidates ({cands_c}) than greedy ({cands_g})"
    );
    (cands_c, cands_g)
}

#[test]
fn costed_order_beats_greedy_on_skewed_sizes() {
    let (big, small) = (0u32, 1u32);
    let mut inst = Instance::new();
    for c in 0..400 {
        inst.insert(unary(big, c));
    }
    inst.insert(unary(small, 0));
    inst.insert(unary(small, 1));
    let x = Term::Var(VarId(0));
    let body = vec![
        Atom::new(PredId(big), vec![x]),
        Atom::new(PredId(small), vec![x]),
    ];
    // Greedy ties on (bound, unbound) counts and keeps atom order — Big
    // first, ~400 scans. The sketch starts from Small's 2 rows instead.
    let (c, g) = assert_costed_no_worse(&body, &inst);
    assert!(
        c < g,
        "skewed fixture should reward the costed order ({c} vs {g})"
    );
}

#[test]
fn costed_order_starts_at_empty_predicates() {
    let (big, empty) = (0u32, 1u32);
    let mut inst = Instance::new();
    for c in 0..400 {
        inst.insert(unary(big, c));
    }
    let (x, y) = (Term::Var(VarId(0)), Term::Var(VarId(1)));
    let body = vec![
        Atom::new(PredId(big), vec![x]),
        Atom::new(PredId(empty), vec![x, y]),
    ];
    // Greedy prefers Big (one unbound var vs two); the sketch knows the
    // binary predicate has no rows and proves emptiness without a scan.
    let (c, g) = assert_costed_no_worse(&body, &inst);
    assert_eq!(
        c, 0,
        "empty-predicate body should scan nothing under the costed order"
    );
    assert!(g > 0, "greedy order should pay for the skew (got {g})");
}

#[test]
fn costed_order_pins_single_fact_predicates_first() {
    let (a, b) = (0u32, 1u32);
    let mut inst = Instance::new();
    let (x, y) = (Term::Var(VarId(0)), Term::Var(VarId(1)));
    inst.insert(Atom::new(
        PredId(a),
        vec![Term::Const(ConstId(0)), Term::Const(ConstId(1))],
    ));
    for c in 0..300 {
        inst.insert(unary(b, c));
    }
    let body = vec![
        Atom::new(PredId(a), vec![x, y]),
        Atom::new(PredId(b), vec![y]),
    ];
    // Greedy starts at B (fewer unbound vars) and scans all 300 rows; the
    // sketch starts at the single A fact and probes B bound on y.
    let (c, g) = assert_costed_no_worse(&body, &inst);
    assert!(
        c < g,
        "single-fact fixture should reward the costed order ({c} vs {g})"
    );
}

/// Randomized sweep: the costed order is a pure reordering — on arbitrary
/// bodies, instances, and partial seeds it must enumerate exactly the
/// reference kernel's answer set (order may differ, membership may not).
#[test]
fn costed_plans_agree_with_reference_on_random_cases() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0000_c0de_0005);
    let mut nonempty = 0usize;
    for case in 0..200 {
        let arities = gen_arities(&mut rng);
        let inst = gen_instance(&mut rng, &arities);
        let body = gen_body(&mut rng, &arities);
        let seed = gen_seed(&mut rng, &body);

        let seeded: Vec<VarId> = seed.keys().copied().collect();
        let mut stats = HomStats::default();
        let plan = JoinPlan::compile_costed(&body, &seeded, None, &inst.card_sketch(), &mut stats);
        let pairs: Vec<(VarId, Term)> = seed.iter().map(|(&v, &t)| (v, t)).collect();
        let seed_vals = plan
            .seed_values(&pairs)
            .expect("distinct vars cannot conflict");
        let mut got: Vec<Vec<(VarId, Term)>> = Vec::new();
        let _ = plan.execute(&inst, &seed_vals, None, &mut stats, |h| {
            got.push(canon_view(&plan, h));
            ControlFlow::<()>::Continue(())
        });
        got.sort();

        let mut want: Vec<Vec<(VarId, Term)>> = Vec::new();
        let _ = reference::for_each_hom(&body, &inst, &seed, |h| {
            want.push(canon(h));
            ControlFlow::<()>::Continue(())
        });
        want.sort();
        assert_eq!(got, want, "case {case}: costed answer set diverged");
        if !got.is_empty() {
            nonempty += 1;
        }
    }
    assert!(nonempty >= 20, "only {nonempty} non-empty costed cases");
}

/// Re-optimization is a pure function of instance content and call order:
/// the same grow-then-probe sequence must produce the same replan decision,
/// the same estimate-quality buckets, and the same cache-hit counts on
/// every run.
#[test]
fn reoptimization_decision_is_deterministic() {
    let run = || {
        let x = Term::Var(VarId(0));
        let body = vec![Atom::new(PredId(0), vec![x])];
        let mut inst = Instance::new();
        inst.insert(unary(0, 0));

        let mut cache = PlanCache::new();
        let mut stats = HomStats::default();
        let plan = cache.get_or_compile_costed(&body, &[], None, &inst, &mut stats);
        assert_eq!(
            plan.predicted_cost(),
            Some(1),
            "one row, one predicted scan"
        );

        // Grow the relation far past the divergence allowance
        // (REOPT_FACTOR * REOPT_FLOOR candidates per execution).
        for c in 1..=(REOPT_FACTOR * REOPT_FLOOR * 2) as u32 {
            inst.insert(unary(0, c));
        }
        let mut exec = HomStats::default();
        let _ = plan.execute(&inst, &[], None, &mut exec, |_| {
            ControlFlow::<()>::Continue(())
        });
        cache.note_execution(&plan, exec.candidates_scanned, &mut stats);
        assert!(
            exec.candidates_scanned > REOPT_FACTOR * REOPT_FLOOR,
            "fixture must actually diverge"
        );

        // The next fetch sees observed >> predicted and replans against the
        // current sketch; the refreshed prediction matches the new reality.
        let replanned = cache.get_or_compile_costed(&body, &[], None, &inst, &mut stats);
        assert_eq!(
            stats.plans_reoptimized, 1,
            "divergence triggers exactly one replan"
        );
        assert!(
            !Arc::ptr_eq(&plan, &replanned),
            "replan produces a fresh plan"
        );
        assert_eq!(replanned.predicted_cost(), Some(exec.candidates_scanned));

        // With the prediction refreshed, the same workload no longer
        // diverges: the following fetch is a plain cache hit.
        let mut exec2 = HomStats::default();
        let _ = replanned.execute(&inst, &[], None, &mut exec2, |_| {
            ControlFlow::<()>::Continue(())
        });
        cache.note_execution(&replanned, exec2.candidates_scanned, &mut stats);
        let again = cache.get_or_compile_costed(&body, &[], None, &inst, &mut stats);
        assert!(Arc::ptr_eq(&replanned, &again), "refreshed plan is stable");
        assert_eq!(stats.plans_reoptimized, 1);
        assert_eq!(stats.plans_compiled, 2, "the replan counts as a compile");

        (
            stats.plans_reoptimized,
            stats.est_ratio_le_1,
            stats.est_ratio_le_4,
            stats.est_ratio_gt_4,
            stats.plan_cache_hits,
            stats.plans_compiled,
        )
    };
    assert_eq!(
        run(),
        run(),
        "same data must produce the same replan decision"
    );
}
