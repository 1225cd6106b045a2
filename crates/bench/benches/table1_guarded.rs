//! E4 — Table 1, row "Guarded": evaluation is 2EXPTIME-complete in
//! combined complexity but the engine's cost is driven by the
//! stabilization depth (≈ query size); the anytime containment path should
//! refute quickly (first witness) and spend its budget otherwise.

use criterion::{criterion_group, criterion_main, Criterion};

use omq_bench::workloads::{guarded_seed_db, guarded_workload};
use omq_chase::{Cap, Guarantee};
use omq_core::{contains, ContainmentConfig};
use omq_guarded::{guarded_certain_answers, GuardedConfig};
use omq_model::{Atom, Cq, Omq, Term, Ucq};

fn guarded_eval_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("E4/eval_guarded_qlen");
    g.sample_size(10);
    for qlen in [1usize, 2, 3, 4] {
        let (q, mut voc0) = guarded_workload(qlen);
        let db = guarded_seed_db(&mut voc0);
        g.bench_function(format!("qlen={qlen}"), |b| {
            b.iter(|| {
                let mut voc = voc0.clone();
                let out = guarded_certain_answers(&q, &db, &mut voc, &GuardedConfig::default());
                assert!(matches!(
                    out.guarantee,
                    Guarantee::Exact | Guarantee::Capped(Cap::Window)
                ));
                assert!(!out.answers.is_empty());
            })
        });
    }
    g.finish();
}

fn guarded_containment_refutation(c: &mut Criterion) {
    let mut g = c.benchmark_group("E4/cont_guarded_refute");
    g.sample_size(10);
    for qlen in [1usize, 2] {
        let (q1, voc) = guarded_workload(qlen);
        g.bench_function(format!("qlen={qlen}"), |b| {
            b.iter(|| {
                let mut voc = voc.clone();
                // RHS asks for an R-cycle, which no tree-shaped witness of
                // q1 provides: refuted by the first frozen disjunct.
                let r = voc.pred_id("R").unwrap();
                let (x, y) = (voc.var("Cx"), voc.var("Cy"));
                let q2 = Omq::new(
                    q1.data_schema.clone(),
                    q1.sigma.clone(),
                    Ucq::from_cq(Cq::boolean(vec![
                        Atom::new(r, vec![Term::Var(x), Term::Var(y)]),
                        Atom::new(r, vec![Term::Var(y), Term::Var(x)]),
                    ])),
                );
                let out = contains(&q1, &q2, &mut voc, &ContainmentConfig::default()).unwrap();
                assert!(out.result.is_not_contained());
            })
        });
    }
    g.finish();
}

criterion_group!(benches, guarded_eval_depth, guarded_containment_refutation);
criterion_main!(benches);
