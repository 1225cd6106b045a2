//! E5 — Table 1, small-font rows: evaluation per language, on the same
//! workload families as the containment benches, to exhibit the paper's
//! claim that containment is at least as hard as evaluation (cf. Prop. 5).

use criterion::{criterion_group, criterion_main, Criterion};

use omq_bench::workloads::{
    guarded_seed_db, guarded_workload, linear_workload, nr_workload, random_db, sticky_workload,
};
use omq_chase::{Cap, Guarantee};
use omq_core::{evaluate, EvalConfig};

fn eval_per_language(c: &mut Criterion) {
    let mut g = c.benchmark_group("E5/eval_by_language");
    g.sample_size(10);

    let (lin, mut voc_l) = linear_workload(4, 2);
    let db_l = random_db(&lin, &mut voc_l, 50, 8, 1);
    g.bench_function("linear/|D|=50", |b| {
        b.iter(|| {
            let mut voc = voc_l.clone();
            let out = evaluate(&lin, &db_l, &mut voc, &EvalConfig::default());
            assert_eq!(out.guarantee, Guarantee::Exact);
        })
    });

    let (nr, mut voc_n) = nr_workload(3);
    let db_n = random_db(&nr, &mut voc_n, 40, 10, 2);
    g.bench_function("non-recursive/|D|=40", |b| {
        b.iter(|| {
            let mut voc = voc_n.clone();
            let out = evaluate(&nr, &db_n, &mut voc, &EvalConfig::default());
            assert_eq!(out.guarantee, Guarantee::Exact);
        })
    });

    let (st, mut voc_s) = sticky_workload(2);
    let db_s = random_db(&st, &mut voc_s, 30, 4, 3);
    g.bench_function("sticky-counter/|D|=30", |b| {
        b.iter(|| {
            let mut voc = voc_s.clone();
            let out = evaluate(&st, &db_s, &mut voc, &EvalConfig::default());
            assert_eq!(out.guarantee, Guarantee::Exact);
        })
    });

    let (gu, mut voc_g) = guarded_workload(2);
    let db_g = guarded_seed_db(&mut voc_g);
    g.bench_function("guarded/chain-seed", |b| {
        b.iter(|| {
            let mut voc = voc_g.clone();
            let out = evaluate(&gu, &db_g, &mut voc, &EvalConfig::default());
            assert!(matches!(
                out.guarantee,
                Guarantee::Exact | Guarantee::Capped(Cap::Window)
            ));
        })
    });

    g.finish();
}

criterion_group!(benches, eval_per_language);
criterion_main!(benches);
