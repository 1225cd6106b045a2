//! `HomStats` is the one record of homomorphism-kernel work: every event a
//! solver counts into its returned stats is mirrored, by the same
//! statement, into the process-global counters behind
//! `global_hom_snapshot()`. So around a single-threaded solver call the
//! global delta must equal the returned `stats.hom`, field by field.
//!
//! One `#[test]` in a file of its own: a concurrent test in the same binary
//! would move the globals between the two snapshots.

use omq_bench::workloads::{
    guarded_seed_db, guarded_workload, linear_workload, nr_workload, random_db,
};
use omq_chase::{chase, cq_contained_stats, global_hom_snapshot, ChaseConfig, HomStats};
use omq_core::{contains_with, ContainmentConfig};
use omq_model::{parse_query, Omq, Vocabulary};
use omq_rewrite::{xrewrite, RewriteArtifact, RewriteSource, XRewriteConfig};

/// Replays one rewriting computed before the bracket, as a warm rewrite
/// cache does: the containment sweep is then the only kernel work.
struct Replay(Omq, RewriteArtifact);

impl RewriteSource for Replay {
    fn rewrite(&mut self, omq: &Omq, _: &mut Vocabulary, _: &XRewriteConfig) -> RewriteArtifact {
        assert!(omq == &self.0, "only the replayed OMQ is asked for");
        self.1.clone()
    }
}

/// Runs `f`, returning the kernel record it reports and the global delta
/// around it.
fn bracket(f: impl FnOnce() -> HomStats) -> (HomStats, HomStats) {
    let before = global_hom_snapshot();
    let reported = f();
    (reported, global_hom_snapshot().since(&before))
}

/// Field by field, the sketch timing included: both sides are fed the same
/// recorded value.
fn assert_mirrored(label: &str, (reported, global): (HomStats, HomStats)) -> HomStats {
    assert_eq!(
        reported, global,
        "{label}: returned stats.hom vs global delta"
    );
    reported
}

#[test]
fn global_delta_equals_returned_hom_stats() {
    let (e1, voc) = linear_workload(32, 3);
    let e1_chase = assert_mirrored(
        "chase E1 chain=32",
        bracket(|| {
            let mut voc = voc.clone();
            let db = random_db(&e1, &mut voc, 12, 4, 7);
            chase(&db, &e1.sigma, &mut voc, &ChaseConfig::with_depth(3))
                .stats
                .hom
        }),
    );
    assert!(e1_chase.candidates_scanned > 0 && e1_chase.homs_found > 0);
    assert!(e1_chase.plans_compiled > 0 && e1_chase.plan_cache_hits > 0);

    let (e4, voc) = guarded_workload(2);
    let e4_chase = assert_mirrored(
        "chase E4",
        bracket(|| {
            let mut voc = voc.clone();
            let db = guarded_seed_db(&mut voc);
            chase(&db, &e4.sigma, &mut voc, &ChaseConfig::with_depth(6))
                .stats
                .hom
        }),
    );
    assert!(e4_chase.homs_found > 0);

    let single = XRewriteConfig {
        threads: 1,
        ..XRewriteConfig::default()
    };
    let (e3, voc) = nr_workload(3);
    assert_mirrored(
        "xrewrite E3 nr strata=3",
        bracket(|| xrewrite(&e3, &mut voc.clone(), &single).unwrap().stats.hom),
    );
    // A rewriting with several output disjuncts, so the sieve's probes scan
    // candidates and find subsumption homomorphisms.
    let (e1, voc) = linear_workload(32, 3);
    let sieve = assert_mirrored(
        "xrewrite E1 chain=32",
        bracket(|| xrewrite(&e1, &mut voc.clone(), &single).unwrap().stats.hom),
    );
    assert!(sieve.candidates_scanned > 0 && sieve.prefilter_rejects + sieve.homs_found > 0);

    let mut voc = Vocabulary::new();
    let (_, path) = parse_query(&mut voc, "q(X) :- R(X,Y), R(Y,Z)").unwrap();
    let (_, edge) = parse_query(&mut voc, "q(X) :- R(X,Y)").unwrap();
    let (_, other) = parse_query(&mut voc, "q(X) :- S(X,Y)").unwrap();
    let contained = assert_mirrored(
        "cq_contained_stats",
        bracket(|| {
            let mut stats = HomStats::default();
            assert!(cq_contained_stats(&path, &edge, &mut stats));
            assert!(!cq_contained_stats(&edge, &path, &mut stats));
            assert!(!cq_contained_stats(&path, &other, &mut stats));
            stats
        }),
    );
    assert_eq!(contained.prefilter_rejects, 1);
    assert_eq!(contained.plans_compiled, 2);
    assert!(contained.homs_found >= 1);

    // The containment sweep: compiling the right-hand probes and probing
    // every frozen disjunct, on one worker and merged across two.
    let (e1, mut voc) = linear_workload(32, 3);
    let cfg = ContainmentConfig::default();
    let art = RewriteArtifact::from_result(xrewrite(&e1, &mut voc, &cfg.rewrite));
    for threads in [1, 2] {
        let cfg = ContainmentConfig {
            threads,
            ..ContainmentConfig::default()
        };
        let mut src = Replay(e1.clone(), art.clone());
        let sweep = assert_mirrored(
            &format!("contains_with E1 chain=32 threads={threads}"),
            bracket(|| {
                let outcome = contains_with(&e1, &e1, &mut voc.clone(), &cfg, &mut src).unwrap();
                assert!(outcome.result.is_contained());
                assert_eq!(outcome.witnesses_checked, art.ucq.disjuncts.len());
                outcome.hom
            }),
        );
        assert_eq!(sweep.plans_compiled as usize, art.ucq.disjuncts.len());
        assert!(sweep.candidates_scanned > 0 && sweep.homs_found > 0);
    }
}
