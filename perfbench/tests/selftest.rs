//! Harness self-tests: determinism of the request stream, the percentile
//! guard, the verdict oracle, layer reconciliation and host-speed
//! calibration.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use omq_core::{contains_with, ContainmentConfig, ContainmentResult};
use omq_perfbench::gen::{self, stream_bytes, Op, Verdict};
use omq_perfbench::stats::{percentile, Reconciliation, MIN_BEYOND};
use omq_perfbench::trace::{self, SocketFigures};
use omq_rewrite::DirectRewrite;
use omq_serve::Registry;

#[test]
fn same_seed_gives_a_byte_identical_request_stream() {
    let pairs = [
        (
            gen::contains_cold(7, 40, 2),
            gen::contains_cold(7, 40, 2),
            gen::contains_cold(8, 40, 2),
        ),
        (
            gen::contains_hot(7, 8, 20),
            gen::contains_hot(7, 8, 20),
            gen::contains_hot(8, 8, 20),
        ),
        (
            gen::store_churn(7, 30),
            gen::store_churn(7, 30),
            gen::store_churn(8, 30),
        ),
    ];
    for (a, b, c) in &pairs {
        assert_eq!(
            stream_bytes(a),
            stream_bytes(b),
            "{}: same seed, different bytes",
            a.name
        );
        assert_ne!(
            stream_bytes(a),
            stream_bytes(c),
            "{}: seed has no effect",
            a.name
        );
    }
}

#[test]
fn percentile_refuses_thin_tails() {
    let v: Vec<f64> = (1..=99).map(f64::from).collect();
    assert!(
        percentile(&v, 90.0).is_err(),
        "99 samples leave 9 beyond p90"
    );
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 90.0), Ok(90.0));
    assert_eq!(percentile(&v, 50.0), Ok(50.0));
    let v: Vec<f64> = (1..=2 * MIN_BEYOND - 1).map(|x| x as f64).collect();
    assert!(percentile(&v, 50.0).is_err());
    let v: Vec<f64> = (1..=2 * MIN_BEYOND).map(|x| x as f64).collect();
    assert!(percentile(&v, 50.0).is_ok());
    assert!(percentile(&[], 50.0).is_err());
}

#[test]
fn reconciliation_sums_to_the_total() {
    let r = Reconciliation::new(
        7.25,
        vec![("a".into(), 1.5), ("b".into(), 4.0), ("c".into(), 0.5)],
    );
    assert!((r.unattributed - 1.25).abs() < 1e-12);
    assert!((r.sum() - 7.25).abs() < 1e-12);
    let over = Reconciliation::new(1.0, vec![("a".into(), 1.5)]);
    assert!(
        over.unattributed < 0.0,
        "double counting shows as a negative residual"
    );
}

/// Every question's verdict, known by construction, is what the solver
/// decides (the hot warm-up asks every question of its groups once).
#[test]
fn oracle_verdicts_match_contains_with() {
    let w = gen::contains_hot(3, 8, 1);
    let mut reg = Registry::new();
    for o in &w.omqs {
        let schema: Vec<&str> = o.schema.iter().map(String::as_str).collect();
        reg.register(&o.name, &o.program, &schema, "q").unwrap();
    }
    let cfg = ContainmentConfig::default();
    let mut seen = std::collections::HashSet::new();
    for op in w.warmup.iter().flat_map(|u| &u.ops) {
        let Op::Contains {
            lhs,
            rhs,
            family,
            expect,
        } = op
        else {
            panic!("the warm-up sends only contains");
        };
        let (l, r) = (reg.get(lhs).unwrap(), reg.get(rhs).unwrap());
        let mut voc = reg.vocabulary().clone();
        let out = contains_with(&l.omq, &r.omq, &mut voc, &cfg, &mut DirectRewrite).unwrap();
        let got = match out.result {
            ContainmentResult::Contained => Verdict::Contained,
            ContainmentResult::NotContained(_) => Verdict::NotContained,
            ContainmentResult::Unknown(why) => panic!("{lhs} ⊑ {rhs}: unknown ({why})"),
        };
        assert_eq!(got, *expect, "{family}: {lhs} ⊑ {rhs}");
        seen.insert(*family);
    }
    assert_eq!(seen.len(), 4, "all four families asked");
    assert_eq!(
        w.warmup.iter().map(|u| u.ops.len()).sum::<usize>(),
        2 * (12 + 12 + 6 + 4)
    );
}

fn layer_sum_matches(traced: &trace::Traced) {
    let rec = &traced.reconciliation;
    assert!((rec.sum() - rec.total).abs() < 1e-9);
    let metric = |name: &str| {
        traced
            .metrics
            .iter()
            .find(|(n, ..)| n == name)
            .unwrap_or_else(|| panic!("missing {name}"))
            .1
    };
    assert_eq!(metric("traced_total_ms_per_req"), rec.total);
    assert_eq!(metric("unattributed_ms_per_req"), rec.unattributed);
    assert!((metric("serve.reactor.frontend_us_per_req") / 1e3 - rec.layers[0].1).abs() < 1e-9);
}

/// The traced layers plus `unattributed` add up to the traced total, on
/// both a solver workload and the store workload.
#[test]
fn traced_layers_reconcile() {
    let socket = SocketFigures {
        requests: 20,
        round_trip_s: 0.2,
        server_us: 150_000.0,
        ..SocketFigures::default()
    };
    let cold = trace::run(&gen::contains_cold(5, 8, 2), &socket).unwrap();
    layer_sum_matches(&cold);
    let churn = trace::run(&gen::store_churn(5, 12), &socket).unwrap();
    layer_sum_matches(&churn);
}

#[test]
fn calibration_scales_by_the_nearby_kernel_time() {
    use omq_perfbench::calib::{Calibrator, Sample, REF_MIX_S};
    // Kernels after every piece: at reference speed for the first 20
    // pieces, then twice as slow.
    let mut cal = Calibrator::new(false);
    cal.samples = (0..=40)
        .map(|after| Sample {
            after,
            kernel_s: REF_MIX_S * if after < 20 { 1.0 } else { 2.0 },
        })
        .collect();
    assert_eq!(cal.factor(0), 1.0);
    assert_eq!(cal.factor(39), 0.5);
    assert_eq!(cal.scale(&[2.0, 2.0])[1], 2.0);
    // A lone slow kernel among fast ones does not move the factor.
    cal.samples[5].kernel_s = REF_MIX_S * 9.0;
    assert_eq!(cal.factor(5), 1.0);
    // Sparse kernels: a piece between two samples takes both sides.
    cal.samples = vec![
        Sample {
            after: 0,
            kernel_s: REF_MIX_S,
        },
        Sample {
            after: 10,
            kernel_s: REF_MIX_S * 3.0,
        },
    ];
    assert_eq!(cal.factor(4), 0.5);
}
