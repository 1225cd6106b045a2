//! Glue between the benchmark binaries and `omq-obs`: run one instrumented
//! pass of a workload and render the resulting per-phase breakdown as extra
//! BENCH-row JSON fields.
//!
//! The benchmark protocol is: *time untraced, then trace once*. Wall-clock
//! columns come from best-of-N runs with no recorder installed (so they
//! measure the passive overhead configuration the <5% regression bound is
//! stated for), and the phase columns come from a single separate pass under
//! an [`Aggregator`] recorder. Phase totals are therefore from a different
//! run than `wall_ms` — comparable in *shares*, not as absolute times (see
//! scripts/bench_diff.py).

use std::sync::Arc;

use omq_obs::{Aggregator, Recorder, Sink};

/// Runs `f` once under a fresh recorder and returns its result plus the
/// aggregated phases. `extra` sinks (e.g. a sweep-wide aggregator) see the
/// same events.
pub fn instrumented_pass<T>(
    extra: &[Arc<dyn Sink>],
    f: impl FnOnce() -> T,
) -> (T, Arc<Aggregator>) {
    let agg = Arc::new(Aggregator::new());
    let mut sinks: Vec<Arc<dyn Sink>> = vec![agg.clone()];
    sinks.extend(extra.iter().cloned());
    let _g = omq_obs::install(Some(Recorder::new(sinks)));
    let out = f();
    (out, agg)
}

/// Renders an aggregator's phases as `, "phase_<name>_us": T,
/// "phase_<name>_p50_us": M, "phase_<name>_p99_us": N` fields (dots in span
/// names become underscores), ready to splice into a hand-formatted BENCH
/// row. Empty when nothing was recorded.
pub fn phase_fields(agg: &Aggregator) -> String {
    agg.phases()
        .iter()
        .map(|p| {
            let key = p.name.replace('.', "_");
            format!(
                ", \"phase_{key}_us\": {}, \"phase_{key}_p50_us\": {}, \"phase_{key}_p99_us\": {}",
                p.total_ns / 1_000,
                p.p50_us,
                p.p99_us
            )
        })
        .collect()
}

/// Renders an aggregator's counters as `, "ctr_<name>": v` fields (dots in
/// counter names become underscores). Counters are deterministic per
/// workload, so scripts/bench_diff.py treats these columns as semantics,
/// not noise. Empty when nothing was recorded.
pub fn counter_fields(agg: &Aggregator) -> String {
    let mut counters = agg.counters();
    counters.sort();
    counters
        .iter()
        .map(|(name, v)| {
            let key = name.replace('.', "_");
            format!(", \"ctr_{key}\": {v}")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_fields_render_sorted_and_sanitized() {
        let agg = Aggregator::new();
        for (name, dur_us) in [("chase.round", 50), ("chase", 80)] {
            agg.event(&omq_obs::Event::Exit {
                id: 0,
                name,
                dur_ns: dur_us * 1_000,
                trace: 0,
            });
        }
        let s = phase_fields(&agg);
        assert!(s.contains("\"phase_chase_us\": 80"));
        assert!(s.contains("\"phase_chase_round_us\": 50"));
        assert!(s.contains("\"phase_chase_round_p50_us\""));
        assert!(s.contains("\"phase_chase_round_p99_us\""));
        let chase = s.find("\"phase_chase_us\"").unwrap();
        let round = s.find("\"phase_chase_round_us\"").unwrap();
        assert!(chase < round, "phases are emitted in sorted order");
    }

    #[test]
    fn instrumented_pass_captures_spans() {
        let (value, agg) = instrumented_pass(&[], || {
            let _s = omq_obs::span("chase");
            42
        });
        assert_eq!(value, 42);
        let phases = agg.phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].name, "chase");
    }
}
