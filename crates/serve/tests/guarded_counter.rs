//! Guarded `stabilized` results are not proofs. An n-bit counter over
//! guarded tgds reaches the all-ones state on one null only at depth
//! `2^n - 1`, long after every single-atom type has appeared, so the guarded
//! engine's stabilization test can stop before the match exists. Its
//! zero-answer results must then decide nothing: `evaluate` reports
//! `sound_lower_bound`, and neither `contains` question may return the wrong
//! definite verdict it once did for n = 4 and 5 (`c ⊆ never` was
//! `contained`, `start ⊆ c` was `not_contained`).

use omq_serve::{parse_request, response_to_json, Engine, EngineConfig};

/// The n-bit counter: `Start` sets every bit to 0 and starts an infinite
/// `S`-chain; bit 1 flips at every step, bit i flips when bits 1..i-1 are
/// all 1, and is kept otherwise. `query` is appended as the last line.
fn counter_program(n: usize, query: &str) -> String {
    let zeros: Vec<String> = (1..=n).map(|i| format!("Z{i}(X)")).collect();
    let mut rules = vec![
        format!("Start(X) -> N(X), {}", zeros.join(", ")),
        "N(X) -> exists Y . S(X,Y), N(Y)".to_owned(),
    ];
    for i in 1..=n {
        let lower: String = (1..i).map(|j| format!(", O{j}(X)")).collect();
        rules.push(format!("S(X,Y){lower}, Z{i}(X) -> O{i}(Y)"));
        rules.push(format!("S(X,Y){lower}, O{i}(X) -> Z{i}(Y)"));
        for j in 1..i {
            rules.push(format!("S(X,Y), Z{j}(X), Z{i}(X) -> Z{i}(Y)"));
            rules.push(format!("S(X,Y), Z{j}(X), O{i}(X) -> O{i}(Y)"));
        }
    }
    rules.push(query.to_owned());
    rules.join("\\n")
}

/// Registers `c` (all bits 1), `never` (same rules, an underivable query)
/// and `start` (no rules), then asks the three questions; returns the
/// response lines of the questions.
fn ask(n: usize) -> Vec<String> {
    let ones: Vec<String> = (1..=n).map(|i| format!("O{i}(X)")).collect();
    let register = |name: &str, program: &str| {
        format!(
            r#"{{"op":"register","name":"{name}","program":"{program}","schema":["Start"],"query":"q"}}"#
        )
    };
    let lines = [
        register(
            "c",
            &counter_program(n, &format!("q :- {}", ones.join(", "))),
        ),
        register("never", &counter_program(n, "q :- Never(X)")),
        register("start", "q :- Start(X)"),
        r#"{"id":4,"op":"evaluate","name":"c","facts":["Start(a)"]}"#.to_owned(),
        r#"{"id":5,"op":"contains","lhs":"c","rhs":"never"}"#.to_owned(),
        r#"{"id":6,"op":"contains","lhs":"start","rhs":"c"}"#.to_owned(),
    ];
    let engine = Engine::new(EngineConfig {
        default_deadline_ms: None,
        ..EngineConfig::default()
    });
    let batch: Vec<_> = lines.iter().map(|l| parse_request(l)).collect();
    let responses = engine.execute_batch(&batch);
    responses[3..]
        .iter()
        .map(|r| response_to_json(r).to_string())
        .collect()
}

const LADDER_UNKNOWN: &str = r#"{"id":5,"ok":true,"verdict":"unknown","reason":"anytime rewriting budgets exhausted (0 disjuncts refuted nothing); the guarded containment problem is 2EXPTIME-complete — raise `anytime_budgets` to search further","lhs_language":"(G,CQ)","rhs_language":"(G,CQ)","witnesses_checked":0,"max_witness_size":0,"guarded_encoding":{"ctree_nodes":1,"alphabet":1,"twapa_states":2,"nta_states":2,"nta_transitions":4,"consistent":true,"nonempty":true}}"#;

/// n = 3: the stabilization window happens to reach the match, so the
/// answer is found; it is still not labelled complete.
#[test]
fn three_bit_counter_bytes() {
    assert_eq!(
        ask(3),
        [
            r#"{"id":4,"ok":true,"answers":[[]],"count":1,"guarantee":"sound_lower_bound","language":"(G,CQ)"}"#,
            LADDER_UNKNOWN,
            r#"{"id":6,"ok":true,"verdict":"contained","lhs_language":"(∅,CQ)","rhs_language":"(G,CQ)","witnesses_checked":1,"max_witness_size":1}"#,
        ]
    );
}

/// n = 4 and 5: the engine stops before the match. The empty answer set is
/// a lower bound, and both containment questions stay `unknown` instead of
/// the wrong `contained` / `not_contained`.
#[test]
fn four_and_five_bit_counters_decide_nothing_wrong() {
    for n in [4, 5] {
        let got = ask(n);
        assert!(
            !got[1].contains(r#""verdict":"contained""#),
            "n={n}: {}",
            got[1]
        );
        assert!(
            !got[2].contains(r#""verdict":"not_contained""#),
            "n={n}: {}",
            got[2]
        );
        assert!(
            !got[0].contains(r#""guarantee":"exact""#),
            "n={n}: {}",
            got[0]
        );
        assert!(
            !got[0].contains(r#""guarantee":"stabilized""#),
            "n={n}: {}",
            got[0]
        );
        assert_eq!(
            got,
            [
                r#"{"id":4,"ok":true,"answers":[],"count":0,"guarantee":"sound_lower_bound","language":"(G,CQ)"}"#,
                LADDER_UNKNOWN,
                r#"{"id":6,"ok":true,"verdict":"unknown","reason":"evaluation of the right-hand side on a 1-atom witness was inconclusive","lhs_language":"(∅,CQ)","rhs_language":"(G,CQ)","witnesses_checked":1,"max_witness_size":1}"#,
            ],
            "n={n}"
        );
    }
}
