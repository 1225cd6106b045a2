//! A verdict-cache hit costs the same whatever the registry's size: it is
//! answered under the registry read lock from the two registrations'
//! canonical keys, before any vocabulary snapshot is taken. Pinned on two
//! engines, with 84 and with 1,996 registered OMQs, by the engine's count
//! of vocabulary snapshots.

use omq_serve::{parse_request, response_to_json, Engine, EngineConfig};

/// One OMQ per namespace `n<i>_`, so every registration interns new
/// predicates and has its own canonical key.
fn register_line(i: usize) -> String {
    format!(
        r#"{{"id":{i},"op":"register","name":"o{i}","program":"n{i}_P(X) -> exists Y . n{i}_R(X,Y)\nn{i}_R(X,Y) -> n{i}_P(Y)\nq(X) :- n{i}_R(X,Y), n{i}_P(Y)","schema":["n{i}_P","n{i}_R"],"query":"q"}}"#
    )
}

fn run(engine: &Engine, lines: &[String]) -> Vec<String> {
    let items: Vec<_> = lines.iter().map(|l| parse_request(l)).collect();
    engine
        .execute_batch(&items)
        .iter()
        .map(|r| response_to_json(r).to_string())
        .collect()
}

/// Registers `n` OMQs, then asks the same `contains` and the same
/// `equivalent` twice each. Returns the responses and the snapshots each
/// request took.
fn ask_twice(n: usize) -> Vec<(String, u64)> {
    let engine = Engine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    let registered = run(&engine, &(0..n).map(register_line).collect::<Vec<_>>());
    assert!(registered.iter().all(|r| r.contains(r#""ok":true"#)));
    let questions = [
        r#"{"id":1,"op":"contains","lhs":"o0","rhs":"o0"}"#,
        r#"{"id":1,"op":"contains","lhs":"o0","rhs":"o0"}"#,
        r#"{"id":2,"op":"equivalent","lhs":"o0","rhs":"o1"}"#,
        r#"{"id":2,"op":"equivalent","lhs":"o0","rhs":"o1"}"#,
    ];
    questions
        .iter()
        .map(|q| {
            let before = engine.vocabulary_snapshots();
            let out = run(&engine, &[q.to_string()]).remove(0);
            (out, engine.vocabulary_snapshots() - before)
        })
        .collect()
}

#[test]
fn verdict_hits_take_no_vocabulary_snapshot_at_any_registry_size() {
    let small = ask_twice(84);
    let large = ask_twice(1_996);
    for answers in [&small, &large] {
        let [contains_miss, contains_hit, equiv_miss, equiv_hit] = &answers[..] else {
            unreachable!()
        };
        assert!(
            contains_miss.0.contains(r#""verdict":"contained""#),
            "{}",
            contains_miss.0
        );
        assert!(
            equiv_miss.0.contains(r#""verdict":"not_equivalent""#),
            "{}",
            equiv_miss.0
        );
        // A miss snapshots once; the hit answers the same bytes with none.
        assert_eq!((contains_miss.1, contains_hit.1), (1, 0));
        assert_eq!((equiv_miss.1, equiv_hit.1), (1, 0));
        assert_eq!(contains_hit.0, contains_miss.0);
        assert_eq!(equiv_hit.0, equiv_miss.0);
    }
    // The answers do not depend on how many other OMQs are registered.
    assert_eq!(small, large);
}
