//! The nonblocking serve front end, end to end over real sockets:
//! multiplexed round trips, response ordering under interleaving, a 4×
//! overload burst the scheduler must survive, the structured `shed`
//! answer under admission pressure, and the structured `too_large`
//! refusal of a connection that buffers past the read cap.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use omq_serve::json::{self, Json};
use omq_serve::reactor::MAX_PENDING_BYTES;
use omq_serve::{serve_reactor, Engine, EngineConfig, ReactorConfig, RuntimeStats};

const REGISTER: &str = r#"{"op":"register","name":"lin","program":"P(X) -> exists Y . R(X,Y)\nR(X,Y) -> P(Y)\nq(X) :- R(X,Y), P(Y)","schema":["P","R"],"query":"q"}"#;

/// Boots a reactor on an ephemeral port; returns the address and the
/// serve-tier counters (for assertions). The reactor thread runs until
/// the test process exits — it owns only its own sockets.
fn boot(cfg: EngineConfig, watermark: usize, workers: usize) -> (String, Arc<RuntimeStats>) {
    let mut engine = Engine::new(cfg);
    let runtime = Arc::new(RuntimeStats::new(watermark));
    engine.set_runtime_stats(Arc::clone(&runtime));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let stats = Arc::clone(&runtime);
    std::thread::spawn(move || {
        let _ = serve_reactor(Arc::new(engine), listener, ReactorConfig { workers }, stats);
    });
    (addr, runtime)
}

/// Sends `batches` (each a slice of request lines) on one connection,
/// reading each batch's responses before sending the next; returns every
/// response line.
fn round_trips(addr: &str, batches: &[&[String]]) -> Vec<String> {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    for batch in batches {
        for line in batch.iter() {
            writeln!(writer, "{line}").unwrap();
        }
        writeln!(writer).unwrap();
        writer.flush().unwrap();
        for _ in 0..batch.len() {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(!line.is_empty(), "connection closed mid-batch");
            lines.push(line.trim_end().to_owned());
        }
    }
    lines
}

fn id_of(line: &str) -> Option<u64> {
    json::parse(line).ok()?.get("id").and_then(Json::as_u64)
}

#[test]
fn multiplexed_round_trip_preserves_order_and_bytes() {
    let (addr, _runtime) = boot(
        EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
        0,
        2,
    );
    let setup = [REGISTER.to_owned()];
    let queries: Vec<String> = (0..6)
        .map(|i| format!(r#"{{"id":{i},"op":"contains","lhs":"lin","rhs":"lin"}}"#))
        .collect();
    let out = round_trips(&addr, &[&setup, &queries]);
    assert_eq!(out.len(), 7);
    assert!(out[0].contains(r#""registered":"lin""#), "{}", out[0]);
    for (i, line) in out[1..].iter().enumerate() {
        assert_eq!(id_of(line), Some(i as u64), "order broken at {i}: {line}");
        assert!(line.contains(r#""verdict":"contained""#), "{line}");
    }
    // Two concurrent connections interleave without cross-talk.
    let h1 = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            round_trips(
                &addr,
                &[&(0..8)
                    .map(|i| format!(r#"{{"id":{i},"op":"classify","name":"lin"}}"#))
                    .collect::<Vec<_>>()],
            )
        })
    };
    let h2 = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            round_trips(
                &addr,
                &[&(100..108)
                    .map(|i| format!(r#"{{"id":{i},"op":"contains","lhs":"lin","rhs":"lin"}}"#))
                    .collect::<Vec<_>>()],
            )
        })
    };
    for (start, lines) in [(0u64, h1.join().unwrap()), (100u64, h2.join().unwrap())] {
        assert_eq!(lines.len(), 8);
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(id_of(line), Some(start + i as u64), "{line}");
        }
    }
}

/// EOF without a trailing blank line still flushes the final batch — the
/// `serve_lines` framing contract, kept by the reactor.
#[test]
fn eof_flushes_the_unterminated_batch() {
    let (addr, _runtime) = boot(EngineConfig::default(), 0, 1);
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .write_all(format!("{REGISTER}\n{}", r#"{"id":9,"op":"classify","name":"lin"}"#).as_bytes())
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut text = String::new();
    BufReader::new(stream).read_to_string(&mut text).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[1].contains(r#""language":"#), "{}", lines[1]);
}

/// A 4×-capacity burst: many connections firing simultaneously at a
/// 2-worker reactor. Every request gets exactly one response (answered or
/// shed, never dropped, never a poisoned worker), and the server still
/// answers afterwards.
#[test]
fn scheduler_survives_a_four_x_overload_burst() {
    let (addr, runtime) = boot(
        EngineConfig {
            threads: 1,
            cache_capacity: 0,
            ..EngineConfig::default()
        },
        8,
        2,
    );
    let _ = round_trips(&addr, &[&[REGISTER.to_owned()]]);
    let clients: Vec<_> = (0..8)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let batch: Vec<String> = (0..8)
                    .map(|i| {
                        format!(
                            r#"{{"id":{},"op":"contains","lhs":"lin","rhs":"lin"}}"#,
                            c * 100 + i
                        )
                    })
                    .collect();
                round_trips(&addr, &[&batch])
            })
        })
        .collect();
    let mut answered = 0usize;
    let mut shed = 0usize;
    for client in clients {
        let lines = client.join().unwrap();
        assert_eq!(lines.len(), 8, "every request is answered exactly once");
        for line in lines {
            let json = json::parse(&line).unwrap();
            if json.get("ok") == Some(&Json::Bool(true)) {
                answered += 1;
            } else {
                let err = json.get("error").expect("structured error");
                assert_eq!(
                    err.get("kind").and_then(Json::as_str),
                    Some("shed"),
                    "only shedding may refuse: {line}"
                );
                assert!(err.get("queue_depth").and_then(Json::as_u64).is_some());
                assert_eq!(err.get("watermark").and_then(Json::as_u64), Some(8));
                assert_eq!(err.get("retry"), Some(&Json::Bool(true)));
                shed += 1;
            }
        }
    }
    assert_eq!(answered + shed, 64);
    assert!(answered > 0, "shedding must not refuse everything");
    // The pool survived: a fresh request gets a real verdict.
    let after = round_trips(
        &addr,
        &[&[r#"{"id":7,"op":"contains","lhs":"lin","rhs":"lin"}"#.to_owned()]],
    );
    assert!(
        after[0].contains(r#""verdict":"contained""#),
        "{}",
        after[0]
    );
    assert_eq!(runtime.shed_total() as usize, shed);
}

/// Deterministic shed: a single worker is pinned down by a big batch, so
/// a second connection's solver request must observe a queue depth over
/// the watermark and come back `shed` — while non-sheddable ops (stats)
/// are always admitted.
#[test]
fn saturated_queue_sheds_structured_and_admits_diagnostics() {
    let (addr, runtime) = boot(
        EngineConfig {
            threads: 1,
            cache_capacity: 0,
            ..EngineConfig::default()
        },
        4,
        1,
    );
    let _ = round_trips(&addr, &[&[REGISTER.to_owned()]]);
    let blocker = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let batch: Vec<String> = (0..96)
                .map(|i| format!(r#"{{"id":{i},"op":"contains","lhs":"lin","rhs":"lin"}}"#))
                .collect();
            round_trips(&addr, &[&batch])
        })
    };
    // Wait until the blocker's batch is actually occupying the queue.
    while runtime.requests_total() < 97 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let probe = round_trips(
        &addr,
        &[&[
            r#"{"id":1,"op":"contains","lhs":"lin","rhs":"lin"}"#.to_owned(),
            r#"{"id":2,"op":"stats"}"#.to_owned(),
        ]],
    );
    let shed = json::parse(&probe[0]).unwrap();
    let err = shed.get("error").expect("saturated probe is refused");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("shed"));
    assert!(
        err.get("queue_depth").and_then(Json::as_u64).unwrap() >= 4,
        "{}",
        probe[0]
    );
    let stats = json::parse(&probe[1]).unwrap();
    assert_eq!(
        stats.get("ok"),
        Some(&Json::Bool(true)),
        "stats is never shed: {}",
        probe[1]
    );
    assert!(
        stats.get("reactor").is_some(),
        "stats carries the reactor block: {}",
        probe[1]
    );
    let lines = blocker.join().unwrap();
    assert_eq!(lines.len(), 96, "the blocking batch is fully answered");
}

/// A connection that buffers one byte past the read cap without a blank
/// line gets one structured `too_large` refusal and is closed; the server
/// still answers a clean request on a second connection.
#[test]
fn oversized_unbatched_input_is_refused_and_the_server_goes_on() {
    let (addr, runtime) = boot(EngineConfig::default(), 0, 1);
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .write_all(&vec![b'x'; MAX_PENDING_BYTES + 1])
        .unwrap();
    let mut text = String::new();
    BufReader::new(stream).read_to_string(&mut text).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "one refusal, then the connection closes");
    let refusal = json::parse(lines[0]).unwrap();
    assert_eq!(refusal.get("ok"), Some(&Json::Bool(false)), "{text}");
    let err = refusal.get("error").expect("structured error");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("too_large"));
    assert_eq!(
        err.get("limit_bytes").and_then(Json::as_u64),
        Some(MAX_PENDING_BYTES as u64)
    );
    let after = round_trips(
        &addr,
        &[&[
            REGISTER.to_owned(),
            r#"{"id":2,"op":"contains","lhs":"lin","rhs":"lin"}"#.to_owned(),
            r#"{"id":3,"op":"stats"}"#.to_owned(),
        ]],
    );
    assert!(
        after[1].contains(r#""verdict":"contained""#),
        "{}",
        after[1]
    );
    assert!(after[2].contains(r#""too_large":1"#), "{}", after[2]);
    assert_eq!(runtime.requests_total(), 3);
}
