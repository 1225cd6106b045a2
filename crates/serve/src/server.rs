//! Transport: JSON-lines over any `BufRead`/`Write` pair (stdin/stdout
//! batch mode). TCP is served by the nonblocking, connection-multiplexed
//! front end in [`crate::reactor`].
//!
//! Every transport talks to its back end through [`BatchExecutor`], so a
//! single [`crate::engine::Engine`] and a [`crate::shard::ShardedEngine`]
//! plug in interchangeably.

use std::io::{self, BufRead, Write};

use crate::engine::Engine;
use crate::protocol::{parse_request, response_to_json, Request, Response};

/// Anything that can answer one parsed batch, in order. Items that already
/// failed at the protocol layer pass through as-is.
pub trait BatchExecutor: Send + Sync {
    fn execute_batch(&self, items: &[Result<Request, Box<Response>>]) -> Vec<Response>;

    /// Prometheus text exposition for this executor, if it has a metrics
    /// plane (see [`crate::reactor::spawn_metrics_exporter`]). The default
    /// is `None`: the exporter answers 404 rather than inventing an empty
    /// scrape.
    fn render_metrics(&self) -> Option<String> {
        None
    }
}

impl BatchExecutor for Engine {
    fn execute_batch(&self, items: &[Result<Request, Box<Response>>]) -> Vec<Response> {
        Engine::execute_batch(self, items)
    }

    fn render_metrics(&self) -> Option<String> {
        Some(crate::stats::metrics_text(std::slice::from_ref(self)))
    }
}

/// Serves one stream: lines accumulate into a batch, a blank line (or EOF)
/// executes it and writes one response line per request, in order.
pub fn serve_lines<E: BatchExecutor + ?Sized, R: BufRead, W: Write>(
    engine: &E,
    reader: R,
    mut writer: W,
) -> io::Result<()> {
    let mut batch: Vec<Result<Request, Box<Response>>> = Vec::new();
    let flush =
        |batch: &mut Vec<Result<Request, Box<Response>>>, writer: &mut W| -> io::Result<()> {
            if batch.is_empty() {
                return Ok(());
            }
            let responses = engine.execute_batch(batch);
            batch.clear();
            for resp in &responses {
                writeln!(writer, "{}", response_to_json(resp))?;
            }
            writer.flush()
        };
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            flush(&mut batch, &mut writer)?;
        } else {
            batch.push(parse_request(&line));
        }
    }
    flush(&mut batch, &mut writer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    const BATCH: &str = concat!(
        r#"{"id":1,"op":"register","name":"a","program":"P(X) -> R(X)\nq(X) :- R(X)","schema":["P"],"query":"q"}"#,
        "\n",
        r#"{"id":2,"op":"contains","lhs":"a","rhs":"a"}"#,
        "\n\n",
        r#"{"id":3,"op":"classify","name":"a"}"#,
        "\n",
    );

    #[test]
    fn stdin_style_round_trip() {
        let engine = Engine::new(EngineConfig::default());
        let mut out = Vec::new();
        serve_lines(&engine, BATCH.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains(r#""ok":true"#) && lines[0].contains("registered"));
        assert!(lines[1].contains(r#""verdict":"contained""#));
        assert!(lines[2].contains(r#""language":"#));
    }

    #[test]
    fn deeply_nested_line_is_refused_and_the_stream_goes_on() {
        let engine = Engine::new(EngineConfig::default());
        let input = format!("{}\n{BATCH}", "[".repeat(200_000));
        let mut out = Vec::new();
        serve_lines(&engine, input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(
            lines[0].starts_with(r#"{"ok":false,"error":{"kind":"json""#)
                && lines[0].contains("nesting deeper than"),
            "{}",
            lines[0]
        );
        assert!(lines[2].contains(r#""verdict":"contained""#));
    }
}
