//! Canonical-key registry sharding: N independent [`Engine`]s behind one
//! [`BatchExecutor`], each owning a slice of the name space.
//!
//! Routing is by the *canonical* key (the alpha-invariant [`OmqKey`]
//! digest), not the raw name, so aliases of one OMQ land on one shard and
//! keep sharing its caches. `register` broadcasts to every shard — the
//! registries stay replicas of each other, which is what makes routing a
//! pure performance decision: any shard would answer any request with
//! byte-identical responses (the engine's caches are response-invariant
//! by design), sharding just removes cross-request lock contention on
//! the registry, the caches, and the named stores. Store mutations for a
//! name consistently hit its shard, so each named store lives exactly
//! once. `stats` and `metrics` are answered by the front end itself: both
//! render the counter table ([`crate::stats`]) folded over every shard, so
//! they report process totals and agree with each other, and both are
//! recorded once on the shared telemetry like any other request.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use std::time::Instant;

use omq_obs::JsonlSink;

use crate::engine::{Engine, EngineConfig};
use crate::protocol::{Op, Request, Response};
use crate::reactor::RuntimeStats;
use crate::server::BatchExecutor;
use crate::stats;

/// N engines plus the shared serve-tier counters.
pub struct ShardedEngine {
    shards: Vec<Engine>,
    runtime: Arc<RuntimeStats>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Target {
    /// Registry mutation: every shard applies it (shard 0 answers and
    /// records it).
    Broadcast,
    Shard(usize),
    /// Answered by the front end itself: `stats` and `metrics` fold every
    /// shard, which no single engine can do.
    Front,
}

impl ShardedEngine {
    /// `shards` engines (at least one) sharing one runtime-stats block;
    /// `watermark` configures the admission gate carried by those stats.
    pub fn new(cfg: EngineConfig, shards: usize, watermark: usize) -> ShardedEngine {
        let n = shards.max(1);
        let runtime = Arc::new(RuntimeStats::new(n, watermark));
        let mut engines: Vec<Engine> = (0..n).map(|_| Engine::new(cfg.clone())).collect();
        // The counter table reads the serve-tier block from shard 0.
        engines[0].set_runtime_stats(Arc::clone(&runtime));
        // One metrics registry and one flight recorder across every shard
        // (shard 0's become the shared pair): per-op latency windows and
        // the flight rings are process-wide, and the runtime stats can
        // charge sheds against the same SLO-burn accounting.
        let metrics = Arc::clone(engines[0].metrics());
        let flight = Arc::clone(engines[0].flight());
        for engine in engines.iter_mut().skip(1) {
            engine.set_telemetry(Arc::clone(&metrics), Arc::clone(&flight));
        }
        runtime.set_telemetry(metrics, flight);
        ShardedEngine {
            shards: engines,
            runtime,
        }
    }

    /// The shared serve-tier counters (hand these to the reactor).
    pub fn runtime(&self) -> Arc<RuntimeStats> {
        Arc::clone(&self.runtime)
    }

    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard engines, shard 0 first.
    pub fn engines(&self) -> &[Engine] {
        &self.shards
    }

    /// Streams every shard's request span trees to `sink`.
    pub fn set_trace_sink(&mut self, sink: Arc<JsonlSink>) {
        for shard in &mut self.shards {
            shard.set_trace_sink(Arc::clone(&sink));
        }
    }

    /// The shard owning `name`: hash of the canonical digest when the
    /// name is registered (aliases co-locate), hash of the raw name
    /// otherwise (the routed shard then reports the same unknown-name
    /// error any shard would).
    fn shard_of(&self, name: &str) -> usize {
        let key = self.shards[0]
            .key_digest(name)
            .unwrap_or_else(|| name.to_owned());
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    /// Answers a `stats` or `metrics` request over every shard.
    fn answer_front(&self, item: &Result<Request, Box<Response>>) -> Response {
        self.shards[0].answer(item, Instant::now(), |op, _, _, _| {
            (Ok(stats::op_fields(op, &self.shards)), false)
        })
    }

    fn target(&self, item: &Result<Request, Box<Response>>) -> Target {
        let req = match item {
            Ok(req) => req,
            // Protocol-layer errors pass through any shard unchanged.
            Err(_) => return Target::Shard(0),
        };
        match &req.op {
            Op::Register { .. } => Target::Broadcast,
            Op::Stats | Op::Metrics => Target::Front,
            // Shard 0's flight recorder is the shared one, so it can
            // answer `trace_dump` for the whole process.
            Op::TraceDump => Target::Shard(0),
            Op::Contains { lhs, .. } | Op::Equivalent { lhs, .. } | Op::Explain { lhs, .. } => {
                Target::Shard(self.shard_of(lhs))
            }
            Op::Classify { name }
            | Op::Evaluate { name, .. }
            | Op::Assert { name, .. }
            | Op::Retract { name, .. }
            | Op::Snapshot { name } => Target::Shard(self.shard_of(name)),
        }
    }
}

impl BatchExecutor for ShardedEngine {
    /// Routes the batch: maximal consecutive same-shard runs dispatch as
    /// one sub-batch (keeping the engine's in-batch parallel fan-out and
    /// retract-run batching), registers broadcast in order. Responses
    /// come back in request order, byte-identical to a single engine.
    fn execute_batch(&self, items: &[Result<Request, Box<Response>>]) -> Vec<Response> {
        if self.shards.len() == 1 {
            self.runtime.record_shard(0, items.len());
            return self.shards[0].execute_batch(items);
        }
        let n = items.len();
        let mut out: Vec<Option<Response>> = vec![None; n];
        let mut i = 0;
        while i < n {
            match self.target(&items[i]) {
                Target::Broadcast => {
                    // Shard 0 answers (and records) the request; the other
                    // shards only apply it to their registry replicas.
                    out[i] = self.shards[0]
                        .execute_batch(std::slice::from_ref(&items[i]))
                        .pop();
                    self.runtime.record_shard(0, 1);
                    if let Ok(req) = &items[i] {
                        for (s, shard) in self.shards.iter().enumerate().skip(1) {
                            shard.replicate(req);
                            self.runtime.record_shard(s, 1);
                        }
                    }
                    i += 1;
                }
                target => {
                    let mut j = i + 1;
                    while j < n && self.target(&items[j]) == target {
                        j += 1;
                    }
                    // Front-end ops count on shard 0, whose telemetry
                    // records them.
                    let s = match target {
                        Target::Shard(s) => s,
                        _ => 0,
                    };
                    self.runtime.record_shard(s, j - i);
                    let answers = if target == Target::Front {
                        items[i..j]
                            .iter()
                            .map(|item| self.answer_front(item))
                            .collect()
                    } else {
                        self.shards[s].execute_batch(&items[i..j])
                    };
                    for (off, resp) in answers.into_iter().enumerate() {
                        out[i + off] = Some(resp);
                    }
                    i = j;
                }
            }
        }
        out.into_iter()
            .map(|r| r.expect("every request is answered"))
            .collect()
    }

    fn render_metrics(&self) -> Option<String> {
        Some(stats::metrics_text(&self.shards))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, response_to_json};

    fn run(executor: &dyn BatchExecutor, lines: &[&str]) -> Vec<String> {
        let items: Vec<_> = lines.iter().map(|l| parse_request(l)).collect();
        executor
            .execute_batch(&items)
            .iter()
            .map(|r| response_to_json(r).to_string())
            .collect()
    }

    const LINES: &[&str] = &[
        r#"{"id":1,"op":"register","name":"a","program":"P(X) -> R(X)\nq(X) :- R(X)","schema":["P"],"query":"q"}"#,
        r#"{"id":2,"op":"register","name":"b","program":"q(X) :- P(X)","schema":["P"],"query":"q"}"#,
        r#"{"id":3,"op":"contains","lhs":"a","rhs":"b"}"#,
        r#"{"id":4,"op":"contains","lhs":"b","rhs":"a"}"#,
        r#"{"id":5,"op":"classify","name":"b"}"#,
        r#"{"id":6,"op":"equivalent","lhs":"a","rhs":"a"}"#,
        r#"{"id":7,"op":"contains","lhs":"missing","rhs":"a"}"#,
    ];

    #[test]
    fn sharded_responses_are_byte_identical_to_a_single_engine() {
        let single = ShardedEngine::new(EngineConfig::default(), 1, 0);
        let sharded = ShardedEngine::new(EngineConfig::default(), 3, 0);
        assert_eq!(run(&single, LINES), run(&sharded, LINES));
    }

    #[test]
    fn shard_occupancy_counts_every_request() {
        let sharded = ShardedEngine::new(EngineConfig::default(), 2, 0);
        let _ = run(&sharded, LINES);
        let stats = run(&sharded, &[r#"{"id":8,"op":"stats"}"#]);
        assert!(
            stats[0].contains("\"reactor\":{"),
            "missing block: {stats:?}"
        );
        assert!(
            stats[0].contains("\"shards\":["),
            "missing occupancy: {}",
            stats[0]
        );
    }

    #[test]
    fn aliases_land_on_one_shard_and_share_its_caches() {
        let sharded = ShardedEngine::new(EngineConfig::default(), 4, 0);
        let lines = [
            r#"{"id":1,"op":"register","name":"orig","program":"q(X) :- P(X)","schema":["P"],"query":"q"}"#,
            r#"{"id":2,"op":"register","name":"alias","program":"q(Y) :- P(Y)","schema":["P"],"query":"q"}"#,
        ];
        let out = run(&sharded, &lines);
        assert!(out[1].contains("\"alias_of\":\"orig\""), "{}", out[1]);
        assert_eq!(sharded.shard_of("orig"), sharded.shard_of("alias"));
    }
}
