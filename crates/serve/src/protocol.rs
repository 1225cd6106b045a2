//! The JSON-lines request/response protocol.
//!
//! One request per line, one response line per request, in request order.
//! A blank line is a batch delimiter: everything accumulated since the last
//! delimiter is executed as one batch (scheduled across the worker pool)
//! and answered before the next batch starts. EOF flushes the final batch.
//!
//! Requests:
//!
//! ```text
//! {"id":1,"op":"register","name":"a","program":"P(X) -> R(X)\nq(X) :- R(X)","schema":["P"],"query":"q"}
//! {"id":2,"op":"contains","lhs":"a","rhs":"b","deadline_ms":250}
//! {"id":3,"op":"equivalent","lhs":"a","rhs":"b"}
//! {"id":4,"op":"evaluate","name":"a","facts":["P(c)","R(c)"]}
//! {"id":5,"op":"classify","name":"a"}
//! {"id":6,"op":"explain","lhs":"a","rhs":"b"}
//! {"id":7,"op":"stats"}
//! {"id":8,"op":"assert","name":"a","facts":["P(c)"]}
//! {"id":9,"op":"retract","name":"a","facts":["P(c)"]}
//! {"id":10,"op":"snapshot","name":"a"}
//! {"id":11,"op":"evaluate","name":"a","at":3}
//! ```
//!
//! `assert`/`retract` mutate the named OMQ's versioned store (every call
//! advances its version by one) and keep the chase fixpoint incrementally
//! maintained; `snapshot` pins the current version against compaction and
//! returns it. `evaluate` either carries one-shot `"facts"` (stateless, as
//! before) or `"at"` — a store version to answer against (omitting both
//! evaluates the store's head).
//!
//! Any request may carry `"trace":true`: the engine then instruments the
//! solver run and appends a `"trace"` object (per-phase timings + counters)
//! to the response.
//!
//! Responses are `{"id":...,"ok":true,...}` or
//! `{"id":...,"ok":false,"error":{"kind":...,"message":...}}`; a request
//! whose deadline expired additionally carries `"timed_out":true` and a
//! best-effort (`"unknown"` / lower-bound) payload rather than an error.
//! Responses carry no wall-clock fields *unless traced* (`"trace":true`
//! opts the request out of byte-determinism), so equal untraced requests in
//! equal states produce byte-identical lines (the differential suite relies
//! on this).

use crate::error::ServeError;
use crate::json::{self, Json};

/// A parsed request body.
#[derive(Clone, Debug)]
pub enum Op {
    Register {
        name: String,
        program: String,
        schema: Vec<String>,
        query: String,
    },
    Contains {
        lhs: String,
        rhs: String,
    },
    Equivalent {
        lhs: String,
        rhs: String,
    },
    Evaluate {
        name: String,
        /// One-shot facts for a stateless evaluation (empty when the
        /// request evaluates the named OMQ's store instead).
        facts: Vec<String>,
        /// Store version to evaluate at; `None` = the store's head.
        /// Mutually exclusive with non-empty `facts`.
        at: Option<u64>,
    },
    Assert {
        name: String,
        facts: Vec<String>,
    },
    Retract {
        name: String,
        facts: Vec<String>,
    },
    Snapshot {
        name: String,
    },
    Classify {
        name: String,
    },
    Explain {
        lhs: String,
        rhs: String,
    },
    Stats,
    /// Prometheus text exposition of the telemetry plane (also served
    /// over HTTP by `--metrics-listen`).
    Metrics,
    /// Dump the flight recorder: span trees of recent and tail-retained
    /// (shed / timed-out / slow) requests.
    TraceDump,
}

impl Op {
    /// The op's family label in the span/metric taxonomy (`serve.<op>`).
    pub fn label(&self) -> &'static str {
        match self {
            Op::Register { .. } => "serve.register",
            Op::Contains { .. } => "serve.contains",
            Op::Equivalent { .. } => "serve.equivalent",
            Op::Evaluate { .. } => "serve.evaluate",
            Op::Assert { .. } => "serve.assert",
            Op::Retract { .. } => "serve.retract",
            Op::Snapshot { .. } => "serve.snapshot",
            Op::Classify { .. } => "serve.classify",
            Op::Explain { .. } => "serve.explain",
            Op::Stats => "serve.stats",
            Op::Metrics => "serve.metrics",
            Op::TraceDump => "serve.trace_dump",
        }
    }
}

/// A request: optional client id (echoed back), optional per-request
/// deadline in milliseconds (measured from batch arrival), whether to
/// instrument the run (`"trace":true`), and the job.
///
/// Every parsed request is assigned a process-unique `trace_id` at the
/// protocol layer; it follows the request through coalescing, shedding,
/// and the flight recorder, but never appears in a default-mode response
/// (only under `"trace":true` and on sink events), preserving
/// byte-determinism.
#[derive(Clone, Debug)]
pub struct Request {
    pub id: Option<Json>,
    pub deadline_ms: Option<u64>,
    pub trace: bool,
    pub trace_id: u64,
    pub op: Op,
}

/// A response: the echoed id plus either ordered payload fields or an
/// error. `timed_out` marks deadline expiry (degraded, not failed).
#[derive(Clone, Debug)]
pub struct Response {
    pub id: Option<Json>,
    pub outcome: Result<Vec<(String, Json)>, ServeError>,
    pub timed_out: bool,
}

impl Response {
    pub fn ok(id: Option<Json>, fields: Vec<(String, Json)>) -> Response {
        Response {
            id,
            outcome: Ok(fields),
            timed_out: false,
        }
    }

    pub fn err(id: Option<Json>, e: ServeError) -> Response {
        Response {
            id,
            outcome: Err(e),
            timed_out: false,
        }
    }
}

fn req_str(obj: &Json, key: &str) -> Result<String, ServeError> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| ServeError::BadRequest(format!("missing or non-string field {key:?}")))
}

fn req_str_array(obj: &Json, key: &str) -> Result<Vec<String>, ServeError> {
    obj.get(key)
        .and_then(Json::as_str_array)
        .map(|v| v.into_iter().map(str::to_owned).collect())
        .ok_or_else(|| ServeError::BadRequest(format!("missing or non-string-array field {key:?}")))
}

/// Parses one request line. On failure the error [`Response`] already
/// carries the client id when one could be salvaged from the line.
pub fn parse_request(line: &str) -> Result<Request, Box<Response>> {
    let v =
        json::parse(line).map_err(|msg| Box::new(Response::err(None, ServeError::Json(msg))))?;
    let id = v.get("id").cloned();
    let fail = |e: ServeError| Box::new(Response::err(id.clone(), e));
    let op_name = v.get("op").and_then(Json::as_str).ok_or_else(|| {
        fail(ServeError::BadRequest(
            "missing or non-string field \"op\"".into(),
        ))
    })?;
    let deadline_ms = match v.get("deadline_ms") {
        None => None,
        Some(d) => Some(d.as_u64().ok_or_else(|| {
            fail(ServeError::BadRequest(
                "\"deadline_ms\" must be a non-negative integer".into(),
            ))
        })?),
    };
    let trace = match v.get("trace") {
        None => false,
        Some(t) => t
            .as_bool()
            .ok_or_else(|| fail(ServeError::BadRequest("\"trace\" must be a boolean".into())))?,
    };
    let op = match op_name {
        "register" => Op::Register {
            name: req_str(&v, "name").map_err(&fail)?,
            program: req_str(&v, "program").map_err(&fail)?,
            schema: req_str_array(&v, "schema").map_err(&fail)?,
            query: req_str(&v, "query").map_err(&fail)?,
        },
        "contains" => Op::Contains {
            lhs: req_str(&v, "lhs").map_err(&fail)?,
            rhs: req_str(&v, "rhs").map_err(&fail)?,
        },
        "equivalent" => Op::Equivalent {
            lhs: req_str(&v, "lhs").map_err(&fail)?,
            rhs: req_str(&v, "rhs").map_err(&fail)?,
        },
        "evaluate" => {
            let facts = match v.get("facts") {
                None => Vec::new(),
                Some(_) => req_str_array(&v, "facts").map_err(&fail)?,
            };
            let at = match v.get("at") {
                None => None,
                Some(a) => Some(a.as_u64().ok_or_else(|| {
                    fail(ServeError::BadRequest(
                        "\"at\" must be a non-negative integer version".into(),
                    ))
                })?),
            };
            if at.is_some() && !facts.is_empty() {
                return Err(fail(ServeError::BadRequest(
                    "\"facts\" and \"at\" are mutually exclusive: one-shot facts have no versions"
                        .into(),
                )));
            }
            Op::Evaluate {
                name: req_str(&v, "name").map_err(&fail)?,
                facts,
                at,
            }
        }
        "assert" => Op::Assert {
            name: req_str(&v, "name").map_err(&fail)?,
            facts: req_str_array(&v, "facts").map_err(&fail)?,
        },
        "retract" => Op::Retract {
            name: req_str(&v, "name").map_err(&fail)?,
            facts: req_str_array(&v, "facts").map_err(&fail)?,
        },
        "snapshot" => Op::Snapshot {
            name: req_str(&v, "name").map_err(&fail)?,
        },
        "classify" => Op::Classify {
            name: req_str(&v, "name").map_err(&fail)?,
        },
        "explain" => Op::Explain {
            lhs: req_str(&v, "lhs").map_err(&fail)?,
            rhs: req_str(&v, "rhs").map_err(&fail)?,
        },
        "stats" => Op::Stats,
        "metrics" => Op::Metrics,
        "trace_dump" => Op::TraceDump,
        other => return Err(fail(ServeError::UnknownOp(other.to_owned()))),
    };
    Ok(Request {
        id,
        deadline_ms,
        trace,
        trace_id: omq_obs::next_trace_id(),
        op,
    })
}

/// Renders a response as one JSON line (no trailing newline).
pub fn response_to_json(resp: &Response) -> Json {
    let mut fields: Vec<(String, Json)> = Vec::new();
    if let Some(id) = &resp.id {
        fields.push(("id".into(), id.clone()));
    }
    match &resp.outcome {
        Ok(body) => {
            fields.push(("ok".into(), Json::Bool(true)));
            if resp.timed_out {
                fields.push(("timed_out".into(), Json::Bool(true)));
            }
            fields.extend(body.iter().cloned());
        }
        Err(e) => {
            fields.push(("ok".into(), Json::Bool(false)));
            if resp.timed_out {
                fields.push(("timed_out".into(), Json::Bool(true)));
            }
            let mut err_fields = vec![
                ("kind".to_owned(), Json::str(e.kind())),
                ("message".to_owned(), Json::str(e.to_string())),
            ];
            // Shed responses are structured so clients can implement backoff
            // without parsing the message: how deep the queue was, what the
            // watermark is, and that retrying (later) is the right move.
            if let ServeError::Shed {
                queue_depth,
                watermark,
            } = e
            {
                err_fields.push(("queue_depth".to_owned(), Json::num(*queue_depth)));
                err_fields.push(("watermark".to_owned(), Json::num(*watermark)));
                err_fields.push(("retry".to_owned(), Json::Bool(true)));
            }
            if let ServeError::TooLarge { limit_bytes } = e {
                err_fields.push(("limit_bytes".to_owned(), Json::num(*limit_bytes)));
            }
            fields.push(("error".into(), Json::Obj(err_fields)));
        }
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_op() {
        let r = parse_request(
            r#"{"id":1,"op":"register","name":"a","program":"p","schema":["P"],"query":"q"}"#,
        )
        .unwrap();
        assert!(matches!(r.op, Op::Register { .. }));
        assert_eq!(r.id.as_ref().and_then(Json::as_u64), Some(1));
        let r = parse_request(r#"{"op":"contains","lhs":"a","rhs":"b","deadline_ms":9}"#).unwrap();
        assert!(matches!(r.op, Op::Contains { .. }));
        assert_eq!(r.deadline_ms, Some(9));
        assert!(!r.trace);
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#).unwrap().op,
            Op::Stats
        ));
        let r = parse_request(r#"{"op":"explain","lhs":"a","rhs":"b","trace":true}"#).unwrap();
        assert!(matches!(r.op, Op::Explain { .. }));
        assert!(r.trace);
        let bad = parse_request(r#"{"op":"stats","trace":"yes"}"#).unwrap_err();
        assert!(matches!(bad.outcome, Err(ServeError::BadRequest(_))));
    }

    #[test]
    fn parses_telemetry_ops_and_assigns_trace_ids() {
        let m = parse_request(r#"{"op":"metrics"}"#).unwrap();
        assert!(matches!(m.op, Op::Metrics));
        assert_eq!(m.op.label(), "serve.metrics");
        let d = parse_request(r#"{"op":"trace_dump"}"#).unwrap();
        assert!(matches!(d.op, Op::TraceDump));
        assert_eq!(d.op.label(), "serve.trace_dump");
        // Every parsed request gets a distinct nonzero trace id.
        assert!(m.trace_id != 0 && d.trace_id != 0);
        assert_ne!(m.trace_id, d.trace_id);
    }

    #[test]
    fn parses_mutation_ops_and_versioned_evaluate() {
        let r = parse_request(r#"{"op":"assert","name":"a","facts":["P(c)"]}"#).unwrap();
        assert!(matches!(r.op, Op::Assert { .. }));
        let r = parse_request(r#"{"op":"retract","name":"a","facts":["P(c)"]}"#).unwrap();
        assert!(matches!(r.op, Op::Retract { .. }));
        let r = parse_request(r#"{"op":"snapshot","name":"a"}"#).unwrap();
        assert!(matches!(r.op, Op::Snapshot { .. }));
        let r = parse_request(r#"{"op":"evaluate","name":"a","at":3}"#).unwrap();
        assert!(matches!(
            r.op,
            Op::Evaluate {
                at: Some(3),
                ref facts,
                ..
            } if facts.is_empty()
        ));
        // Omitting both facts and at evaluates the store head.
        let r = parse_request(r#"{"op":"evaluate","name":"a"}"#).unwrap();
        assert!(matches!(r.op, Op::Evaluate { at: None, ref facts, .. } if facts.is_empty()));
        // One-shot facts and store versions cannot mix.
        let bad =
            parse_request(r#"{"op":"evaluate","name":"a","facts":["P(c)"],"at":1}"#).unwrap_err();
        assert!(matches!(bad.outcome, Err(ServeError::BadRequest(_))));
        let bad = parse_request(r#"{"op":"evaluate","name":"a","at":-1}"#).unwrap_err();
        assert!(matches!(bad.outcome, Err(ServeError::BadRequest(_))));
        let bad = parse_request(r#"{"op":"assert","name":"a"}"#).unwrap_err();
        assert!(matches!(bad.outcome, Err(ServeError::BadRequest(_))));
    }

    #[test]
    fn bad_lines_salvage_the_id() {
        let resp = parse_request(r#"{"id":"x7","op":"frobnicate"}"#).unwrap_err();
        assert_eq!(resp.id.as_ref().and_then(Json::as_str), Some("x7"));
        assert!(matches!(resp.outcome, Err(ServeError::UnknownOp(_))));
        let resp = parse_request("not json").unwrap_err();
        assert!(matches!(resp.outcome, Err(ServeError::Json(_))));
    }

    #[test]
    fn missing_fields_are_bad_requests() {
        let resp = parse_request(r#"{"id":2,"op":"contains","lhs":"a"}"#).unwrap_err();
        assert!(matches!(resp.outcome, Err(ServeError::BadRequest(_))));
        let line = response_to_json(&resp).to_string();
        assert!(line.starts_with(r#"{"id":2,"ok":false,"error":{"kind":"bad_request""#));
    }

    #[test]
    fn response_rendering_is_ordered() {
        let resp = Response::ok(
            Some(Json::num(3)),
            vec![("verdict".into(), Json::str("contained"))],
        );
        assert_eq!(
            response_to_json(&resp).to_string(),
            r#"{"id":3,"ok":true,"verdict":"contained"}"#
        );
        let mut timed = Response::ok(Some(Json::num(4)), vec![]);
        timed.timed_out = true;
        assert_eq!(
            response_to_json(&timed).to_string(),
            r#"{"id":4,"ok":true,"timed_out":true}"#
        );
    }
}
