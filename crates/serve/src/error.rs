//! The serve-layer error type.
//!
//! Every failure a request can hit maps to one variant, and every variant
//! renders as a structured JSON error object — the server reports failures
//! per-request and keeps serving, it never aborts on bad input.

use std::fmt;

use omq_core::ContainmentError;
use omq_model::ParseError;

/// A request-level failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// A request line was not valid JSON.
    Json(String),
    /// The request object was malformed (missing/mistyped fields); carries
    /// the field and the problem.
    BadRequest(String),
    /// Unknown `op` value.
    UnknownOp(String),
    /// A program, query, or fact failed to parse.
    Parse(ParseError),
    /// A referenced registration name is not in the registry.
    UnknownName(String),
    /// The named query does not exist in the registered program.
    UnknownQuery(String),
    /// A schema entry references an unknown predicate without declaring an
    /// arity (`"P/2"` declares one).
    UnknownPredicate(String),
    /// The containment engine rejected the question.
    Containment(ContainmentError),
    /// An `evaluate`-at-version request named a version the store can no
    /// longer reconstruct: it predates the compaction floor and no snapshot
    /// pinned it, or it does not exist yet.
    StaleVersion(String),
    /// Admission control refused the request: the server is over its queue
    /// watermark (or the request's deadline cannot survive the predicted
    /// queue wait). Structured and retryable — shedding answers instead of
    /// queueing, so an overload burst never poisons the worker pool.
    Shed {
        /// Requests queued ahead of this one when it was refused.
        queue_depth: usize,
        /// The admission watermark in force.
        watermark: usize,
    },
    /// A connection buffered more than `limit_bytes` without completing a
    /// batch. The reactor answers once and closes the connection.
    TooLarge {
        /// The per-connection cap on buffered, unbatched bytes.
        limit_bytes: usize,
    },
}

impl ServeError {
    /// Stable machine-readable kind for the JSON error object.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Json(_) => "json",
            ServeError::BadRequest(_) => "bad_request",
            ServeError::UnknownOp(_) => "unknown_op",
            ServeError::Parse(_) => "parse",
            ServeError::UnknownName(_) => "unknown_name",
            ServeError::UnknownQuery(_) => "unknown_query",
            ServeError::UnknownPredicate(_) => "unknown_predicate",
            ServeError::Containment(_) => "containment",
            ServeError::StaleVersion(_) => "stale_version",
            ServeError::Shed { .. } => "shed",
            ServeError::TooLarge { .. } => "too_large",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Json(msg) => write!(f, "invalid JSON: {msg}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::UnknownOp(op) => write!(f, "unknown op {op:?}"),
            ServeError::Parse(e) => write!(f, "parse error: {e}"),
            ServeError::UnknownName(n) => write!(f, "no registered OMQ named {n:?}"),
            ServeError::UnknownQuery(q) => write!(f, "program declares no query named {q:?}"),
            ServeError::UnknownPredicate(p) => write!(
                f,
                "schema predicate {p:?} is not declared; use \"{p}/N\" to intern it with arity N"
            ),
            ServeError::Containment(e) => write!(f, "containment error: {e}"),
            ServeError::StaleVersion(msg) => write!(f, "stale version: {msg}"),
            ServeError::Shed {
                queue_depth,
                watermark,
            } => write!(
                f,
                "shed: queue depth {queue_depth} at or over the admission watermark {watermark}; retry later"
            ),
            ServeError::TooLarge { limit_bytes } => write!(
                f,
                "more than {limit_bytes} bytes buffered without a blank line ending the batch; closing the connection"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Parse(e) => Some(e),
            ServeError::Containment(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for ServeError {
    fn from(e: ParseError) -> Self {
        ServeError::Parse(e)
    }
}

impl From<ContainmentError> for ServeError {
    fn from(e: ContainmentError) -> Self {
        ServeError::Containment(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_cover_all_variants() {
        let variants: Vec<ServeError> = vec![
            ServeError::Json("x".into()),
            ServeError::BadRequest("y".into()),
            ServeError::UnknownOp("z".into()),
            ServeError::UnknownName("a".into()),
            ServeError::UnknownQuery("b".into()),
            ServeError::UnknownPredicate("P".into()),
            ServeError::Containment(ContainmentError::ArityMismatch),
            ServeError::StaleVersion("c".into()),
            ServeError::Shed {
                queue_depth: 9,
                watermark: 4,
            },
            ServeError::TooLarge { limit_bytes: 16 },
        ];
        for v in &variants {
            assert!(!v.to_string().is_empty());
            assert!(!v.kind().is_empty());
        }
        use std::error::Error;
        assert!(ServeError::Containment(ContainmentError::ArityMismatch)
            .source()
            .is_some());
        assert!(ServeError::Json("x".into()).source().is_none());
    }
}
