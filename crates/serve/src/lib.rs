//! `omq-serve`: a concurrent serving layer for ontology-mediated queries.
//!
//! Wraps the solver stack (`omq-core` containment and evaluation,
//! `omq-rewrite` XRewrite) in a long-lived server: ontologies and OMQs are
//! registered once under canonical keys, requests arrive as JSON lines
//! (stdin/stdout or TCP), batches are scheduled across a bounded worker
//! pool, per-request deadlines cancel work cooperatively mid-round, and two
//! LRU caches (rewrite artifacts, containment verdicts) make repeated
//! questions cheap.
//!
//! Layering:
//!
//! * [`json`] — dependency-free JSON parsing/printing (ordered objects, so
//!   responses are byte-deterministic);
//! * [`key`] — canonical, alpha-invariant cache keys for OMQs and rewrite
//!   configurations;
//! * [`cache`] — an LRU with hit/miss/eviction accounting;
//! * [`registry`] — named OMQs over one shared vocabulary;
//! * [`protocol`] — request/response schema;
//! * [`tier`] — the portable (vocabulary-independent) artifact form and
//!   the persisted disk tier behind the in-memory artifact LRU;
//! * [`engine`] — scheduling, deadlines, caching, coalescing, solver
//!   dispatch;
//! * [`stats`] — the counter table behind the `stats` op and the scrape;
//! * [`admission`] — queue-depth admission control (load shedding);
//! * [`server`] — the stdin/stdout stream transport;
//! * [`reactor`] — the nonblocking, readiness-polled TCP front end.

pub mod admission;
pub mod cache;
pub mod engine;
pub mod error;
pub mod json;
pub mod key;
pub mod protocol;
pub mod reactor;
pub mod registry;
pub mod server;
pub mod stats;
pub mod tier;

pub use admission::Admission;
pub use cache::{CacheStats, LruCache};
pub use engine::{Engine, EngineConfig};
pub use error::ServeError;
pub use json::Json;
pub use key::{OmqKey, RewriteCfgKey};
pub use protocol::{parse_request, response_to_json, Op, Request, Response};
pub use reactor::{serve_reactor, spawn_metrics_exporter, ReactorConfig, RuntimeStats, StallWatch};
pub use registry::{RegisterInfo, Registered, Registry};
pub use server::serve_lines;
pub use tier::{DiskTier, DiskTierStats, PortableArtifact};
