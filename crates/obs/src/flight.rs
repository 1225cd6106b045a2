//! Flight recorder: an always-on ring of recent span trees with
//! tail-based retention. Every request's tree is offered; the recorder
//! keeps a short ring of recent trees plus a separate retained ring for
//! the requests that matter after the fact — shed, timed out, or slower
//! than a threshold — so a `trace_dump` can explain an incident without
//! tracing having been pre-enabled. Requests whose spans were not
//! captured (shed before execution, or run under an embedder's recorder)
//! are offered as synthetic root-only trees.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::{Sample, Value};
use crate::{Event, Sink};

/// Cap on spans captured per request; deeper trees are truncated rather
/// than allocated without bound.
pub const NODE_CAP: usize = 256;

const RECENT_CAP: usize = 256;
const RETAINED_CAP: usize = 64;

/// One span of a captured tree. `parent == 0` marks a root.
#[derive(Clone, Debug)]
pub struct SpanNode {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub dur_us: u64,
}

/// A captured span tree with its counter deltas — what a [`TreeSink`]
/// drains and a [`FlightRecorder`] is offered.
#[derive(Clone, Debug, Default)]
pub struct SpanTree {
    pub spans: Vec<SpanNode>,
    /// Counters emitted during the request (cache hits, coalescing
    /// leader links, ...), in emission order.
    pub counts: Vec<(&'static str, u64)>,
    pub truncated: bool,
}

impl SpanTree {
    /// A synthetic single-root tree, for requests whose spans were not
    /// captured (shed before execution, an embedder's recorder, ...).
    pub fn root(name: &'static str, dur_us: u64) -> SpanTree {
        SpanTree {
            spans: vec![SpanNode {
                id: 1,
                parent: 0,
                name,
                dur_us,
            }],
            counts: Vec::new(),
            truncated: false,
        }
    }
}

/// One request's captured tree plus the retention verdict.
#[derive(Clone, Debug)]
pub struct FlightEntry {
    /// Monotonic capture sequence number (process-local).
    pub seq: u64,
    pub trace_id: u64,
    pub op: &'static str,
    /// Why this entry is interesting: "shed", "timeout", "slow", or
    /// "recent" for entries only in the recent ring.
    pub reason: &'static str,
    pub wall_us: u64,
    pub spans: Vec<SpanNode>,
    /// Counters emitted during the request (cache hits, coalescing
    /// leader links, ...), in emission order.
    pub counts: Vec<(&'static str, u64)>,
    pub truncated: bool,
}

/// Fixed-size dual-ring recorder. All writes take one short mutex; the
/// payloads are small (span vectors are capped) so contention is
/// negligible next to request execution.
pub struct FlightRecorder {
    slow_threshold_us: AtomicU64,
    seq: AtomicU64,
    offered: AtomicU64,
    retained_total: AtomicU64,
    recent: Mutex<VecDeque<FlightEntry>>,
    retained: Mutex<VecDeque<FlightEntry>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder").finish_non_exhaustive()
    }
}

impl FlightRecorder {
    pub fn new(slow_threshold_us: u64) -> FlightRecorder {
        FlightRecorder {
            slow_threshold_us: AtomicU64::new(slow_threshold_us),
            seq: AtomicU64::new(0),
            offered: AtomicU64::new(0),
            retained_total: AtomicU64::new(0),
            recent: Mutex::new(VecDeque::with_capacity(RECENT_CAP)),
            retained: Mutex::new(VecDeque::with_capacity(RETAINED_CAP)),
        }
    }

    pub fn slow_threshold_us(&self) -> u64 {
        self.slow_threshold_us.load(Ordering::Relaxed)
    }

    /// Offer one request's tree. `forced` pins a tail reason decided by
    /// the caller ("shed", "timeout"); otherwise the entry is retained
    /// iff its wall time crosses the slow threshold.
    pub fn offer(
        &self,
        trace_id: u64,
        op: &'static str,
        wall_us: u64,
        tree: SpanTree,
        forced: Option<&'static str>,
    ) {
        self.offered.fetch_add(1, Ordering::Relaxed);
        let reason = match forced {
            Some(r) => Some(r),
            None if wall_us > self.slow_threshold_us() => Some("slow"),
            None => None,
        };
        let entry = FlightEntry {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            trace_id,
            op,
            reason: reason.unwrap_or("recent"),
            wall_us,
            spans: tree.spans,
            counts: tree.counts,
            truncated: tree.truncated,
        };
        if reason.is_some() {
            self.retained_total.fetch_add(1, Ordering::Relaxed);
            let mut ring = self.retained.lock().unwrap_or_else(|e| e.into_inner());
            if ring.len() == RETAINED_CAP {
                ring.pop_front();
            }
            ring.push_back(entry);
        } else {
            let mut ring = self.recent.lock().unwrap_or_else(|e| e.into_inner());
            if ring.len() == RECENT_CAP {
                ring.pop_front();
            }
            ring.push_back(entry);
        }
    }

    /// (retained, recent), each oldest-first.
    pub fn snapshot(&self) -> (Vec<FlightEntry>, Vec<FlightEntry>) {
        let retained = self
            .retained
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect();
        let recent = self
            .recent
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect();
        (retained, recent)
    }

    /// The recorder's half of the scrape: offered and retained totals and
    /// the occupancy of both rings. Process-wide, so a front end adds them
    /// once however many engines share the recorder.
    pub fn samples(&self) -> Vec<Sample> {
        let (offered, retained_total, recent_len, retained_len) = self.counts();
        let ring = |ring: &str, len: usize| Sample {
            name: "omq_flight_ring_entries",
            help: "Current flight-recorder ring occupancy.",
            labels: vec![("ring", ring.to_owned())],
            value: Value::Gauge(len as f64),
        };
        vec![
            Sample {
                name: "omq_flight_offered_total",
                help: "Request trees offered to the flight recorder.",
                labels: Vec::new(),
                value: Value::Counter(offered),
            },
            Sample {
                name: "omq_flight_retained_total",
                help: "Request trees retained by tail-based sampling (shed/timeout/slow).",
                labels: Vec::new(),
                value: Value::Counter(retained_total),
            },
            ring("recent", recent_len),
            ring("retained", retained_len),
        ]
    }

    /// (offered_total, retained_total, recent_len, retained_len).
    pub fn counts(&self) -> (u64, u64, usize, usize) {
        (
            self.offered.load(Ordering::Relaxed),
            self.retained_total.load(Ordering::Relaxed),
            self.recent.lock().unwrap_or_else(|e| e.into_inner()).len(),
            self.retained
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .len(),
        )
    }
}

#[derive(Default)]
struct TreeInner {
    tree: SpanTree,
}

/// A [`Sink`] that rebuilds the span tree of one request in memory so it
/// can be offered to the [`FlightRecorder`] after the request finishes.
pub struct TreeSink {
    inner: Mutex<TreeInner>,
}

impl TreeSink {
    pub fn new() -> TreeSink {
        TreeSink {
            inner: Mutex::new(TreeInner::default()),
        }
    }

    /// Drain the captured tree.
    pub fn take(&self) -> SpanTree {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut inner.tree)
    }
}

impl Default for TreeSink {
    fn default() -> TreeSink {
        TreeSink::new()
    }
}

impl Sink for TreeSink {
    fn event(&self, ev: &Event) {
        let inner = &mut self.inner.lock().unwrap_or_else(|e| e.into_inner()).tree;
        match ev {
            Event::Enter {
                id, parent, name, ..
            } => {
                if inner.spans.len() < NODE_CAP {
                    inner.spans.push(SpanNode {
                        id: *id,
                        parent: *parent,
                        name,
                        dur_us: 0,
                    });
                } else {
                    inner.truncated = true;
                }
            }
            Event::Exit { id, dur_ns, .. } => {
                // Exits arrive innermost-first; search from the back.
                if let Some(node) = inner.spans.iter_mut().rev().find(|n| n.id == *id) {
                    node.dur_us = dur_ns / 1_000;
                }
            }
            Event::Count { name, delta, .. } => {
                if inner.counts.len() < NODE_CAP {
                    inner.counts.push((name, *delta));
                } else {
                    inner.truncated = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_retention_keeps_forced_and_slow() {
        let fr = FlightRecorder::new(1_000);
        fr.offer(
            1,
            "serve.contains",
            50,
            SpanTree::root("serve.contains", 50),
            None,
        );
        fr.offer(
            2,
            "serve.contains",
            5_000,
            SpanTree::root("serve.contains", 5_000),
            None,
        );
        fr.offer(
            3,
            "serve.evaluate",
            10,
            SpanTree::root("serve.evaluate", 10),
            Some("timeout"),
        );
        fr.offer(4, "serve.contains", 0, SpanTree::default(), Some("shed"));
        let (retained, recent) = fr.snapshot();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].reason, "recent");
        let reasons: Vec<_> = retained.iter().map(|e| e.reason).collect();
        assert_eq!(reasons, ["slow", "timeout", "shed"]);
        let (offered, retained_total, _, _) = fr.counts();
        assert_eq!((offered, retained_total), (4, 3));
    }

    #[test]
    fn rings_are_bounded() {
        let fr = FlightRecorder::new(u64::MAX);
        for i in 0..(RECENT_CAP as u64 + 10) {
            fr.offer(i, "serve.contains", 1, SpanTree::default(), None);
        }
        for i in 0..(RETAINED_CAP as u64 + 10) {
            fr.offer(i, "serve.contains", 1, SpanTree::default(), Some("shed"));
        }
        let (retained, recent) = fr.snapshot();
        assert_eq!(recent.len(), RECENT_CAP);
        assert_eq!(retained.len(), RETAINED_CAP);
        // Oldest entries were evicted.
        assert_eq!(recent[0].trace_id, 10);
        assert_eq!(retained[0].trace_id, 10);
    }

    #[test]
    fn tree_sink_rebuilds_durations_and_counts() {
        let sink = TreeSink::new();
        sink.event(&Event::Enter {
            id: 1,
            parent: 0,
            name: "outer",
            trace: 7,
        });
        sink.event(&Event::Enter {
            id: 2,
            parent: 1,
            name: "inner",
            trace: 7,
        });
        sink.event(&Event::Count {
            name: "hits",
            delta: 3,
            trace: 7,
        });
        sink.event(&Event::Exit {
            id: 2,
            name: "inner",
            dur_ns: 5_000,
            trace: 7,
        });
        sink.event(&Event::Exit {
            id: 1,
            name: "outer",
            dur_ns: 9_000,
            trace: 7,
        });
        let tree = sink.take();
        assert!(!tree.truncated);
        assert_eq!(tree.spans.len(), 2);
        assert_eq!((tree.spans[0].name, tree.spans[0].dur_us), ("outer", 9));
        assert_eq!(
            (
                tree.spans[1].name,
                tree.spans[1].parent,
                tree.spans[1].dur_us
            ),
            ("inner", 1, 5)
        );
        assert_eq!(tree.counts, [("hits", 3)]);
    }
}
