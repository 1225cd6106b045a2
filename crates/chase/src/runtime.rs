//! Shared execution-runtime utilities: cooperative cancellation budgets and
//! the scoped worker-pool pattern used by every parallel sweep in the
//! workspace (chase rounds, XRewrite frontier expansion, the containment
//! disjunct sweep, and the serving layer's request engine).
//!
//! ## Budgets and cancellation
//!
//! Long-running algorithms in this workspace (the chase, XRewrite, the
//! anytime containment search) already carry *work* budgets — step counts,
//! query counts, null depths. [`Budget`] adds the *wall-clock* dimension: a
//! deadline and/or an externally triggered cancel flag, polled cooperatively
//! at the algorithms' existing round/step boundaries. An expired budget
//! never flips a verdict — every engine reports budget expiry through the
//! same channel as its work budgets, a [`Guarantee`], so results stay
//! sound (a refutation found before expiry is still a refutation; a missing
//! fixpoint is reported as `Capped(Cap::Deadline)` / `Unknown`).
//!
//! ## Worker pools
//!
//! [`effective_threads`] resolves a `threads` config knob (0 = machine
//! parallelism) and [`parallel_indexed`] runs the fetch-add-over-indices
//! loop with per-worker state that chase/rewrite/containment previously
//! each re-implemented.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative wall-clock/cancellation budget.
///
/// Cloning shares the cancel flag: cancelling through a [`CancelToken`]
/// expires every clone at once, which is how a serving request threads one
/// budget through the nested chase/rewrite/containment configs.
///
/// The default budget is unlimited and costs two `Option` checks per poll.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
}

/// Handle that expires the [`Budget`] it was split from (and all clones).
#[derive(Clone, Debug)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Expires the associated budget(s). Idempotent, callable from any
    /// thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has this token been cancelled?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

impl Budget {
    /// The unlimited budget (never expires).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A budget that expires `d` from now.
    pub fn deadline_in(d: Duration) -> Self {
        Budget {
            deadline: Instant::now().checked_add(d),
            cancel: None,
        }
    }

    /// A budget that expires at `t`.
    pub fn deadline_at(t: Instant) -> Self {
        Budget {
            deadline: Some(t),
            cancel: None,
        }
    }

    /// Attaches a cancel flag, returning the budget and its token.
    pub fn cancellable(mut self) -> (Self, CancelToken) {
        let flag = Arc::new(AtomicBool::new(false));
        self.cancel = Some(flag.clone());
        (self, CancelToken(flag))
    }

    /// Does this budget ever expire?
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.cancel.is_some()
    }

    /// Polls the budget. Cheap enough for per-trigger / per-disjunct call
    /// sites: a relaxed load plus (when a deadline is set) one clock read.
    pub fn expired(&self) -> bool {
        if let Some(c) = &self.cancel {
            if c.load(Ordering::Relaxed) {
                return true;
            }
        }
        match self.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// Time until the deadline (`None` when no deadline is set; zero when
    /// already past it).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

/// Whether a result is complete: the one completeness fact that every
/// layer, from the chase to the serve responses, passes on unchanged.
///
/// A capped result is always *sound* (every answer, disjunct or derived
/// atom is correct) but proves no negative fact: a missing answer may
/// still appear past the cap. There is no third, "heuristically complete"
/// state.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Guarantee {
    /// The producer reached its fixpoint: the result is exact.
    Exact,
    /// The producer stopped at the named cap before its fixpoint.
    Capped(Cap),
}

/// The cap that stopped a producer short of its fixpoint.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Cap {
    /// The chase's step budget (`max_steps`).
    Steps,
    /// The chase's null-depth budget (`max_depth`): a trigger was skipped
    /// because it would have created a too-deep null.
    Depth,
    /// XRewrite's query budget (`max_queries`).
    Queries,
    /// The wall-clock/cancellation [`Budget`] expired.
    Deadline,
    /// The guarded engine's stabilization window: the set of single-atom
    /// types stopped changing for `|q| + 1` depth levels. That is a
    /// heuristic, not a proof. A guarded 4-bit counter has every atom type
    /// by depth 8, yet reaches `1111` on one null only at depth 15, so a
    /// match can first appear past the window.
    Window,
}

/// Resolves a `threads` configuration knob for `work` independent items:
/// `0` means "the machine's available parallelism", any other value is
/// taken as-is; the result is clamped to `[1, work]`.
pub fn effective_threads(requested: usize, work: usize) -> usize {
    let t = match requested {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        t => t,
    };
    t.min(work).max(1)
}

/// Runs `body(&mut state, i)` for every `i in 0..n` across `threads` scoped
/// workers, each pulling indices from a shared atomic counter. `init` builds
/// one per-worker state (a scratch buffer, a cloned vocabulary, …); the
/// workers' final states are returned, in no particular order.
///
/// Scheduling is dynamic but index-complete: every index is handed to
/// exactly one worker (the body may still decide to skip it, e.g. under a
/// cancellation protocol). Determinism is the *caller's* contract — the
/// bodies in this workspace write to per-index slots or reduce through
/// lowest-index-wins atomics.
pub fn parallel_indexed<S>(
    threads: usize,
    n: usize,
    init: impl Fn() -> S + Sync,
    body: impl Fn(&mut S, usize) + Sync,
) -> Vec<S>
where
    S: Send,
{
    if n == 0 {
        return Vec::new();
    }
    let next = AtomicUsize::new(0);
    // The obs recorder is thread-local; propagate the caller's recorder (if
    // any) into each worker so spans/counters from the pool attach to the
    // same trace.
    let recorder = omq_obs::current();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(n))
            .map(|_| {
                let (next, init, body) = (&next, &init, &body);
                let recorder = recorder.clone();
                scope.spawn(move || {
                    let _obs = omq_obs::install(recorder);
                    let mut state = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        body(&mut state, i);
                    }
                    state
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_expires() {
        let b = Budget::unlimited();
        assert!(!b.is_limited());
        assert!(!b.expired());
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn deadline_expires() {
        let b = Budget::deadline_in(Duration::ZERO);
        assert!(b.is_limited());
        assert!(b.expired());
        let far = Budget::deadline_in(Duration::from_secs(3600));
        assert!(!far.expired());
        assert!(far.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn cancel_token_expires_all_clones() {
        let (b, token) = Budget::unlimited().cancellable();
        let clone = b.clone();
        assert!(!b.expired() && !clone.expired());
        token.cancel();
        assert!(token.is_cancelled());
        assert!(b.expired() && clone.expired());
    }

    #[test]
    fn effective_threads_resolves_and_clamps() {
        assert_eq!(effective_threads(4, 2), 2);
        assert_eq!(effective_threads(4, 100), 4);
        assert_eq!(effective_threads(1, 0), 1);
        assert!(effective_threads(0, usize::MAX) >= 1);
    }

    #[test]
    fn parallel_indexed_covers_every_index() {
        let n = 1000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_indexed(
            4,
            n,
            || 0usize,
            |state, i| {
                *state += 1;
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
