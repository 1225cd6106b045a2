//! Compiling a guarded OMQ's *encoding artifact*: the C-tree/2WAPA
//! pipeline of §5 run once, ahead of time, over the critical instance.
//!
//! The artifact certifies the automata-theoretic machinery for one OMQ:
//! the critical instance (every schema atom over a single constant `*`)
//! is unraveled into a C-tree (Lemma 37), encoded as a `Γ_{S,l}`-labeled
//! tree (Lemma 41), checked against the consistency conditions, and the
//! downward consistency 2WAPA of Lemma 23 is translated to an NTA whose
//! emptiness is decided with the budget-aware parallel fixpoint. All of
//! this depends only on the OMQ (not on any request database), so serving
//! layers cache the artifact under the OMQ's canonical key and warm
//! requests skip automaton construction entirely.

use omq_chase::{Budget, Guarantee};
use omq_model::{Omq, Term, Vocabulary};

use crate::encoding::{consistency_automaton_downward, encode, is_consistent, NodeLabel};
use crate::guarded_eval::{guarded_certain_answers, GuardedConfig};
use crate::unravel::unravel;

/// Budgets and shape bounds for [`compile_encoding`].
#[derive(Clone, Debug)]
pub struct EncodingConfig {
    /// Unraveling depth around the critical constant.
    pub depth: usize,
    /// Worker threads for the NTA emptiness fixpoint (`0` = available
    /// parallelism, `1` = sequential).
    pub threads: usize,
    /// Wall-clock/cancellation budget for the emptiness check. Expiry
    /// leaves [`EncodingArtifact::nonempty`] undecided (`None`), so the
    /// artifact is not [`complete`](EncodingArtifact::complete).
    pub budget: Budget,
}

impl Default for EncodingConfig {
    fn default() -> Self {
        EncodingConfig {
            depth: 2,
            threads: 1,
            budget: Budget::unlimited(),
        }
    }
}

/// The compiled encoding of one guarded OMQ (everything downstream of the
/// per-OMQ automaton construction, none of the per-database work).
#[derive(Clone, Debug)]
pub struct EncodingArtifact {
    /// Nodes of the unraveled C-tree.
    pub ctree_nodes: usize,
    /// Distinct `Γ_{S,l}` symbols appearing in the encoding.
    pub alphabet_size: usize,
    /// States of the downward consistency 2WAPA.
    pub twapa_states: usize,
    /// States / transitions of its NTA translation.
    pub nta_states: usize,
    pub nta_transitions: usize,
    /// The NTA itself, kept so cached artifacts can be re-queried without
    /// re-running the alternating→nondeterministic translation.
    pub nta: omq_automata::Nta<NodeLabel>,
    /// Did the encoding pass the five consistency conditions of §5.2?
    pub consistent: bool,
    /// Is the NTA's language nonempty? `None` when the budget expired
    /// before the fixpoint decided.
    pub nonempty: Option<bool>,
    /// Is the OMQ satisfiable? Decided on the critical instance (every
    /// `S`-database maps homomorphically into it and OMQs are closed under
    /// homomorphisms, so `Q` is satisfiable iff `Q(D_crit) ≠ ∅`) with the
    /// guarded engine under the compile budget. `Some(false)` licenses the
    /// trivial-containment short-circuit in the anytime ladder (`Q₁ ⊑ Q₂`
    /// vacuously when `Q₁` holds on no database); `None` when no answer was
    /// found and the guarded chase was capped before its fixpoint.
    pub critical_satisfiable: Option<bool>,
}

impl EncodingArtifact {
    /// Did every check run to completion? Caches store complete artifacts
    /// only (an incomplete one depends on the budget that truncated it).
    pub fn complete(&self) -> bool {
        self.nonempty.is_some() && self.critical_satisfiable.is_some()
    }
}

/// Runs the critical-instance → unravel → encode → 2WAPA → NTA pipeline
/// for `omq` under the span `guarded.encode`.
///
/// Returns `None` when the encoding itself is impossible within the
/// paper's name-pool bounds (core larger than `l`, or a bag wider than the
/// schema arity) — a structural property of the OMQ, not a budget effect.
pub fn compile_encoding(
    omq: &Omq,
    voc: &mut Vocabulary,
    cfg: &EncodingConfig,
) -> Option<EncodingArtifact> {
    let _span = omq_obs::span("guarded.encode");
    let (crit, star) = omq_chase::critical_instance(&omq.data_schema, voc);
    let x0 = [Term::Const(star)];
    let unr = unravel(&crit, &x0, cfg.depth, voc);
    // Name-pool parameters: the core is x0's copies (ℓ bounds it), bags are
    // guarded sets, so the maximal predicate arity bounds their width.
    let l = unr.ctree.decomposition.tree.label(0).len().max(1);
    let ar = omq
        .data_schema
        .preds()
        .iter()
        .copied()
        .chain(
            omq.sigma
                .iter()
                .flat_map(|t| t.body.iter().chain(t.head.iter()).map(|a| a.pred)),
        )
        .map(|p| voc.arity(p))
        .max()
        .unwrap_or(1)
        .max(1);
    let enc = encode(&unr.ctree, l, ar)?;
    let consistent = is_consistent(&enc, l, ar);
    let mut alphabet: Vec<NodeLabel> = Vec::new();
    let mut max_branching = 1usize;
    for n in enc.nodes() {
        if !alphabet.contains(enc.label(n)) {
            alphabet.push(enc.label(n).clone());
        }
        max_branching = max_branching.max(enc.children(n).len());
    }
    let aut = consistency_automaton_downward(&alphabet, l, ar);
    let twapa_states = aut.num_states;
    let nta = aut.to_nta(max_branching).ok()?;
    let nonempty = nta
        .is_empty_with(cfg.threads, &cfg.budget)
        .map(|empty| !empty);
    // Critical-instance satisfiability (see `EncodingArtifact` docs): an
    // empty answer set certifies that the OMQ holds on *no* database only
    // when the guarded chase of `D_crit` terminated (`Exact`). A capped run
    // (a `Window` stop included) may have stopped before a deep match, so
    // it decides nothing.
    let critical_satisfiable = if cfg.budget.expired() {
        // The guarded engine only polls the budget at round boundaries, so a
        // budget that is already spent could still "decide" a tiny critical
        // instance; report undecided instead so the artifact stays uncached.
        None
    } else {
        let gcfg = GuardedConfig {
            budget: cfg.budget.clone(),
            ..GuardedConfig::default()
        };
        let ans = guarded_certain_answers(omq, &crit, voc, &gcfg);
        match ans.guarantee {
            _ if !ans.answers.is_empty() => Some(true),
            Guarantee::Exact => Some(false),
            Guarantee::Capped(_) => None,
        }
    };
    omq_obs::counter("guarded.encodings_compiled", 1);
    Some(EncodingArtifact {
        ctree_nodes: unr.ctree.decomposition.tree.len(),
        alphabet_size: alphabet.len(),
        twapa_states,
        nta_states: nta.num_states,
        nta_transitions: nta.transitions.len(),
        nta,
        consistent,
        nonempty,
        critical_satisfiable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_model::{parse_program, Schema};

    fn guarded_omq() -> (Omq, Vocabulary) {
        let prog =
            parse_program("G(X,Y,Z), R(X,Y) -> exists W . G(Y,Z,W), R(Y,Z)\nq :- R(X,Y), R(Y,Z)\n")
                .unwrap();
        let voc = prog.voc.clone();
        let schema = Schema::from_preds(["G", "R"].iter().map(|n| voc.pred_id(n).unwrap()));
        (
            Omq::new(schema, prog.tgds.clone(), prog.query("q").unwrap().clone()),
            voc,
        )
    }

    #[test]
    fn critical_instance_encoding_is_consistent_and_nonempty() {
        let (omq, mut voc) = guarded_omq();
        let art = compile_encoding(&omq, &mut voc, &EncodingConfig::default())
            .expect("guarded OMQ encodes");
        assert!(art.consistent, "unraveling encodes consistently");
        assert_eq!(art.nonempty, Some(true), "the encoding itself is accepted");
        assert_eq!(
            art.critical_satisfiable,
            Some(true),
            "q holds on the critical instance"
        );
        assert!(art.complete());
        assert!(art.ctree_nodes >= 1);
        assert!(art.alphabet_size >= 1);
        assert!(art.nta_states >= 1);
    }

    #[test]
    fn compile_is_deterministic_across_vocabulary_clones() {
        let (omq, voc) = guarded_omq();
        let run = || {
            let mut v = voc.clone();
            let a = compile_encoding(&omq, &mut v, &EncodingConfig::default()).unwrap();
            (
                a.ctree_nodes,
                a.alphabet_size,
                a.twapa_states,
                a.nta_states,
                a.nta_transitions,
                a.consistent,
                a.nonempty,
                a.critical_satisfiable,
            )
        };
        assert_eq!(run(), run(), "summary is a pure function of the OMQ");
    }

    #[test]
    fn expired_budget_leaves_emptiness_undecided_but_artifact_sound() {
        let (omq, mut voc) = guarded_omq();
        let cfg = EncodingConfig {
            budget: Budget::deadline_in(std::time::Duration::ZERO),
            ..EncodingConfig::default()
        };
        let art = compile_encoding(&omq, &mut voc, &cfg).expect("encoding still built");
        assert_eq!(art.nonempty, None);
        assert_eq!(
            art.critical_satisfiable, None,
            "satisfiability is undecided under an expired budget"
        );
        assert!(!art.complete(), "incomplete artifacts must not be cached");
        assert!(art.consistent, "consistency check is budget-independent");
    }

    #[test]
    fn unsatisfiable_omq_is_detected_on_the_critical_instance() {
        // The query asks for a predicate that is neither in the data schema
        // nor in any tgd head, so no database can ever satisfy it.
        let prog = parse_program(
            "G(X,Y,Z), R(X,Y) -> exists W . G(Y,Z,W), R(Y,Z)\nq :- U(X)\n\
             U(X) -> U(X)\n",
        )
        .unwrap();
        let voc = prog.voc.clone();
        let schema = Schema::from_preds(["G", "R"].iter().map(|n| voc.pred_id(n).unwrap()));
        let omq = Omq::new(schema, prog.tgds.clone(), prog.query("q").unwrap().clone());
        let mut v = voc.clone();
        let art = compile_encoding(&omq, &mut v, &EncodingConfig::default())
            .expect("encoding still built");
        assert_eq!(art.critical_satisfiable, Some(false));
    }
}
