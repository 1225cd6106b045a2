//! Pluggable rewriting providers.
//!
//! The UCQ rewriting is the expensive, *reusable* artifact of the whole
//! pipeline: containment checks and rewriting-based evaluation both consume
//! one, and a serving layer wants to compute it once per (OMQ, config) and
//! replay it across requests. [`RewriteSource`] is the seam that makes this
//! possible without the engines knowing about caches: `omq-core` routes
//! every rewriting request through a source, [`DirectRewrite`] reproduces
//! the old always-recompute behaviour, and `omq-serve` plugs in its LRU
//! artifact cache.
//!
//! ## Contract
//!
//! A source must return an artifact *semantically identical* to what
//! [`xrewrite`] would produce for the same `(omq, cfg)` — same disjunct
//! list, same guarantee — because callers rely on disjunct order (witness
//! replay) and on `guarantee` for their exactness claims. A
//! cache keyed on anything coarser than the full rewriting-relevant input
//! (ontology, query, data schema, config knobs) breaks this contract.

use omq_chase::Guarantee;
use omq_model::{Omq, Ucq, Vocabulary};

use crate::xrewrite::{xrewrite, RewriteError, XRewriteConfig};

/// A (possibly partial) UCQ rewriting, as consumed by containment and
/// evaluation: the disjunct list plus whether it is the *complete* rewriting
/// (a capped one is sound — every disjunct is a correct rewriting — but
/// proves no negative facts).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RewriteArtifact {
    /// The UCQ rewriting over the data schema.
    pub ucq: Ucq,
    /// `Exact` when the rewriting reached its fixpoint, otherwise the cap
    /// (`Queries` or `Deadline`) that truncated it.
    pub guarantee: Guarantee,
}

impl RewriteArtifact {
    /// Collapses an [`xrewrite`] result into the artifact form: both the
    /// `Ok` and the budget-exceeded paths carry a sound UCQ, they differ
    /// only in their guarantee.
    pub fn from_result(r: Result<crate::RewriteOutput, RewriteError>) -> RewriteArtifact {
        match r {
            Ok(out) => RewriteArtifact {
                ucq: out.ucq,
                guarantee: Guarantee::Exact,
            },
            Err(RewriteError::BudgetExceeded(cap, partial)) => RewriteArtifact {
                ucq: partial.ucq,
                guarantee: Guarantee::Capped(cap),
            },
        }
    }
}

/// Where containment/evaluation obtain UCQ rewritings from.
///
/// `&mut self` lets implementations maintain state (an LRU cache, hit
/// counters); the trait is object-safe so engines take `&mut dyn
/// RewriteSource` and stay monomorphization-free.
pub trait RewriteSource {
    /// Produces the rewriting of `omq` under `cfg` (computing or replaying
    /// it — see the module docs for the equivalence contract).
    fn rewrite(&mut self, omq: &Omq, voc: &mut Vocabulary, cfg: &XRewriteConfig)
        -> RewriteArtifact;
}

/// The default source: always runs [`xrewrite`] directly. Stateless; this
/// is exactly the pre-serving behaviour.
#[derive(Clone, Copy, Debug, Default)]
pub struct DirectRewrite;

impl RewriteSource for DirectRewrite {
    fn rewrite(
        &mut self,
        omq: &Omq,
        voc: &mut Vocabulary,
        cfg: &XRewriteConfig,
    ) -> RewriteArtifact {
        RewriteArtifact::from_result(xrewrite(omq, voc, cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_model::{parse_program, Schema};

    #[test]
    fn direct_source_matches_xrewrite() {
        let prog = parse_program(
            "P(X) -> exists Y . R(X,Y)\n\
             R(X,Y) -> P(Y)\n\
             T(X) -> P(X)\n\
             q(X) :- R(X,Y), P(Y)\n",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let schema = Schema::from_preds([voc.pred_id("P").unwrap(), voc.pred_id("T").unwrap()]);
        let omq = Omq::new(schema, prog.tgds.clone(), prog.query("q").unwrap().clone());
        let cfg = XRewriteConfig::default();
        let direct = xrewrite(&omq, &mut voc.clone(), &cfg).unwrap();
        let art = DirectRewrite.rewrite(&omq, &mut voc, &cfg);
        assert_eq!(art.guarantee, Guarantee::Exact);
        assert_eq!(art.ucq, direct.ucq);
    }
}
