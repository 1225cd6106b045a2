//! Canonical cache keys for registered OMQs and rewriting configurations.
//!
//! The serving layer caches by *meaning*, not by name: two registrations of
//! alpha-variant OMQs (same ontology, isomorphic queries) share one
//! [`OmqKey`] and therefore one cache slot. The query component uses the
//! canonical CQ forms from `omq_chase::cq_ops` — the same isomorphism-class
//! labels XRewrite deduplicates with — so key equality is invariant under
//! bijective variable renaming of the query disjuncts.
//!
//! `CqCanonicalForm` speaks in `PredId`s, which are only meaningful within
//! one vocabulary; the key embeds the id → (name, arity) table of every
//! predicate the OMQ mentions, so keys minted from different vocabularies
//! (or from a registry restarted with a different interning order) can
//! never alias.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use omq_chase::{cq_canonical_form, CqCanonicalForm};
use omq_model::{Cq, Omq, Term, Tgd, VarId, Vocabulary};
use omq_rewrite::{DedupStrategy, XRewriteConfig};

/// Relabeling budget for canonical-labeling calls (mirrors XRewrite's own
/// budget; queries that exceed it fall back to a rendered-text key, which
/// is exact but not alpha-invariant — a conservative cache key).
const SYMMETRY_BUDGET: usize = 5_040;

/// Identity of one query disjunct within a key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum DisjunctKey {
    /// Canonical (alpha-invariant) form.
    Canonical(CqCanonicalForm),
    /// Fallback for pathologically symmetric disjuncts: head variable
    /// indices plus the debug rendering of the body (exact, conservative).
    Rendered(String),
}

/// Canonical identity of an OMQ for caching purposes.
///
/// Two OMQs with equal keys have the same data schema, the same ontology
/// (syntactically, rendered), and isomorphic query disjunct lists — enough
/// to guarantee identical rewritings and containment verdicts.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct OmqKey {
    /// Sorted `(name, arity)` of the data schema.
    schema: Vec<(String, usize)>,
    /// `id → (name, arity)` for every predicate the OMQ mentions, sorted by
    /// id: anchors the `PredId`s inside the canonical forms (module docs).
    preds: Vec<(u32, String, usize)>,
    /// `id → name` for every constant the query mentions, sorted by id:
    /// anchors the `ConstId`s inside the canonical forms the same way.
    consts: Vec<(u32, String)>,
    /// Alpha-invariantly rendered tgds (variables renamed to their
    /// first-occurrence index), in ontology order.
    sigma: Vec<String>,
    /// Per-disjunct canonical forms, in disjunct order.
    query: Vec<DisjunctKey>,
    /// Answer arity (cheap discriminator; also covered by the forms).
    arity: usize,
}

/// Renders `t` with variables replaced by their first-occurrence index
/// (body first, then head), so alpha-variant tgds render identically while
/// distinct rules stay distinct. Constants render by name.
fn tgd_key(t: &Tgd, voc: &Vocabulary) -> String {
    let mut names: HashMap<VarId, usize> = HashMap::new();
    let mut render_atoms = |atoms: &[omq_model::Atom]| -> String {
        atoms
            .iter()
            .map(|a| {
                let args: Vec<String> = a
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => {
                            let next = names.len();
                            format!("V{}", *names.entry(*v).or_insert(next))
                        }
                        Term::Const(c) => format!("'{}'", voc.const_name(*c)),
                        Term::Null(_) => unreachable!("tgds contain no nulls"),
                    })
                    .collect();
                format!("{}({})", voc.pred_name(a.pred), args.join(","))
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let body = render_atoms(&t.body);
    let head = render_atoms(&t.head);
    format!("{body}->{head}")
}

fn disjunct_key(d: &Cq) -> DisjunctKey {
    match cq_canonical_form(d, SYMMETRY_BUDGET) {
        Some(form) => DisjunctKey::Canonical(form),
        None => DisjunctKey::Rendered(format!("{:?}|{:?}", d.head, d.body)),
    }
}

impl OmqKey {
    /// Computes the key of `omq` under `voc`.
    pub fn of(omq: &Omq, voc: &Vocabulary) -> OmqKey {
        let mut schema: Vec<(String, usize)> = omq
            .data_schema
            .preds()
            .iter()
            .map(|&p| (voc.pred_name(p).to_owned(), voc.arity(p)))
            .collect();
        schema.sort();
        let mut pred_ids: Vec<u32> = omq
            .data_schema
            .preds()
            .iter()
            .copied()
            .chain(
                omq.sigma
                    .iter()
                    .flat_map(|t| t.body.iter().chain(t.head.iter()).map(|a| a.pred)),
            )
            .chain(
                omq.query
                    .disjuncts
                    .iter()
                    .flat_map(|d| d.body.iter().map(|a| a.pred)),
            )
            .map(|p| p.0)
            .collect();
        pred_ids.sort_unstable();
        pred_ids.dedup();
        let preds = pred_ids
            .into_iter()
            .map(|id| {
                let p = omq_model::PredId(id);
                (id, voc.pred_name(p).to_owned(), voc.arity(p))
            })
            .collect();
        let mut const_ids: Vec<u32> = omq
            .query
            .disjuncts
            .iter()
            .flat_map(|d| d.body.iter().flat_map(|a| a.args.iter()))
            .filter_map(|t| match t {
                Term::Const(c) => Some(c.0),
                _ => None,
            })
            .collect();
        const_ids.sort_unstable();
        const_ids.dedup();
        let consts = const_ids
            .into_iter()
            .map(|id| (id, voc.const_name(omq_model::ConstId(id)).to_owned()))
            .collect();
        OmqKey {
            schema,
            preds,
            consts,
            sigma: omq.sigma.iter().map(|t| tgd_key(t, voc)).collect(),
            query: omq.query.disjuncts.iter().map(disjunct_key).collect(),
            arity: omq.query.arity,
        }
    }

    /// A short stable hex digest for responses and logs.
    pub fn digest(&self) -> String {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        format!("{:016x}", h.finish())
    }
}

/// The output-relevant fingerprint of an [`XRewriteConfig`].
///
/// Only knobs that change the *produced rewriting* participate: thread
/// count and prune cadence are scheduling-only (documented bit-identical),
/// and the wall-clock budget is excluded because the cache stores complete
/// artifacts only — a complete rewriting is independent of how much time
/// was allowed for it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RewriteCfgKey {
    max_queries: usize,
    dedup_canonical: bool,
    prune_subsumed: bool,
}

impl RewriteCfgKey {
    /// A short stable hex digest (same scheme as [`OmqKey::digest`]); used
    /// with the OMQ digest to name persisted artifact files.
    pub fn digest(&self) -> String {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        format!("{:016x}", h.finish())
    }

    pub fn of(cfg: &XRewriteConfig) -> RewriteCfgKey {
        RewriteCfgKey {
            max_queries: cfg.max_queries,
            dedup_canonical: cfg.dedup == DedupStrategy::Canonical,
            prune_subsumed: cfg.prune_subsumed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_model::{parse_program, Schema};

    fn build(text: &str, data: &[&str], q: &str) -> (Omq, Vocabulary) {
        let prog = parse_program(text).unwrap();
        let voc = prog.voc.clone();
        let schema = Schema::from_preds(data.iter().map(|n| voc.pred_id(n).unwrap()));
        (
            Omq::new(schema, prog.tgds.clone(), prog.query(q).unwrap().clone()),
            voc,
        )
    }

    /// Alpha-variant queries (renamed variables) get the same key — the
    /// canonical-sharing property the artifact cache is built on.
    #[test]
    fn alpha_variants_share_a_key() {
        let (a, voc_a) = build(
            "P(X) -> exists Y . R(X,Y)\nq(X) :- R(X,Y), P(Y)\n",
            &["P", "R"],
            "q",
        );
        let (b, voc_b) = build(
            "P(U) -> exists V . R(U,V)\nq(S) :- R(S,T), P(T)\n",
            &["P", "R"],
            "q",
        );
        assert_eq!(OmqKey::of(&a, &voc_a), OmqKey::of(&b, &voc_b));
        assert_eq!(
            OmqKey::of(&a, &voc_a).digest(),
            OmqKey::of(&b, &voc_b).digest()
        );
    }

    /// Different queries, schemas, or ontologies get different keys.
    #[test]
    fn semantic_differences_split_keys() {
        let (a, voc_a) = build(
            "P(X) -> exists Y . R(X,Y)\nq(X) :- R(X,Y), P(Y)\n",
            &["P", "R"],
            "q",
        );
        let (b, voc_b) = build(
            "P(X) -> exists Y . R(X,Y)\nq(X) :- R(X,Y)\n",
            &["P", "R"],
            "q",
        );
        let (c, voc_c) = build(
            "P(X) -> exists Y . R(X,Y)\nq(X) :- R(X,Y), P(Y)\n",
            &["P"],
            "q",
        );
        let ka = OmqKey::of(&a, &voc_a);
        assert_ne!(ka, OmqKey::of(&b, &voc_b), "different query bodies");
        assert_ne!(ka, OmqKey::of(&c, &voc_c), "different data schemas");
    }

    /// The key survives vocabularies with different interning orders.
    #[test]
    fn interning_order_does_not_matter() {
        let (a, voc_a) = build(
            "P(X) -> R(X)\nT(X) -> P(X)\nq(X) :- R(X)\n",
            &["P", "T"],
            "q",
        );
        // Same rules, different line order -> different PredId assignment.
        let (b, voc_b) = build(
            "T(X) -> P(X)\nP(X) -> R(X)\nq(X) :- R(X)\n",
            &["P", "T"],
            "q",
        );
        // Sigma order differs, so keys differ; but rebuilding `a`'s sigma
        // order in `b`'s vocabulary must match `a` exactly.
        assert_ne!(OmqKey::of(&a, &voc_a), OmqKey::of(&b, &voc_b));
        let (b2, voc_b2) = build(
            "T(X) -> P(X)\nP(X) -> R(X)\nq(X) :- R(X)\n",
            &["P", "T"],
            "q",
        );
        assert_eq!(OmqKey::of(&b, &voc_b), OmqKey::of(&b2, &voc_b2));
    }

    #[test]
    fn cfg_key_tracks_output_relevant_knobs_only() {
        let base = XRewriteConfig::default();
        let mut threads = base.clone();
        threads.threads = 7;
        assert_eq!(RewriteCfgKey::of(&base), RewriteCfgKey::of(&threads));
        let mut budget = base.clone();
        budget.max_queries = 99;
        assert_ne!(RewriteCfgKey::of(&base), RewriteCfgKey::of(&budget));
    }
}
