//! The session/registry layer: ontologies and OMQs are parsed and
//! registered *once*, into a single shared vocabulary, and every later
//! request refers to them by name.
//!
//! One vocabulary per registry is what makes cross-OMQ requests
//! (containment between two registrations) well-posed — both sides speak
//! the same `PredId`s. The registry keeps that vocabulary folded: all of
//! its symbols sit in the frozen base that every clone shares (see
//! [`Vocabulary`]), so a request's snapshot is one reference-count bump,
//! whatever the registry's size. The request interns whatever fresh
//! symbols it needs (frozen constants, database constants) into its own
//! overlay and drops it at the end, so concurrent requests can never
//! observe each other's interning. Registrations are shared the same way,
//! as `Arc<Registered>`.
//!
//! `register` parses into an overlay on the shared base and folds it in
//! only on success, so a parse error leaves no symbols behind. The fold
//! appends in place while no snapshot is alive; a live snapshot keeps the
//! base it was taken from, and the fold copies the base once.

use std::collections::HashMap;
use std::sync::Arc;

use omq_core::{detect_language, OmqLanguage};
use omq_model::{parse_query, parse_tgd, Omq, Schema, Tgd, Ucq, Vocabulary};

use crate::error::ServeError;
use crate::key::OmqKey;

/// A registered OMQ.
#[derive(Clone, Debug)]
pub struct Registered {
    /// The OMQ, interned in the registry vocabulary.
    pub omq: Omq,
    /// Canonical cache key (see `crate::key`).
    pub key: OmqKey,
    /// Detected language, computed once at registration.
    pub language: OmqLanguage,
    /// Name of the earlier registration this one aliases (same canonical
    /// key), if any. Lets the engine count alias-slot cache hits distinctly.
    pub alias_of: Option<String>,
}

/// What a registration call reports back.
#[derive(Clone, Debug)]
pub struct RegisterInfo {
    /// Digest of the canonical key (for logs / client-side dedup).
    pub digest: String,
    /// Language of the registered OMQ.
    pub language: OmqLanguage,
    /// Name of an earlier registration with the *same canonical key*, if
    /// any — the new name still works, and it shares all cache slots.
    pub alias_of: Option<String>,
}

/// The registry: named OMQs over one shared vocabulary.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    voc: Vocabulary,
    omqs: HashMap<String, Arc<Registered>>,
    /// First registered name per canonical key (alias detection).
    by_key: HashMap<OmqKey, String>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// The shared vocabulary (request jobs clone it; see the module docs).
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.voc
    }

    /// Number of registered OMQs.
    pub fn len(&self) -> usize {
        self.omqs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.omqs.is_empty()
    }

    /// Number of distinct canonical keys (≤ `len()`; the gap counts
    /// alias registrations).
    pub fn distinct_keys(&self) -> usize {
        self.by_key.len()
    }

    /// Looks a registration up by name.
    pub fn get(&self, name: &str) -> Result<&Arc<Registered>, ServeError> {
        self.omqs
            .get(name)
            .ok_or_else(|| ServeError::UnknownName(name.to_owned()))
    }

    /// Parses `program` (tgds and named queries, one per line — the
    /// `omq_model::parser` syntax) into the shared vocabulary and registers
    /// the OMQ `(schema, tgds, program.query(query_name))` under `name`.
    ///
    /// Schema entries are predicate names; `"P/2"` interns `P` with arity 2
    /// when the program itself never mentions it.
    pub fn register(
        &mut self,
        name: &str,
        program: &str,
        schema: &[&str],
        query_name: &str,
    ) -> Result<RegisterInfo, ServeError> {
        // Parse into an overlay on the shared base: a parse error drops it,
        // so no half-parsed program's symbols reach the registry.
        let mut voc = self.voc.clone();
        let (tgds, queries) = parse_program_into(&mut voc, program)?;
        let query: Ucq = queries
            .get(query_name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownQuery(query_name.to_owned()))?;
        let mut preds = Vec::with_capacity(schema.len());
        for entry in schema {
            let (pname, arity) = match entry.split_once('/') {
                Some((p, a)) => (
                    p,
                    Some(a.parse::<usize>().map_err(|_| {
                        ServeError::BadRequest(format!("bad schema entry {entry:?}"))
                    })?),
                ),
                None => (*entry, None),
            };
            let id = match (voc.pred_id(pname), arity) {
                (Some(id), _) => id,
                (None, Some(a)) => voc.pred(pname, a),
                (None, None) => return Err(ServeError::UnknownPredicate(pname.to_owned())),
            };
            preds.push(id);
        }
        let omq = Omq::new(Schema::from_preds(preds), tgds, query);
        let language = detect_language(&omq);
        let key = OmqKey::of(&omq, &voc);
        let digest = key.digest();
        let alias_of = self
            .by_key
            .get(&key)
            .filter(|first| first.as_str() != name)
            .cloned();
        // Commit: adopt the overlay and fold it into the base (in place once
        // the old handle is gone, unless a snapshot still holds the base).
        self.voc = voc;
        self.voc.fold();
        self.by_key
            .entry(key.clone())
            .or_insert_with(|| name.to_owned());
        self.omqs.insert(
            name.to_owned(),
            Arc::new(Registered {
                omq,
                key,
                language,
                alias_of: alias_of.clone(),
            }),
        );
        Ok(RegisterInfo {
            digest,
            language,
            alias_of,
        })
    }
}

/// Parses a program line-by-line into an *existing* vocabulary (unlike
/// `omq_model::parse_program`, which builds a fresh one). Lines whose
/// pre-comment text contains `:-` are queries, lines containing `->` are
/// tgds, anything else non-empty is an error.
fn parse_program_into(
    voc: &mut Vocabulary,
    text: &str,
) -> Result<(Vec<Tgd>, HashMap<String, Ucq>), ServeError> {
    let mut tgds = Vec::new();
    let mut queries: HashMap<String, Ucq> = HashMap::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let code = raw.split(['#', '%']).next().unwrap_or("");
        if code.trim().is_empty() {
            continue;
        }
        if code.contains(":-") {
            let (qname, cq) = parse_query(voc, raw)?;
            match queries.get_mut(&qname) {
                Some(ucq) => {
                    if ucq.arity != cq.head.len() {
                        return Err(ServeError::Parse(omq_model::ParseError {
                            line: lineno,
                            message: format!("query {qname} redeclared with different arity"),
                        }));
                    }
                    ucq.disjuncts.push(cq);
                }
                None => {
                    queries.insert(qname, Ucq::from_cq(cq));
                }
            }
        } else if code.contains("->") {
            tgds.push(parse_tgd(voc, raw)?);
        } else {
            return Err(ServeError::Parse(omq_model::ParseError {
                line: lineno,
                message: "expected a tgd (`->`) or a query (`:-`)".into(),
            }));
        }
    }
    Ok((tgds, queries))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROG: &str = "P(X) -> exists Y . R(X,Y)\n\
                        R(X,Y) -> P(Y)\n\
                        T(X) -> P(X)\n\
                        q(X) :- R(X,Y), P(Y)\n";

    #[test]
    fn register_and_lookup() {
        let mut reg = Registry::new();
        let info = reg.register("ex1", PROG, &["P", "T"], "q").unwrap();
        assert_eq!(info.language, OmqLanguage::Linear);
        assert!(info.alias_of.is_none());
        let r = reg.get("ex1").unwrap();
        assert_eq!(r.omq.arity(), 1);
        assert_eq!(reg.len(), 1);
        assert!(matches!(
            reg.get("nope").unwrap_err(),
            ServeError::UnknownName(_)
        ));
    }

    #[test]
    fn alias_detection_via_canonical_key() {
        let mut reg = Registry::new();
        reg.register("a", PROG, &["P", "T"], "q").unwrap();
        // Alpha-variant program: renamed variables only.
        let variant = "P(U) -> exists V . R(U,V)\n\
                       R(U,V) -> P(V)\n\
                       T(U) -> P(U)\n\
                       q(Z) :- R(Z,W), P(W)\n";
        let info = reg.register("b", variant, &["P", "T"], "q").unwrap();
        assert_eq!(info.alias_of.as_deref(), Some("a"));
        assert_eq!(reg.get("b").unwrap().alias_of.as_deref(), Some("a"));
        assert_eq!(reg.get("a").unwrap().alias_of, None);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.distinct_keys(), 1);
    }

    #[test]
    fn parse_error_leaves_registry_untouched() {
        let mut reg = Registry::new();
        reg.register("ex1", PROG, &["P", "T"], "q").unwrap();
        let before = reg.vocabulary().num_preds();
        // A request's snapshot, alive across the failed registration.
        let snap = reg.vocabulary().clone();
        assert!(snap.shares_base(reg.vocabulary()));
        let err = reg.register(
            "bad",
            "Zork(X) -> Quux(X)\nQuux(X) -> Blorp(X\n",
            &["Zork"],
            "q",
        );
        assert!(matches!(err.unwrap_err(), ServeError::Parse(_)));
        assert_eq!(reg.vocabulary().num_preds(), before);
        assert_eq!(reg.vocabulary().pred_id("Zork"), None);
        assert_eq!(reg.len(), 1);
        // The failed parse neither grew nor replaced the shared base.
        assert!(snap.shares_base(reg.vocabulary()));
        assert_eq!(snap.num_preds(), before);
        assert_eq!(snap.pred_id("Quux"), None);
        let names: Vec<&str> = snap.all_preds().map(|p| snap.pred_name(p)).collect();
        assert_eq!(names, ["P", "R", "T"]);
        // A later success folds a new base; the snapshot keeps its own.
        reg.register("ok", "Zork(X) -> P(X)\nq(X) :- Zork(X)\n", &["Zork"], "q")
            .unwrap();
        assert!(!snap.shares_base(reg.vocabulary()));
        assert_eq!(reg.vocabulary().pred_id("Zork").map(|p| p.0), Some(3));
        assert_eq!(snap.pred_id("Zork"), None);
        assert_eq!(snap.num_preds(), before);
    }

    #[test]
    fn schema_arity_syntax_interns_unseen_predicates() {
        let mut reg = Registry::new();
        let info = reg.register("u", "q(X) :- R(X,Y)\n", &["R", "Unused/3"], "q");
        assert!(info.is_ok());
        assert_eq!(
            reg.vocabulary()
                .arity(reg.vocabulary().pred_id("Unused").unwrap()),
            3
        );
        let missing = reg.register("v", "q(X) :- R(X,Y)\n", &["Ghost"], "q");
        assert!(matches!(
            missing.unwrap_err(),
            ServeError::UnknownPredicate(_)
        ));
    }

    #[test]
    fn unknown_query_name_rejected() {
        let mut reg = Registry::new();
        let err = reg.register("x", PROG, &["P", "T"], "nope");
        assert!(matches!(err.unwrap_err(), ServeError::UnknownQuery(_)));
    }
}
