//! The persistent tier of the rewrite-artifact cache.
//!
//! A [`omq_rewrite::RewriteArtifact`] speaks in `VarId`s/`PredId`s/
//! `ConstId`s, which are only meaningful inside the vocabulary that
//! interned them — exactly the property that made cached artifacts
//! unrenderable from other requests (the PR that added `explain` had to
//! bypass the cache for that reason). A [`PortableArtifact`] is the
//! vocabulary-independent form: every disjunct's variables are renamed to
//! their first-occurrence index (`V0`, `V1`, …, head before body) and
//! predicates/constants are carried by *name*. Rehydrating interns those
//! names into whatever vocabulary the request is using, so the same stored
//! artifact serves every request, every engine restart, and `explain`.
//!
//! Both cache tiers store the portable form:
//!
//! * the **hot tier** (the engine's in-memory LRU) keeps it structured, so
//!   a warm hit pays only the interning walk — no parsing;
//! * the **disk tier** ([`DiskTier`]) serializes it to a small line-based
//!   text file named by the canonical `(OmqKey, RewriteCfgKey)` digests,
//!   so a restarted server answers repeat requests without rerunning
//!   XRewrite. Corrupt or truncated files degrade to a miss, never an
//!   error.
//!
//! Only exact artifacts are cached or persisted, so the portable form
//! carries no guarantee of its own: it rehydrates as `Guarantee::Exact`.
//! The disk text keeps its `complete true` line; a file whose line reads
//! anything else is corrupt (a miss).
//!
//! Determinism: the engine round-trips *every* artifact through the
//! portable form — including freshly computed ones — so response bytes
//! never depend on which tier (or no tier) served the artifact.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use omq_chase::Guarantee;
use omq_model::{Atom, Cq, Term, Ucq, Vocabulary};
use omq_rewrite::RewriteArtifact;

/// One term of a portable disjunct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PortableTerm {
    /// Variable by canonical index (first occurrence order).
    Var(u32),
    /// Constant by name.
    Const(String),
}

/// One atom of a portable disjunct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortableAtom {
    pub pred: String,
    pub args: Vec<PortableTerm>,
}

/// One disjunct: head variables by canonical index plus the body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortableCq {
    pub head: Vec<u32>,
    pub body: Vec<PortableAtom>,
}

/// A vocabulary-independent (exact) rewriting artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortableArtifact {
    pub arity: usize,
    pub disjuncts: Vec<PortableCq>,
}

/// Names that survive the text round trip unambiguously: the identifier
/// subset the parser produces. Anything else (theoretically possible via
/// exotic vocabularies) makes the artifact non-portable — the caller falls
/// back to the uncached path.
fn is_token(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '\'' || c == '-' || c == '.')
}

/// Is `name` shaped like a canonical variable (`V<digits>`)? Constants
/// with such names would be ambiguous in the text form, so they also make
/// an artifact non-portable (they cannot arise from parsed programs, where
/// constants start lowercase).
fn looks_like_var(name: &str) -> bool {
    name.len() > 1 && name.starts_with('V') && name[1..].chars().all(|c| c.is_ascii_digit())
}

impl PortableArtifact {
    /// Converts a raw artifact's disjuncts (its guarantee stays with the
    /// caller); `None` when it is not portable (a body null from a
    /// truncated normalization, or a symbol name the text form cannot
    /// carry).
    pub fn of(art: &RewriteArtifact, voc: &Vocabulary) -> Option<PortableArtifact> {
        let mut disjuncts = Vec::with_capacity(art.ucq.disjuncts.len());
        for d in &art.ucq.disjuncts {
            let mut order: Vec<omq_model::VarId> = Vec::new();
            let mut index = |v: omq_model::VarId| -> u32 {
                match order.iter().position(|&o| o == v) {
                    Some(i) => i as u32,
                    None => {
                        order.push(v);
                        (order.len() - 1) as u32
                    }
                }
            };
            let head: Vec<u32> = d.head.iter().map(|&v| index(v)).collect();
            let mut body = Vec::with_capacity(d.body.len());
            for a in &d.body {
                let pred = voc.pred_name(a.pred).to_owned();
                if !is_token(&pred) {
                    return None;
                }
                let mut args = Vec::with_capacity(a.args.len());
                for t in &a.args {
                    args.push(match t {
                        Term::Var(v) => PortableTerm::Var(index(*v)),
                        Term::Const(c) => {
                            let name = voc.const_name(*c).to_owned();
                            if !is_token(&name) || looks_like_var(&name) {
                                return None;
                            }
                            PortableTerm::Const(name)
                        }
                        Term::Null(_) => return None,
                    });
                }
                body.push(PortableAtom { pred, args });
            }
            disjuncts.push(PortableCq { head, body });
        }
        Some(PortableArtifact {
            arity: art.ucq.arity,
            disjuncts,
        })
    }

    /// Interns the artifact into `voc` (canonical variables as `V<k>`,
    /// predicates and constants by name) and rebuilds the raw form, an
    /// exact artifact.
    pub fn rehydrate(&self, voc: &mut Vocabulary) -> RewriteArtifact {
        let disjuncts = self
            .disjuncts
            .iter()
            .map(|d| {
                let var = |voc: &mut Vocabulary, k: u32| voc.var(&format!("V{k}"));
                let body: Vec<Atom> = d
                    .body
                    .iter()
                    .map(|a| {
                        let args: Vec<Term> = a
                            .args
                            .iter()
                            .map(|t| match t {
                                PortableTerm::Var(k) => Term::Var(var(voc, *k)),
                                PortableTerm::Const(name) => Term::Const(voc.constant(name)),
                            })
                            .collect();
                        Atom::new(voc.pred(&a.pred, args.len()), args)
                    })
                    .collect();
                let head: Vec<omq_model::VarId> = d.head.iter().map(|&k| var(voc, k)).collect();
                Cq::new(head, body)
            })
            .collect();
        RewriteArtifact {
            ucq: Ucq::new(self.arity, disjuncts),
            guarantee: Guarantee::Exact,
        }
    }

    /// The disk format: a header plus one `cq` line per disjunct. Example:
    ///
    /// ```text
    /// omq-artifact v1
    /// arity 1
    /// complete true
    /// cq 0 | R(V0,V1),P(V1)
    /// cq 0 | S(V0,c)
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::from("omq-artifact v1\n");
        out.push_str(&format!("arity {}\n", self.arity));
        out.push_str("complete true\n");
        for d in &self.disjuncts {
            let head: Vec<String> = d.head.iter().map(u32::to_string).collect();
            let atoms: Vec<String> = d
                .body
                .iter()
                .map(|a| {
                    let args: Vec<String> = a
                        .args
                        .iter()
                        .map(|t| match t {
                            PortableTerm::Var(k) => format!("V{k}"),
                            PortableTerm::Const(name) => name.clone(),
                        })
                        .collect();
                    format!("{}({})", a.pred, args.join(","))
                })
                .collect();
            out.push_str(&format!("cq {} | {}\n", head.join(" "), atoms.join(",")));
        }
        out
    }

    /// Parses the [`to_text`](Self::to_text) form; `None` on any
    /// malformation (a corrupt file is a cache miss).
    pub fn from_text(text: &str) -> Option<PortableArtifact> {
        let mut lines = text.lines();
        if lines.next()? != "omq-artifact v1" {
            return None;
        }
        let arity: usize = lines.next()?.strip_prefix("arity ")?.parse().ok()?;
        if lines.next()? != "complete true" {
            return None;
        }
        let mut disjuncts = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let rest = line.strip_prefix("cq ")?;
            let (head_part, body_part) = rest.split_once(" | ")?;
            let head: Vec<u32> = head_part
                .split_whitespace()
                .map(str::parse)
                .collect::<Result<_, _>>()
                .ok()?;
            if head.len() != arity {
                return None;
            }
            let mut body = Vec::new();
            for atom_text in split_atoms(body_part)? {
                let open = atom_text.find('(')?;
                let pred = &atom_text[..open];
                let inner = atom_text[open + 1..].strip_suffix(')')?;
                if !is_token(pred) {
                    return None;
                }
                let mut args = Vec::new();
                if !inner.is_empty() {
                    for arg in inner.split(',') {
                        args.push(match arg.strip_prefix('V') {
                            Some(digits) if digits.chars().all(|c| c.is_ascii_digit()) => {
                                PortableTerm::Var(digits.parse().ok()?)
                            }
                            _ => {
                                if !is_token(arg) {
                                    return None;
                                }
                                PortableTerm::Const(arg.to_owned())
                            }
                        });
                    }
                }
                body.push(PortableAtom {
                    pred: pred.to_owned(),
                    args,
                });
            }
            disjuncts.push(PortableCq { head, body });
        }
        // Every head index must reference a variable the disjunct binds —
        // Cq::new would (debug-)panic otherwise.
        for d in &disjuncts {
            let bound: Vec<u32> = d
                .body
                .iter()
                .flat_map(|a| a.args.iter())
                .filter_map(|t| match t {
                    PortableTerm::Var(k) => Some(*k),
                    PortableTerm::Const(_) => None,
                })
                .collect();
            if d.head.iter().any(|k| !bound.contains(k)) {
                return None;
            }
        }
        Some(PortableArtifact { arity, disjuncts })
    }
}

/// Splits `R(V0,V1),P(V1)` into atoms at depth-0 commas.
fn split_atoms(text: &str) -> Option<Vec<&str>> {
    if text.is_empty() {
        return Some(Vec::new());
    }
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in text.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.checked_sub(1)?,
            ',' if depth == 0 => {
                out.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 {
        return None;
    }
    out.push(&text[start..]);
    Some(out)
}

/// Counters of the disk tier (exposed by the `stats` op).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskTierStats {
    pub hits: u64,
    pub misses: u64,
    pub stores: u64,
    /// I/O or parse failures (all degrade to a miss or a skipped store).
    pub errors: u64,
}

/// The on-disk artifact store: one file per `(OmqKey, RewriteCfgKey)`
/// digest pair under a caller-supplied directory. Writes go through a
/// temp-file rename so a concurrent reader (or a crash) never observes a
/// half-written artifact.
pub struct DiskTier {
    dir: PathBuf,
    stats: Mutex<DiskTierStats>,
}

impl DiskTier {
    /// Opens (creating if needed) the cache directory.
    pub fn new(dir: &Path) -> std::io::Result<DiskTier> {
        fs::create_dir_all(dir)?;
        Ok(DiskTier {
            dir: dir.to_owned(),
            stats: Mutex::new(DiskTierStats::default()),
        })
    }

    fn path(&self, file_key: &str) -> PathBuf {
        self.dir.join(format!("{file_key}.art"))
    }

    /// Loads and parses the artifact for `file_key`; any failure is a miss.
    pub fn load(&self, file_key: &str) -> Option<PortableArtifact> {
        let path = self.path(file_key);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                let mut s = self.stats.lock().unwrap();
                s.misses += 1;
                if e.kind() != std::io::ErrorKind::NotFound {
                    s.errors += 1;
                }
                return None;
            }
        };
        match PortableArtifact::from_text(&text) {
            Some(art) => {
                self.stats.lock().unwrap().hits += 1;
                omq_obs::counter("serve.artifact_disk.hit", 1);
                Some(art)
            }
            None => {
                let mut s = self.stats.lock().unwrap();
                s.misses += 1;
                s.errors += 1;
                None
            }
        }
    }

    /// Persists the artifact under `file_key` (best effort: failures only
    /// bump the error counter — the in-memory tiers still work).
    pub fn store(&self, file_key: &str, art: &PortableArtifact) {
        let path = self.path(file_key);
        let tmp = self
            .dir
            .join(format!(".{file_key}.{}.tmp", std::process::id()));
        let write = || -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(art.to_text().as_bytes())?;
            f.sync_all()?;
            fs::rename(&tmp, &path)
        };
        match write() {
            Ok(()) => {
                self.stats.lock().unwrap().stores += 1;
                omq_obs::counter("serve.artifact_disk.store", 1);
            }
            Err(_) => {
                let _ = fs::remove_file(&tmp);
                self.stats.lock().unwrap().errors += 1;
            }
        }
    }

    pub fn stats(&self) -> DiskTierStats {
        *self.stats.lock().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_model::parse_program;

    /// A two-disjunct artifact with a constant, built from parsed queries
    /// (so VarIds are "real" interned ids, not sequential).
    fn sample() -> (RewriteArtifact, Vocabulary) {
        let prog = parse_program("q(X) :- R(X,Y), P(Y)\nr(Z) :- S(Z), T(Z,a)\n").unwrap();
        let mut voc = prog.voc.clone();
        voc.constant("a");
        let ucq = Ucq::new(
            1,
            vec![
                prog.query("q").unwrap().disjuncts[0].clone(),
                prog.query("r").unwrap().disjuncts[0].clone(),
            ],
        );
        (
            RewriteArtifact {
                ucq,
                guarantee: Guarantee::Exact,
            },
            voc,
        )
    }

    #[test]
    fn portable_round_trip_preserves_structure() {
        let (art, voc) = sample();
        let p = PortableArtifact::of(&art, &voc).expect("portable");
        // Text round trip is lossless.
        let reparsed = PortableArtifact::from_text(&p.to_text()).expect("parses");
        assert_eq!(p, reparsed);
        // Rehydration into a fresh vocabulary rebuilds isomorphic CQs: same
        // shape, canonical V* names, constants by original name.
        let mut fresh = Vocabulary::default();
        let back = p.rehydrate(&mut fresh);
        assert_eq!(back.guarantee, Guarantee::Exact);
        assert_eq!(back.ucq.arity, 1);
        assert_eq!(back.ucq.disjuncts.len(), 2);
        assert_eq!(back.ucq.disjuncts[0].body.len(), 2);
        let rendered = omq_model::display::render_cq(&fresh, "q", &back.ucq.disjuncts[0]);
        assert_eq!(rendered, "q(V0) :- R(V0,V1), P(V1)");
        let rendered = omq_model::display::render_cq(&fresh, "q", &back.ucq.disjuncts[1]);
        assert_eq!(rendered, "q(V0) :- S(V0), T(V0,a)");
        // Rehydrating twice (even into the same vocabulary) is stable.
        let again = p.rehydrate(&mut fresh);
        assert_eq!(back, again);
    }

    #[test]
    fn corrupt_text_is_a_miss_not_a_panic() {
        for bad in [
            "",
            "omq-artifact v2\narity 1\ncomplete true\n",
            "omq-artifact v1\narity x\ncomplete true\n",
            "omq-artifact v1\narity 1\ncomplete true\ncq 0 | R(V0",
            "omq-artifact v1\narity 1\ncomplete true\ncq 5 | R(V0,V1)\n",
            "omq-artifact v1\narity 1\ncomplete true\nnot a cq line\n",
            "omq-artifact v1\narity 1\ncomplete false\ncq 0 | R(V0)\n",
        ] {
            assert!(PortableArtifact::from_text(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn nulls_make_an_artifact_non_portable() {
        let mut voc = Vocabulary::default();
        let p = voc.pred("P", 1);
        let x = voc.var("X");
        // Built literally: `Cq::new` debug-asserts the no-nulls invariant,
        // and this test exists exactly because `of` must stay defensive
        // against artifacts produced without that constructor.
        let cq = Cq {
            head: vec![x],
            body: vec![
                Atom::new(p, vec![Term::Var(x)]),
                Atom::new(p, vec![Term::Null(voc.fresh_null())]),
            ],
        };
        let art = RewriteArtifact {
            ucq: Ucq::new(1, vec![cq]),
            guarantee: Guarantee::Exact,
        };
        assert!(PortableArtifact::of(&art, &voc).is_none());
    }

    #[test]
    fn disk_tier_survives_a_reopen_and_tolerates_corruption() {
        let dir = std::env::temp_dir().join(format!(
            "omq-tier-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let (art, voc) = sample();
        let p = PortableArtifact::of(&art, &voc).unwrap();
        {
            let tier = DiskTier::new(&dir).unwrap();
            assert!(tier.load("k1").is_none(), "cold dir misses");
            tier.store("k1", &p);
            assert_eq!(tier.load("k1"), Some(p.clone()));
            let s = tier.stats();
            assert_eq!((s.hits, s.misses, s.stores, s.errors), (1, 1, 1, 0));
        }
        // A "restarted server": a new tier over the same directory.
        let tier = DiskTier::new(&dir).unwrap();
        assert_eq!(tier.load("k1"), Some(p));
        // Corruption degrades to a miss and counts an error.
        fs::write(dir.join("k2.art"), "garbage").unwrap();
        assert!(tier.load("k2").is_none());
        let s = tier.stats();
        assert_eq!(s.errors, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
