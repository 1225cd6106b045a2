//! Interned symbols: predicates, constants, variables, and the vocabulary
//! that owns their names.
//!
//! All algorithmic code works with lightweight copyable ids; names exist only
//! for parsing and display. A [`Vocabulary`] is shared by every object that
//! takes part in one reasoning task (ontology, queries, databases), which is
//! what the paper implicitly assumes when it speaks of "the schema
//! `S ∪ sch(Σ)`".

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of a relation symbol (predicate).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PredId(pub u32);

/// Identifier of a constant from the countably infinite set `C`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ConstId(pub u32);

/// Identifier of a (regular) variable from `V`, used in queries and tgds.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub u32);

/// Identifier of a labeled null from `N`, invented by the chase.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NullId(pub u32);

impl fmt::Display for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}
impl fmt::Display for ConstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}
impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.0)
    }
}
impl fmt::Display for NullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⊥{}", self.0)
    }
}

/// A schema: a finite set of predicates, each with an arity.
///
/// In an OMQ `(S, Σ, q)` the *data schema* `S` is the sub-schema over which
/// input databases range; `Σ` and `q` may mention additional predicates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schema {
    preds: Vec<PredId>,
}

impl Schema {
    /// The empty schema.
    pub fn new() -> Self {
        Schema { preds: Vec::new() }
    }

    /// A schema over the given predicates (deduplicated, order preserved).
    pub fn from_preds(preds: impl IntoIterator<Item = PredId>) -> Self {
        let mut s = Schema::new();
        for p in preds {
            s.insert(p);
        }
        s
    }

    /// Adds a predicate; returns `true` if it was not already present.
    pub fn insert(&mut self, p: PredId) -> bool {
        if self.preds.contains(&p) {
            false
        } else {
            self.preds.push(p);
            true
        }
    }

    /// Does the schema contain `p`?
    pub fn contains(&self, p: PredId) -> bool {
        self.preds.contains(&p)
    }

    /// The predicates of the schema, in insertion order.
    pub fn preds(&self) -> &[PredId] {
        &self.preds
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Is the schema empty?
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Union of two schemas.
    pub fn union(&self, other: &Schema) -> Schema {
        let mut s = self.clone();
        for &p in other.preds() {
            s.insert(p);
        }
        s
    }

    /// Maximum arity over the schema's predicates (`ar(S)` in the paper).
    pub fn max_arity(&self, voc: &Vocabulary) -> usize {
        self.preds.iter().map(|&p| voc.arity(p)).max().unwrap_or(0)
    }
}

impl FromIterator<PredId> for Schema {
    fn from_iter<T: IntoIterator<Item = PredId>>(iter: T) -> Self {
        Schema::from_preds(iter)
    }
}

/// One symbol kind's names in one layer of a [`Vocabulary`]. Ids are
/// global: an overlay's ids continue its base's numbering, so `by_name`
/// maps straight to the id every caller sees.
#[derive(Clone, Debug, Default)]
struct Interner {
    names: Vec<String>,
    by_name: HashMap<String, u32>,
}

impl Interner {
    /// Interns `name` in this overlay on `base`: an existing id from either
    /// layer, or the next id after both.
    fn intern(&mut self, base: &Interner, name: &str) -> u32 {
        match self.find(base, name) {
            Some(i) => i,
            None => self.push(base, name.to_owned()),
        }
    }

    /// Interns `{prefix}{n}` for the least `n ≥` the symbol count whose name
    /// neither layer holds yet.
    fn fresh(&mut self, base: &Interner, prefix: &str) -> u32 {
        let mut n = base.len() + self.len();
        loop {
            let cand = format!("{prefix}{n}");
            if self.find(base, &cand).is_none() {
                return self.push(base, cand);
            }
            n += 1;
        }
    }

    fn push(&mut self, base: &Interner, name: String) -> u32 {
        let i = (base.len() + self.len()) as u32;
        self.by_name.insert(name.clone(), i);
        self.names.push(name);
        i
    }

    /// The id of `name` in this overlay on `base`, if either layer has it.
    fn find(&self, base: &Interner, name: &str) -> Option<u32> {
        let get = |layer: &Interner| layer.by_name.get(name).copied();
        get(base).or_else(|| get(self))
    }

    /// The name of `i`, which lives in this overlay when it is past `base`.
    fn name<'a>(&'a self, base: &'a Interner, i: u32) -> &'a str {
        match (i as usize).checked_sub(base.len()) {
            None => &base.names[i as usize],
            Some(j) => &self.names[j],
        }
    }

    fn len(&self) -> usize {
        self.names.len()
    }

    fn append(&mut self, own: Interner) {
        self.names.extend(own.names);
        self.by_name.extend(own.by_name);
    }
}

/// One layer of a [`Vocabulary`]: the shared frozen base, or a vocabulary's
/// own overlay on it.
#[derive(Clone, Debug, Default)]
struct Layer {
    preds: Interner,
    arities: Vec<usize>,
    consts: Interner,
    vars: Interner,
}

impl Layer {
    fn is_empty(&self) -> bool {
        self.preds.len() + self.consts.len() + self.vars.len() == 0
    }
}

/// The symbol table shared by all objects in one reasoning task.
///
/// Owns the names and arities of predicates and the names of constants and
/// variables. Nulls are anonymous — they are only ever invented by the chase
/// and carry no name beyond their id.
///
/// A vocabulary is a frozen base behind an [`Arc`] plus a small append-only
/// overlay of the symbols interned since the last [`Vocabulary::fold`].
/// Overlay ids continue the base's numbering and every lookup consults
/// both layers, so ids, names and interning order are exactly those of one
/// flat table. Cloning copies only the overlay: a clone of a freshly folded
/// vocabulary (a registry's, say) is one reference-count bump however many
/// symbols it holds, and clones never observe each other's later interning.
#[derive(Clone, Debug, Default)]
pub struct Vocabulary {
    base: Arc<Layer>,
    own: Layer,
    next_null: u32,
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Vocabulary::default()
    }

    /// Moves this vocabulary's overlay into its base, so that later clones
    /// share those symbols instead of copying them. Ids and names do not
    /// change. Appends in place when no clone shares the base; otherwise
    /// this vocabulary takes a private copy of the base first, and existing
    /// clones keep the base they had.
    pub fn fold(&mut self) {
        if self.own.is_empty() {
            return;
        }
        let own = std::mem::take(&mut self.own);
        let base = Arc::make_mut(&mut self.base);
        base.preds.append(own.preds);
        base.arities.extend(own.arities);
        base.consts.append(own.consts);
        base.vars.append(own.vars);
    }

    /// Do `self` and `other` share one frozen base (one was cloned from
    /// the other, and neither has folded a new base since)?
    pub fn shares_base(&self, other: &Vocabulary) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }

    /// Interns a predicate with the given arity.
    ///
    /// # Panics
    /// Panics if the predicate was already interned with a different arity;
    /// arity mismatches are always programming errors in this library.
    pub fn pred(&mut self, name: &str, arity: usize) -> PredId {
        let p = PredId(self.own.preds.intern(&self.base.preds, name));
        if self.own.arities.len() < self.own.preds.len() {
            // Newly interned: its name is the overlay's last.
            self.own.arities.push(arity);
        } else {
            assert_eq!(
                self.arity(p),
                arity,
                "predicate {name} re-interned with different arity"
            );
        }
        p
    }

    /// A fresh predicate whose name starts with `prefix`.
    pub fn fresh_pred(&mut self, prefix: &str, arity: usize) -> PredId {
        let i = self.own.preds.fresh(&self.base.preds, prefix);
        self.own.arities.push(arity);
        PredId(i)
    }

    /// Looks up a predicate by name.
    pub fn pred_id(&self, name: &str) -> Option<PredId> {
        self.own.preds.find(&self.base.preds, name).map(PredId)
    }

    /// The arity of `p`.
    pub fn arity(&self, p: PredId) -> usize {
        let base = &self.base.arities;
        match (p.0 as usize).checked_sub(base.len()) {
            None => base[p.0 as usize],
            Some(j) => self.own.arities[j],
        }
    }

    /// The name of `p`.
    pub fn pred_name(&self, p: PredId) -> &str {
        self.own.preds.name(&self.base.preds, p.0)
    }

    /// All interned predicates.
    pub fn all_preds(&self) -> impl Iterator<Item = PredId> + '_ {
        (0..self.num_preds() as u32).map(PredId)
    }

    /// Number of interned predicates.
    pub fn num_preds(&self) -> usize {
        self.base.preds.len() + self.own.preds.len()
    }

    /// Interns a constant.
    pub fn constant(&mut self, name: &str) -> ConstId {
        ConstId(self.own.consts.intern(&self.base.consts, name))
    }

    /// A fresh constant whose name starts with `prefix`.
    pub fn fresh_const(&mut self, prefix: &str) -> ConstId {
        ConstId(self.own.consts.fresh(&self.base.consts, prefix))
    }

    /// Looks up a constant by name.
    pub fn const_id(&self, name: &str) -> Option<ConstId> {
        self.own.consts.find(&self.base.consts, name).map(ConstId)
    }

    /// The name of constant `c`.
    pub fn const_name(&self, c: ConstId) -> &str {
        self.own.consts.name(&self.base.consts, c.0)
    }

    /// Number of interned constants.
    pub fn num_consts(&self) -> usize {
        self.base.consts.len() + self.own.consts.len()
    }

    /// Interns a variable.
    pub fn var(&mut self, name: &str) -> VarId {
        VarId(self.own.vars.intern(&self.base.vars, name))
    }

    /// A fresh variable whose name starts with `prefix`.
    pub fn fresh_var(&mut self, prefix: &str) -> VarId {
        VarId(self.own.vars.fresh(&self.base.vars, prefix))
    }

    /// Looks up a variable by name.
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.own.vars.find(&self.base.vars, name).map(VarId)
    }

    /// The name of variable `v`.
    pub fn var_name(&self, v: VarId) -> &str {
        self.own.vars.name(&self.base.vars, v.0)
    }

    /// Number of interned variables.
    pub fn num_vars(&self) -> usize {
        self.base.vars.len() + self.own.vars.len()
    }

    /// A fresh labeled null (used by the chase).
    pub fn fresh_null(&mut self) -> NullId {
        let n = NullId(self.next_null);
        self.next_null += 1;
        n
    }

    /// Number of nulls invented so far.
    pub fn num_nulls(&self) -> usize {
        self.next_null as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_roundtrip() {
        let mut v = Vocabulary::new();
        let r = v.pred("R", 2);
        let p = v.pred("P", 1);
        assert_eq!(v.pred("R", 2), r);
        assert_ne!(r, p);
        assert_eq!(v.arity(r), 2);
        assert_eq!(v.pred_name(p), "P");
        assert_eq!(v.pred_id("R"), Some(r));
        assert_eq!(v.pred_id("Q"), None);
    }

    #[test]
    #[should_panic(expected = "different arity")]
    fn arity_mismatch_panics() {
        let mut v = Vocabulary::new();
        v.pred("R", 2);
        v.pred("R", 3);
    }

    #[test]
    fn fresh_symbols_are_distinct() {
        let mut v = Vocabulary::new();
        let a = v.fresh_var("u");
        let b = v.fresh_var("u");
        assert_ne!(a, b);
        let c = v.fresh_const("k");
        let d = v.fresh_const("k");
        assert_ne!(c, d);
        let n1 = v.fresh_null();
        let n2 = v.fresh_null();
        assert_ne!(n1, n2);
    }

    #[test]
    fn fresh_pred_avoids_collision() {
        let mut v = Vocabulary::new();
        v.pred("aux0", 1);
        let q = v.fresh_pred("aux", 2);
        assert_ne!(v.pred_name(q), "aux0");
        assert_eq!(v.arity(q), 2);
    }

    #[test]
    fn schema_ops() {
        let mut v = Vocabulary::new();
        let r = v.pred("R", 2);
        let p = v.pred("P", 1);
        let t = v.pred("T", 3);
        let mut s = Schema::new();
        assert!(s.insert(r));
        assert!(!s.insert(r));
        assert!(s.insert(p));
        assert!(s.contains(r));
        assert!(!s.contains(t));
        assert_eq!(s.len(), 2);
        assert_eq!(s.max_arity(&v), 2);
        let s2 = Schema::from_preds([t]);
        let u = s.union(&s2);
        assert_eq!(u.len(), 3);
        assert_eq!(u.max_arity(&v), 3);
    }
}
