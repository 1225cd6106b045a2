//! Property test: a [`Vocabulary`] split at random points into a shared
//! frozen base and an overlay (by `fold`, and by clones that adopt or
//! snapshot it) interns exactly like one flat symbol table: the same ids,
//! names, arities and counts, `fresh_*` names included when they collide
//! with names on the other side of the base/overlay boundary. Snapshots
//! keep their ids and names while the original goes on interning.

use std::collections::HashMap;

use proptest::prelude::*;

use omq_model::Vocabulary;

/// Names drawn by the interning ops. The `u<n>`/`a<n>` entries collide with
/// what `fresh_*("u")`/`fresh_*("a")` generate at small counts.
const NAMES: [&str; 12] = [
    "u0", "u1", "u2", "u3", "u4", "u5", "u7", "a", "a2", "a3", "a6", "b",
];
const PREFIXES: [&str; 2] = ["u", "a"];

/// One flat table of names: the reference model.
#[derive(Clone, Debug, Default)]
struct Names {
    names: Vec<String>,
    by_name: HashMap<String, u32>,
}

impl Names {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.by_name.get(name) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), i);
        i
    }

    fn fresh(&mut self, prefix: &str) -> u32 {
        let mut n = self.names.len();
        loop {
            let cand = format!("{prefix}{n}");
            if !self.by_name.contains_key(&cand) {
                return self.intern(&cand);
            }
            n += 1;
        }
    }
}

#[derive(Clone, Debug, Default)]
struct Flat {
    preds: Names,
    arities: Vec<usize>,
    consts: Names,
    vars: Names,
    nulls: u32,
}

/// Every id, name, arity and count of `voc` equals the model's, and every
/// name either side knows resolves to the same id.
fn agree(voc: &Vocabulary, flat: &Flat) -> Result<(), TestCaseError> {
    prop_assert_eq!(voc.num_preds(), flat.preds.names.len());
    prop_assert_eq!(voc.num_consts(), flat.consts.names.len());
    prop_assert_eq!(voc.num_vars(), flat.vars.names.len());
    prop_assert_eq!(voc.num_nulls(), flat.nulls as usize);
    for (p, name) in voc.all_preds().zip(&flat.preds.names) {
        prop_assert_eq!(voc.pred_name(p), name.as_str());
        prop_assert_eq!(voc.arity(p), flat.arities[p.0 as usize]);
        prop_assert_eq!(voc.pred_id(name), Some(p));
    }
    for (i, name) in flat.consts.names.iter().enumerate() {
        let c = voc.const_id(name).map(|c| c.0);
        prop_assert_eq!(c, Some(i as u32));
        prop_assert_eq!(voc.const_name(omq_model::ConstId(i as u32)), name.as_str());
    }
    for (i, name) in flat.vars.names.iter().enumerate() {
        let v = voc.var_id(name).map(|v| v.0);
        prop_assert_eq!(v, Some(i as u32));
        prop_assert_eq!(voc.var_name(omq_model::VarId(i as u32)), name.as_str());
    }
    for name in NAMES {
        prop_assert_eq!(
            voc.pred_id(name).map(|p| p.0),
            flat.preds.by_name.get(name).copied()
        );
        prop_assert_eq!(
            voc.const_id(name).map(|c| c.0),
            flat.consts.by_name.get(name).copied()
        );
        prop_assert_eq!(
            voc.var_id(name).map(|v| v.0),
            flat.vars.by_name.get(name).copied()
        );
    }
    Ok(())
}

fn ops() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((0u8..10, 0u8..12, 0u8..3), 1..90)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random interning with folds, adopted clones and held snapshots
    /// matches the flat model op by op and at the end.
    #[test]
    fn layered_vocabulary_interns_like_a_flat_one(ops in ops()) {
        let mut voc = Vocabulary::new();
        let mut flat = Flat::default();
        let mut snapshots: Vec<(Vocabulary, Flat)> = Vec::new();
        for &(op, n, a) in &ops {
            let name = NAMES[n as usize];
            let prefix = PREFIXES[n as usize % 2];
            match op {
                // Re-interning keeps the known arity (a mismatch panics).
                0 => {
                    let known = flat.preds.by_name.get(name);
                    let arity = known.map_or(a as usize, |&i| flat.arities[i as usize]);
                    let i = flat.preds.intern(name);
                    if i as usize == flat.arities.len() {
                        flat.arities.push(arity);
                    }
                    prop_assert_eq!(voc.pred(name, arity).0, i);
                }
                1 => prop_assert_eq!(voc.constant(name).0, flat.consts.intern(name)),
                2 => prop_assert_eq!(voc.var(name).0, flat.vars.intern(name)),
                3 => {
                    let i = flat.preds.fresh(prefix);
                    flat.arities.push(a as usize);
                    let p = voc.fresh_pred(prefix, a as usize);
                    prop_assert_eq!(p.0, i);
                    prop_assert_eq!(voc.pred_name(p), flat.preds.names[i as usize].as_str());
                }
                4 => {
                    let i = flat.consts.fresh(prefix);
                    let c = voc.fresh_const(prefix);
                    prop_assert_eq!(c.0, i);
                    prop_assert_eq!(voc.const_name(c), flat.consts.names[i as usize].as_str());
                }
                5 => {
                    let i = flat.vars.fresh(prefix);
                    let v = voc.fresh_var(prefix);
                    prop_assert_eq!(v.0, i);
                    prop_assert_eq!(voc.var_name(v), flat.vars.names[i as usize].as_str());
                }
                6 => {
                    prop_assert_eq!(voc.fresh_null().0, flat.nulls);
                    flat.nulls += 1;
                }
                // Split point: everything so far moves into the base.
                7 => voc.fold(),
                // A request snapshot, held to the end.
                8 => snapshots.push((voc.clone(), flat.clone())),
                // The registry's commit: continue on a clone, drop the
                // original, fold.
                _ => {
                    let adopted = voc.clone();
                    prop_assert!(adopted.shares_base(&voc));
                    voc = adopted;
                    voc.fold();
                }
            }
        }
        agree(&voc, &flat)?;
        for (snap, at) in &snapshots {
            agree(snap, at)?;
        }
    }
}

/// A clone taken before a fold keeps its ids and names after the original
/// folds and interns more, including a fresh name that the snapshot's own
/// later interning then also generates independently.
#[test]
fn snapshot_survives_fold_and_later_interning() {
    let mut voc = Vocabulary::new();
    let r = voc.pred("R", 2);
    let a = voc.constant("a");
    voc.fold();
    let mut snap = voc.clone();
    assert!(snap.shares_base(&voc));

    let p = voc.pred("P", 1);
    let f = voc.fresh_const("f");
    voc.fold();
    assert!(!snap.shares_base(&voc));
    assert_eq!((p.0, voc.const_name(f)), (1, "f1"));

    assert_eq!(snap.num_preds(), 1);
    assert_eq!(snap.pred_id("P"), None);
    assert_eq!(snap.pred_name(r), "R");
    assert_eq!(snap.const_name(a), "a");
    // The snapshot's own overlay numbers on from its base, as before.
    let g = snap.fresh_const("f");
    assert_eq!((g, snap.const_name(g)), (f, "f1"));
    let q = snap.pred("Q", 3);
    assert_eq!((q, snap.arity(q)), (p, 3));
    assert_eq!(voc.pred_name(p), "P");
    assert_eq!(voc.arity(p), 1);
}

/// Clones share the base until one of them folds; a folding vocabulary
/// that a live clone still shares takes its own copy of the base.
#[test]
fn clones_share_the_base_until_a_fold() {
    let mut voc = Vocabulary::new();
    voc.pred("R", 2);
    voc.fold();
    let snap = voc.clone();
    voc.constant("c");
    assert!(snap.shares_base(&voc));
    voc.fold();
    assert!(!snap.shares_base(&voc));
    assert_eq!(snap.num_consts(), 0);
    assert_eq!(voc.const_id("c").map(|c| c.0), Some(0));
}
