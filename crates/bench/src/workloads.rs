//! Parameterized OMQ families for the benchmark suite.

use omq_model::rng::SplitMix64;
use omq_model::{Atom, Cq, Instance, Omq, Schema, Term, Tgd, Ucq, Vocabulary};

/// E1 (Table 1, linear): a subclass chain of length `chain` feeding a
/// role, queried by an `R`-path of length `qlen`.
///
/// ```text
/// C₀(x) → C₁(x), …, C_{chain-1}(x) → C_chain(x)
/// C_chain(x) → ∃y R(x,y)
/// R(x,y) → C_chain(y)
/// q(x) :- R(x,y₁), R(y₁,y₂), …     (qlen atoms)
/// ```
pub fn linear_workload(chain: usize, qlen: usize) -> (Omq, Vocabulary) {
    let mut voc = Vocabulary::new();
    let cs: Vec<_> = (0..=chain).map(|i| voc.pred(&format!("C{i}"), 1)).collect();
    let r = voc.pred("R", 2);
    let mut sigma = Vec::new();
    for i in 0..chain {
        let x = Term::Var(voc.var("X"));
        sigma.push(Tgd::new(
            vec![Atom::new(cs[i], vec![x])],
            vec![Atom::new(cs[i + 1], vec![x])],
        ));
    }
    {
        let x = Term::Var(voc.var("X"));
        let y = Term::Var(voc.var("Yx"));
        sigma.push(Tgd::new(
            vec![Atom::new(cs[chain], vec![x])],
            vec![Atom::new(r, vec![x, y])],
        ));
        let (u, v) = (Term::Var(voc.var("U")), Term::Var(voc.var("V")));
        sigma.push(Tgd::new(
            vec![Atom::new(r, vec![u, v])],
            vec![Atom::new(cs[chain], vec![v])],
        ));
    }
    let vars: Vec<_> = (0..=qlen).map(|i| voc.var(&format!("Q{i}"))).collect();
    let body: Vec<Atom> = (0..qlen)
        .map(|i| Atom::new(r, vec![Term::Var(vars[i]), Term::Var(vars[i + 1])]))
        .collect();
    let q = Cq::new(vec![vars[0]], body);
    let schema = Schema::from_preds([cs[0], r]);
    (Omq::new(schema, sigma, Ucq::from_cq(q)), voc)
}

/// E3 (Table 1, non-recursive): `strata` layers of joining rules whose
/// rewriting doubles per layer — the `(max |body|)^{|sch(Σ)|}` behaviour of
/// Prop. 14.
///
/// ```text
/// Lᵢ(x,y), Lᵢ(y,z) → Lᵢ₊₁(x,z)
/// q(x,z) :- L_strata(x,z)
/// ```
pub fn nr_workload(strata: usize) -> (Omq, Vocabulary) {
    let mut voc = Vocabulary::new();
    let ls: Vec<_> = (0..=strata)
        .map(|i| voc.pred(&format!("L{i}"), 2))
        .collect();
    let mut sigma = Vec::new();
    for i in 0..strata {
        let (x, y, z) = (
            Term::Var(voc.var("X")),
            Term::Var(voc.var("Y")),
            Term::Var(voc.var("Z")),
        );
        sigma.push(Tgd::new(
            vec![Atom::new(ls[i], vec![x, y]), Atom::new(ls[i], vec![y, z])],
            vec![Atom::new(ls[i + 1], vec![x, z])],
        ));
    }
    let (x, z) = (voc.var("Qx"), voc.var("Qz"));
    let q = Cq::new(
        vec![x, z],
        vec![Atom::new(ls[strata], vec![Term::Var(x), Term::Var(z)])],
    );
    let schema = Schema::from_preds([ls[0]]);
    (Omq::new(schema, sigma, Ucq::from_cq(q)), voc)
}

/// E2 (Table 1, sticky): the Prop. 18 binary-counter family — witness size
/// and rewriting size grow as `2ⁿ` while the arity grows linearly.
pub fn sticky_workload(n: usize) -> (Omq, Vocabulary) {
    omq_reductions::prop18_family(n)
}

/// E4 (Table 1, guarded): a tree-expanding guarded ontology (not sticky,
/// not linear, infinite chase) with a path query of length `qlen`.
pub fn guarded_workload(qlen: usize) -> (Omq, Vocabulary) {
    let mut voc = Vocabulary::new();
    let g = voc.pred("G", 3);
    let r = voc.pred("R", 2);
    let (x, y, z, w) = (
        Term::Var(voc.var("X")),
        Term::Var(voc.var("Y")),
        Term::Var(voc.var("Z")),
        Term::Var(voc.var("W")),
    );
    let sigma = vec![Tgd::new(
        vec![Atom::new(g, vec![x, y, z]), Atom::new(r, vec![x, y])],
        vec![Atom::new(g, vec![y, z, w]), Atom::new(r, vec![y, z])],
    )];
    let vars: Vec<_> = (0..=qlen).map(|i| voc.var(&format!("Q{i}"))).collect();
    let body: Vec<Atom> = (0..qlen)
        .map(|i| Atom::new(r, vec![Term::Var(vars[i]), Term::Var(vars[i + 1])]))
        .collect();
    let q = Cq::boolean(body);
    let schema = Schema::from_preds([g, r]);
    (Omq::new(schema, sigma, Ucq::from_cq(q)), voc)
}

/// E14 (incremental maintenance, `omq-store`): transitive closure of an
/// EDB edge relation — every assert/retract visibly reshapes the derived
/// `T` facts, and the chase terminates on any finite database.
///
/// ```text
/// E(x,y) → T(x,y)
/// E(x,y), T(y,z) → T(x,z)
/// q(x,y) :- T(x,y)
/// ```
pub fn tc_workload() -> (Omq, Vocabulary) {
    let mut voc = Vocabulary::new();
    let e = voc.pred("E", 2);
    let t = voc.pred("T", 2);
    let (x, y, z) = (
        Term::Var(voc.var("X")),
        Term::Var(voc.var("Y")),
        Term::Var(voc.var("Z")),
    );
    let sigma = vec![
        Tgd::new(
            vec![Atom::new(e, vec![x, y])],
            vec![Atom::new(t, vec![x, y])],
        ),
        Tgd::new(
            vec![Atom::new(e, vec![x, y]), Atom::new(t, vec![y, z])],
            vec![Atom::new(t, vec![x, z])],
        ),
    ];
    let (qx, qy) = (voc.var("Qx"), voc.var("Qy"));
    let q = Cq::new(
        vec![qx, qy],
        vec![Atom::new(t, vec![Term::Var(qx), Term::Var(qy)])],
    );
    let schema = Schema::from_preds([e]);
    (Omq::new(schema, sigma, Ucq::from_cq(q)), voc)
}

/// The `i`-th edge of the [`tc_workload`] chain: `E(cᵢ, cᵢ₊₁)`.
pub fn chain_edge(i: usize, voc: &mut Vocabulary) -> Atom {
    let e = voc.pred_id("E").expect("tc workload declares E");
    let src = Term::Const(voc.constant(&format!("c{i}")));
    let dst = Term::Const(voc.constant(&format!("c{}", i + 1)));
    Atom::new(e, vec![src, dst])
}

/// A random database over the data schema of `omq`: `size` facts over a
/// domain of `domain` constants, deterministic in `seed`.
pub fn random_db(
    omq: &Omq,
    voc: &mut Vocabulary,
    size: usize,
    domain: usize,
    seed: u64,
) -> Instance {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let consts: Vec<_> = (0..domain)
        .map(|i| voc.constant(&format!("d{i}")))
        .collect();
    let preds: Vec<_> = omq.data_schema.preds().to_vec();
    let mut db = Instance::new();
    // The requested size may exceed the number of distinct facts that
    // exist over the domain; cap the attempts so generation always
    // terminates (the db is then simply as dense as possible).
    let mut attempts = 0usize;
    while db.len() < size && attempts < size.saturating_mul(64) {
        attempts += 1;
        let p = preds[rng.below(preds.len())];
        let args = (0..voc.arity(p))
            .map(|_| Term::Const(consts[rng.below(consts.len())]))
            .collect();
        db.insert(Atom::new(p, args));
    }
    db
}

/// The guarded workload's seed database: a `G`/`R` chain start.
pub fn guarded_seed_db(voc: &mut Vocabulary) -> Instance {
    let g = voc.pred_id("G").unwrap();
    let r = voc.pred_id("R").unwrap();
    let (a, b, c) = (
        Term::Const(voc.constant("a")),
        Term::Const(voc.constant("b")),
        Term::Const(voc.constant("c")),
    );
    Instance::from_atoms([Atom::new(g, vec![a, b, c]), Atom::new(r, vec![a, b])])
}

/// E6 (Figure 1): a chain of `k` tgd pairs through which the marking
/// procedure must propagate; `keep_join` selects the sticky variant
/// (`S(y,w)`, join value kept) or the non-sticky one (`S(x,w)`, join value
/// dropped) of the paper's Figure 1.
pub fn marking_chain(k: usize, keep_join: bool) -> (Vec<Tgd>, Vocabulary) {
    let mut voc = Vocabulary::new();
    let mut sigma = Vec::new();
    for i in 0..k {
        let t = voc.pred(&format!("T{i}"), 3);
        let s = voc.pred(&format!("S{i}"), 2);
        let r = voc.pred(&format!("R{i}"), 2);
        let p = voc.pred(&format!("P{i}"), 2);
        let (x, y, z, w) = (
            Term::Var(voc.var("X")),
            Term::Var(voc.var("Y")),
            Term::Var(voc.var("Z")),
            Term::Var(voc.var("W")),
        );
        // T_i(x,y,z) → ∃w S_i(y,w)   [sticky]   or   S_i(x,w) [not sticky]
        let kept = if keep_join { y } else { x };
        sigma.push(Tgd::new(
            vec![Atom::new(t, vec![x, y, z])],
            vec![Atom::new(s, vec![kept, w])],
        ));
        // R_i(x,y), P_i(y,z) → ∃w T_i(x,y,w)
        sigma.push(Tgd::new(
            vec![Atom::new(r, vec![x, y]), Atom::new(p, vec![y, z])],
            vec![Atom::new(t, vec![x, y, w])],
        ));
        // Chain the levels: S_i(x,y) → P_{i+1}(x,y). (Chaining into
        // R_{i+1} would let the level-(i+1) marking flow back into the
        // level-i join variable and wrongly de-stickify the kept-join
        // variant.)
        if i + 1 < k {
            let pn = voc.pred(&format!("P{}", i + 1), 2);
            let (u, v) = (Term::Var(voc.var("U")), Term::Var(voc.var("V")));
            sigma.push(Tgd::new(
                vec![Atom::new(s, vec![u, v])],
                vec![Atom::new(pn, vec![u, v])],
            ));
        }
    }
    (sigma, voc)
}

/// Prop. 15/18 witness family (`crates/reductions`): the binary-counter
/// OMQ `Qⁿ` whose non-emptiness witnesses need all `2ⁿ` atoms
/// `S(b̄,0,1)`.
pub fn witness_workload(n: usize) -> (Omq, Vocabulary) {
    omq_reductions::witness_families::counter_family(n)
}

/// The full-witness database `{S(b̄,0,1) : b̄ ∈ {0,1}ⁿ}` for
/// [`witness_workload`] — the smallest database on which `Qⁿ` is
/// non-empty.
pub fn witness_db(n: usize, voc: &mut Vocabulary) -> Instance {
    let s = voc.pred_id("S").expect("witness workload declares S");
    let zero = Term::Const(voc.constant("0"));
    let one = Term::Const(voc.constant("1"));
    let mut d = Instance::new();
    for bits in 0..(1u32 << n) {
        let mut args: Vec<Term> = (0..n)
            .map(|j| if bits >> j & 1 == 1 { one } else { zero })
            .collect();
        args.push(zero);
        args.push(one);
        d.insert(Atom::new(s, args));
    }
    d
}

/// The Thm. 16 tiling reduction's input (`crates/reductions`): the
/// paper-report E7 "no" case (`T₁` solves the initial condition, the
/// alternating `T₂` cannot), which `omq_reductions::etp_to_containment`
/// compiles to a containment instance `(Q₁, Q₂)`. `k` is the
/// length of the universally-quantified initial condition; it scales the
/// 0-ary data schema (`Cᵢʲ` for `i ≤ k`) and thereby the witness-mask
/// space the containment sweep enumerates. The grid exponent `n` is the
/// smallest value with `2^n >= k` (the reduction requires the initial
/// condition to fit in one grid row).
pub fn tiling_workload(k: usize) -> omq_reductions::Etp {
    let alt = vec![(1u8, 2u8), (2, 1)];
    let mut n = 1u32;
    while (1usize << n) < k {
        n += 1;
    }
    omq_reductions::Etp {
        k,
        n,
        m: 2,
        h1: omq_reductions::tiling::all_pairs(2),
        v1: omq_reductions::tiling::all_pairs(2),
        h2: alt.clone(),
        v2: alt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_core::{detect_language, OmqLanguage};

    #[test]
    fn workloads_fall_in_their_languages() {
        assert_eq!(
            detect_language(&linear_workload(3, 2).0),
            OmqLanguage::Linear
        );
        assert_eq!(
            detect_language(&nr_workload(3).0),
            OmqLanguage::NonRecursive
        );
        // The counter family is both NR and sticky; detection prefers NR.
        let (s, _) = sticky_workload(2);
        let lang = detect_language(&s);
        assert!(matches!(
            lang,
            OmqLanguage::NonRecursive | OmqLanguage::Sticky
        ));
        assert_eq!(
            detect_language(&guarded_workload(2).0),
            OmqLanguage::Guarded
        );
    }

    #[test]
    fn random_db_is_over_schema() {
        let (omq, mut voc) = linear_workload(2, 2);
        let db = random_db(&omq, &mut voc, 20, 5, 7);
        assert_eq!(db.len(), 20);
        for a in db.atoms() {
            assert!(omq.data_schema.contains(a.pred));
        }
        // Determinism.
        let db2 = random_db(&omq, &mut voc, 20, 5, 7);
        assert_eq!(db, db2);
    }

    #[test]
    fn guarded_seed_matches_workload() {
        let (omq, mut voc) = guarded_workload(2);
        let db = guarded_seed_db(&mut voc);
        assert!(db.atoms().iter().all(|a| omq.data_schema.contains(a.pred)));
    }
}
