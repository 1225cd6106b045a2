//! Classical CQ statics: Chandra–Merlin containment, cores (minimization),
//! isomorphism modulo variable renaming (the `≃` check XRewrite uses to
//! deduplicate rewritings), canonical forms (so `≃`-dedup becomes hash-map
//! equality), and a homomorphic subsumption sieve for UCQ minimization.

use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::Arc;

use omq_model::{Atom, Cq, Instance, NullId, Term, Ucq, VarId};

use crate::hom::{pred_sig, prefilter, HomStats, JoinPlan};

/// Freezes the body of `q` into an instance, mapping each variable `v` to
/// the null `⊥v` (constants stay). Returns the instance and the head image.
fn freeze_to_nulls(q: &Cq) -> (Instance, Vec<Term>) {
    let inst = Instance::from_atoms(q.body.iter().map(|a| {
        a.map_terms(|t| match t {
            Term::Var(v) => Term::Null(NullId(v.0)),
            other => other,
        })
    }));
    let head = q.head.iter().map(|&v| Term::Null(NullId(v.0))).collect();
    (inst, head)
}

/// Chandra–Merlin: `q1 ⊆ q2` iff there is a homomorphism from `q2` to the
/// canonical (frozen) instance of `q1` mapping head to head.
pub fn cq_contained(q1: &Cq, q2: &Cq) -> bool {
    cq_contained_stats(q1, q2, &mut HomStats::default())
}

/// [`cq_contained`] with work counters accumulated into `stats`. The
/// predicate-signature prefilter rejects impossible pairs (some predicate
/// of `q2` does not occur in `q1`) before any plan is compiled.
pub fn cq_contained_stats(q1: &Cq, q2: &Cq, stats: &mut HomStats) -> bool {
    if q1.head.len() != q2.head.len() {
        return false;
    }
    if !prefilter(pred_sig(&q2.body), pred_sig(&q1.body), stats) {
        return false;
    }
    let (frozen, head1) = freeze_to_nulls(q1);
    let plan = crate::hom::compile_costed_for(&q2.body, &q2.head, None, &frozen, stats);
    let pairs: Vec<(VarId, Term)> = q2.head.iter().copied().zip(head1.iter().copied()).collect();
    let Some(seed) = plan.seed_values(&pairs) else {
        return false; // the head pattern repeats a variable inconsistently
    };
    plan.execute(&frozen, &seed, None, stats, |_| ControlFlow::Break(()))
        .is_break()
}

/// UCQ containment (Sagiv–Yannakakis): `∨ᵢ pᵢ ⊆ ∨ⱼ qⱼ` iff every `pᵢ` is
/// contained in some `qⱼ`.
pub fn ucq_contained(p: &Ucq, q: &Ucq) -> bool {
    p.disjuncts
        .iter()
        .all(|pi| q.disjuncts.iter().any(|qj| cq_contained(pi, qj)))
}

/// CQ equivalence: mutual containment.
pub fn cq_equivalent(q1: &Cq, q2: &Cq) -> bool {
    cq_contained(q1, q2) && cq_contained(q2, q1)
}

/// Computes the core of `q`: an equivalent subquery with a minimal number of
/// atoms. Head variables are kept fixed. Exponential in the worst case (the
/// problem is NP-hard) but fast on the small queries arising in rewritings.
pub fn cq_core(q: &Cq) -> Cq {
    cq_core_budgeted(q, usize::MAX)
}

/// Like [`cq_core`] but gives up after examining `max_homs` endomorphisms
/// per folding round, returning the (equivalent) partially-minimized query.
/// Queries with many loosely-joined same-predicate atoms have exponentially
/// many endomorphisms, and an exhaustive no-fold proof is pointless when
/// coring is used only as a canonicalization heuristic.
pub fn cq_core_budgeted(q: &Cq, max_homs: usize) -> Cq {
    cq_core_budgeted_report(q, max_homs).0
}

/// Like [`cq_core_budgeted`], additionally reporting whether the
/// endomorphism budget was exhausted in any folding round (i.e. whether the
/// result is only *potentially* non-minimal rather than a certified core).
///
/// Coring searches endomorphisms of a candidate into its *own* frozen body
/// — a target of a handful of atoms — so the general kernel's instance
/// indexes and compiled plans are pure overhead here. The search instead
/// runs directly over the body slice: head variables pre-bound to
/// themselves, atoms visited in the kernel's greedy [`join_order`],
/// candidates scanned per predicate. An endomorphism shrinks the image iff
/// some same-predicate atom pair collapses under it (pigeonhole), so the
/// leaf test is a precompiled list of pairwise slot comparisons, and
/// bodies without any potentially-collapsible pair are certified cores
/// with no search at all.
pub fn cq_core_budgeted_report(q: &Cq, max_homs: usize) -> (Cq, bool) {
    /// A body argument under the dense variable numbering.
    #[derive(Copy, Clone)]
    enum ArgE {
        Ground(Term),
        V(usize),
    }
    /// One runtime equality check of a mergeable same-predicate atom pair.
    enum ArgCmp {
        /// Both positions hold variables, with these dense indices.
        Vars(usize, usize),
        /// A variable against a ground term.
        VarGround(usize, Term),
    }
    enum Outcome {
        Found,
        NotFound,
        Budget,
    }
    struct Fold<'a> {
        /// Atom visit order (indices into the body).
        order: &'a [usize],
        /// Argument encodings per body atom.
        enc: &'a [Vec<ArgE>],
        /// Frozen argument vectors per body atom (variables as nulls).
        frozen: &'a [Vec<Term>],
        /// Per-depth candidate target atoms (same predicate as the atom
        /// visited at that depth), in body order.
        targets: &'a [Vec<usize>],
        /// Collapsible-pair checks; any pair passing all its checks means
        /// the current endomorphism shrinks the image.
        pairs: &'a [Vec<ArgCmp>],
        /// Dense variable bindings (images live in the frozen term space).
        bindings: Vec<Option<Term>>,
        /// Undo log of bound variable indices.
        trail: Vec<usize>,
        examined: usize,
        max_homs: usize,
    }
    impl Fold<'_> {
        fn step(&mut self, depth: usize) -> Outcome {
            if depth == self.order.len() {
                self.examined += 1;
                if self.examined > self.max_homs {
                    return Outcome::Budget;
                }
                let merges = self.pairs.iter().any(|checks| {
                    checks.iter().all(|c| match *c {
                        ArgCmp::Vars(s, t) => self.bindings[s] == self.bindings[t],
                        ArgCmp::VarGround(s, t) => self.bindings[s] == Some(t),
                    })
                });
                return if merges {
                    Outcome::Found
                } else {
                    Outcome::NotFound
                };
            }
            let ai = self.order[depth];
            let mark = self.trail.len();
            'cand: for ti in 0..self.targets[depth].len() {
                let tj = self.targets[depth][ti];
                for (pos, &e) in self.enc[ai].iter().enumerate() {
                    let val = self.frozen[tj][pos];
                    let ok = match e {
                        ArgE::Ground(g) => g == val,
                        ArgE::V(s) => match self.bindings[s] {
                            Some(b) => b == val,
                            None => {
                                self.bindings[s] = Some(val);
                                self.trail.push(s);
                                true
                            }
                        },
                    };
                    if !ok {
                        self.undo(mark);
                        continue 'cand;
                    }
                }
                match self.step(depth + 1) {
                    Outcome::NotFound => self.undo(mark),
                    found_or_budget => return found_or_budget,
                }
            }
            Outcome::NotFound
        }

        fn undo(&mut self, mark: usize) {
            for &s in &self.trail[mark..] {
                self.bindings[s] = None;
            }
            self.trail.truncate(mark);
        }
    }

    let mut current = q.clone();
    'rounds: loop {
        let body = &current.body;
        let n = body.len();
        // Dense variable numbering over the body, in first-occurrence order.
        let mut vars: Vec<VarId> = Vec::new();
        let enc: Vec<Vec<ArgE>> = body
            .iter()
            .map(|a| {
                a.args
                    .iter()
                    .map(|&t| match t {
                        Term::Var(v) => {
                            let i = vars.iter().position(|&w| w == v).unwrap_or_else(|| {
                                vars.push(v);
                                vars.len() - 1
                            });
                            ArgE::V(i)
                        }
                        ground => ArgE::Ground(ground),
                    })
                    .collect()
            })
            .collect();
        // Precompile the checks of every potentially-collapsible pair.
        let mut pairs: Vec<Vec<ArgCmp>> = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                if body[i].pred != body[j].pred {
                    continue;
                }
                let mut checks = Vec::new();
                let mut possible = true;
                for (&a, &b) in enc[i].iter().zip(&enc[j]) {
                    match (a, b) {
                        (ArgE::Ground(x), ArgE::Ground(y)) => {
                            if x != y {
                                possible = false;
                                break;
                            }
                        }
                        (ArgE::V(s), ArgE::V(t)) => {
                            if s != t {
                                checks.push(ArgCmp::Vars(s, t));
                            }
                        }
                        (ArgE::V(s), ArgE::Ground(y)) | (ArgE::Ground(y), ArgE::V(s)) => {
                            checks.push(ArgCmp::VarGround(s, y));
                        }
                    }
                }
                if possible {
                    pairs.push(checks);
                }
            }
        }
        if pairs.is_empty() {
            // No two atoms can ever share an image: certified core.
            return (current, false);
        }
        // Frozen body: variables become their own nulls; endomorphism
        // images live in this term space.
        let frozen: Vec<Vec<Term>> = body
            .iter()
            .map(|a| {
                a.args
                    .iter()
                    .map(|&t| match t {
                        Term::Var(v) => Term::Null(NullId(v.0)),
                        ground => ground,
                    })
                    .collect()
            })
            .collect();
        // Head variables retract onto themselves.
        let mut bindings: Vec<Option<Term>> = vec![None; vars.len()];
        for &v in &current.head {
            if let Some(i) = vars.iter().position(|&w| w == v) {
                bindings[i] = Some(Term::Null(NullId(v.0)));
            }
        }
        let mut seeded: Vec<VarId> = current.head.clone();
        seeded.sort_unstable();
        seeded.dedup();
        let order = crate::hom::join_order(body, &seeded, None);
        let targets: Vec<Vec<usize>> = order
            .iter()
            .map(|&ai| (0..n).filter(|&j| body[j].pred == body[ai].pred).collect())
            .collect();
        let mut fold = Fold {
            order: &order,
            enc: &enc,
            frozen: &frozen,
            targets: &targets,
            pairs: &pairs,
            bindings,
            trail: Vec::new(),
            examined: 0,
            max_homs,
        };
        match fold.step(0) {
            Outcome::NotFound => return (current, false),
            Outcome::Budget => return (current, true),
            Outcome::Found => {
                // Rebuild the query from the image, un-freezing nulls back
                // to variables.
                let bindings = fold.bindings;
                let mut new_body: Vec<Atom> = Vec::new();
                let mut seen = HashSet::new();
                for (ai, args) in enc.iter().enumerate() {
                    let img = Atom::new(
                        body[ai].pred,
                        args.iter()
                            .map(|&e| match e {
                                ArgE::Ground(t) => t,
                                ArgE::V(s) => match bindings[s] {
                                    Some(Term::Null(nl)) => Term::Var(VarId(nl.0)),
                                    Some(other) => other,
                                    None => unreachable!("endomorphism binds all variables"),
                                },
                            })
                            .collect(),
                    );
                    if seen.insert(img.clone()) {
                        new_body.push(img);
                    }
                }
                current = Cq::new(current.head.clone(), new_body);
                continue 'rounds;
            }
        }
    }
}

/// Are two CQs isomorphic: equal up to a bijective variable renaming that is
/// the identity on head positions (`q' ≃ q''` in Algorithm 1)?
pub fn cq_isomorphic(q1: &Cq, q2: &Cq) -> bool {
    if q1.head.len() != q2.head.len() || q1.body.len() != q2.body.len() {
        return false;
    }
    // Invariant prefilter: multiset of predicates.
    let mut p1: Vec<_> = q1.body.iter().map(|a| a.pred).collect();
    let mut p2: Vec<_> = q2.body.iter().map(|a| a.pred).collect();
    p1.sort_unstable();
    p2.sort_unstable();
    if p1 != p2 {
        return false;
    }

    fn extend(
        map: &mut HashMap<VarId, VarId>,
        inv: &mut HashMap<VarId, VarId>,
        a: &Atom,
        b: &Atom,
    ) -> Option<Vec<VarId>> {
        if a.pred != b.pred {
            return None;
        }
        let mut newly = Vec::new();
        for (&x, &y) in a.args.iter().zip(&b.args) {
            match (x, y) {
                (Term::Var(vx), Term::Var(vy)) => {
                    match (map.get(&vx).copied(), inv.get(&vy).copied()) {
                        (Some(m), _) if m != vy => {
                            undo(map, inv, &newly);
                            return None;
                        }
                        (_, Some(i)) if i != vx => {
                            undo(map, inv, &newly);
                            return None;
                        }
                        (None, None) => {
                            map.insert(vx, vy);
                            inv.insert(vy, vx);
                            newly.push(vx);
                        }
                        _ => {}
                    }
                }
                (tx, ty) if tx == ty => {}
                _ => {
                    undo(map, inv, &newly);
                    return None;
                }
            }
        }
        Some(newly)
    }

    fn undo(map: &mut HashMap<VarId, VarId>, inv: &mut HashMap<VarId, VarId>, newly: &[VarId]) {
        for v in newly {
            if let Some(w) = map.remove(v) {
                inv.remove(&w);
            }
        }
    }

    fn rec(
        q1: &Cq,
        q2: &Cq,
        i: usize,
        used: &mut Vec<bool>,
        map: &mut HashMap<VarId, VarId>,
        inv: &mut HashMap<VarId, VarId>,
    ) -> bool {
        if i == q1.body.len() {
            return true;
        }
        for j in 0..q2.body.len() {
            if used[j] {
                continue;
            }
            if let Some(newly) = extend(map, inv, &q1.body[i], &q2.body[j]) {
                used[j] = true;
                if rec(q1, q2, i + 1, used, map, inv) {
                    return true;
                }
                used[j] = false;
                undo(map, inv, &newly);
            }
        }
        false
    }

    let mut map = HashMap::new();
    let mut inv = HashMap::new();
    // The renaming must respect head positions pairwise.
    for (&h1, &h2) in q1.head.iter().zip(&q2.head) {
        match (map.get(&h1).copied(), inv.get(&h2).copied()) {
            (Some(m), _) if m != h2 => return false,
            (_, Some(i)) if i != h1 => return false,
            (None, None) => {
                map.insert(h1, h2);
                inv.insert(h2, h1);
            }
            _ => {}
        }
    }
    let mut used = vec![false; q2.body.len()];
    rec(q1, q2, 0, &mut used, &mut map, &mut inv)
}

/// A canonical form for a CQ under `≃` (bijective variable renaming fixing
/// head positions pairwise): two CQs have equal canonical forms iff they are
/// `cq_isomorphic`, so deduplication becomes hash-map equality.
///
/// Head variables are labeled by first occurrence in the head; existential
/// variables by iterated color refinement (a nauty-lite 1-WL) with a
/// backtracking tie-break that takes the minimum certificate over all
/// within-class relabelings.
///
/// The form is a single flat word stream rather than a vector of per-atom
/// vectors: these values are computed for every rewriting candidate and
/// then hashed and compared on every dedup-index probe, so one contiguous
/// buffer (one allocation, one memcmp/hash pass) beats a nested encoding
/// on both construction and lookup.
#[derive(Clone, Debug)]
pub struct CqCanonicalForm {
    /// Canonical labels of the head positions (first-occurrence numbering).
    head: Vec<u32>,
    /// Sorted flat atom encodings: each atom contributes
    /// `pred, arity, args...`, with constants `c` encoded as `-(c+1)` and
    /// variables as their canonical label. Predicates have fixed arities,
    /// so the stream parses unambiguously and compares atom-lexicographically.
    atoms: Vec<i64>,
    /// A content hash precomputed at construction. Forms are built once and
    /// then probed against hash maps repeatedly, so `Hash` just forwards
    /// this word instead of re-walking the stream; `PartialEq` also rejects
    /// on it first. Equal content always has an equal hash (the hash is a
    /// pure function of `head` and `atoms`), so the derived field-wise
    /// equality stays correct.
    hash: u64,
}

impl PartialEq for CqCanonicalForm {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.head == other.head && self.atoms == other.atoms
    }
}

impl Eq for CqCanonicalForm {}

impl std::hash::Hash for CqCanonicalForm {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl CqCanonicalForm {
    fn seal(head: Vec<u32>, atoms: Vec<i64>) -> Self {
        let mut h = mix(head.len() as u64, atoms.len() as u64);
        for &w in &head {
            h = mix(h, w as u64);
        }
        for &w in &atoms {
            h = mix(h, w as u64);
        }
        CqCanonicalForm {
            head,
            atoms,
            hash: h,
        }
    }
}

/// Mixes a word into a running hash (splitmix64 finalizer). Collision
/// quality only affects pruning power, never correctness, so a fast
/// non-cryptographic mix beats `DefaultHasher` here.
#[inline]
fn mix(h: u64, w: u64) -> u64 {
    let mut z = h ^ w.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Computes the canonical form of `q`, or `None` when the symmetry of the
/// refined coloring (the product of color-class factorials) exceeds
/// `symmetry_budget` relabelings. The budget test is itself
/// isomorphism-invariant, so isomorphic CQs consistently succeed or
/// consistently fall back — a caller may mix this with a pairwise
/// `cq_isomorphic` fallback without missing duplicates.
pub fn cq_canonical_form(q: &Cq, symmetry_budget: usize) -> Option<CqCanonicalForm> {
    thread_local! {
        static SCRATCH: std::cell::RefCell<CanonScratch> =
            std::cell::RefCell::new(CanonScratch::default());
    }
    SCRATCH.with(|s| canonical_form_with(q, symmetry_budget, &mut s.borrow_mut()))
}

/// Reusable working memory for [`cq_canonical_form`]. The function runs once
/// per rewriting candidate (tens of thousands of times per call tree), and
/// without this its dozen short-lived `Vec`s dominate its profile; a
/// thread-local scratch drops that to the two output allocations.
#[derive(Default)]
struct CanonScratch {
    vars: Vec<VarId>,
    enc: Vec<i64>,
    starts: Vec<usize>,
    color: Vec<u64>,
    next: Vec<u64>,
    distinct: Vec<u64>,
    order: Vec<usize>,
    class_starts: Vec<usize>,
    bases: Vec<u32>,
    label: Vec<u32>,
    buf: Vec<i64>,
    bufs: Vec<usize>,
    idx: Vec<usize>,
}

fn canonical_form_with(
    q: &Cq,
    symmetry_budget: usize,
    scratch: &mut CanonScratch,
) -> Option<CqCanonicalForm> {
    let CanonScratch {
        vars,
        enc,
        starts,
        color,
        next,
        distinct,
        order,
        class_starts,
        bases,
        label,
        buf,
        bufs,
        idx,
    } = scratch;
    // Dense variable indexing: vars[i] is the i-th distinct variable, head
    // variables first (in head order), then existentials in first-body-
    // occurrence order. The order is only an enumeration — the labeling does
    // not depend on it.
    vars.clear();
    let dense = |vars: &mut Vec<VarId>, v: VarId| -> usize {
        match vars.iter().position(|&w| w == v) {
            Some(i) => i,
            None => {
                vars.push(v);
                vars.len() - 1
            }
        }
    };
    let mut head = Vec::with_capacity(q.head.len());
    for &v in &q.head {
        head.push(dense(vars, v) as u32);
    }
    let n_head = vars.len();
    // Atom args as dense indices (vars) or negative constant encodings, in
    // one flat buffer: `enc[starts[i]..starts[i + 1]]` are atom i's args.
    let n_atoms = q.body.len();
    enc.clear();
    starts.clear();
    for a in &q.body {
        starts.push(enc.len());
        for t in &a.args {
            enc.push(match t {
                Term::Const(c) => -(c.0 as i64) - 1,
                Term::Var(v) => dense(vars, *v) as i64,
                Term::Null(_) => unreachable!("CQs contain no nulls"),
            });
        }
    }
    starts.push(enc.len());
    let enc = &*enc;
    let starts = &*starts;
    let args_of = |i: usize| &enc[starts[i]..starts[i + 1]];
    let n_ex = vars.len() - n_head;

    // Color refinement on the existential variables until the number of
    // classes stops growing (the stopping rule depends only on invariant
    // class counts). A variable's new color folds in, order-independently,
    // one view hash per occurrence: (pred, position, the atom's argument
    // encodings under the current coloring).
    color.clear();
    color.resize(n_ex, 0);
    if n_ex > 1 {
        next.clear();
        next.resize(n_ex, 0);
        let mut classes = 1usize;
        loop {
            next.copy_from_slice(color);
            for (i, a) in q.body.iter().enumerate() {
                let args = args_of(i);
                let mut atom_h = mix(a.pred.0 as u64, 4);
                for &arg in args {
                    let code = if arg < 0 {
                        mix(1, arg as u64)
                    } else if (arg as usize) < n_head {
                        mix(2, arg as u64)
                    } else {
                        mix(3, color[arg as usize - n_head])
                    };
                    atom_h = mix(atom_h, code);
                }
                for (pos, &arg) in args.iter().enumerate() {
                    if arg >= n_head as i64 {
                        let view = mix(mix(atom_h, pos as u64), 5);
                        next[arg as usize - n_head] =
                            next[arg as usize - n_head].wrapping_add(view);
                    }
                }
            }
            for c in next.iter_mut() {
                *c = mix(*c, 6);
            }
            distinct.clear();
            distinct.extend_from_slice(next);
            distinct.sort_unstable();
            distinct.dedup();
            let n = distinct.len();
            std::mem::swap(color, next);
            let grew = n > classes;
            classes = n;
            if !grew {
                break;
            }
        }
    }

    // Group existentials by final color: `order` sorted by color, classes
    // are the equal-color runs `order[class_starts[c]..class_starts[c+1]]`.
    order.clear();
    order.extend(0..n_ex);
    order.sort_unstable_by_key(|&i| color[i]);
    class_starts.clear();
    class_starts.push(0);
    for k in 1..n_ex {
        if color[order[k]] != color[order[k - 1]] {
            class_starts.push(k);
        }
    }
    if n_ex > 0 {
        class_starts.push(n_ex);
    }
    let order = &*order;
    let class_starts = &*class_starts;
    let n_classes = class_starts.len() - 1;
    let class = |c: usize| &order[class_starts[c]..class_starts[c + 1]];

    // Symmetry budget: total number of within-class relabelings.
    let mut total: usize = 1;
    for c in 0..n_classes {
        for k in 2..=class(c).len() {
            total = total.saturating_mul(k);
            if total > symmetry_budget {
                return None;
            }
        }
    }

    // Base canonical ids per class (classes ordered by color value, which
    // is invariant).
    bases.clear();
    let mut next_id = n_head as u32;
    for c in 0..n_classes {
        bases.push(next_id);
        next_id += class(c).len() as u32;
    }

    // `label[i]` is the canonical id of dense variable i under the current
    // relabeling; head labels are fixed.
    label.clear();
    label.extend(0..vars.len() as u32);
    // Encodes the body under `label` into `out`: per-atom chunks
    // `pred, arity, args...` written to `buf`, atom order sorted via `idx`
    // by chunk comparison, then emitted contiguously.
    let encode_atoms = |label: &[u32],
                        buf: &mut Vec<i64>,
                        bufs: &mut Vec<usize>,
                        idx: &mut Vec<usize>,
                        out: &mut Vec<i64>| {
        buf.clear();
        bufs.clear();
        for (i, a) in q.body.iter().enumerate() {
            bufs.push(buf.len());
            buf.push(a.pred.0 as i64);
            buf.push(a.args.len() as i64);
            for &arg in args_of(i) {
                buf.push(if arg < 0 {
                    arg
                } else {
                    label[arg as usize] as i64
                });
            }
        }
        bufs.push(buf.len());
        idx.clear();
        idx.extend(0..n_atoms);
        idx.sort_unstable_by(|&a, &b| buf[bufs[a]..bufs[a + 1]].cmp(&buf[bufs[b]..bufs[b + 1]]));
        out.clear();
        for &i in idx.iter() {
            out.extend_from_slice(&buf[bufs[i]..bufs[i + 1]]);
        }
    };

    if total == 1 {
        // Rigid after refinement (the common case): one relabeling.
        for (c, &base) in bases.iter().enumerate() {
            for (mi, &i) in class(c).iter().enumerate() {
                label[n_head + i] = base + mi as u32;
            }
        }
        let mut atoms = Vec::with_capacity(enc.len() + 2 * n_atoms);
        encode_atoms(label, buf, bufs, idx, &mut atoms);
        return Some(CqCanonicalForm::seal(head, atoms));
    }

    // Enumerate the cartesian product of within-class permutations and keep
    // the minimum certificate.
    let perms_per_class: Vec<Vec<Vec<usize>>> = (0..n_classes)
        .map(|c| permutations(class(c).len()))
        .collect();
    let mut odometer = vec![0usize; n_classes];
    let mut best: Option<Vec<i64>> = None;
    let mut cand: Vec<i64> = Vec::new();
    loop {
        for (c, perms) in perms_per_class.iter().enumerate() {
            let perm = &perms[odometer[c]];
            for (mi, &i) in class(c).iter().enumerate() {
                label[n_head + i] = bases[c] + perm[mi] as u32;
            }
        }
        encode_atoms(label, buf, bufs, idx, &mut cand);
        if best.as_ref().is_none_or(|b| cand < *b) {
            best = Some(std::mem::take(&mut cand));
        }
        // Advance the odometer.
        let mut c = 0;
        loop {
            if c == odometer.len() {
                return Some(CqCanonicalForm::seal(
                    head,
                    best.expect("at least one relabeling was tried"),
                ));
            }
            odometer[c] += 1;
            if odometer[c] < perms_per_class[c].len() {
                break;
            }
            odometer[c] = 0;
            c += 1;
        }
    }
}

/// All permutations of `0..n` (n is bounded by the symmetry budget).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = vec![vec![]];
    for _ in 0..n {
        let mut next = Vec::new();
        for p in &out {
            for k in 0..n {
                if !p.contains(&k) {
                    let mut p2 = p.clone();
                    p2.push(k);
                    next.push(p2);
                }
            }
        }
        out = next;
    }
    out
}

/// A streaming sieve that keeps only homomorphically maximal disjuncts of a
/// UCQ: a disjunct `d` is dropped when some kept disjunct `k` subsumes it
/// (`d ⊆ k`), and inserting `d` evicts every kept disjunct it subsumes. On
/// mutual containment (equivalent disjuncts) the earliest insertion wins, so
/// the surviving list is a deterministic function of the insertion order.
///
/// The frozen instance and compiled [`JoinPlan`] of every kept disjunct are
/// cached, and a 64-bit predicate bloom mask prefilters the Chandra–Merlin
/// checks (a hom from `k` into `d`'s frozen body needs
/// `preds(k) ⊆ preds(d)`); prefilter rejections and plan reuse are counted
/// in [`SubsumptionSieve::hom_stats`].
pub struct SubsumptionSieve {
    kept: Vec<SieveEntry>,
    kills: usize,
    stats: HomStats,
}

struct SieveEntry {
    cq: Cq,
    frozen: Instance,
    head: Vec<Term>,
    mask: u64,
    /// Plan for homs from `cq` into another disjunct's frozen body, seeded
    /// on `cq`'s head variables.
    plan: Arc<JoinPlan>,
}

fn pred_mask(q: &Cq) -> u64 {
    pred_sig(&q.body)
}

/// Compiles `cq`'s probe plan costed against `target`, the frozen instance
/// it is about to (or will typically) probe. A stored entry plan later runs
/// against *other* disjuncts' frozen bodies; its own frozen body is a good
/// cardinality proxy because sieve disjuncts are structurally close.
fn compile_entry_plan(cq: &Cq, target: &Instance, stats: &mut HomStats) -> Arc<JoinPlan> {
    Arc::new(crate::hom::compile_costed_for(
        &cq.body, &cq.head, None, target, stats,
    ))
}

/// `sub ⊆ sup`, with `sub` pre-frozen and `sup`'s plan (body seeded on
/// `sup_head`) pre-compiled — cached Chandra–Merlin.
fn contained_in_frozen(
    plan: &JoinPlan,
    sup_head: &[VarId],
    sub_frozen: &Instance,
    sub_head: &[Term],
    stats: &mut HomStats,
) -> bool {
    if sub_head.len() != sup_head.len() {
        return false;
    }
    let pairs: Vec<(VarId, Term)> = sup_head
        .iter()
        .copied()
        .zip(sub_head.iter().copied())
        .collect();
    let Some(seed) = plan.seed_values(&pairs) else {
        return false; // repeated head variable with conflicting images
    };
    let before = stats.candidates_scanned;
    let hit = plan
        .execute(sub_frozen, &seed, None, stats, |_| ControlFlow::Break(()))
        .is_break();
    crate::hom::record_estimate_quality(plan, stats.candidates_scanned - before, stats);
    hit
}

impl SubsumptionSieve {
    pub fn new() -> Self {
        SubsumptionSieve {
            kept: Vec::new(),
            kills: 0,
            stats: HomStats::default(),
        }
    }

    /// Offers a disjunct; returns `true` if it was kept, `false` if an
    /// already-kept disjunct subsumes it.
    pub fn insert(&mut self, cq: Cq) -> bool {
        let (frozen, head) = freeze_to_nulls(&cq);
        let mask = pred_mask(&cq);
        let mut rejected = false;
        for k in &self.kept {
            if !prefilter(k.mask, mask, &mut self.stats) {
                // Some predicate of `k` is absent from `cq`: no hom exists.
                continue;
            }
            let plan = JoinPlan::reuse(&k.plan, &mut self.stats);
            if contained_in_frozen(&plan, &k.cq.head, &frozen, &head, &mut self.stats) {
                rejected = true;
                break;
            }
        }
        if rejected {
            self.kills += 1;
            return false;
        }
        let plan = compile_entry_plan(&cq, &frozen, &mut self.stats);
        let before = self.kept.len();
        let stats = &mut self.stats;
        self.kept.retain(|k| {
            if !prefilter(mask, k.mask, stats) {
                return true;
            }
            let p = JoinPlan::reuse(&plan, stats);
            !contained_in_frozen(&p, &cq.head, &k.frozen, &k.head, stats)
        });
        self.kills += before - self.kept.len();
        self.kept.push(SieveEntry {
            cq,
            frozen,
            head,
            mask,
            plan,
        });
        true
    }

    /// Disjuncts dropped so far (offered-and-rejected plus kept-and-evicted).
    pub fn kills(&self) -> usize {
        self.kills
    }

    /// Work counters accumulated across all probes: candidate scans,
    /// prefilter rejections, plan compilations and reuses.
    pub fn hom_stats(&self) -> HomStats {
        self.stats
    }

    pub fn len(&self) -> usize {
        self.kept.len()
    }

    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    /// The surviving disjuncts, in insertion order.
    pub fn into_disjuncts(self) -> Vec<Cq> {
        self.kept.into_iter().map(|k| k.cq).collect()
    }
}

impl Default for SubsumptionSieve {
    fn default() -> Self {
        SubsumptionSieve::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_model::{parse_query, Vocabulary};

    fn q(voc: &mut Vocabulary, s: &str) -> Cq {
        parse_query(voc, s).unwrap().1
    }

    #[test]
    fn chandra_merlin_chain() {
        let mut voc = Vocabulary::new();
        // path of length 2 ⊆ path of length 1 (as Boolean queries over edges).
        let p2 = q(&mut voc, "q :- E(X,Y), E(Y,Z)");
        let p1 = q(&mut voc, "q :- E(U,V)");
        assert!(cq_contained(&p2, &p1));
        assert!(!cq_contained(&p1, &p2));
        assert!(!cq_equivalent(&p1, &p2));
    }

    #[test]
    fn containment_respects_head() {
        let mut voc = Vocabulary::new();
        let qa = q(&mut voc, "q(X) :- E(X,Y)");
        let qb = q(&mut voc, "q(Y) :- E(X,Y)");
        assert!(!cq_contained(&qa, &qb));
        assert!(!cq_contained(&qb, &qa));
        assert!(cq_contained(&qa, &qa));
    }

    #[test]
    fn containment_with_constants() {
        let mut voc = Vocabulary::new();
        let qa = q(&mut voc, "q :- E(a,Y)");
        let qb = q(&mut voc, "q :- E(X,Y)");
        assert!(cq_contained(&qa, &qb));
        assert!(!cq_contained(&qb, &qa));
    }

    #[test]
    fn ucq_containment() {
        let prog = omq_model::parse_program(
            "p(X) :- A(X)\np(X) :- B(X)\n\
             r(X) :- B(X)\nr(X) :- A(X)\nr(X) :- C(X)\n",
        )
        .unwrap();
        let p = prog.query("p").unwrap();
        let r = prog.query("r").unwrap();
        assert!(ucq_contained(p, r));
        assert!(!ucq_contained(r, p));
    }

    #[test]
    fn core_collapses_redundant_atoms() {
        let mut voc = Vocabulary::new();
        // E(X,Y) ∧ E(X,Z) folds to E(X,Y).
        let redundant = q(&mut voc, "q(X) :- E(X,Y), E(X,Z)");
        let core = cq_core(&redundant);
        assert_eq!(core.body.len(), 1);
        assert!(cq_equivalent(&redundant, &core));
    }

    #[test]
    fn core_keeps_triangle() {
        let mut voc = Vocabulary::new();
        let triangle = q(&mut voc, "q :- E(X,Y), E(Y,Z), E(Z,X)");
        let core = cq_core(&triangle);
        assert_eq!(core.body.len(), 3);
    }

    #[test]
    fn core_folds_path_into_loop() {
        let mut voc = Vocabulary::new();
        // E(X,X) ∧ E(X,Y): Y can fold onto X.
        let qq = q(&mut voc, "q :- E(X,X), E(X,Y)");
        let core = cq_core(&qq);
        assert_eq!(core.body.len(), 1);
    }

    #[test]
    fn isomorphism_modulo_renaming() {
        let mut voc = Vocabulary::new();
        let qa = q(&mut voc, "q(X) :- E(X,Y), P(Y)");
        let qb = q(&mut voc, "q(X) :- E(X,Z), P(Z)");
        assert!(cq_isomorphic(&qa, &qb));
        let qc = q(&mut voc, "q(X) :- E(Y,X), P(Y)");
        assert!(!cq_isomorphic(&qa, &qc));
    }

    #[test]
    fn isomorphism_head_identity() {
        let mut voc = Vocabulary::new();
        // Same shape, but head picks a different variable: not isomorphic in
        // the ≃ sense even though the bodies match.
        let qa = q(&mut voc, "q(X) :- E(X,Y)");
        let qb = q(&mut voc, "q(Y2) :- E(X2,Y2)");
        assert!(!cq_isomorphic(&qa, &qb));
    }

    #[test]
    fn isomorphism_distinguishes_shape_from_equivalence() {
        let mut voc = Vocabulary::new();
        // Equivalent but not isomorphic (different atom counts).
        let qa = q(&mut voc, "q :- E(X,Y)");
        let qb = q(&mut voc, "q :- E(U,V), E(U,W)");
        assert!(cq_equivalent(&qa, &qb));
        assert!(!cq_isomorphic(&qa, &qb));
    }

    #[test]
    fn isomorphism_repeated_vars() {
        let mut voc = Vocabulary::new();
        let qa = q(&mut voc, "q :- E(X,X)");
        let qb = q(&mut voc, "q :- E(Y,Y)");
        let qc = q(&mut voc, "q :- E(Y,Z)");
        assert!(cq_isomorphic(&qa, &qb));
        assert!(!cq_isomorphic(&qa, &qc));
    }

    /// Canonical forms agree with `cq_isomorphic` on a battery of
    /// hand-picked pairs covering renamings, head identity, repeated
    /// variables and constants.
    #[test]
    fn canonical_form_matches_isomorphism() {
        let mut voc = Vocabulary::new();
        let queries = [
            "q(X) :- E(X,Y), P(Y)",
            "q(X) :- E(X,Z), P(Z)",
            "q(X) :- E(Y,X), P(Y)",
            "q :- E(X,Y), E(Y,Z)",
            "q :- E(A,B), E(B,C)",
            "q :- E(X,Y), E(X,Z)",
            "q :- E(X,X)",
            "q :- E(Y,Y)",
            "q :- E(Y,Z)",
            "q(X) :- E(X,Y)",
            "q(Y2) :- E(X2,Y2)",
            "q :- E(a,Y)",
            "q :- E(X,Y)",
            "q(X,X) :- E(X,Y)",
            "q(X,Z) :- E(X,Y), E(Z,Y)",
        ];
        let cqs: Vec<Cq> = queries.iter().map(|s| q(&mut voc, s)).collect();
        for (i, a) in cqs.iter().enumerate() {
            for (j, b) in cqs.iter().enumerate() {
                let fa = cq_canonical_form(a, 5040).unwrap();
                let fb = cq_canonical_form(b, 5040).unwrap();
                assert_eq!(
                    fa == fb,
                    cq_isomorphic(a, b),
                    "canonical form disagrees with cq_isomorphic on \
                     {:?} vs {:?}",
                    queries[i],
                    queries[j],
                );
            }
        }
    }

    /// A highly symmetric query (a clique of interchangeable variables)
    /// blows past a tiny symmetry budget and falls back to `None`.
    #[test]
    fn canonical_form_symmetry_budget() {
        let mut voc = Vocabulary::new();
        let clique = q(
            &mut voc,
            "q :- E(A,B), E(B,A), E(B,C), E(C,B), E(A,C), E(C,A)",
        );
        assert!(cq_canonical_form(&clique, 2).is_none());
        assert!(cq_canonical_form(&clique, 5040).is_some());
    }

    #[test]
    fn core_budget_exhaustion_is_reported() {
        let mut voc = Vocabulary::new();
        let qq = q(&mut voc, "q :- E(X,Y), E(X,Z), E(X,W)");
        let (unshrunk, exhausted_tight) = cq_core_budgeted_report(&qq, 0);
        assert!(exhausted_tight);
        assert_eq!(unshrunk.body.len(), 3);
        let (core, exhausted) = cq_core_budgeted_report(&qq, usize::MAX);
        assert!(!exhausted);
        assert_eq!(core.body.len(), 1);
    }

    #[test]
    fn sieve_drops_subsumed_and_evicts() {
        let mut voc = Vocabulary::new();
        // p2 ⊆ p1 (a longer path is subsumed by the shorter pattern).
        let p1 = q(&mut voc, "q :- E(U,V)");
        let p2 = q(&mut voc, "q :- E(X,Y), E(Y,Z)");
        let tri = q(&mut voc, "q :- P(X)");

        // Keeping the general disjunct first: the specific one is rejected.
        let mut sieve = SubsumptionSieve::new();
        assert!(sieve.insert(p1.clone()));
        assert!(!sieve.insert(p2.clone()));
        assert!(sieve.insert(tri.clone()));
        assert_eq!(sieve.kills(), 1);
        assert_eq!(sieve.len(), 2);

        // Specific first: inserting the general disjunct evicts it.
        let mut sieve = SubsumptionSieve::new();
        assert!(sieve.insert(p2.clone()));
        assert!(sieve.insert(p1.clone()));
        assert_eq!(sieve.kills(), 1);
        assert_eq!(sieve.into_disjuncts(), vec![p1.clone()]);

        // Mutual containment (equivalent but non-identical): earliest wins.
        let e1 = q(&mut voc, "q :- E(S,T)");
        let mut sieve = SubsumptionSieve::new();
        assert!(sieve.insert(p1.clone()));
        assert!(!sieve.insert(e1));
        assert_eq!(sieve.into_disjuncts(), vec![p1]);
    }
}
