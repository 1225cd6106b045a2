//! Deterministic workload generation: every request the benchmark sends
//! is a pure function of `(workload, seed, count)`.
//!
//! Contains questions are drawn from namespaced families whose verdicts
//! are known by construction (see the per-family notes below); store-churn
//! steps carry the client-side transitive closure each `evaluate` must
//! return.

use std::collections::BTreeSet;

/// SplitMix64: small, fast, and fully specified, so a seed names the same
/// request stream on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Expected `contains` verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Contained,
    NotContained,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Contained => "contained",
            Verdict::NotContained => "not_contained",
        }
    }
}

/// One registered OMQ: `{"op":"register",...}` with query name `q`.
#[derive(Clone, Debug)]
pub struct OmqSpec {
    pub name: String,
    pub program: String,
    pub schema: Vec<String>,
    pub family: &'static str,
}

/// A request and what its answer must be.
#[derive(Clone, Debug)]
pub enum Op {
    Register(usize),
    Contains {
        lhs: String,
        rhs: String,
        family: &'static str,
        expect: Verdict,
    },
    Assert {
        store: usize,
        edges: Vec<(u32, u32)>,
    },
    Retract {
        store: usize,
        edges: Vec<(u32, u32)>,
    },
    /// Evaluate a store's head; `expect` is the sorted closure.
    Evaluate {
        store: usize,
        expect: Vec<(u32, u32)>,
    },
}

impl Op {
    /// Reads answer questions; writes change server state.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Op::Register(_) | Op::Assert { .. } | Op::Retract { .. }
        )
    }
}

/// A timed unit: one batch (blank-line delimited) of requests.
#[derive(Clone, Debug)]
pub struct Unit {
    pub ops: Vec<Op>,
}

impl Unit {
    pub fn is_write(&self) -> bool {
        self.ops.iter().all(Op::is_write)
    }
}

/// Registered OMQs are sent in pipelined batches of this many.
pub const REGISTER_BATCH: usize = 16;
/// Pipelined batch size of the contains-hot workload.
pub const HOT_BATCH: usize = 64;
/// Stores and graph shape of the store-churn workload.
pub const STORES: usize = 4;
pub const COMPONENTS: u32 = 10;
pub const COMPONENT_SIZE: u32 = 15;
pub const BASE_EDGES_PER_COMPONENT: usize = 40;
pub const CHURN_EDGES: usize = 8;

/// Everything one run sends, generated before any clock starts.
#[derive(Clone, Debug, Default)]
pub struct Workload {
    pub name: String,
    pub omqs: Vec<OmqSpec>,
    /// Registration batches of the set-up.
    pub register_units: Vec<Unit>,
    /// Base facts and first evaluations (set-up, untimed per unit).
    pub preload: Vec<Unit>,
    /// Hot warm-up: every question of the working set once.
    pub warmup: Vec<Unit>,
    /// The timed units, in order.
    pub units: Vec<Unit>,
    /// Store names (store-churn only).
    pub stores: Vec<String>,
}

// ---------------------------------------------------------------------------
// Contains families. Every group lives in its own predicate namespace
// `n<g>_`, so every registered OMQ has a distinct canonical key.

struct Group {
    omqs: Vec<OmqSpec>,
    /// (lhs index, rhs index, verdict) within `omqs`.
    questions: Vec<(usize, usize, Verdict)>,
}

fn omq(
    ns: &str,
    variant: &str,
    rules: &[String],
    query: String,
    schema: &[&str],
    family: &'static str,
) -> OmqSpec {
    let mut program = rules.join("\n");
    program.push('\n');
    program.push_str(&query);
    OmqSpec {
        name: format!("{ns}{variant}"),
        program,
        schema: schema.iter().map(|p| format!("{ns}{p}")).collect(),
        family,
    }
}

fn path(ns: &str, pred: &str, len: usize) -> String {
    (0..len)
        .map(|i| format!("{ns}{pred}(Q{i},Q{})", i + 1))
        .collect::<Vec<_>>()
        .join(", ")
}

/// E1 (linear): `C₀ → … → C_chain → ∃y R(x,y)`, `R(u,v) → C_chain(v)`.
/// Every constant touching `R` or `C₀` starts an infinite `R`-path, so
/// the path queries of any length are equivalent; `rev` (incoming edge)
/// and `loop` (self-loop) are strictly smaller in the order
/// `loop ⊂ rev ⊂ path`.
fn linear_group(ns: &str, chain: usize, qlens: [usize; 2]) -> Group {
    use Verdict::*;
    let mut rules: Vec<String> = (0..chain)
        .map(|i| format!("{ns}C{i}(X) -> {ns}C{}(X)", i + 1))
        .collect();
    rules.push(format!("{ns}C{chain}(X) -> exists Y . {ns}R(X,Y)"));
    rules.push(format!("{ns}R(U,V) -> {ns}C{chain}(V)"));
    let schema = ["C0", "R"];
    let mk = |variant: &str, q: String| omq(ns, variant, &rules, q, &schema, "linear");
    let omqs = vec![
        mk("pa", format!("q(Q0) :- {}", path(ns, "R", qlens[0]))),
        mk("pb", format!("q(Q0) :- {}", path(ns, "R", qlens[1]))),
        mk("rev", format!("q(X) :- {ns}R(Y,X)")),
        mk("loop", format!("q(X) :- {ns}R(X,X)")),
    ];
    let (pa, pb, rev, lp) = (0, 1, 2, 3);
    let questions = vec![
        (pa, pb, Contained),
        (pb, pa, Contained),
        (pa, rev, NotContained),
        (pb, rev, NotContained),
        (pa, lp, NotContained),
        (pb, lp, NotContained),
        (rev, pa, Contained),
        (rev, pb, Contained),
        (rev, lp, NotContained),
        (lp, pa, Contained),
        (lp, pb, Contained),
        (lp, rev, Contained),
    ];
    Group { omqs, questions }
}

/// E3 (non-recursive): `Lᵢ(x,y), Lᵢ(y,z) → Lᵢ₊₁(x,z)`, so `L_j` holds
/// exactly on `L₀`-paths of length `2^j`. `a_j` asks `L_j` directly and
/// `b_j` as two `L_{j-1}` steps: equivalent within a level, incomparable
/// across levels.
fn nr_group(ns: &str, strata: usize) -> Group {
    use Verdict::*;
    let rules: Vec<String> = (0..strata)
        .map(|i| format!("{ns}L{i}(X,Y), {ns}L{i}(Y,Z) -> {ns}L{}(X,Z)", i + 1))
        .collect();
    let schema = ["L0"];
    let mut omqs = Vec::new();
    for j in [strata - 1, strata] {
        omqs.push(omq(
            ns,
            &format!("a{j}"),
            &rules,
            format!("q(X,Z) :- {ns}L{j}(X,Z)"),
            &schema,
            "nr",
        ));
        omqs.push(omq(
            ns,
            &format!("b{j}"),
            &rules,
            format!("q(X,Z) :- {ns}L{}(X,Y), {ns}L{}(Y,Z)", j - 1, j - 1),
            &schema,
            "nr",
        ));
    }
    let mut questions = Vec::new();
    for l in 0..4 {
        for r in 0..4 {
            if l != r {
                let same_level = l / 2 == r / 2;
                questions.push((l, r, if same_level { Contained } else { NotContained }));
            }
        }
    }
    Group { omqs, questions }
}

/// E2 (sticky): the Prop. 18 binary-counter gadget; `k` (`Ans(0,1)`)
/// needs every `S(b̄,0,1)`, so it is contained in `sdiag` (some `S` with
/// equal counter bits) which is contained in `sany` (some `S`), and
/// neither inclusion reverses (`n ≥ 2`).
fn sticky_group(ns: &str, n: usize) -> Group {
    use Verdict::*;
    let mut rules = Vec::new();
    let xs: Vec<String> = (0..n).map(|j| format!("X{j}")).collect();
    rules.push(format!("{ns}S({0},Z,O) -> {ns}P{n}({0},Z,O)", xs.join(",")));
    for i in 1..=n {
        let args = |bit: &str| {
            let mut a: Vec<String> = (0..n)
                .map(|j| {
                    if j + 1 == i {
                        bit.to_owned()
                    } else {
                        xs[j].clone()
                    }
                })
                .collect();
            a.push("Z".into());
            a.push("O".into());
            a.join(",")
        };
        rules.push(format!(
            "{ns}P{i}({}), {ns}P{i}({}) -> {ns}P{}({})",
            args("Z"),
            args("O"),
            i - 1,
            args("Z")
        ));
    }
    rules.push(format!("{ns}P0({}Z,O) -> {ns}Ans(Z,O)", "Z,".repeat(n)));
    let schema = ["S"];
    let omqs = vec![
        omq(
            ns,
            "k",
            &rules,
            format!("q :- {ns}Ans(0,1)"),
            &schema,
            "sticky",
        ),
        omq(
            ns,
            "sany",
            &rules,
            format!("q :- {ns}S({},Z,O)", xs.join(",")),
            &schema,
            "sticky",
        ),
        omq(
            ns,
            "sdiag",
            &rules,
            format!("q :- {ns}S({}Z,O)", "X,".repeat(n)),
            &schema,
            "sticky",
        ),
    ];
    let (k, sany, sdiag) = (0, 1, 2);
    let questions = vec![
        (k, sany, Contained),
        (k, sdiag, Contained),
        (sdiag, sany, Contained),
        (sany, k, NotContained),
        (sdiag, k, NotContained),
        (sany, sdiag, NotContained),
    ];
    Group { omqs, questions }
}

/// E4 (guarded): the tree-expanding `G(x,y,z), R(x,y) → ∃w G(y,z,w),
/// R(y,z)`. Only *not-contained* questions are asked (contained guarded
/// pairs are decided by the budgeted anytime ladder, which can end
/// `unknown`): an `R`-path alone never derives `G`, and `G` alone never
/// fires the rule.
fn guarded_group(ns: &str, qlen: usize) -> Group {
    use Verdict::*;
    let rules = vec![format!(
        "{ns}G(X,Y,Z), {ns}R(X,Y) -> exists W . {ns}G(Y,Z,W), {ns}R(Y,Z)"
    )];
    let schema = ["G", "R"];
    let omqs = vec![
        omq(
            ns,
            "path",
            &rules,
            format!("q :- {}", path(ns, "R", qlen)),
            &schema,
            "guarded",
        ),
        omq(
            ns,
            "g",
            &rules,
            format!("q :- {ns}G(X,Y,Z)"),
            &schema,
            "guarded",
        ),
        omq(
            ns,
            "gr",
            &rules,
            format!("q :- {ns}G(X,Y,Z), {ns}R(X,Y)"),
            &schema,
            "guarded",
        ),
    ];
    let (p, g, gr) = (0, 1, 2);
    let questions = vec![
        (p, g, NotContained),
        (p, gr, NotContained),
        (g, p, NotContained),
        (g, gr, NotContained),
    ];
    Group { omqs, questions }
}

/// The family of group `g`: linear → nr → sticky → guarded, rotating.
const FAMILIES: usize = 4;

/// Spreads `n` values evenly over `lo..=hi` (a fixed multiset for a given
/// `n`: seeds only permute which group gets which size, so the total
/// work of a workload does not drift with the seed).
fn stratified(n: usize, lo: usize, hi: usize) -> Vec<usize> {
    (0..n)
        .map(|i| {
            if n == 1 {
                lo
            } else {
                lo + (hi - lo) * i / (n - 1)
            }
        })
        .collect()
}

/// Per-family group profiles for `groups` groups: the `i`-th group of
/// family `f` (group `g = 4i + f`) has profile `i`, whose sizes are fixed
/// lists spread evenly over each family's range.
struct Sizes {
    chains: Vec<usize>,
    qlens: Vec<[usize; 2]>,
    strata: Vec<usize>,
    counters: Vec<usize>,
    guarded: Vec<usize>,
}

impl Sizes {
    fn new(groups: usize) -> Sizes {
        let per = |f: usize| (groups + FAMILIES - 1 - f) / FAMILIES;
        let pairs: Vec<[usize; 2]> = (2..=6)
            .flat_map(|a| (2..=6).filter(move |&b| b != a).map(move |b| [a, b]))
            .collect();
        Sizes {
            chains: stratified(per(0), 48, 128),
            qlens: (0..per(0)).map(|i| pairs[i % pairs.len()]).collect(),
            strata: (0..per(1)).map(|i| 2 + i % 2).collect(),
            counters: (0..per(2)).map(|i| 2 + i % 2).collect(),
            guarded: (0..per(3)).map(|i| 2 + i % 3).collect(),
        }
    }

    /// The profile index of group `g`.
    fn of(&self, g: usize) -> usize {
        g / FAMILIES
    }
}

/// Group `g` of a contains workload, in namespace `<prefix><name>_`.
fn group(g: usize, name: usize, prefix: &str, sizes: &Sizes) -> Group {
    let ns = format!("{prefix}{name}_");
    let i = sizes.of(g);
    match g % FAMILIES {
        0 => linear_group(&ns, sizes.chains[i], sizes.qlens[i]),
        1 => nr_group(&ns, sizes.strata[i]),
        2 => sticky_group(&ns, sizes.counters[i]),
        _ => guarded_group(&ns, sizes.guarded[i]),
    }
}

/// Registration batches of about [`REGISTER_BATCH`] OMQs, strided
/// (batch `j` takes every `n`-th OMQ from `j`), so every batch holds the
/// same mix of families and sizes and costs about the same.
fn register_units(omqs: &[OmqSpec]) -> Vec<Unit> {
    let n = omqs.len().div_ceil(REGISTER_BATCH);
    (0..n)
        .map(|j| Unit {
            ops: (j..omqs.len()).step_by(n).map(Op::Register).collect(),
        })
        .collect()
}

/// Builds `groups` namespaced groups. Returns the OMQs in registration
/// order and, per group, its profile index and its questions as
/// `Op::Contains`.
///
/// Sizes and registration order are the same for every seed, so a
/// seed never changes how much work a run does; the seed only permutes
/// which namespace name each group gets (and hence interning order).
fn build_groups(
    groups: usize,
    prefix: &str,
    rng: &mut Rng,
) -> (Vec<OmqSpec>, Vec<(usize, Vec<Op>)>) {
    let sizes = Sizes::new(groups);
    let mut names: Vec<usize> = (0..groups).collect();
    rng.shuffle(&mut names);
    let mut omqs = Vec::new();
    let mut per_group = Vec::new();
    for (g, &name) in names.iter().enumerate() {
        let grp = group(g, name, prefix, &sizes);
        let qs: Vec<Op> = grp
            .questions
            .iter()
            .map(|&(l, r, v)| Op::Contains {
                lhs: grp.omqs[l].name.clone(),
                rhs: grp.omqs[r].name.clone(),
                family: grp.omqs[l].family,
                expect: v,
            })
            .collect();
        per_group.push((sizes.of(g), qs));
        omqs.extend(grp.omqs);
    }
    (omqs, per_group)
}

/// contains-cold: `groups` namespaced groups, each asked `per_group`
/// distinct questions. Which questions a group asks is fixed by its
/// profile (`(profile * per_group + t) mod n`), so the multiset of
/// (family, size, question) asked is the same for every seed; the seed
/// permutes namespace names and sets the phase of the ask order.
pub fn contains_cold(seed: u64, groups: usize, per_group: usize) -> Workload {
    let mut rng = Rng::new(seed ^ 0xc01d);
    let (omqs, questions) = build_groups(groups, "n", &mut rng);
    // Ask order: families alternate, and within a family the profiles
    // follow a golden-ratio sequence from a seed-drawn phase, so every
    // slice of the run asks about the same mix of families and sizes.
    let phase = rng.below(1 << 20) as f64 / (1 << 20) as f64;
    let key = |g: usize| (questions[g].0 as f64 * 0.618_033_988_749_894_9 + phase).fract();
    let mut by_family: Vec<Vec<usize>> = vec![Vec::new(); FAMILIES];
    for g in 0..groups {
        by_family[g % FAMILIES].push(g);
    }
    for gs in &mut by_family {
        gs.sort_by(|&a, &b| key(a).total_cmp(&key(b)));
    }
    let mut order: Vec<usize> = Vec::with_capacity(groups);
    for j in 0..by_family[0].len() {
        order.extend(by_family.iter().filter_map(|gs| gs.get(j)));
    }
    // The t-th question of each group runs the order from an offset of
    // t·G/per_group, and the passes are interleaved: every slice of the
    // run mixes all passes, and a group recurs only after about G other
    // questions.
    let mut units = Vec::new();
    for p in 0..groups {
        for t in 0..per_group {
            let g = order[(p + t * groups / per_group) % groups];
            let (profile, qs): &(usize, Vec<Op>) = &questions[g];
            assert!(
                per_group <= qs.len(),
                "contains-cold: group {g} has only {} questions",
                qs.len()
            );
            let op = qs[(profile * per_group + t) % qs.len()].clone();
            units.push(Unit { ops: vec![op] });
        }
    }
    Workload {
        name: "contains-cold".into(),
        register_units: register_units(&omqs),
        omqs,
        units,
        ..Workload::default()
    }
}

/// contains-hot: a small registry whose every question fits the verdict
/// cache; the warm-up asks each once, then `batches` pipelined batches of
/// [`HOT_BATCH`] questions drawn uniformly from that working set.
pub fn contains_hot(seed: u64, groups: usize, batches: usize) -> Workload {
    let mut rng = Rng::new(seed ^ 0x407);
    let (omqs, per_group) = build_groups(groups, "h", &mut rng);
    let working: Vec<Op> = per_group.into_iter().flat_map(|(_, qs)| qs).collect();
    let warmup = working
        .chunks(HOT_BATCH)
        .map(|c| Unit { ops: c.to_vec() })
        .collect();
    let units = (0..batches)
        .map(|_| Unit {
            ops: (0..HOT_BATCH)
                .map(|_| working[rng.below(working.len())].clone())
                .collect(),
        })
        .collect();
    Workload {
        name: "contains-hot".into(),
        register_units: register_units(&omqs),
        omqs,
        warmup,
        units,
        ..Workload::default()
    }
}

/// Vertex name of vertex `v` (lowercase: a constant in the rule syntax).
pub fn vertex(v: u32) -> String {
    format!("v{v}")
}

/// Transitive closure of `edges`, sorted the way the server sorts its
/// answers (lexicographically by rendered constant names).
pub fn closure(edges: &BTreeSet<(u32, u32)>) -> Vec<(u32, u32)> {
    let n = (COMPONENTS * COMPONENT_SIZE) as usize;
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a as usize].push(b);
    }
    let mut out = Vec::new();
    let mut seen = vec![false; n];
    let mut stack = Vec::new();
    for s in 0..n as u32 {
        seen.iter_mut().for_each(|x| *x = false);
        stack.clear();
        stack.extend(adj[s as usize].iter().copied());
        while let Some(v) = stack.pop() {
            if !seen[v as usize] {
                seen[v as usize] = true;
                out.push((s, v));
                stack.extend(adj[v as usize].iter().copied());
            }
        }
    }
    out.sort_by_cached_key(|&(a, b)| (vertex(a), vertex(b)));
    out
}

fn random_edge(rng: &mut Rng) -> (u32, u32) {
    let c = rng.below(COMPONENTS as usize) as u32;
    loop {
        let a = rng.below(COMPONENT_SIZE as usize) as u32;
        let b = rng.below(COMPONENT_SIZE as usize) as u32;
        if a != b {
            return (c * COMPONENT_SIZE + a, c * COMPONENT_SIZE + b);
        }
    }
}

/// The transitive-closure program of store `i`, in namespace `s<i>_`.
pub fn tc_program(i: usize) -> String {
    let ns = format!("s{i}_");
    format!("{ns}E(X,Y) -> {ns}T(X,Y)\n{ns}E(X,Y), {ns}T(Y,Z) -> {ns}T(X,Z)\nq(X,Y) :- {ns}T(X,Y)")
}

/// store-churn: [`STORES`] transitive-closure stores over
/// [`COMPONENTS`] × [`COMPONENT_SIZE`] vertices (edges stay inside a
/// component, which bounds the closure), each preloaded with
/// [`BASE_EDGES_PER_COMPONENT`] edges per component. Each of `steps`
/// steps retracts [`CHURN_EDGES`] chords of one store and asserts as many
/// others (one pipelined write unit), then evaluates that store's closure
/// (a read unit).
pub fn store_churn(seed: u64, steps: usize) -> Workload {
    let mut rng = Rng::new(seed ^ 0x57_0be);
    let stores: Vec<String> = (0..STORES).map(|i| format!("tc{i}")).collect();
    let omqs: Vec<OmqSpec> = (0..STORES)
        .map(|i| OmqSpec {
            name: stores[i].clone(),
            program: tc_program(i),
            schema: vec![format!("s{i}_E")],
            family: "tc",
        })
        .collect();
    // Each component is a directed cycle through a shuffled order of its
    // vertices plus random chords: strongly connected, so its closure is
    // all COMPONENT_SIZE² pairs. Churn touches chords only, so every
    // evaluate returns the same number of tuples.
    let mut live: Vec<BTreeSet<(u32, u32)>> = vec![BTreeSet::new(); STORES];
    let mut backbone: Vec<BTreeSet<(u32, u32)>> = vec![BTreeSet::new(); STORES];
    let mut preload = Vec::new();
    for s in 0..STORES {
        for c in 0..COMPONENTS {
            let mut ring: Vec<u32> = (0..COMPONENT_SIZE)
                .map(|v| c * COMPONENT_SIZE + v)
                .collect();
            rng.shuffle(&mut ring);
            for (i, &v) in ring.iter().enumerate() {
                let e = (v, ring[(i + 1) % ring.len()]);
                backbone[s].insert(e);
                live[s].insert(e);
            }
            let mut placed = COMPONENT_SIZE as usize;
            while placed < BASE_EDGES_PER_COMPONENT {
                let e = random_edge(&mut rng);
                let e = (
                    c * COMPONENT_SIZE + e.0 % COMPONENT_SIZE,
                    c * COMPONENT_SIZE + e.1 % COMPONENT_SIZE,
                );
                if live[s].insert(e) {
                    placed += 1;
                }
            }
        }
        preload.push(Unit {
            ops: vec![Op::Assert {
                store: s,
                edges: live[s].iter().copied().collect(),
            }],
        });
        preload.push(Unit {
            ops: vec![Op::Evaluate {
                store: s,
                expect: closure(&live[s]),
            }],
        });
    }
    let mut units = Vec::new();
    for step in 0..steps {
        let s = step % STORES;
        let set = &mut live[s];
        // Retract CHURN_EDGES live chords, then assert as many absent ones:
        // the live set keeps its size, so every step costs about the same.
        let present: Vec<(u32, u32)> = set.difference(&backbone[s]).copied().collect();
        let mut picks: Vec<usize> = (0..present.len()).collect();
        rng.shuffle(&mut picks);
        let gone: Vec<(u32, u32)> = picks[..CHURN_EDGES].iter().map(|&i| present[i]).collect();
        let mut added = Vec::new();
        while added.len() < CHURN_EDGES {
            let e = random_edge(&mut rng);
            if !set.contains(&e) && !gone.contains(&e) && !added.contains(&e) {
                added.push(e);
            }
        }
        for e in &gone {
            set.remove(e);
        }
        set.extend(added.iter().copied());
        units.push(Unit {
            ops: vec![
                Op::Retract {
                    store: s,
                    edges: gone,
                },
                Op::Assert {
                    store: s,
                    edges: added,
                },
            ],
        });
        units.push(Unit {
            ops: vec![Op::Evaluate {
                store: s,
                expect: closure(set),
            }],
        });
    }
    Workload {
        name: "store-churn".into(),
        register_units: register_units(&omqs),
        omqs,
        preload,
        units,
        stores,
        ..Workload::default()
    }
}

// ---------------------------------------------------------------------------
// Wire rendering.

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn facts(store: usize, edges: &[(u32, u32)]) -> String {
    let items: Vec<String> = edges
        .iter()
        .map(|&(a, b)| json_str(&format!("s{store}_E({},{})", vertex(a), vertex(b))))
        .collect();
    format!("[{}]", items.join(","))
}

/// The request line of `op` (no id: equal questions are byte-equal
/// requests, and so get byte-equal responses).
pub fn request_line(w: &Workload, op: &Op) -> String {
    match op {
        Op::Register(i) => {
            let o = &w.omqs[*i];
            let schema: Vec<String> = o.schema.iter().map(|s| json_str(s)).collect();
            format!(
                r#"{{"op":"register","name":{},"program":{},"schema":[{}],"query":"q"}}"#,
                json_str(&o.name),
                json_str(&o.program),
                schema.join(",")
            )
        }
        Op::Contains { lhs, rhs, .. } => {
            format!(
                r#"{{"op":"contains","lhs":{},"rhs":{}}}"#,
                json_str(lhs),
                json_str(rhs)
            )
        }
        Op::Assert { store, edges } => format!(
            r#"{{"op":"assert","name":{},"facts":{}}}"#,
            json_str(&w.stores[*store]),
            facts(*store, edges)
        ),
        Op::Retract { store, edges } => format!(
            r#"{{"op":"retract","name":{},"facts":{}}}"#,
            json_str(&w.stores[*store]),
            facts(*store, edges)
        ),
        Op::Evaluate { store, .. } => {
            format!(
                r#"{{"op":"evaluate","name":{}}}"#,
                json_str(&w.stores[*store])
            )
        }
    }
}

/// The wire bytes of one unit: its request lines and the blank line that
/// closes the batch.
pub fn unit_bytes(w: &Workload, unit: &Unit) -> Vec<u8> {
    let mut out = String::new();
    for op in &unit.ops {
        out.push_str(&request_line(w, op));
        out.push('\n');
    }
    out.push('\n');
    out.into_bytes()
}

/// The `"answers"` array an `evaluate` of closure `expect` must carry.
pub fn answers_json(expect: &[(u32, u32)]) -> String {
    let items: Vec<String> = expect
        .iter()
        .map(|&(a, b)| format!("[\"{}\",\"{}\"]", vertex(a), vertex(b)))
        .collect();
    format!("\"answers\":[{}]", items.join(","))
}

/// The whole request stream of a workload (set-up and timed), for the
/// determinism self-test.
pub fn stream_bytes(w: &Workload) -> Vec<u8> {
    let mut out = Vec::new();
    for u in w
        .register_units
        .iter()
        .chain(&w.preload)
        .chain(&w.warmup)
        .chain(&w.units)
    {
        out.extend(unit_bytes(w, u));
    }
    out
}
