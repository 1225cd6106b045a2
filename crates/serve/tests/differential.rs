//! Differential suite: a few hundred randomized requests replayed through
//! the serving layer under every scheduling/caching configuration must
//! produce byte-identical responses, and those responses must agree with
//! direct calls into the containment/evaluation APIs.

use omq_chase::Guarantee;
use omq_core::{contains_with, ContainmentConfig, ContainmentResult, EvalConfig};
use omq_model::display::render_atom;
use omq_rewrite::DirectRewrite;
use omq_serve::{parse_request, response_to_json, Engine, EngineConfig, Json, Registry};

/// Deterministic PRNG (splitmix64) — no external crates, reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Small linear OMQ family over a shared schema: some pairs are contained,
/// some are not, one pair is an alpha-variant (equivalent) pair.
const PROGRAMS: &[(&str, &str)] = &[
    (
        "path2",
        "P(X) -> exists Y . R(X,Y)\nR(X,Y) -> P(Y)\nq(X) :- R(X,Y), P(Y)\n",
    ),
    (
        "path2_alpha",
        "P(U) -> exists V . R(U,V)\nR(U,V) -> P(V)\nq(Z) :- R(Z,W), P(W)\n",
    ),
    ("reach", "P(X) -> exists Y . R(X,Y)\nq(X) :- R(X,Y)\n"),
    ("plain_p", "q(X) :- P(X)\n"),
    ("edge", "q(X) :- R(X,Y)\n"),
    (
        "strict",
        "P(X) -> exists Y . R(X,Y)\nR(X,Y) -> P(Y)\nq(X) :- R(X,Y), R(Y,Z), P(Z)\n",
    ),
];

const FACT_POOL: &[&str] = &["P(a)", "P(b)", "R(a,b)", "R(b,c)", "R(c,a)", "P(c)"];

fn register_line(name: &str, program: &str) -> String {
    let escaped = program.replace('\n', "\\n");
    format!(
        r#"{{"op":"register","name":"{name}","program":"{escaped}","schema":["P","R"],"query":"q"}}"#
    )
}

/// The randomized request stream (id, line), identical for every config.
fn request_stream(n: usize) -> Vec<(usize, String)> {
    let mut rng = Rng(0x5eed);
    let mut out = Vec::with_capacity(n);
    for id in 0..n {
        let line = match rng.below(4) {
            0 => {
                let l = PROGRAMS[rng.below(PROGRAMS.len())].0;
                let r = PROGRAMS[rng.below(PROGRAMS.len())].0;
                format!(r#"{{"id":{id},"op":"contains","lhs":"{l}","rhs":"{r}"}}"#)
            }
            1 => {
                let l = PROGRAMS[rng.below(PROGRAMS.len())].0;
                let r = PROGRAMS[rng.below(PROGRAMS.len())].0;
                format!(r#"{{"id":{id},"op":"equivalent","lhs":"{l}","rhs":"{r}"}}"#)
            }
            2 => {
                let name = PROGRAMS[rng.below(PROGRAMS.len())].0;
                let k = 1 + rng.below(FACT_POOL.len() - 1);
                let facts: Vec<String> = (0..k)
                    .map(|_| format!("\"{}\"", FACT_POOL[rng.below(FACT_POOL.len())]))
                    .collect();
                format!(
                    r#"{{"id":{id},"op":"evaluate","name":"{name}","facts":[{}]}}"#,
                    facts.join(",")
                )
            }
            _ => {
                let name = PROGRAMS[rng.below(PROGRAMS.len())].0;
                format!(r#"{{"id":{id},"op":"classify","name":"{name}"}}"#)
            }
        };
        out.push((id, line));
    }
    out
}

/// Runs the stream through one engine config (optionally shuffled) and
/// returns the rendered response line per request id.
fn run_config(threads: usize, cache: usize, shuffle_seed: Option<u64>, n: usize) -> Vec<String> {
    let engine = Engine::new(EngineConfig {
        threads,
        cache_capacity: cache,
        default_deadline_ms: None,
        ..EngineConfig::default()
    });
    let mut batch: Vec<_> = PROGRAMS
        .iter()
        .map(|(name, prog)| parse_request(&register_line(name, prog)))
        .collect();
    let mut stream = request_stream(n);
    if let Some(seed) = shuffle_seed {
        let mut rng = Rng(seed);
        // Fisher–Yates.
        for i in (1..stream.len()).rev() {
            stream.swap(i, rng.below(i + 1));
        }
    }
    batch.extend(stream.iter().map(|(_, line)| parse_request(line)));
    let responses = engine.execute_batch(&batch);
    let mut by_id = vec![String::new(); n];
    for resp in &responses[PROGRAMS.len()..] {
        let id = resp.id.as_ref().and_then(Json::as_u64).unwrap() as usize;
        by_id[id] = response_to_json(resp).to_string();
    }
    by_id
}

/// Every configuration — sequential, parallel, cached, uncached, shuffled
/// arrival — yields byte-identical response lines per request id.
#[test]
fn all_configs_agree_byte_for_byte() {
    const N: usize = 300;
    let baseline = run_config(1, 0, None, N);
    assert!(baseline.iter().all(|l| !l.is_empty()));
    for (threads, cache, seed) in [
        (1, 256, None),
        (0, 0, None),
        (0, 256, None),
        (0, 256, Some(0xabcd)),
        (1, 2, Some(0x1234)), // tiny cache: constant eviction churn
    ] {
        let got = run_config(threads, cache, seed, N);
        for id in 0..N {
            assert_eq!(
                got[id], baseline[id],
                "config (threads={threads}, cache={cache}, shuffle={seed:?}) diverged on id {id}"
            );
        }
    }
}

/// The serve responses agree with direct calls into `omq_core`.
#[test]
fn serve_verdicts_match_direct_api_calls() {
    const N: usize = 120;
    let lines = run_config(0, 256, None, N);

    // Reference registry: the same programs, the same shared vocabulary.
    let mut reg = Registry::new();
    for (name, prog) in PROGRAMS {
        reg.register(name, prog, &["P", "R"], "q").unwrap();
    }

    let mut cfg = ContainmentConfig {
        threads: 1,
        ..Default::default()
    };
    cfg.rewrite.threads = 1;
    cfg.eval.rewrite.threads = 1;

    let mut checked_contains = 0;
    let mut checked_eval = 0;
    for (id, line) in request_stream(N) {
        let req = omq_serve::json::parse(&line).unwrap();
        let resp = omq_serve::json::parse(&lines[id]).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        match req.get("op").and_then(Json::as_str).unwrap() {
            "contains" => {
                let l = reg
                    .get(req.get("lhs").and_then(Json::as_str).unwrap())
                    .unwrap()
                    .clone();
                let r = reg
                    .get(req.get("rhs").and_then(Json::as_str).unwrap())
                    .unwrap()
                    .clone();
                let mut voc = reg.vocabulary().clone();
                let out =
                    contains_with(&l.omq, &r.omq, &mut voc, &cfg, &mut DirectRewrite).unwrap();
                let verdict = resp.get("verdict").and_then(Json::as_str).unwrap();
                match &out.result {
                    ContainmentResult::Contained => assert_eq!(verdict, "contained"),
                    ContainmentResult::NotContained(w) => {
                        assert_eq!(verdict, "not_contained");
                        let expect: Vec<String> = w
                            .database
                            .atoms()
                            .iter()
                            .map(|a| render_atom(&voc, a))
                            .collect();
                        let got: Vec<&str> =
                            resp.get("witness").and_then(Json::as_str_array).unwrap();
                        assert_eq!(got, expect, "witness database on id {id}");
                    }
                    ContainmentResult::Unknown(_) => panic!("unlimited budget returned Unknown"),
                }
                checked_contains += 1;
            }
            "evaluate" => {
                let name = req.get("name").and_then(Json::as_str).unwrap();
                let regd = reg.get(name).unwrap().clone();
                let mut voc = reg.vocabulary().clone();
                let mut atoms = Vec::new();
                for f in req.get("facts").and_then(Json::as_str_array).unwrap() {
                    let t = omq_model::parse_tgd(&mut voc, &format!("true -> {f}")).unwrap();
                    atoms.extend(t.head);
                }
                let db = omq_model::Instance::from_atoms(atoms);
                let mut ecfg = EvalConfig {
                    ..Default::default()
                };
                ecfg.rewrite.threads = 1;
                let out = omq_core::evaluate(&regd.omq, &db, &mut voc, &ecfg);
                assert_eq!(out.guarantee, Guarantee::Exact);
                let mut expect: Vec<Vec<String>> = out
                    .answers
                    .iter()
                    .map(|t| t.iter().map(|&c| voc.const_name(c).to_owned()).collect())
                    .collect();
                expect.sort();
                let got: Vec<Vec<String>> = resp
                    .get("answers")
                    .and_then(Json::as_array)
                    .unwrap()
                    .iter()
                    .map(|t| {
                        t.as_str_array()
                            .unwrap()
                            .into_iter()
                            .map(str::to_owned)
                            .collect()
                    })
                    .collect();
                assert_eq!(got, expect, "answers on id {id}");
                checked_eval += 1;
            }
            _ => {}
        }
    }
    assert!(
        checked_contains >= 10 && checked_eval >= 10,
        "stream too thin"
    );
}

/// The `stats` response surfaces the homomorphism-kernel counters. They are
/// process-global (monotone across engines and threads), so the assertions
/// are presence, well-formedness, and monotonicity — never exact values.
#[test]
fn stats_expose_hom_kernel_counters() {
    let read = |resp: &omq_serve::Response| -> Vec<u64> {
        let json = omq_serve::json::parse(&response_to_json(resp).to_string()).unwrap();
        let hk = json.get("hom_kernel").expect("hom_kernel object in stats");
        [
            "candidates_scanned",
            "backtracks",
            "homs_found",
            "plans_compiled",
            "plan_cache_hits",
            "prefilter_rejects",
            "plans_reoptimized",
            "est_ratio_le_1",
            "est_ratio_le_4",
            "est_ratio_gt_4",
            "sketch_build_us",
        ]
        .iter()
        .map(|f| hk.get(f).and_then(Json::as_u64).expect("numeric counter"))
        .collect()
    };
    let engine = Engine::new(EngineConfig {
        threads: 1,
        cache_capacity: 64,
        default_deadline_ms: None,
        ..EngineConfig::default()
    });
    let mut batch: Vec<_> = PROGRAMS
        .iter()
        .map(|(name, prog)| parse_request(&register_line(name, prog)))
        .collect();
    batch.push(parse_request(r#"{"id":0,"op":"stats"}"#));
    let before = read(engine.execute_batch(&batch).last().unwrap());

    let work = vec![
        parse_request(r#"{"id":1,"op":"contains","lhs":"path2","rhs":"strict"}"#),
        parse_request(r#"{"id":2,"op":"stats"}"#),
    ];
    let responses = engine.execute_batch(&work);
    let after = read(responses.last().unwrap());

    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        assert!(a >= b, "hom_kernel counter {i} went backwards: {b} -> {a}");
    }
    // The containment check between the stats probes did real kernel work.
    assert!(after[0] > before[0], "no candidates scanned by contains");
    assert!(after[3] > before[3], "no plans compiled by contains");
}

/// Alias registrations (alpha-variant OMQs) share cache slots: the verdict
/// for `path2 ⊑ strict` warms the cache for `path2_alpha ⊑ strict`.
#[test]
fn alias_registrations_share_cache_slots() {
    let engine = Engine::new(EngineConfig {
        threads: 1,
        cache_capacity: 64,
        default_deadline_ms: None,
        ..EngineConfig::default()
    });
    let mut batch: Vec<_> = PROGRAMS
        .iter()
        .map(|(name, prog)| parse_request(&register_line(name, prog)))
        .collect();
    batch.push(parse_request(
        r#"{"id":0,"op":"contains","lhs":"path2","rhs":"strict"}"#,
    ));
    batch.push(parse_request(
        r#"{"id":1,"op":"contains","lhs":"path2_alpha","rhs":"strict"}"#,
    ));
    let out = engine.execute_batch(&batch);
    let (_, verdicts, _) = engine.cache_stats();
    assert_eq!(verdicts.insertions, 1, "one key for both name pairs");
    assert_eq!(verdicts.hits, 1, "second request was a verdict-cache hit");
    assert_eq!(
        out[PROGRAMS.len()].outcome,
        out[PROGRAMS.len() + 1].outcome,
        "alias pair replays the identical response"
    );
}
