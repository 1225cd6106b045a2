//! `omq-perfbench`: closed-loop socket benchmark of `omq-serve`.
//!
//! ```text
//! omq-perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload from the seed, sets a fresh server up
//! several times (timing each), drives the timed units over one TCP
//! connection, verifies every response, and prints one JSON result line
//! last on stdout (a diagnostics line precedes it). `--trace 1` reports
//! the per-layer metrics instead of the end-to-end ones (see README.md).

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

use omq_perfbench::calib::Calibrator;
use omq_perfbench::check::check;
use omq_perfbench::gen::{self, unit_bytes, Op, Unit, Workload};
use omq_perfbench::stats::{median, percentile};
use omq_perfbench::trace;
use omq_perfbench::wire::{num, proc_cpu_s, steal_ticks, Server, SERVER_FLAGS};
use omq_serve::json::Json;

/// Set-ups per run; `setup_s` is their median. contains-cold's set-up
/// registers 1,996 OMQs (seconds); the others take a fraction of a second
/// and repeat more for a steadier median.
fn setup_count(w: &Workload) -> usize {
    if w.omqs.len() > 1_000 {
        5
    } else {
        10
    }
}
/// Namespaced OMQ groups registered by contains-cold (3.5 OMQs each).
const COLD_GROUPS: usize = 570;
/// contains-cold questions per measured second (rounded to whole
/// questions per group).
const COLD_PER_S: f64 = 135.0;
/// Groups of contains-hot: 6 of each family, 84 OMQs, 204 questions.
const HOT_GROUPS: usize = 24;
/// contains-hot batches (of 64) per measured second.
const HOT_BATCHES_PER_S: f64 = 85.0;
/// store-churn steps (a write batch and an evaluate each) per measured second.
const CHURN_STEPS_PER_S: f64 = 78.0;

const WORKLOADS: [&str; 3] = ["contains-cold", "contains-hot", "store-churn"];

struct Args {
    server: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--server" => server = Some(value),
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => seconds = value.parse().map_err(|_| "--seconds needs a number")?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The workload a run sends: a fixed amount of work for the given
/// seconds (nominal rates, not a timed loop), so equal arguments mean
/// equal work. At least 220 units, so that p90 has 10 samples beyond it.
fn build(workload: &str, seed: u64, seconds: f64) -> Workload {
    let n = |rate: f64| ((rate * seconds).round() as usize).max(220);
    match workload {
        "contains-cold" => {
            let per_group = (COLD_PER_S * seconds / COLD_GROUPS as f64).round() as usize;
            gen::contains_cold(seed, COLD_GROUPS, per_group.clamp(1, 4))
        }
        "contains-hot" => gen::contains_hot(seed, HOT_GROUPS, n(HOT_BATCHES_PER_S)),
        _ => gen::store_churn(seed, n(CHURN_STEPS_PER_S)),
    }
}

/// One set-up: its raw time (less the calibration kernels run during it)
/// and that time at reference speed.
struct SetUp {
    secs: f64,
    ref_s: f64,
}

/// What one pass over the socket measured.
struct SocketRun {
    setups: Vec<SetUp>,
    /// Requests in the timed phase.
    requests: usize,
    timed: Phase,
    cpu_s: f64,
    rss_mb: f64,
    client_cpu_s: f64,
    before: Json,
    after: Json,
    failures: Vec<String>,
    failed: usize,
}

/// Spawn → registered → preloaded → warm: one set-up, timed piece by
/// piece (the spawn, then each round trip) with a calibration kernel
/// before each. Set-up pieces are few, so every one gets a kernel.
fn set_up(
    binary: &str,
    w: &Workload,
    responses: &mut Vec<(Op, String)>,
) -> Result<(Server, SetUp), String> {
    let mut cal = Calibrator::new(walks(w));
    cal.sample(0);
    let t = Instant::now();
    let mut srv = Server::spawn(binary)?;
    let mut pieces = vec![t.elapsed().as_secs_f64()];
    for units in [&w.register_units, &w.preload, &w.warmup] {
        for u in units {
            cal.sample(pieces.len());
            let (lines, dt) = srv.timed(&unit_bytes(w, u), u.ops.len())?;
            pieces.push(dt);
            responses.extend(u.ops.iter().cloned().zip(lines));
        }
    }
    cal.sample(pieces.len());
    let secs = pieces.iter().sum();
    let ref_s = cal.scale(&pieces).iter().sum();
    Ok((srv, SetUp { secs, ref_s }))
}

/// One measured phase: every unit's round trip and response lines, the
/// calibration kernels run between units, and the server's CPU seconds
/// read at each kernel.
struct Phase {
    unit_lat: Vec<f64>,
    lines: Vec<Vec<String>>,
    cal: Calibrator,
    server_cpu: Vec<f64>,
    wall_s: f64,
    /// Host steal ticks over the phase, for the diagnostics.
    steal: u64,
}

impl Phase {
    /// Unit round trips at reference speed.
    fn ref_lat(&self) -> Vec<f64> {
        self.cal.scale(&self.unit_lat)
    }

    /// Server CPU seconds at reference speed: each stretch between two
    /// kernels scaled by the factor of the unit that follows its start.
    fn ref_server_cpu_s(&self) -> f64 {
        self.cal
            .samples
            .windows(2)
            .zip(self.server_cpu.windows(2))
            .map(|(s, c)| (c[1] - c[0]) * self.cal.factor(s[0].after))
            .sum()
    }
}

fn drive(srv: &mut Server, w: &Workload, units: &[Unit]) -> Result<Phase, String> {
    // Inputs are rendered before the clock starts.
    let bytes: Vec<Vec<u8>> = units.iter().map(|u| unit_bytes(w, u)).collect();
    let mut unit_lat = Vec::with_capacity(units.len());
    let mut lines = Vec::with_capacity(units.len());
    let mut cal = Calibrator::new(walks(w));
    let mut server_cpu = Vec::new();
    cal.sample(0);
    server_cpu.push(srv.cpu_s());
    let steal0 = steal_ticks();
    let t = Instant::now();
    for (i, (u, b)) in units.iter().zip(&bytes).enumerate() {
        let (out, dt) = srv.timed(b, u.ops.len())?;
        unit_lat.push(dt);
        lines.push(out);
        if cal.due() || i + 1 == units.len() {
            cal.sample(i + 1);
            server_cpu.push(srv.cpu_s());
        }
    }
    Ok(Phase {
        unit_lat,
        lines,
        cal,
        server_cpu,
        wall_s: t.elapsed().as_secs_f64(),
        steal: steal_ticks().saturating_sub(steal0),
    })
}

/// Whether the calibration kernel includes the memory walk
/// (`calib::walk`): on the contains workloads, not on store-churn.
/// Measured within runs, store-churn's round trips moved with the
/// kernel's cache-resident half alone (1.6x when it moved 1.6x); the
/// contains workloads' moved about half as much, as the whole kernel
/// does. The cold registry snapshots are memory-bound.
fn walks(w: &Workload) -> bool {
    w.stores.is_empty()
}

/// Units per step: a store-churn step is a write batch and an evaluate.
fn step_len(w: &Workload) -> usize {
    if w.stores.is_empty() {
        1
    } else {
        2
    }
}

fn socket_run(binary: &str, w: &Workload) -> Result<(SocketRun, Server), String> {
    let mut setups = Vec::new();
    let mut setup_responses = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..setup_count(w) {
        drop(server.take());
        setup_responses.clear();
        let (srv, setup) = set_up(binary, w, &mut setup_responses)?;
        setups.push(setup);
        server = Some(srv);
    }
    let mut srv = server.expect("at least one set-up");

    let before = srv.stats()?;
    let client0 = proc_cpu_s("/proc/self/stat");
    let cpu0 = srv.cpu_s();
    let timed = drive(&mut srv, w, &w.units)?;
    let client_cpu_s = proc_cpu_s("/proc/self/stat") - client0;
    let cpu_s = srv.cpu_s() - cpu0;
    let after = srv.stats()?;
    let rss_mb = srv.peak_rss_mb();

    // Verification, after the clock: set-up answers against the oracle,
    // hot answers byte-equal to their warm-up answers.
    let mut failures = Vec::new();
    let mut failed = 0;
    let mut warm: HashMap<String, String> = HashMap::new();
    for (op, line) in &setup_responses {
        if let Err(e) = check(w, op, line) {
            failed += 1;
            failures.push(format!("set-up: {e}"));
        }
        if matches!(op, Op::Contains { .. }) {
            warm.insert(gen::request_line(w, op), line.clone());
        }
    }
    let hot = !w.warmup.is_empty();
    for (u, lines) in w.units.iter().zip(&timed.lines) {
        for (op, line) in u.ops.iter().zip(lines) {
            let verdict = if hot {
                match warm.get(&gen::request_line(w, op)) {
                    Some(first) if first == line => Ok(()),
                    Some(_) => Err("hot response differs from its warm-up bytes".to_owned()),
                    None => Err("hot question missing from the warm-up".to_owned()),
                }
            } else {
                check(w, op, line)
            };
            if let Err(e) = verdict {
                failed += 1;
                if failures.len() < 10 {
                    failures.push(e);
                }
            }
        }
    }
    Ok((
        SocketRun {
            setups,
            requests: w.units.iter().map(|u| u.ops.len()).sum(),
            timed,
            cpu_s,
            rss_mb,
            client_cpu_s,
            before,
            after,
            failures,
            failed,
        },
        srv,
    ))
}

fn delta(r: &SocketRun, path: &[&str]) -> f64 {
    num(&r.after, path) - num(&r.before, path)
}

/// Workload-property gates from `stats` deltas around the timed phase.
fn gates(workload: &str, r: &SocketRun) -> Vec<String> {
    let mut bad = Vec::new();
    let mut gate = |ok: bool, what: String| {
        if !ok {
            bad.push(what);
        }
    };
    match workload {
        "contains-cold" => {
            let vh =
                delta(r, &["verdict_cache", "hits"]) + delta(r, &["verdict_cache", "alias_hits"]);
            let rh =
                delta(r, &["rewrite_cache", "hits"]) + delta(r, &["rewrite_cache", "alias_hits"]);
            gate(
                vh == 0.0,
                format!("contains-cold: {vh} verdict-cache hits (want 0)"),
            );
            gate(
                rh == 0.0,
                format!("contains-cold: {rh} rewrite-cache hits (want 0)"),
            );
        }
        "contains-hot" => {
            let h = delta(r, &["verdict_cache", "hits"]);
            let m = delta(r, &["verdict_cache", "misses"]);
            let c = delta(r, &["coalescing", "computations"]);
            gate(
                h > 0.0 && m == 0.0,
                format!("contains-hot: verdict hits {h}, misses {m} (want ratio 1.0)"),
            );
            gate(
                c == 0.0,
                format!("contains-hot: {c} coalescing computations (want 0)"),
            );
        }
        _ => {
            let full = delta(r, &["store", "full_rechases"]);
            let inc = delta(r, &["store", "incremental_resumes"]);
            let comp = delta(r, &["store", "compactions"]);
            gate(
                full == 0.0,
                format!("store-churn: {full} full re-chases (want 0)"),
            );
            gate(
                inc > 0.0,
                format!("store-churn: {inc} incremental resumes (want > 0)"),
            );
            gate(
                comp >= 1.0,
                format!("store-churn: {comp} compactions (want >= 1)"),
            );
        }
    }
    bad
}

/// Server-side time the `stats` latency histograms charged to the timed
/// phase, summed over every op (µs).
fn server_total_us(r: &SocketRun) -> f64 {
    [
        "serve.contains",
        "serve.evaluate",
        "serve.assert",
        "serve.retract",
    ]
    .iter()
    .map(|op| delta(r, &["latency", op, "total_us"]))
    .sum()
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!(
        "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
        json_num(value)
    )
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn run(args: &Args) -> Result<(bool, usize, usize, Vec<String>), String> {
    let w = build(&args.workload, args.seed, args.seconds);
    let (r, srv) = socket_run(&args.server, &w)?;
    drop(srv);
    let mut problems = r.failures.clone();
    problems.extend(gates(&args.workload, &r));

    // Every timed figure is at reference speed (see calib.rs): each unit
    // round trip, server CPU stretch and set-up piece is scaled by the
    // calibration kernel's reference time over its time nearby.
    let ref_lat = r.timed.ref_lat();
    let throughput = r.requests as f64 / ref_lat.iter().sum::<f64>();
    let cpu_ms_per_req = r.timed.ref_server_cpu_s() * 1e3 / r.requests as f64;
    let (mut latency, mut raw_latency) = (Vec::new(), Vec::new());
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for step in (0..w.units.len()).step_by(step_len(&w)) {
        let units = step..step + step_len(&w);
        // The latency unit: a request (a batch on contains-hot); on
        // store-churn a step, its write batch plus its evaluate.
        latency.push(ref_lat[units.clone()].iter().sum::<f64>());
        raw_latency.push(r.timed.unit_lat[units.clone()].iter().sum::<f64>());
        for i in units {
            if w.units[i].is_write() {
                writes.push(ref_lat[i]);
            } else {
                reads.push(ref_lat[i]);
            }
        }
    }
    let setup_s: Vec<f64> = r.setups.iter().map(|s| s.ref_s).collect();

    let mut metrics = Vec::new();
    if args.trace {
        for (name, value, unit) in trace::run(&w, &r.trace_input())?.metrics {
            metrics.push(metric(&name, value, unit));
        }
    } else {
        let p = |v: &[f64], q: f64| percentile(v, q).map(|s| s * 1e3);
        metrics.push(metric("setup_s", median(&setup_s), "s"));
        metrics.push(metric("throughput_rps", throughput, "1/s"));
        metrics.push(metric("latency_p50_ms", p(&latency, 50.0)?, "ms"));
        metrics.push(metric("latency_p90_ms", p(&latency, 90.0)?, "ms"));
        metrics.push(metric("cpu_ms_per_req", cpu_ms_per_req, "ms"));
        metrics.push(metric("peak_rss_mb", r.rss_mb, "MiB"));
        metrics.push(metric("read_p50_ms", p(&reads, 50.0)?, "ms"));
    }

    let list = |v: Vec<String>| v.join(",");
    let kernels: Vec<f64> = r
        .timed
        .cal
        .samples
        .iter()
        .map(|s| s.kernel_s * 1e3)
        .collect();
    let diag = format!(
        "{{\"diagnostics\":{{\"workload\":\"{}\",\"seed\":{},\"server_flags\":\"{}\",\
\"setups_s\":[{}],\"setups_ref_s\":[{}],\"kernel_ms\":{{\"samples\":{},\"min\":{},\"median\":{},\"max\":{},\"ref\":{}}},\
\"raw_rps\":{},\"raw_p50_ms\":{},\"steal_ticks\":{},\"client_cpu_s\":{},\"server_cpu_s\":{},\"wall_s\":{},\"requests\":{},\"units\":{},\
\"latency_samples\":{},\"read_samples\":{},\"write_samples\":{},\"write_p50_ms\":{},\"error_ratio\":{},\"registered\":{},\
\"families\":{},\"family_ms\":{},\"answers_per_evaluate\":{}}}}}",
        args.workload,
        args.seed,
        SERVER_FLAGS.join(" "),
        list(r.setups.iter().map(|s| json_num(s.secs)).collect()),
        list(r.setups.iter().map(|s| json_num(s.ref_s)).collect()),
        kernels.len(),
        json_num(kernels.iter().copied().fold(f64::INFINITY, f64::min)),
        json_num(r.timed.cal.median_s() * 1e3),
        json_num(kernels.iter().copied().fold(0.0, f64::max)),
        json_num(r.timed.cal.ref_s() * 1e3),
        json_num(r.requests as f64 / r.timed.unit_lat.iter().sum::<f64>()),
        json_num(median(&raw_latency) * 1e3),
        r.timed.steal,
        json_num(r.client_cpu_s),
        json_num(r.cpu_s),
        json_num(r.timed.wall_s),
        r.requests,
        w.units.len(),
        latency.len(),
        reads.len(),
        writes.len(),
        percentile(&writes, 50.0).map_or("null".into(), |v| json_num(v * 1e3)),
        json_num(r.failed as f64 / r.requests.max(1) as f64),
        w.omqs.len(),
        family_mix(&w),
        family_ms(&w, &r.timed.unit_lat),
        json_num(answers_per_evaluate(&w)),
    );
    println!("{diag}");
    let correct = problems.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.requests,
        r.failed,
        metrics.join(",")
    );
    Ok((correct, r.requests, r.failed, problems))
}

/// Question counts per family and verdict, for the diagnostics line.
fn family_mix(w: &Workload) -> String {
    let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
    for u in &w.units {
        for op in &u.ops {
            if let Op::Contains { family, expect, .. } = op {
                *counts
                    .entry(format!("{family}.{}", expect.as_str()))
                    .or_default() += 1;
            }
        }
    }
    let items: Vec<String> = counts.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", items.join(","))
}

/// Mean size of the closures the timed `evaluate`s must return.
fn answers_per_evaluate(w: &Workload) -> f64 {
    let sizes: Vec<usize> = w
        .units
        .iter()
        .flat_map(|u| &u.ops)
        .filter_map(|op| match op {
            Op::Evaluate { expect, .. } => Some(expect.len()),
            _ => None,
        })
        .collect();
    sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64
}

/// Per-family `[median, max]` round trip (ms) of single-question units.
fn family_ms(w: &Workload, unit_lat: &[f64]) -> String {
    let mut by: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (u, dt) in w.units.iter().zip(unit_lat) {
        if let [Op::Contains { family, .. }] = u.ops.as_slice() {
            by.entry(family).or_default().push(dt * 1e3);
        }
    }
    let items: Vec<String> = by
        .iter()
        .map(|(f, v)| {
            let max = v.iter().copied().fold(0.0, f64::max);
            format!("\"{f}\":[{:.3},{:.3}]", median(v), max)
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

impl SocketRun {
    fn trace_input(&self) -> trace::SocketFigures {
        let vh = delta(self, &["verdict_cache", "hits"]);
        let vm = delta(self, &["verdict_cache", "misses"]);
        let rh = delta(self, &["rewrite_cache", "hits"]);
        let rm = delta(self, &["rewrite_cache", "misses"]);
        let ratio = |h: f64, m: f64| if h + m > 0.0 { h / (h + m) } else { 0.0 };
        trace::SocketFigures {
            requests: self.requests,
            round_trip_s: self.timed.unit_lat.iter().sum(),
            server_us: server_total_us(self),
            verdict_hit_ratio: ratio(vh, vm),
            rewrite_hit_ratio: ratio(rh, rm),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("omq-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((true, ..)) => ExitCode::SUCCESS,
        Ok((false, attempted, failed, problems)) => {
            eprintln!("omq-perfbench: verification failed ({failed} of {attempted} requests)");
            for p in problems {
                eprintln!("  {p}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("omq-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
