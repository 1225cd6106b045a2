//! The `omq-serve` binary.
//!
//! Default mode reads JSON-lines requests from stdin and writes responses
//! to stdout (a blank line flushes a batch; EOF flushes the rest). With
//! `--listen ADDR` it serves the same protocol over TCP through the
//! nonblocking, connection-multiplexed reactor. Either way one engine
//! answers every request, optionally persisting rewriting artifacts under
//! `--cache-dir` and shedding load past `--queue-watermark`.

use std::io::{self, BufReader};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

use omq_serve::{
    serve_lines, serve_reactor, spawn_metrics_exporter, Engine, EngineConfig, ReactorConfig,
    RuntimeStats,
};

const USAGE: &str = "\
omq-serve: serve OMQ containment/evaluation requests over JSON lines

USAGE:
  omq-serve [OPTIONS]

OPTIONS:
  --listen ADDR         serve over TCP on ADDR (e.g. 127.0.0.1:7171)
                        through the nonblocking reactor instead of
                        stdin/stdout
  --queue-watermark N   shed solver requests once the admitted queue
                        depth reaches N (0 = never shed; default 0;
                        reactor mode only)
  --cache-dir PATH      persist complete rewriting artifacts under PATH
                        (portable form; survives restarts)
  --threads N           worker threads for batch fan-out
                        (0 = available parallelism; default 0)
  --workers N           reactor batch-worker threads
                        (0 = available parallelism, capped at 8)
  --cache-capacity N    capacity of each LRU cache (default 256)
  --no-cache            disable both caches (same as --cache-capacity 0)
  --deadline-ms N       default deadline for requests that carry none
  --store-compact-threshold N
                        novelty rows that trigger store compaction
                        (0 = compact only on demand; default 64)
  --trace-out PATH      append every request's span tree to PATH as JSONL
                        trace events (enter/exit/count)
  --trace-sample RATE   fraction of requests captured to --trace-out by a
                        deterministic hash of the trace id (0.0-1.0;
                        default 1.0; \"trace\":true requests are always
                        captured)
  --metrics-listen ADDR serve a Prometheus text exposition over HTTP on
                        ADDR (e.g. 127.0.0.1:9100); same content as the
                        `metrics` op
  -h, --help            print this help
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("omq-serve: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = EngineConfig::default();
    let mut listen: Option<String> = None;
    let mut metrics_listen: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut watermark: usize = 0;
    let mut workers: usize = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--listen" => match value("--listen") {
                Ok(v) => listen = Some(v),
                Err(e) => return fail(&e),
            },
            "--queue-watermark" => match value("--queue-watermark").map(|v| v.parse()) {
                Ok(Ok(n)) => watermark = n,
                _ => return fail("--queue-watermark needs an unsigned integer"),
            },
            "--cache-dir" => match value("--cache-dir") {
                Ok(v) => cfg.cache_dir = Some(v.into()),
                Err(e) => return fail(&e),
            },
            "--threads" => match value("--threads").map(|v| v.parse()) {
                Ok(Ok(n)) => cfg.threads = n,
                _ => return fail("--threads needs an unsigned integer"),
            },
            "--workers" => match value("--workers").map(|v| v.parse()) {
                Ok(Ok(n)) => workers = n,
                _ => return fail("--workers needs an unsigned integer"),
            },
            "--cache-capacity" => match value("--cache-capacity").map(|v| v.parse()) {
                Ok(Ok(n)) => cfg.cache_capacity = n,
                _ => return fail("--cache-capacity needs an unsigned integer"),
            },
            "--no-cache" => cfg.cache_capacity = 0,
            "--deadline-ms" => match value("--deadline-ms").map(|v| v.parse()) {
                Ok(Ok(n)) => cfg.default_deadline_ms = Some(n),
                _ => return fail("--deadline-ms needs an unsigned integer"),
            },
            "--store-compact-threshold" => {
                match value("--store-compact-threshold").map(|v| v.parse()) {
                    Ok(Ok(n)) => cfg.store_compact_threshold = n,
                    _ => return fail("--store-compact-threshold needs an unsigned integer"),
                }
            }
            "--trace-out" => match value("--trace-out") {
                Ok(v) => trace_out = Some(v),
                Err(e) => return fail(&e),
            },
            "--trace-sample" => match value("--trace-sample").map(|v| v.parse::<f64>()) {
                Ok(Ok(r)) if (0.0..=1.0).contains(&r) => cfg.trace_sample = r,
                _ => return fail("--trace-sample needs a rate between 0.0 and 1.0"),
            },
            "--metrics-listen" => match value("--metrics-listen") {
                Ok(v) => metrics_listen = Some(v),
                Err(e) => return fail(&e),
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown option {other:?}")),
        }
    }

    let mut engine = Engine::new(cfg);
    let runtime = Arc::new(RuntimeStats::new(watermark));
    engine.set_runtime_stats(Arc::clone(&runtime));
    if let Some(path) = trace_out {
        let file = match std::fs::File::create(&path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("omq-serve: cannot open trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        engine.set_trace_sink(Arc::new(omq_obs::JsonlSink::new(Box::new(file), true)));
    }
    let engine = Arc::new(engine);
    if let Some(addr) = metrics_listen {
        let metrics_listener = match TcpListener::bind(&addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("omq-serve: cannot bind metrics listener {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "omq-serve: metrics on {}",
            metrics_listener
                .local_addr()
                .map_or(addr, |a| a.to_string())
        );
        let _ = spawn_metrics_exporter(Arc::clone(&engine), metrics_listener);
    }
    let result = match listen {
        Some(addr) => {
            let listener = match TcpListener::bind(&addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("omq-serve: cannot bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "omq-serve: listening on {} (watermark {watermark})",
                listener.local_addr().map_or(addr, |a| a.to_string()),
            );
            serve_reactor(engine, listener, ReactorConfig { workers }, runtime)
        }
        None => {
            let stdin = io::stdin();
            serve_lines(&engine, BufReader::new(stdin.lock()), io::stdout().lock())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("omq-serve: I/O error: {e}");
            ExitCode::FAILURE
        }
    }
}
