//! The live server: spawning `omq-serve`, one closed-loop TCP client
//! connection, and the read-only `/proc` probes.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use omq_serve::json::{self, Json};

/// Flags every benchmark server runs with: one reactor batch worker and
/// one engine thread, so the client thread plus the server fit 2 cores.
pub const SERVER_FLAGS: [&str; 6] = [
    "--listen",
    "127.0.0.1:0",
    "--workers",
    "1",
    "--threads",
    "1",
];

pub struct Server {
    child: Child,
    pub pid: u32,
    conn: BufReader<TcpStream>,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawns the server and connects once it prints its bound address
    /// (no polling: the `listening on` stderr line is the readiness
    /// signal).
    pub fn spawn(binary: &str) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .args(SERVER_FLAGS)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {binary}: {e}"))?;
        let pid = child.id();
        let mut err = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match err.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server exited before listening".into());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.split_whitespace().next().unwrap_or("").to_owned();
            }
        };
        // Keep draining stderr so the server can never block on it.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(err.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        let stream = match TcpStream::connect(&addr) {
            Ok(s) => s,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("cannot connect to {addr}: {e}"));
            }
        };
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Server {
            child,
            pid,
            conn: BufReader::new(stream),
            drain: Some(drain),
        })
    }

    /// Sends one batch and reads its `n` response lines.
    pub fn round_trip(&mut self, bytes: &[u8], n: usize) -> Result<Vec<String>, String> {
        self.conn
            .get_mut()
            .write_all(bytes)
            .map_err(|e| format!("write: {e}"))?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut line = String::new();
            match self.conn.read_line(&mut line) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(_) => {}
                Err(e) => return Err(format!("read: {e}")),
            }
            if line.ends_with('\n') {
                line.pop();
            }
            out.push(line);
        }
        Ok(out)
    }

    /// Timed round trip in seconds.
    pub fn timed(&mut self, bytes: &[u8], n: usize) -> Result<(Vec<String>, f64), String> {
        let t = Instant::now();
        let lines = self.round_trip(bytes, n)?;
        Ok((lines, t.elapsed().as_secs_f64()))
    }

    /// The parsed `stats` response.
    pub fn stats(&mut self) -> Result<Json, String> {
        let lines = self.round_trip(b"{\"op\":\"stats\"}\n\n", 1)?;
        json::parse(&lines[0]).map_err(|e| format!("stats: {e}"))
    }

    /// Server CPU seconds so far: the nanosecond on-CPU time of every
    /// thread (`/proc/<pid>/task/*/schedstat`, which excludes steal), or
    /// tick-sampled user+sys from `/proc/<pid>/stat` where schedstat is
    /// missing.
    pub fn cpu_s(&self) -> f64 {
        task_runtime_s(self.pid).unwrap_or_else(|| proc_cpu_s(&format!("/proc/{}/stat", self.pid)))
    }

    /// Server peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

impl Drop for Server {
    /// Dropping stops the server and waits for it (and the stderr drain)
    /// to end, on every exit path: no process outlives the benchmark.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

/// user+sys CPU seconds from a `/proc/<pid>/stat` file.
pub fn proc_cpu_s(path: &str) -> f64 {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) sit at offsets 11 and 12.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0.0))
        .collect();
    if f.len() < 13 {
        return 0.0;
    }
    (f[11] + f[12]) / USER_HZ
}

/// Summed on-CPU nanoseconds of a process's threads, in seconds.
fn task_runtime_s(pid: u32) -> Option<f64> {
    let mut total = 0u64;
    for entry in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let path = entry.ok()?.path().join("schedstat");
        let text = std::fs::read_to_string(path).ok()?;
        total += text.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(total as f64 / 1e9)
}

/// Host steal ticks so far (aggregate `cpu` line of `/proc/stat`).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Numeric field at a dotted path of a stats object (`0` when absent).
pub fn num(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}
