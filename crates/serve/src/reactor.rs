//! The nonblocking, connection-multiplexed TCP front end.
//!
//! One reactor thread owns every socket: it runs a level-triggered
//! readiness loop over [`minipoll`] (a vendored `poll(2)` shim — the
//! workspace builds offline), accepts connections nonblockingly, and
//! moves bytes between per-connection read/write buffers and the kernel.
//! Complete batches (blank-line-terminated runs of JSON-lines requests,
//! the same framing as [`crate::server::serve_lines`]) are handed to a
//! small pool of worker threads that parse, apply admission control, and
//! run [`crate::server::BatchExecutor::execute_batch`]; finished response
//! bytes come back over a results queue and a self-wakeup datagram socket
//! kicks the reactor out of `poll` to flush them.
//!
//! Ordering: at most one batch per connection is in flight at a time, so
//! a connection's responses are written in request order and are
//! byte-identical to what [`crate::server::serve_lines`] would have
//! produced — the reactor changes *when* work is scheduled, never what it
//! answers. Admission control is the one deliberate exception: when the
//! queue depth at enqueue time sits at or over the watermark, sheddable
//! requests are answered with a structured `shed` error without touching
//! the executor (see [`crate::admission`]).
//!
//! The reactor itself is Unix-only (it needs `poll(2)` and raw fds);
//! [`serve_reactor`] returns `Unsupported` elsewhere, and the portable
//! [`RuntimeStats`] counters compile everywhere so the rest of the crate
//! never cares.

use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use omq_obs::flight::{FlightRecorder, SpanTree};
use omq_obs::metrics::{MetricsRegistry, PROMETHEUS_CONTENT_TYPE};

use crate::admission::Admission;
use crate::server::BatchExecutor;

/// Reactor construction knobs.
#[derive(Clone, Debug, Default)]
pub struct ReactorConfig {
    /// Worker threads executing batches (`0` = available parallelism,
    /// capped at 8 — the engine fans out *inside* a batch too, so a few
    /// batch workers saturate the machine).
    pub workers: usize,
}

impl ReactorConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(4)
    }
}

/// Serve-tier runtime counters: uptime, connection gauges, batch/request
/// totals, shedding, and per-shard occupancy. Shared by the reactor, the
/// admission gate, and the sharded executor; rendered by the counter
/// table ([`crate::stats`]) as the `stats` op's `"reactor"` block and its
/// scrape series (obs taxonomy `serve.reactor.*`).
#[derive(Debug)]
pub struct RuntimeStats {
    pub(crate) started: Instant,
    pub(crate) connections_live: AtomicUsize,
    pub(crate) connections_peak: AtomicUsize,
    pub(crate) accepted: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) shed: AtomicU64,
    /// The shared queue-depth gate (watermark `0` = shedding off).
    pub admission: Admission,
    pub(crate) shard_requests: Vec<AtomicU64>,
    /// Telemetry plane, when the owning front end has one: the metrics
    /// registry (SLO-burn accounting for sheds) and the flight recorder
    /// (shed requests leave a retained entry even though they never
    /// reach the engine).
    telemetry: OnceLock<(Arc<MetricsRegistry>, Arc<FlightRecorder>)>,
}

impl RuntimeStats {
    pub fn new(shards: usize, watermark: usize) -> RuntimeStats {
        RuntimeStats {
            started: Instant::now(),
            connections_live: AtomicUsize::new(0),
            connections_peak: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            admission: Admission::new(watermark),
            shard_requests: (0..shards.max(1)).map(|_| AtomicU64::new(0)).collect(),
            telemetry: OnceLock::new(),
        }
    }

    /// Attach the process-wide telemetry plane (first call wins).
    pub fn set_telemetry(&self, metrics: Arc<MetricsRegistry>, flight: Arc<FlightRecorder>) {
        let _ = self.telemetry.set((metrics, flight));
    }

    pub fn flight(&self) -> Option<&Arc<FlightRecorder>> {
        self.telemetry.get().map(|(_, f)| f)
    }

    pub fn conn_opened(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let live = self.connections_live.fetch_add(1, Ordering::Relaxed) + 1;
        self.connections_peak.fetch_max(live, Ordering::Relaxed);
        omq_obs::counter("serve.reactor.accept", 1);
    }

    pub fn conn_closed(&self) {
        self.connections_live.fetch_sub(1, Ordering::Relaxed);
    }

    /// One batch of `n` requests entered a worker.
    pub fn record_batch(&self, n: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.requests.fetch_add(n as u64, Ordering::Relaxed);
        omq_obs::counter("serve.reactor.batch", 1);
    }

    /// One request was answered with a structured shed error.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        omq_obs::counter("serve.reactor.shed", 1);
    }

    /// A shed with its request identity: updates the counters, charges
    /// the SLO-burn window, and leaves a retained flight-recorder entry
    /// (reason `"shed"`) so `trace_dump` can show requests that were
    /// turned away before reaching the engine.
    pub fn record_shed_request(&self, trace_id: u64, op: &'static str) {
        self.record_shed();
        if let Some((metrics, flight)) = self.telemetry.get() {
            metrics.mark_shed();
            flight.offer(
                trace_id,
                op,
                0,
                SpanTree::root("serve.shed", 0),
                Some("shed"),
            );
        }
    }

    /// `n` requests were routed to `shard` (see [`crate::shard`]).
    pub fn record_shard(&self, shard: usize, n: usize) {
        if let Some(slot) = self.shard_requests.get(shard) {
            slot.fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    pub fn requests_total(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }
}

/// Extracts the first complete batch from a connection's read buffer:
/// lines accumulate until a blank line (the [`crate::server::serve_lines`]
/// framing); at EOF the final unterminated run flushes too. Returns the
/// batch's lines and how many buffer bytes it consumed, or `None` when no
/// complete batch is available yet. Leading blank lines are consumed with
/// the batch they precede, never as a batch of their own.
fn split_batch(buf: &[u8], eof: bool) -> Option<(Vec<String>, usize)> {
    let mut lines = Vec::new();
    let mut pos = 0;
    while let Some(nl) = buf[pos..].iter().position(|&b| b == b'\n') {
        let line = String::from_utf8_lossy(&buf[pos..pos + nl]).into_owned();
        pos += nl + 1;
        if line.trim().is_empty() {
            if !lines.is_empty() {
                return Some((lines, pos));
            }
        } else {
            lines.push(line);
        }
    }
    if eof {
        let rest = String::from_utf8_lossy(&buf[pos..]);
        if !rest.trim().is_empty() {
            lines.push(rest.into_owned());
        }
        if !lines.is_empty() {
            return Some((lines, buf.len()));
        }
    }
    None
}

/// Pure stall detector driven by periodic ticks: trips when the queue
/// has been non-empty and the request total unchanged for `trip_after`
/// consecutive ticks — work is waiting but nothing is finishing. Re-arms
/// after tripping so a persistent stall reports once per window instead
/// of every tick.
pub struct StallWatch {
    trip_after: u32,
    last_requests: u64,
    stuck_ticks: u32,
}

impl StallWatch {
    pub fn new(trip_after: u32) -> StallWatch {
        StallWatch {
            trip_after: trip_after.max(1),
            last_requests: 0,
            stuck_ticks: 0,
        }
    }

    /// Feed one observation; `true` means "stalled: dump forensics now".
    pub fn tick(&mut self, queue_depth: usize, requests_total: u64) -> bool {
        if queue_depth == 0 || requests_total != self.last_requests {
            self.last_requests = requests_total;
            self.stuck_ticks = 0;
            return false;
        }
        self.stuck_ticks += 1;
        if self.stuck_ticks >= self.trip_after {
            self.stuck_ticks = 0;
            return true;
        }
        false
    }
}

/// How often the watchdog samples the queue, and how many unchanged
/// samples trip it (≈10 s of stalled queue).
const WATCHDOG_TICK: std::time::Duration = std::time::Duration::from_secs(2);
const WATCHDOG_TRIP_TICKS: u32 = 5;

/// Background stall watchdog: on a trip, dump the flight recorder's
/// retained ring to stderr — the shed/timeout/slow trees are exactly the
/// forensics wanted when the serve loop wedges.
fn spawn_stall_watchdog(stats: Arc<RuntimeStats>) {
    std::thread::spawn(move || {
        let mut watch = StallWatch::new(WATCHDOG_TRIP_TICKS);
        loop {
            std::thread::sleep(WATCHDOG_TICK);
            if !watch.tick(stats.admission.depth(), stats.requests_total()) {
                continue;
            }
            eprintln!(
                "omq-serve: stall watchdog tripped (queue_depth={}, requests_total={})",
                stats.admission.depth(),
                stats.requests_total()
            );
            if let Some(flight) = stats.flight() {
                let (retained, _) = flight.snapshot();
                for e in retained.iter().rev().take(16) {
                    eprintln!(
                        "omq-serve:   flight trace_id={} op={} reason={} wall_us={} spans={}",
                        e.trace_id,
                        e.op,
                        e.reason,
                        e.wall_us,
                        e.spans.len()
                    );
                }
            }
        }
    });
}

/// Answers Prometheus scrapes on a dedicated listener: a minimal
/// blocking HTTP/1.0 responder (one short-lived connection per scrape,
/// which is exactly a scraper's access pattern) that serves the
/// executor's [`BatchExecutor::render_metrics`] exposition on any GET.
/// Returns the spawned thread's handle; the thread runs until the
/// listener fails.
pub fn spawn_metrics_exporter<E: BatchExecutor + 'static>(
    executor: Arc<E>,
    listener: TcpListener,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        use std::io::{Read, Write};
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(2)));
            // Drain the request line + headers, best-effort: scrapers
            // send a small GET; stop at the header terminator.
            let mut req = Vec::new();
            let mut buf = [0u8; 1024];
            loop {
                match stream.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => {
                        req.extend_from_slice(&buf[..n]);
                        if req.windows(4).any(|w| w == b"\r\n\r\n") || req.len() > 16 * 1024 {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            let response = match executor.render_metrics() {
                Some(body) => format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: {PROMETHEUS_CONTENT_TYPE}\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                ),
                None => {
                    let body = "metrics unavailable\n";
                    format!(
                        "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain\r\n\
                         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                        body.len()
                    )
                }
            };
            let _ = stream.write_all(response.as_bytes());
        }
    })
}

/// Runs the reactor until the listener fails: accepts connections,
/// multiplexes reads/writes, dispatches batches to `cfg.workers` threads,
/// sheds per [`RuntimeStats::admission`]. Never returns under normal
/// operation — spawn it on a dedicated thread.
#[cfg(unix)]
pub fn serve_reactor<E: BatchExecutor + 'static>(
    executor: Arc<E>,
    listener: TcpListener,
    cfg: ReactorConfig,
    stats: Arc<RuntimeStats>,
) -> io::Result<()> {
    spawn_stall_watchdog(Arc::clone(&stats));
    imp::run(executor, listener, &cfg, stats)
}

/// The reactor needs `poll(2)` and raw fds; on non-Unix targets it
/// refuses to start, so `--listen` is Unix-only.
#[cfg(not(unix))]
pub fn serve_reactor<E: BatchExecutor + 'static>(
    _executor: Arc<E>,
    _listener: TcpListener,
    _cfg: ReactorConfig,
    _stats: Arc<RuntimeStats>,
) -> io::Result<()> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "the readiness-polled reactor requires a unix target",
    ))
}

#[cfg(unix)]
mod imp {
    use std::collections::{HashMap, VecDeque};
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream, UdpSocket};
    use std::os::unix::io::AsRawFd;
    use std::sync::{Arc, Condvar, Mutex};

    use minipoll::{poll_fds, PollFd, POLLIN, POLLOUT};

    use super::{split_batch, ReactorConfig, RuntimeStats};
    use crate::admission::Admission;
    use crate::protocol::{parse_request, response_to_json, Response};
    use crate::server::BatchExecutor;

    /// One multiplexed connection.
    struct Conn {
        stream: TcpStream,
        /// Bytes read but not yet consumed into a batch.
        rbuf: Vec<u8>,
        /// Response bytes not yet accepted by the socket.
        outbox: Vec<u8>,
        /// A batch is at a worker; its responses have not landed yet. At
        /// most one per connection — that is what keeps response order.
        pending: bool,
        /// The peer half-closed (or errored); flush and finish.
        closed_read: bool,
    }

    /// One parsed-off batch travelling to the workers.
    struct Job {
        conn: u64,
        lines: Vec<String>,
        /// Queue depth observed when the batch was admitted — shedding
        /// decisions use this (not the live depth), so a batch never
        /// sheds because of requests that arrived after it.
        depth_at_enqueue: usize,
    }

    struct Shared {
        jobs: Mutex<VecDeque<Job>>,
        jobs_cv: Condvar,
        results: Mutex<Vec<(u64, Vec<u8>)>>,
        /// Connected to the reactor's wake socket; one datagram per
        /// finished batch kicks the reactor out of `poll`.
        wake_tx: UdpSocket,
    }

    fn worker_loop<E: BatchExecutor>(executor: &E, shared: &Shared, stats: &RuntimeStats) {
        loop {
            let job = {
                let mut jobs = shared.jobs.lock().unwrap();
                loop {
                    if let Some(job) = jobs.pop_front() {
                        break job;
                    }
                    jobs = shared.jobs_cv.wait(jobs).unwrap();
                }
            };
            let n = job.lines.len();
            stats.record_batch(n);
            let mut items: Vec<Result<_, Box<Response>>> =
                job.lines.iter().map(|l| parse_request(l)).collect();
            for item in &mut items {
                if let Ok(req) = item {
                    if stats.admission.should_shed(job.depth_at_enqueue)
                        && Admission::sheddable(&req.op)
                    {
                        let resp = Response::err(
                            req.id.clone(),
                            stats.admission.shed_error(job.depth_at_enqueue),
                        );
                        stats.record_shed_request(req.trace_id, req.op.label());
                        *item = Err(Box::new(resp));
                    }
                }
            }
            let responses = executor.execute_batch(&items);
            let mut bytes = Vec::new();
            for resp in &responses {
                bytes.extend_from_slice(response_to_json(resp).to_string().as_bytes());
                bytes.push(b'\n');
            }
            stats.admission.exit(n);
            shared.results.lock().unwrap().push((job.conn, bytes));
            // A failed wake is not fatal: the reactor also drains results
            // on every loop iteration.
            let _ = shared.wake_tx.send(&[1]);
        }
    }

    pub(super) fn run<E: BatchExecutor + 'static>(
        executor: Arc<E>,
        listener: TcpListener,
        cfg: &ReactorConfig,
        stats: Arc<RuntimeStats>,
    ) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let wake_rx = UdpSocket::bind("127.0.0.1:0")?;
        wake_rx.set_nonblocking(true)?;
        let wake_tx = UdpSocket::bind("127.0.0.1:0")?;
        wake_tx.connect(wake_rx.local_addr()?)?;
        let shared = Arc::new(Shared {
            jobs: Mutex::new(VecDeque::new()),
            jobs_cv: Condvar::new(),
            results: Mutex::new(Vec::new()),
            wake_tx,
        });
        for _ in 0..cfg.effective_workers() {
            let executor = Arc::clone(&executor);
            let shared = Arc::clone(&shared);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || worker_loop(&*executor, &shared, &stats));
        }

        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_id: u64 = 0;
        let mut read_buf = [0u8; 64 * 1024];
        loop {
            // (Re)build the poll set: listener, wake socket, then every
            // connection — POLLIN while the peer may still send, POLLOUT
            // only while there are bytes to flush (level-triggered, so an
            // always-on POLLOUT would spin).
            let mut fds = vec![
                PollFd::new(listener.as_raw_fd(), POLLIN),
                PollFd::new(wake_rx.as_raw_fd(), POLLIN),
            ];
            let mut ids = Vec::with_capacity(conns.len());
            for (&id, conn) in &conns {
                let mut events = 0;
                if !conn.closed_read {
                    events |= POLLIN;
                }
                if !conn.outbox.is_empty() {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                ids.push(id);
            }
            poll_fds(&mut fds, -1)?;

            if fds[0].readable() {
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            stats.conn_opened();
                            conns.insert(
                                next_id,
                                Conn {
                                    stream,
                                    rbuf: Vec::new(),
                                    outbox: Vec::new(),
                                    pending: false,
                                    closed_read: false,
                                },
                            );
                            next_id += 1;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e),
                    }
                }
            }
            if fds[1].readable() {
                let mut drain = [0u8; 64];
                while wake_rx.recv(&mut drain).is_ok() {}
            }

            // Deliver finished batches into their connections' outboxes.
            for (conn_id, bytes) in shared.results.lock().unwrap().drain(..) {
                if let Some(conn) = conns.get_mut(&conn_id) {
                    conn.outbox.extend_from_slice(&bytes);
                    conn.pending = false;
                }
            }

            // Per-connection I/O for the ready sockets.
            for (slot, &id) in ids.iter().enumerate() {
                let fd = &fds[slot + 2];
                let conn = conns.get_mut(&id).expect("ids mirror conns");
                if fd.invalid() {
                    conn.closed_read = true;
                    conn.outbox.clear();
                }
                if fd.readable() && !conn.closed_read {
                    loop {
                        match conn.stream.read(&mut read_buf) {
                            Ok(0) => {
                                conn.closed_read = true;
                                break;
                            }
                            Ok(n) => conn.rbuf.extend_from_slice(&read_buf[..n]),
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                            Err(_) => {
                                conn.closed_read = true;
                                break;
                            }
                        }
                    }
                }
                if fd.writable() && !conn.outbox.is_empty() {
                    loop {
                        match conn.stream.write(&conn.outbox) {
                            Ok(0) => {
                                conn.closed_read = true;
                                conn.outbox.clear();
                                break;
                            }
                            Ok(n) => {
                                conn.outbox.drain(..n);
                                if conn.outbox.is_empty() {
                                    break;
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                            Err(_) => {
                                conn.closed_read = true;
                                conn.outbox.clear();
                                break;
                            }
                        }
                    }
                }
            }

            // Dispatch at most one batch per idle connection (order), then
            // retire connections that are fully drained.
            let mut done = Vec::new();
            for (&id, conn) in &mut conns {
                if !conn.pending {
                    if let Some((lines, consumed)) = split_batch(&conn.rbuf, conn.closed_read) {
                        conn.rbuf.drain(..consumed);
                        conn.pending = true;
                        let depth_at_enqueue = stats.admission.enter(lines.len());
                        shared.jobs.lock().unwrap().push_back(Job {
                            conn: id,
                            lines,
                            depth_at_enqueue,
                        });
                        shared.jobs_cv.notify_one();
                    }
                }
                if conn.closed_read
                    && !conn.pending
                    && conn.outbox.is_empty()
                    && split_batch(&conn.rbuf, true).is_none()
                {
                    done.push(id);
                }
            }
            for id in done {
                conns.remove(&id);
                stats.conn_closed();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_batch_waits_for_the_blank_line() {
        assert!(split_batch(b"{\"op\":\"stats\"}\n", false).is_none());
        let (lines, used) = split_batch(b"{\"op\":\"stats\"}\n\nrest", false).unwrap();
        assert_eq!(lines, vec!["{\"op\":\"stats\"}".to_owned()]);
        assert_eq!(used, b"{\"op\":\"stats\"}\n\n".len());
    }

    #[test]
    fn split_batch_flushes_everything_at_eof() {
        let (lines, used) = split_batch(b"a\nb", true).unwrap();
        assert_eq!(lines, vec!["a".to_owned(), "b".to_owned()]);
        assert_eq!(used, 3);
        assert!(split_batch(b"", true).is_none());
        assert!(split_batch(b"\n\n \n", true).is_none());
    }

    #[test]
    fn split_batch_consumes_leading_blank_lines_with_the_batch() {
        let (lines, used) = split_batch(b"\n\na\n\n", false).unwrap();
        assert_eq!(lines, vec!["a".to_owned()]);
        assert_eq!(used, 5);
    }

    #[test]
    fn stall_watch_trips_only_on_a_stuck_nonempty_queue() {
        let mut w = StallWatch::new(3);
        // Empty queue never trips, no matter how long.
        for _ in 0..10 {
            assert!(!w.tick(0, 5));
        }
        // Progress resets the stall count.
        assert!(!w.tick(4, 6));
        assert!(!w.tick(4, 7));
        // Stuck: same total, non-empty queue, three ticks in a row.
        assert!(!w.tick(4, 7));
        assert!(!w.tick(4, 7));
        assert!(w.tick(4, 7));
        // Re-armed: needs another full window before tripping again.
        assert!(!w.tick(4, 7));
        assert!(!w.tick(4, 7));
        assert!(w.tick(4, 7));
    }

    #[test]
    fn shed_requests_leave_a_retained_flight_entry() {
        use omq_obs::flight::FlightRecorder;
        use omq_obs::metrics::MetricsRegistry;

        let stats = RuntimeStats::new(1, 4);
        let metrics = Arc::new(MetricsRegistry::new());
        let flight = Arc::new(FlightRecorder::new(250_000));
        stats.set_telemetry(Arc::clone(&metrics), Arc::clone(&flight));
        stats.record_shed_request(42, "serve.contains");
        assert_eq!(stats.shed_total(), 1);
        assert_eq!(metrics.shed_total(), 1);
        let (retained, _) = flight.snapshot();
        assert_eq!(retained.len(), 1);
        assert_eq!(retained[0].trace_id, 42);
        assert_eq!(retained[0].reason, "shed");
        assert_eq!(retained[0].op, "serve.contains");
    }
}
