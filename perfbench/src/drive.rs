//! Drives one workload against the service through its public API:
//! repeated set-ups, timed windows, and the request log the correctness
//! gate replays.

use crate::check::History;
use crate::load::{self, Pool, Spec, Workload};
use crate::procfs::CpuSplit;
use crate::trace::{Spans, ROOT};
use dbi_service::metrics::ShardSnapshot;
use dbi_service::{
    ConnConfig, EncodeBatchRequest, EncodeReply, Engine, LocalClient, PersistConfig,
    PipelinedClient, PipelinedCompletion, ServiceConfig, TcpClient, TcpServer,
};
use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Engine shard workers, pinned rather than taken from the machine.
pub const SHARDS: usize = 2;
/// Jobs a shard queue holds before refusing work.
pub const QUEUE_CAPACITY: usize = 256;
/// Connection-plane I/O threads.
pub const IO_THREADS: usize = 1;
/// Pipelined loopback connections the one driver thread keeps open.
pub const CONNECTIONS: usize = 2;
/// Requests kept in flight on each pipelined connection.
pub const IN_FLIGHT: usize = 32;
/// Requests between two `Engine::trigger_snapshot` calls on the durable
/// workload: under a second apart, so journals stay short, while the
/// snapshot's fsync stays a small share of the window.
pub const SNAPSHOT_EVERY: usize = 32_768;
/// Length of the slices a window is cut into; throughput is their
/// median, which a stall of a fraction of a second cannot move.
pub const SLICE: Duration = Duration::from_millis(250);
/// Requests the durable workload writes into its store before any
/// set-up, so every set-up recovers a populated store.
const PRELOAD: usize = 8192;
/// Ring of in-flight slots per connection, indexed by request id; twice
/// the window so a slot is never reused while its request is in flight.
const RING: usize = 2 * IN_FLIGHT;

/// Where a run of requests stops.
#[derive(Debug, Clone, Copy)]
enum Until {
    Requests(usize),
    Deadline(Instant),
}

/// Client-side observations of one window.
#[derive(Debug)]
pub struct Window {
    start: Instant,
    duration: Duration,
    /// Submission-to-completion latency of every correct-looking reply
    /// completed inside the window, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Replies completed per slice.
    pub slice_requests: Vec<u64>,
    /// Per-group bursts completed per slice.
    pub slice_bursts: Vec<u64>,
    /// Duration of each `trigger_snapshot` call, in nanoseconds.
    pub snapshot_ns: Vec<u64>,
}

impl Window {
    fn new(start: Instant, duration: Duration, expected: usize) -> Window {
        let slices = duration.as_nanos().div_ceil(SLICE.as_nanos()) as usize;
        Window {
            start,
            duration,
            latencies_ns: Vec::with_capacity(expected),
            slice_requests: vec![0; slices],
            slice_bursts: vec![0; slices],
            snapshot_ns: Vec::new(),
        }
    }

    fn complete(&mut self, due: Instant, end: Instant, bursts: u64) {
        let offset = end.saturating_duration_since(self.start);
        if offset >= self.duration {
            return;
        }
        let slice = (offset.as_nanos() / SLICE.as_nanos()) as usize;
        self.slice_requests[slice] += 1;
        self.slice_bursts[slice] += bursts;
        self.latencies_ns
            .push(u64::try_from((end - due).as_nanos()).unwrap_or(u64::MAX));
    }

    /// The `p` latency percentile of each slice with enough samples for
    /// it, in microseconds. Replies are logged in completion order, so a
    /// slice's samples are contiguous.
    #[must_use]
    pub fn slice_percentiles_us(&self, p: f64) -> Vec<f64> {
        let mut at = 0;
        let mut sorted = Vec::new();
        let mut out = Vec::new();
        for &n in &self.slice_requests {
            let n = usize::try_from(n).expect("a slice's count fits usize");
            sorted.clear();
            sorted.extend_from_slice(&self.latencies_ns[at..at + n]);
            sorted.sort_unstable();
            at += n;
            if let Some(ns) = crate::stats::percentile(&sorted, p) {
                out.push(ns as f64 / 1_000.0);
            }
        }
        out
    }

    /// Per-second rates of each slice of `counts`; a last, shorter
    /// slice is rated by its own length.
    #[must_use]
    pub fn slice_rates(&self, counts: &[u64]) -> Vec<f64> {
        counts
            .iter()
            .enumerate()
            .map(|(index, &n)| {
                let begin = SLICE * index as u32;
                let length = (self.duration - begin).min(SLICE);
                n as f64 / length.as_secs_f64()
            })
            .collect()
    }
}

/// Everything measured around one window.
#[derive(Debug)]
pub struct Measured {
    /// The client side.
    pub window: Window,
    /// Indices of the window's requests in the [`History`].
    pub records: Range<usize>,
    /// Engine counters summed over shards, before and after.
    pub before: ShardSnapshot,
    /// See [`Measured::before`].
    pub after: ShardSnapshot,
    /// CPU spent during the window; `None` without `/proc`.
    pub cpu: Option<CpuSplit>,
    /// Connections the plane dropped as slow consumers in the window.
    pub dropped_slow: u64,
}

struct Flight {
    record: usize,
    start: Instant,
    span: u32,
}

struct Conn {
    client: PipelinedClient,
    /// Requests sent on this connection; picks its next session.
    sent: usize,
    flights: Vec<Option<Flight>>,
}

enum Driver {
    Local(LocalClient),
    Pipelined(Vec<Conn>),
}

struct Live {
    engine: Engine,
    server: Option<TcpServer>,
    driver: Driver,
}

/// One workload's service, its request log and its set-up timings.
pub struct Bench<'a> {
    workload: Workload,
    spec: Spec,
    pool: &'a Pool,
    persist: Option<PathBuf>,
    driver_tid: u32,
    /// Every request sent to the sessions the current engine holds.
    pub history: History,
    /// Requests logged since the sessions were born; picks payloads and,
    /// for local workloads, sessions.
    sent: usize,
    live: Option<Live>,
    /// Wall time of each set-up, start to first timed request, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each `Engine::try_start`, seconds.
    pub recovery_s: Vec<f64>,
}

impl<'a> Bench<'a> {
    /// A bench for `workload`; with a `persist` directory the engine
    /// journals into it. `driver_tid` is the thread that will drive the
    /// load, for CPU attribution.
    ///
    /// # Errors
    ///
    /// A message when the durable workload's store cannot be preloaded.
    pub fn new(
        workload: Workload,
        pool: &'a Pool,
        persist: Option<PathBuf>,
        driver_tid: u32,
    ) -> Result<Bench<'a>, String> {
        let mut bench = Bench {
            workload,
            spec: workload.spec(),
            pool,
            persist,
            driver_tid,
            history: History::default(),
            sent: 0,
            live: None,
            setup_s: Vec::new(),
            recovery_s: Vec::new(),
        };
        if bench.persist.is_some() {
            // Untimed: write the store every set-up then recovers.
            bench.start_engine(None)?;
            bench.run(
                Until::Requests(PRELOAD),
                &mut Window::new(Instant::now(), Duration::ZERO, 0),
                None,
                ROOT,
            )?;
            bench.tear_down();
        }
        Ok(bench)
    }

    /// Tears down any running service and sets a fresh one up: engine
    /// start (recovering the store, if any), server bind, connects and
    /// the warm-up requests. Records the set-up and `try_start` times.
    ///
    /// # Errors
    ///
    /// A message when the engine, server or a client fails to start.
    pub fn set_up(&mut self, spans: Option<&mut Spans>) -> Result<(), String> {
        self.tear_down();
        let start = Instant::now();
        self.start_engine(spans)?;
        let warmup = self.spec.warmup;
        self.run(
            Until::Requests(warmup),
            &mut Window::new(start, Duration::ZERO, 0),
            None,
            ROOT,
        )?;
        self.setup_s.push(start.elapsed().as_secs_f64());
        Ok(())
    }

    fn start_engine(&mut self, spans: Option<&mut Spans>) -> Result<(), String> {
        if self.persist.is_none() {
            // Memory-only sessions die with the engine.
            self.history.restart();
            self.sent = 0;
        }
        let config = ServiceConfig {
            shards: SHARDS,
            queue_capacity: QUEUE_CAPACITY,
            persist: self.persist.clone().map(|dir| PersistConfig { dir }),
            ..ServiceConfig::default()
        };
        let begin = Instant::now();
        let engine = Engine::try_start(config).map_err(|err| format!("engine start: {err}"))?;
        let started = Instant::now();
        self.recovery_s.push((started - begin).as_secs_f64());
        if let Some(spans) = spans {
            spans.add(ROOT, "engine.try_start", u64::MAX, begin, started);
        }
        let (server, driver) = match self.workload {
            Workload::PipelinedTcp => {
                let server = TcpServer::bind_with(
                    &engine,
                    "127.0.0.1:0",
                    ConnConfig {
                        io_threads: IO_THREADS,
                        ..ConnConfig::default()
                    },
                )
                .map_err(|err| format!("server bind: {err}"))?;
                let conns = (0..CONNECTIONS)
                    .map(|_| {
                        PipelinedClient::connect(server.addr()).map(|client| Conn {
                            client,
                            sent: 0,
                            flights: (0..RING).map(|_| None).collect(),
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|err| format!("connect: {err}"))?;
                (Some(server), Driver::Pipelined(conns))
            }
            Workload::BatchLocal | Workload::DurableVerify => {
                let client = engine.local_client();
                (None, Driver::Local(client))
            }
        };
        self.live = Some(Live {
            engine,
            server,
            driver,
        });
        Ok(())
    }

    /// Stops the running service, if any, and waits for its threads.
    pub fn tear_down(&mut self) {
        if let Some(live) = self.live.take() {
            drop(live.driver);
            if let Some(server) = live.server {
                server.shutdown();
            }
            live.engine.shutdown();
        }
    }

    /// Runs the load for `duration` and measures it; with `spans`, every
    /// call into the service is recorded as a span.
    ///
    /// # Errors
    ///
    /// A message when a transport fails.
    pub fn measure(
        &mut self,
        duration: Duration,
        mut spans: Option<&mut Spans>,
    ) -> Result<Measured, String> {
        let before = self.engine().metrics().totals();
        let dropped_before = self.dropped_slow()?;
        let cpu_before = CpuSplit::read(self.driver_tid);
        let first = self.history.len();
        // Room for twice the fastest workload's rate, so neither the
        // samples nor the log reallocate inside the window.
        let expected = (duration.as_secs_f64() * 250_000.0) as usize;
        self.history.reserve(expected);
        let start = Instant::now();
        let mut window = Window::new(start, duration, expected);
        let root = spans.as_deref_mut().map_or(ROOT, Spans::reserve);
        self.run(
            Until::Deadline(start + duration),
            &mut window,
            spans.as_deref_mut(),
            root,
        )?;
        let end = Instant::now();
        let cpu = CpuSplit::read(self.driver_tid)
            .zip(cpu_before)
            .map(|(after, before)| after.since(&before));
        if let Some(spans) = spans {
            spans.record(root, ROOT, "window", u64::MAX, start, end);
        }
        let after = self.engine().metrics().totals();
        Ok(Measured {
            window,
            records: first..self.history.len(),
            before,
            after,
            cpu,
            dropped_slow: self.dropped_slow()? - dropped_before,
        })
    }

    fn engine(&self) -> &Engine {
        &self.live.as_ref().expect("a service is set up").engine
    }

    /// The connection plane's slow-consumer drop count, read over the
    /// wire's metrics frame (0 when no server runs).
    fn dropped_slow(&self) -> Result<u64, String> {
        let Some(server) = self.live.as_ref().and_then(|live| live.server.as_ref()) else {
            return Ok(0);
        };
        let mut admin =
            TcpClient::connect(server.addr()).map_err(|err| format!("connect: {err}"))?;
        let json = admin
            .metrics_json()
            .map_err(|err| format!("metrics: {err}"))?;
        json_u64(&json, "dropped_slow").ok_or_else(|| format!("no dropped_slow in {json}"))
    }

    fn run(
        &mut self,
        until: Until,
        window: &mut Window,
        spans: Option<&mut Spans>,
        parent: u32,
    ) -> Result<(), String> {
        let live = self.live.as_mut().expect("a service is set up");
        let mut log = Log {
            spec: &self.spec,
            pool: self.pool,
            history: &mut self.history,
            sent: &mut self.sent,
            spans,
            parent,
        };
        match &mut live.driver {
            Driver::Local(client) => {
                let batch = self.workload == Workload::BatchLocal;
                let snapshots = self.persist.is_some();
                run_local(
                    &live.engine,
                    client,
                    batch,
                    snapshots,
                    until,
                    window,
                    &mut log,
                )
            }
            Driver::Pipelined(conns) => run_pipelined(conns, until, window, &mut log),
        }
    }
}

impl Drop for Bench<'_> {
    fn drop(&mut self) {
        self.tear_down();
    }
}

/// The shared bookkeeping every driver loop writes into.
struct Log<'b> {
    spec: &'b Spec,
    pool: &'b Pool,
    history: &'b mut History,
    sent: &'b mut usize,
    spans: Option<&'b mut Spans>,
    parent: u32,
}

impl Log<'_> {
    /// Logs the next request for `session`; returns its log index and
    /// payload.
    fn next(&mut self, session: u32) -> (usize, usize) {
        let payload = *self.sent;
        *self.sent += 1;
        (self.history.send(session, payload), payload)
    }
}

fn done(until: Until, completed: usize, now: Instant) -> bool {
    match until {
        Until::Requests(n) => completed >= n,
        Until::Deadline(deadline) => now >= deadline,
    }
}

fn run_local(
    engine: &Engine,
    client: &mut LocalClient,
    batch: bool,
    snapshots: bool,
    until: Until,
    window: &mut Window,
    log: &mut Log<'_>,
) -> Result<(), String> {
    let name = if batch {
        "local.encode_batch"
    } else {
        "local.encode"
    };
    let mut reply = EncodeReply::new();
    let mut completed = 0;
    loop {
        let due = Instant::now();
        if done(until, completed, due) {
            return Ok(());
        }
        if snapshots && log.sent.is_multiple_of(SNAPSHOT_EVERY) {
            // The next request waits for the quiesce: it is timed from
            // when it was due, before the snapshot.
            engine
                .trigger_snapshot()
                .map_err(|err| format!("snapshot: {err}"))?;
            let end = Instant::now();
            window
                .snapshot_ns
                .push(u64::try_from((end - due).as_nanos()).unwrap_or(u64::MAX));
            if let Some(spans) = log.spans.as_deref_mut() {
                spans.add(log.parent, "engine.trigger_snapshot", u64::MAX, due, end);
            }
        }
        let session = (*log.sent % log.spec.sessions as usize) as u32;
        let (record, payload) = log.next(session);
        let request = load::request(log.spec, u64::from(session) + 1, log.pool.get(payload));
        let start = Instant::now();
        let result = if batch {
            let request =
                EncodeBatchRequest::from_request(&request).expect("payloads are whole bursts");
            client.encode_batch(&request, &mut reply)
        } else {
            client.encode(&request, &mut reply)
        };
        let end = Instant::now();
        match result {
            Ok(()) => {
                log.history.reply(record, &reply);
                window.complete(due, end, reply.bursts);
            }
            Err(err) => log.history.error(record, err.code()),
        }
        if let Some(spans) = log.spans.as_deref_mut() {
            spans.add(log.parent, name, record as u64, start, end);
        }
        completed += 1;
    }
}

fn run_pipelined(
    conns: &mut [Conn],
    until: Until,
    window: &mut Window,
    log: &mut Log<'_>,
) -> Result<(), String> {
    let mut pipeline = Pipeline {
        per_conn: log.spec.sessions as usize / conns.len(),
        until,
        completed: 0,
        open: true,
        reply: EncodeReply::new(),
        window,
        log,
    };
    for (index, conn) in conns.iter_mut().enumerate() {
        while conn.client.in_flight() < IN_FLIGHT {
            pipeline.submit(index, conn)?;
        }
    }
    while let Some(index) = oldest(conns) {
        // Block on the connection holding the oldest request, then take
        // every completion already readable on any connection, so no
        // reply waits in one socket while the driver sleeps on another.
        let wait = Instant::now();
        let completion = conns[index]
            .client
            .next_completion(&mut pipeline.reply)
            .map_err(|err| format!("completion: {err}"))?;
        pipeline.finish(index, &mut conns[index], &completion, wait)?;
        for (index, conn) in conns.iter_mut().enumerate() {
            while conn.client.in_flight() > 0 {
                let wait = Instant::now();
                let Some(completion) = conn
                    .client
                    .try_next_completion(&mut pipeline.reply)
                    .map_err(|err| format!("completion: {err}"))?
                else {
                    break;
                };
                pipeline.finish(index, conn, &completion, wait)?;
            }
        }
    }
    Ok(())
}

/// The connection with the oldest request in flight, if any.
fn oldest(conns: &[Conn]) -> Option<usize> {
    conns
        .iter()
        .enumerate()
        .filter_map(|(index, conn)| {
            let oldest = conn.flights.iter().flatten().map(|f| f.start).min()?;
            Some((oldest, index))
        })
        .min()
        .map(|(_, index)| index)
}

/// The pipelined driver loop's state: the closed window's bookkeeping.
struct Pipeline<'w, 'l, 'b> {
    per_conn: usize,
    until: Until,
    completed: usize,
    /// Whether completions still trigger new submissions.
    open: bool,
    reply: EncodeReply,
    window: &'w mut Window,
    log: &'l mut Log<'b>,
}

impl Pipeline<'_, '_, '_> {
    fn submit(&mut self, index: usize, conn: &mut Conn) -> Result<(), String> {
        let log = &mut *self.log;
        // Each connection owns its own sessions, so a session's requests
        // travel one FIFO connection and execute in submission order.
        let session = (index * self.per_conn + conn.sent % self.per_conn) as u32;
        conn.sent += 1;
        let (record, payload) = log.next(session);
        let request = load::request(log.spec, u64::from(session) + 1, log.pool.get(payload));
        let start = Instant::now();
        let id = conn
            .client
            .submit(&request)
            .map_err(|err| format!("submit: {err}"))?;
        let end = Instant::now();
        let span = match log.spans.as_deref_mut() {
            Some(spans) => {
                let span = spans.reserve();
                spans.add(span, "pipelined.submit", record as u64, start, end);
                span
            }
            None => ROOT,
        };
        let slot = &mut conn.flights[id as usize % RING];
        assert!(slot.is_none(), "request id {id} reused while in flight");
        *slot = Some(Flight {
            record,
            start,
            span,
        });
        Ok(())
    }

    /// Books one completion (its reply is in `self.reply`) and, while the
    /// window is open, submits the next request in its place.
    fn finish(
        &mut self,
        index: usize,
        conn: &mut Conn,
        completion: &PipelinedCompletion,
        wait: Instant,
    ) -> Result<(), String> {
        let end = Instant::now();
        let flight = conn.flights[completion.request_id as usize % RING]
            .take()
            .ok_or_else(|| format!("completion for unknown id {}", completion.request_id))?;
        let log = &mut *self.log;
        match &completion.error {
            None => {
                log.history.reply(flight.record, &self.reply);
                self.window.complete(flight.start, end, self.reply.bursts);
            }
            Some((code, _)) => log.history.error(flight.record, *code),
        }
        if let Some(spans) = log.spans.as_deref_mut() {
            let request = flight.record as u64;
            spans.add(flight.span, "pipelined.next_completion", request, wait, end);
            spans.record(
                flight.span,
                log.parent,
                "pipelined.request",
                request,
                flight.start,
                end,
            );
        }
        self.completed += 1;
        self.open = self.open && !done(self.until, self.completed, end);
        if self.open {
            self.submit(index, conn)?;
        }
        Ok(())
    }
}

/// The unsigned integer after `"key":` in a flat JSON text.
fn json_u64(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let rest = &json[json.find(&needle)? + needle.len()..];
    let digits = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..digits].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_u64_reads_a_flat_field() {
        let json = r#"{"connections":{"active":2,"dropped_slow":17,"x":1}}"#;
        assert_eq!(json_u64(json, "dropped_slow"), Some(17));
        assert_eq!(json_u64(json, "active"), Some(2));
        assert_eq!(json_u64(json, "missing"), None);
    }

    #[test]
    fn window_slices_and_drops_late_completions() {
        let start = Instant::now();
        let mut window = Window::new(start, Duration::from_millis(1_100), 4);
        assert_eq!(window.slice_requests.len(), 5);
        window.complete(start, start + Duration::from_millis(100), 4);
        window.complete(start, start + Duration::from_millis(1_099), 8);
        window.complete(start, start + Duration::from_millis(1_100), 16);
        assert_eq!(window.slice_requests, [1, 0, 0, 0, 1]);
        assert_eq!(window.slice_bursts[4], 8);
        assert_eq!(window.latencies_ns.len(), 2);
        // 1 in the first 250 ms slice, 1 in the last 100 ms one.
        let rates = window.slice_rates(&window.slice_requests);
        assert!(
            (rates[0] - 4.0).abs() < 1e-9 && (rates[4] - 10.0).abs() < 1e-9,
            "{rates:?}"
        );
        // One sample per filled slice: too few for any percentile.
        assert!(window.slice_percentiles_us(0.5).is_empty());
    }

    #[test]
    fn slice_percentiles_use_each_slice_alone() {
        let start = Instant::now();
        let mut window = Window::new(start, SLICE * 2, 64);
        for k in 0..21u64 {
            window.complete(start, start + Duration::from_micros(k), 1);
        }
        // 21 fast samples (0..20 µs) in slice 0, 21 slow (1 s) ones in 1.
        let slow = start + SLICE + Duration::from_millis(1);
        for _ in 0..21 {
            window.complete(slow - Duration::from_secs(1), slow, 1);
        }
        assert_eq!(window.slice_percentiles_us(0.5), [10.0, 1_000_000.0]);
    }
}
