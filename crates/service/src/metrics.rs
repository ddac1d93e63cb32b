//! Service metrics: one table of metric rows behind every surface.
//!
//! Each shard owns one [`ShardMetrics`] of relaxed atomic counters, and
//! the TCP server's I/O threads share one [`ConnectionMetrics`]; both are
//! bumped lock-free and allocation-free on the hot path.
//! [`MetricsRegistry::snapshot`] copies every shard into an owned
//! [`MetricsSnapshot`]; the engine stamps in its plan-cache and
//! durability blocks, and the TCP server its connection block.
//!
//! Every scalar metric is one row of a private table, `METRICS`. A row
//! holds the metric's JSON block and key, its Prometheus family, type and
//! help text, and its source: where the value lives, which fixes its
//! scope (per shard or engine-global) and how it folds (sum or max). The
//! shard and connection snapshots, [`MetricsSnapshot::totals`],
//! [`MetricsSnapshot::to_json`] and [`MetricsSnapshot::to_prometheus`]
//! all walk that table, so the JSON and the Prometheus exposition carry
//! the same metrics by construction.
//!
//! Two blocks keep a shape of their own on each surface and are rendered
//! from their own list. The stage latencies ([`StageLatency::stages`]:
//! queue-wait, encode, verify, total; see [`crate::telemetry`]) are a JSON
//! object per stage and one `dbi_stage_latency_nanoseconds` summary. The
//! kernel block — the slab kernel tier the workers dispatch to
//! ([`dbi_core::simd::selected_kernel`]) and the detected CPU features —
//! is a JSON object and the labels of one `dbi_kernel_info` gauge.
//!
//! The JSON is handwritten (no serialisation crate exists offline) with a
//! fixed key order, so it is easy to assert on in tests and to scrape.
//! Both surfaces print a float metric the same way, at full precision
//! (the shortest text that reads back as the same `f64`).

use crate::telemetry::{log2_percentile, LatencyHistogram, LatencyStats, RateWindow};
use crate::wire::SnapshotStatus;
use dbi_core::PlanCacheStats;
use std::fmt::{Display, Write};
use std::sync::atomic::{AtomicU64, Ordering};

pub use crate::telemetry::window::RATE_WINDOW_SECONDS;

/// Number of power-of-two histogram buckets tracking worker-pass sizes:
/// bucket *i* counts passes of `[2^i, 2^(i+1))` bursts, the last bucket
/// absorbing everything beyond.
pub const BATCH_BUCKETS: usize = 17;

const WRITE: &str = "writing to a String cannot fail";

/// Prometheus family types.
const COUNTER: &str = "counter";
const GAUGE: &str = "gauge";

/// How contributions to one count combine: shard values into
/// [`MetricsSnapshot::totals`], I/O threads' counts into
/// [`ConnectionMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fold {
    Sum,
    Max,
}

/// A metric value. Its [`Display`] form is the Prometheus sample value
/// and, but for a flag, the JSON value.
#[derive(Clone, Copy)]
enum Num {
    Int(u64),
    Float(f64),
    /// JSON prints `true`/`false`, Prometheus 1/0.
    Flag(bool),
}

impl Display for Num {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Num::Int(value) => write!(f, "{value}"),
            Num::Float(value) => write!(f, "{value}"),
            Num::Flag(value) => write!(f, "{}", u64::from(value)),
        }
    }
}

/// A field of snapshot type `S`, read and written.
#[derive(Clone, Copy)]
struct Field<S, T> {
    get: fn(&S) -> T,
    set: fn(&mut S) -> &mut T,
}

/// Where a row's value lives. `Shard`, `Rate` and `Derived` rows are per
/// shard; `Connection` and `Global` rows are engine-global.
#[derive(Clone, Copy)]
enum Source {
    /// A [`ShardMetrics`] atomic copied into a [`ShardSnapshot`] field;
    /// totals fold it by `fold`.
    Shard {
        atomic: fn(&ShardMetrics) -> &AtomicU64,
        field: Field<ShardSnapshot, u64>,
        fold: Fold,
    },
    /// A [`ShardMetrics`] sliding-window rate copied into a
    /// [`ShardSnapshot`] field; totals sum it.
    Rate {
        window: fn(&ShardMetrics) -> &RateWindow,
        field: Field<ShardSnapshot, f64>,
    },
    /// A value computed from a [`ShardSnapshot`] when rendered; totals
    /// recompute it from their folded counts.
    Derived(fn(&ShardSnapshot) -> Num),
    /// A [`ConnectionMetrics`] atomic copied into a [`ConnectionsSnapshot`]
    /// field. `io` is the [`IoCounters`] count that
    /// [`ConnectionMetrics::publish`] folds into it by `fold`.
    Connection {
        atomic: fn(&ConnectionMetrics) -> &AtomicU64,
        field: Field<ConnectionsSnapshot, u64>,
        fold: Fold,
        io: Option<fn(&IoCounters) -> u64>,
    },
    /// A value the engine stamps into the [`MetricsSnapshot`].
    Global(fn(&MetricsSnapshot) -> Num),
}

impl Source {
    /// Whether the row has one value per shard.
    fn per_shard(self) -> bool {
        matches!(
            self,
            Source::Shard { .. } | Source::Rate { .. } | Source::Derived(_)
        )
    }

    /// The row's value in `shard`, or `None` for an engine-global row.
    fn shard_value(self, shard: &ShardSnapshot) -> Option<Num> {
        match self {
            Source::Shard { field, .. } => Some(Num::Int((field.get)(shard))),
            Source::Rate { field, .. } => Some(Num::Float((field.get)(shard))),
            Source::Derived(value) => Some(value(shard)),
            Source::Connection { .. } | Source::Global(_) => None,
        }
    }

    /// The row's value in `snapshot`, or `None` for a per-shard row.
    fn global_value(self, snapshot: &MetricsSnapshot) -> Option<Num> {
        match self {
            Source::Connection { field, .. } => Some(Num::Int((field.get)(&snapshot.connections))),
            Source::Global(value) => Some(value(snapshot)),
            Source::Shard { .. } | Source::Rate { .. } | Source::Derived(_) => None,
        }
    }
}

/// One scalar metric, as both surfaces and the totals see it.
struct Metric {
    /// The JSON object holding `key`: `""` for the shard object itself,
    /// else a block inside it (per-shard rows) or inside the top-level
    /// object (engine-global rows). A block's rows are contiguous and
    /// follow the `""` rows.
    block: &'static str,
    key: &'static str,
    family: &'static str,
    /// [`COUNTER`] or [`GAUGE`].
    kind: &'static str,
    source: Source,
    /// The Prometheus `# HELP` text.
    help: &'static str,
}

#[rustfmt::skip]
const fn row(
    block: &'static str, key: &'static str, family: &'static str, kind: &'static str,
    source: Source, help: &'static str,
) -> Metric {
    Metric { block, key, family, kind, source, help }
}

// Sources over same-named fields: `shard!` and `connection!` name the
// atomic and the snapshot field, `rate!` the window and the field, and
// `connection!`'s optional third ident the `IoCounters` count.
#[rustfmt::skip]
macro_rules! field {
    ($field:ident) => { Field { get: |s| s.$field, set: |s| &mut s.$field } };
}
#[rustfmt::skip]
macro_rules! shard {
    ($field:ident, $fold:ident) => {
        Source::Shard { atomic: |m| &m.$field, field: field!($field), fold: Fold::$fold }
    };
}
#[rustfmt::skip]
macro_rules! rate {
    ($window:ident, $field:ident) => {
        Source::Rate { window: |m| &m.$window, field: field!($field) }
    };
}
#[rustfmt::skip]
macro_rules! connection {
    ($field:ident, $fold:ident $(, $io:ident)?) => {
        Source::Connection {
            atomic: |m| &m.$field, field: field!($field), fold: Fold::$fold,
            io: connection!(@io $($io)?),
        }
    };
    (@io) => { None };
    (@io $io:ident) => { Some(|c| c.$io) };
}

/// Every scalar metric, in JSON key order: the per-shard rows make up a
/// shard object (before its `latency` block), the engine-global rows the
/// top-level blocks after `totals`.
#[rustfmt::skip]
const METRICS: &[Metric] = &[
    row("", "requests", "dbi_requests_total", COUNTER, shard!(requests, Sum),
        "Requests executed."),
    row("", "rejected", "dbi_rejected_total", COUNTER, shard!(rejected, Sum),
        "Requests rejected."),
    row("", "bytes", "dbi_bytes_total", COUNTER, shard!(bytes, Sum),
        "Payload bytes encoded."),
    row("", "bursts", "dbi_bursts_total", COUNTER, shard!(bursts, Sum),
        "Per-group bursts encoded."),
    row("", "transitions_saved", "dbi_transitions_saved_total", COUNTER,
        shard!(transitions_saved, Sum),
        "Lane transitions avoided versus sending the stream raw."),
    row("", "queue_depth", "dbi_queue_depth", GAUGE, shard!(queue_depth, Sum),
        "Requests currently queued."),
    // Summed like `queue_depth`: an upper bound on the peak of total
    // queued work.
    row("", "queue_depth_peak", "dbi_queue_depth_peak", GAUGE, shard!(queue_depth_peak, Sum),
        "Queue-depth high-watermark since startup."),
    row("", "sessions", "dbi_sessions_total", COUNTER, shard!(sessions, Sum),
        "Encode sessions created since startup; evictions do not subtract."),
    row("", "sessions_evicted", "dbi_sessions_evicted_total", COUNTER,
        shard!(sessions_evicted, Sum),
        "Idle sessions evicted to admit fresh session ids on a full shard."),
    row("", "sessions_resident", "dbi_sessions_resident", GAUGE,
        Source::Derived(|s| Num::Int(s.sessions_resident())),
        "Encode sessions held now: created minus evicted."),
    row("journal", "records", "dbi_journal_records_total", COUNTER,
        shard!(journal_records, Sum),
        "Session records appended to the shard's journal."),
    row("journal", "bytes", "dbi_journal_bytes_total", COUNTER, shard!(journal_bytes, Sum),
        "Bytes flushed to the shard's journal."),
    row("rate", "requests_per_s", "dbi_requests_per_second", GAUGE,
        rate!(request_rate, requests_per_s),
        "Executed requests per second over the sliding window."),
    row("rate", "rejects_per_s", "dbi_rejects_per_second", GAUGE,
        rate!(reject_rate, rejects_per_s),
        "Rejected requests per second over the sliding window."),
    row("rate", "window_s", "dbi_rate_window_seconds", GAUGE,
        Source::Derived(|_| Num::Int(RATE_WINDOW_SECONDS as u64)),
        "Length of the sliding window behind the per-second rates."),
    row("batch", "passes", "dbi_batch_passes_total", COUNTER, shard!(passes, Sum),
        "Worker passes executed."),
    row("batch", "coalesced", "dbi_batch_coalesced_total", COUNTER, shard!(coalesced, Sum),
        "Requests coalesced into another request's pass."),
    row("batch", "dispatches", "dbi_batch_dispatches_total", COUNTER, shard!(dispatches, Sum),
        "Packed kernel dispatches executed."),
    row("batch", "dispatch_chains", "dbi_batch_dispatch_chains_total", COUNTER,
        shard!(dispatch_chains, Sum),
        "Lane-group chains encoded across all packed dispatches."),
    row("batch", "full_dispatches", "dbi_batch_full_dispatches_total", COUNTER,
        shard!(full_dispatches, Sum),
        "Dispatches that filled the selected kernel's lane width."),
    row("batch", "lane_occupancy", "dbi_batch_lane_occupancy", GAUGE,
        Source::Derived(|s| Num::Float(s.lane_occupancy())),
        "Mean lane-group chains per packed kernel dispatch."),
    row("batch", "full_dispatch_fraction", "dbi_batch_full_dispatch_fraction", GAUGE,
        Source::Derived(|s| Num::Float(s.full_dispatch_fraction())),
        "Fraction of dispatches that filled the kernel's lane width."),
    row("batch", "size_p50", "dbi_batch_size_p50_bursts", GAUGE,
        Source::Derived(|s| Num::Int(s.batch_size_percentile(0.50))),
        "Median worker-pass size in bursts, from the power-of-two pass-size histogram."),
    row("batch", "size_p99", "dbi_batch_size_p99_bursts", GAUGE,
        Source::Derived(|s| Num::Int(s.batch_size_percentile(0.99))),
        "99th-percentile worker-pass size in bursts, from the same histogram."),
    row("batch", "bursts_per_request", "dbi_batch_bursts_per_request", GAUGE,
        Source::Derived(|s| Num::Float(s.bursts_per_request())),
        "Mean bursts per executed request."),
    row("verify", "requests", "dbi_verify_requests_total", COUNTER, shard!(verified, Sum),
        "Verify-mode requests round-tripped."),
    row("verify", "failures", "dbi_verify_failures_total", COUNTER,
        shard!(verify_failures, Sum),
        "Verify round trips that exposed an encode/decode asymmetry."),

    row("plan_cache", "hits", "dbi_plan_cache_hits_total", COUNTER,
        Source::Global(|e| Num::Int(e.plan_cache.hits)),
        "Plan-cache hits."),
    row("plan_cache", "misses", "dbi_plan_cache_misses_total", COUNTER,
        Source::Global(|e| Num::Int(e.plan_cache.misses)),
        "Plan-cache misses."),
    row("plan_cache", "evictions", "dbi_plan_cache_evictions_total", COUNTER,
        Source::Global(|e| Num::Int(e.plan_cache.evictions)),
        "Plan-cache evictions."),
    row("plan_cache", "entries", "dbi_plan_cache_entries", GAUGE,
        Source::Global(|e| Num::Int(e.plan_cache.entries as u64)),
        "Plans resident in the cache."),
    row("connections", "active", "dbi_connections_active", GAUGE, connection!(active, Sum),
        "Connections currently multiplexed by the I/O threads."),
    row("connections", "accepted", "dbi_connections_accepted_total", COUNTER,
        connection!(accepted, Sum),
        "Connections accepted."),
    row("connections", "closed", "dbi_connections_closed_total", COUNTER,
        connection!(closed, Sum),
        "Connections closed, for any reason."),
    row("connections", "dropped_slow", "dbi_connections_dropped_slow_total", COUNTER,
        connection!(dropped_slow, Sum),
        "Connections dropped for crossing the slow-consumer write high-watermark."),
    row("connections", "read_buf_high_watermark",
        "dbi_connection_read_buf_high_watermark_bytes", GAUGE,
        connection!(read_buf_high_watermark, Max, read_buf_peak),
        "Largest read buffer any connection has grown."),
    row("connections", "write_buf_high_watermark",
        "dbi_connection_write_buf_high_watermark_bytes", GAUGE,
        connection!(write_buf_high_watermark, Max, write_buf_peak),
        "Largest write buffer any connection has grown."),
    row("connections", "wakeups", "dbi_io_wakeups_total", COUNTER,
        connection!(wakeups, Sum, wakeups),
        "Returns from the I/O threads' poller waits."),
    row("connections", "reads", "dbi_io_reads_total", COUNTER, connection!(reads, Sum, reads),
        "Socket reads that moved bytes."),
    row("connections", "writes", "dbi_io_writes_total", COUNTER,
        connection!(writes, Sum, writes),
        "Socket writes that moved bytes."),
    row("connections", "frames_in", "dbi_io_frames_in_total", COUNTER,
        connection!(frames_in, Sum, frames_in),
        "Frames parsed out of connections' read buffers."),
    row("connections", "frames_out", "dbi_io_frames_out_total", COUNTER,
        connection!(frames_out, Sum, frames_out),
        "Frames queued for connections' sockets."),
    row("durability", "configured", "dbi_durability_configured", GAUGE,
        Source::Global(|e| Num::Flag(e.durability.configured)),
        "Whether a persist directory is configured (1) or not (0)."),
    row("durability", "generation", "dbi_durability_generation", GAUGE,
        Source::Global(|e| Num::Int(e.durability.generation)),
        "Generation the shard journals are currently writing at."),
    row("durability", "snapshots_taken", "dbi_snapshots_taken_total", COUNTER,
        Source::Global(|e| Num::Int(e.durability.snapshots_taken)),
        "Engine snapshots written since startup (including the self-compacting recovery snapshot)."),
    row("durability", "last_sessions", "dbi_snapshot_last_sessions", GAUGE,
        Source::Global(|e| Num::Int(e.durability.last_sessions)),
        "Sessions captured by the most recent snapshot."),
    row("durability", "last_bytes", "dbi_snapshot_last_bytes", GAUGE,
        Source::Global(|e| Num::Int(e.durability.last_bytes)),
        "On-disk size of the most recent snapshot in bytes."),
    row("durability", "restored_sessions", "dbi_sessions_restored_total", COUNTER,
        Source::Global(|e| Num::Int(e.durability.restored_sessions)),
        "Sessions restored from disk (at startup or via the restore admin frame)."),
];

/// The stage-latency quantiles as `(quantile, JSON key, Prometheus
/// label)`.
const QUANTILES: [(f64, &str, &str); 4] = [
    (0.50, "p50_ns", "0.5"),
    (0.90, "p90_ns", "0.9"),
    (0.99, "p99_ns", "0.99"),
    (0.999, "p999_ns", "0.999"),
];

/// Lock-free counters of one shard. All increments use relaxed ordering:
/// the counters are statistics, not synchronisation.
#[derive(Debug, Default)]
pub struct ShardMetrics {
    requests: AtomicU64,
    rejected: AtomicU64,
    bytes: AtomicU64,
    bursts: AtomicU64,
    transitions_saved: AtomicU64,
    queue_depth: AtomicU64,
    queue_depth_peak: AtomicU64,
    sessions: AtomicU64,
    sessions_evicted: AtomicU64,
    journal_records: AtomicU64,
    journal_bytes: AtomicU64,
    passes: AtomicU64,
    coalesced: AtomicU64,
    dispatches: AtomicU64,
    dispatch_chains: AtomicU64,
    full_dispatches: AtomicU64,
    batch_hist: [AtomicU64; BATCH_BUCKETS],
    verified: AtomicU64,
    verify_failures: AtomicU64,
    request_rate: RateWindow,
    reject_rate: RateWindow,
    queue_wait_hist: LatencyHistogram,
    encode_hist: LatencyHistogram,
    verify_hist: LatencyHistogram,
    total_hist: LatencyHistogram,
}

/// The histogram bucket a pass of `bursts` bursts lands in.
fn batch_bucket(bursts: u64) -> usize {
    (bursts.max(1).ilog2() as usize).min(BATCH_BUCKETS - 1)
}

impl ShardMetrics {
    /// Records one successfully executed request.
    pub fn record_request(&self, payload_bytes: u64, bursts: u64, transitions_saved: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(payload_bytes, Ordering::Relaxed);
        self.bursts.fetch_add(bursts, Ordering::Relaxed);
        self.transitions_saved
            .fetch_add(transitions_saved, Ordering::Relaxed);
        self.request_rate.record();
    }

    /// Records the stage breakdown of one worker-handled request into the
    /// shard's latency histograms. `encode_ns`/`verify_ns` are `None` for
    /// requests that never reached the respective stage (rejects never
    /// encode; only verify-mode requests verify) — a `None` stage is not
    /// recorded at all, so zeros never dilute its distribution.
    pub fn record_stage_sample(
        &self,
        queue_wait_ns: u64,
        encode_ns: Option<u64>,
        verify_ns: Option<u64>,
        total_ns: u64,
    ) {
        self.queue_wait_hist.record(queue_wait_ns);
        if let Some(nanos) = encode_ns {
            self.encode_hist.record(nanos);
        }
        if let Some(nanos) = verify_ns {
            self.verify_hist.record(nanos);
        }
        self.total_hist.record(total_ns);
    }

    /// Records one worker pass of `bursts` total bursts, `coalesced` of
    /// whose requests were drained from the queue behind the pass opener.
    pub fn record_pass(&self, bursts: u64, coalesced: u64) {
        self.passes.fetch_add(1, Ordering::Relaxed);
        self.coalesced.fetch_add(coalesced, Ordering::Relaxed);
        self.batch_hist[batch_bucket(bursts)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one packed kernel dispatch of `chains` lane-group chains;
    /// `full` marks a dispatch whose chain count reached the selected
    /// kernel's lane width — the lane-occupancy counters behind the
    /// `batch` block's `lane_occupancy` and `full_dispatch_fraction`.
    pub fn record_dispatch(&self, chains: u64, full: bool) {
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        self.dispatch_chains.fetch_add(chains, Ordering::Relaxed);
        if full {
            self.full_dispatches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one rejected request (validation failure or backpressure).
    pub fn record_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.reject_rate.record();
    }

    /// Records one verify-mode round trip: the worker decoded its own
    /// output and compared it against the request. `ok` is `false` when
    /// the comparison found an encode/decode asymmetry (the request then
    /// fails with `VerifyMismatch`).
    pub fn record_verify(&self, ok: bool) {
        self.verified.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.verify_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a request entering the shard queue, updating the depth
    /// high-watermark (a scrape between passes reads an instantaneous
    /// depth of ~0; the peak is what exposes backpressure pressure).
    pub fn enqueue(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records a request leaving the shard queue.
    pub fn dequeue(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a newly created encode session.
    pub fn session_created(&self) {
        self.sessions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an idle session evicted to make room for a fresh id on a
    /// full shard.
    pub fn session_evicted(&self) {
        self.sessions_evicted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one journal flush of `records` session records totalling
    /// `bytes` on-disk bytes.
    pub fn record_journal(&self, records: u64, bytes: u64) {
        self.journal_records.fetch_add(records, Ordering::Relaxed);
        self.journal_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Reads the counters into an owned snapshot.
    #[must_use]
    pub fn snapshot(&self) -> ShardSnapshot {
        let mut snapshot = ShardSnapshot {
            batch_hist: self
                .batch_hist
                .each_ref()
                .map(|counter| counter.load(Ordering::Relaxed)),
            latency: StageLatency {
                queue_wait: self.queue_wait_hist.snapshot(),
                encode: self.encode_hist.snapshot(),
                verify: self.verify_hist.snapshot(),
                total: self.total_hist.snapshot(),
            },
            ..ShardSnapshot::default()
        };
        for metric in METRICS {
            match metric.source {
                Source::Shard { atomic, field, .. } => {
                    *(field.set)(&mut snapshot) = atomic(self).load(Ordering::Relaxed);
                }
                Source::Rate { window, field } => {
                    *(field.set)(&mut snapshot) = window(self).rate_per_second();
                }
                _ => {}
            }
        }
        snapshot
    }
}

/// Lock-free counters of the connection plane — one set per server, not
/// per shard, because connections are owned by the I/O threads, not the
/// encode workers. Same discipline as [`ShardMetrics`]: relaxed atomics,
/// bumped allocation-free from the event loop. The per-frame counts and
/// buffer peaks arrive once per event-loop iteration, from each I/O
/// thread's local counts, so the per-frame path touches no shared atomic.
#[derive(Debug, Default)]
pub struct ConnectionMetrics {
    active: AtomicU64,
    accepted: AtomicU64,
    closed: AtomicU64,
    dropped_slow: AtomicU64,
    read_buf_high_watermark: AtomicU64,
    write_buf_high_watermark: AtomicU64,
    wakeups: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
}

/// One I/O thread's counts since its last
/// [`publish`](ConnectionMetrics::publish): plain integers, bumped on the
/// per-frame path without touching shared memory.
#[derive(Debug, Default)]
pub(crate) struct IoCounters {
    /// Returns from the poller wait.
    pub(crate) wakeups: u64,
    /// Socket reads that moved bytes.
    pub(crate) reads: u64,
    /// Socket writes that moved bytes.
    pub(crate) writes: u64,
    /// Whole frames parsed out of read buffers.
    pub(crate) frames_in: u64,
    /// Frames queued onto write buffers.
    pub(crate) frames_out: u64,
    /// Largest read buffer seen, in bytes.
    pub(crate) read_buf_peak: u64,
    /// Largest unflushed write backlog seen, in bytes.
    pub(crate) write_buf_peak: u64,
}

impl ConnectionMetrics {
    /// Records an accepted connection entering the event loop.
    pub fn on_accept(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection leaving the event loop, however it ended
    /// (peer hang-up, protocol violation, slow-consumer drop, shutdown).
    pub fn on_close(&self) {
        self.closed.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a connection dropped for falling behind its responses —
    /// its write buffer crossed the configured high-watermark. The drop
    /// still counts as a close via [`ConnectionMetrics::on_close`]; this
    /// counter attributes the cause.
    pub fn on_dropped_slow(&self) {
        self.dropped_slow.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one I/O thread's counts into the shared counters — counts
    /// add, buffer peaks keep the maximum — and resets them; zero counts
    /// cost no atomic operation.
    pub(crate) fn publish(&self, counters: &mut IoCounters) {
        for metric in METRICS {
            if let Source::Connection {
                atomic,
                fold,
                io: Some(io),
                ..
            } = metric.source
            {
                let local = io(counters);
                if local > 0 {
                    match fold {
                        Fold::Sum => atomic(self).fetch_add(local, Ordering::Relaxed),
                        Fold::Max => atomic(self).fetch_max(local, Ordering::Relaxed),
                    };
                }
            }
        }
        *counters = IoCounters::default();
    }

    /// Reads the counters into an owned snapshot.
    #[must_use]
    pub fn snapshot(&self) -> ConnectionsSnapshot {
        let mut snapshot = ConnectionsSnapshot::default();
        for metric in METRICS {
            if let Source::Connection { atomic, field, .. } = metric.source {
                *(field.set)(&mut snapshot) = atomic(self).load(Ordering::Relaxed);
            }
        }
        snapshot
    }
}

/// A point-in-time copy of the connection-plane counters. All zeros for
/// an engine that is not fronted by a TCP server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConnectionsSnapshot {
    /// Connections currently multiplexed by the I/O threads.
    pub active: u64,
    /// Connections accepted since startup.
    pub accepted: u64,
    /// Connections closed since startup, for any reason.
    pub closed: u64,
    /// Connections dropped because their write buffer crossed the
    /// slow-consumer high-watermark (a subset of `closed`).
    pub dropped_slow: u64,
    /// Largest read buffer any connection has grown, in bytes.
    pub read_buf_high_watermark: u64,
    /// Largest write buffer any connection has grown, in bytes.
    pub write_buf_high_watermark: u64,
    /// Returns from the I/O threads' poller waits.
    pub wakeups: u64,
    /// Socket reads that moved bytes.
    pub reads: u64,
    /// Socket writes that moved bytes.
    pub writes: u64,
    /// Whole frames parsed out of connections' read buffers.
    pub frames_in: u64,
    /// Frames queued for connections' sockets: replies, inline answers
    /// and error frames.
    pub frames_out: u64,
}

/// The four per-stage latency snapshots of one shard: where a request's
/// time goes, from queue admission to completion signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageLatency {
    /// Time between enqueue and a worker picking the request up.
    pub queue_wait: LatencyStats,
    /// Time in the encode kernel (executed requests only).
    pub encode: LatencyStats,
    /// Time in the verify round trip (verify-mode requests only).
    pub verify: LatencyStats,
    /// Total service time, enqueue to completion signal (every
    /// worker-handled request, including rejects).
    pub total: LatencyStats,
}

impl StageLatency {
    fn add(&mut self, other: &StageLatency) {
        self.queue_wait.add(&other.queue_wait);
        self.encode.add(&other.encode);
        self.verify.add(&other.verify);
        self.total.add(&other.total);
    }

    /// The stages as `(name, stats)` pairs, in reporting order.
    #[must_use]
    pub fn stages(&self) -> [(&'static str, &LatencyStats); 4] {
        [
            ("queue_wait", &self.queue_wait),
            ("encode", &self.encode),
            ("verify", &self.verify),
            ("total", &self.total),
        ]
    }
}

/// A point-in-time copy of one shard's counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardSnapshot {
    /// Requests executed.
    pub requests: u64,
    /// Requests rejected (bad geometry/payload, backpressure, shutdown).
    pub rejected: u64,
    /// Payload bytes encoded.
    pub bytes: u64,
    /// Per-group bursts encoded.
    pub bursts: u64,
    /// Lane transitions avoided relative to sending the same stream raw.
    pub transitions_saved: u64,
    /// Requests currently sitting in the shard queue.
    pub queue_depth: u64,
    /// The deepest the shard queue has ever been — the high-watermark
    /// that exposes backpressure a between-passes scrape would miss.
    pub queue_depth_peak: u64,
    /// Encode sessions created on the shard since startup; evictions do
    /// not subtract (they count in `sessions_evicted`, and
    /// [`ShardSnapshot::sessions_resident`] subtracts them).
    pub sessions: u64,
    /// Idle sessions evicted to make room for fresh session ids once the
    /// shard hit its configured session bound.
    pub sessions_evicted: u64,
    /// Session records the shard's worker has appended to its journal.
    pub journal_records: u64,
    /// Bytes the shard's worker has flushed to its journal.
    pub journal_bytes: u64,
    /// Worker passes executed (each pass serves one or more coalesced
    /// requests of one session).
    pub passes: u64,
    /// Requests that were coalesced into another request's pass instead
    /// of opening their own.
    pub coalesced: u64,
    /// Packed kernel dispatches executed (one per round: a single
    /// `encode_lanes_into` sweep over every chain packed into the round).
    pub dispatches: u64,
    /// Lane-group chains encoded across all dispatches — `dispatch_chains
    /// / dispatches` is the average lane occupancy of a kernel sweep.
    pub dispatch_chains: u64,
    /// Dispatches whose chain count reached the selected kernel's lane
    /// width (a fully occupied SIMD sweep).
    pub full_dispatches: u64,
    /// Power-of-two histogram of pass sizes in bursts: bucket *i* counts
    /// passes of `[2^i, 2^(i+1))` bursts.
    pub batch_hist: [u64; BATCH_BUCKETS],
    /// Verify-mode requests whose output was decoded and compared.
    pub verified: u64,
    /// Verify-mode requests whose round trip exposed an encode/decode
    /// asymmetry (answered with `VerifyMismatch`).
    pub verify_failures: u64,
    /// Executed requests per second over the sliding
    /// [`RATE_WINDOW_SECONDS`]-second window, as of the snapshot.
    pub requests_per_s: f64,
    /// Rejected requests per second over the same window.
    pub rejects_per_s: f64,
    /// Per-stage latency histograms: queue-wait, encode, verify, total.
    pub latency: StageLatency,
}

impl ShardSnapshot {
    /// Folds another shard into this one by each row's fold; the pass-size
    /// histogram and the latency histograms add bucket by bucket.
    fn add(&mut self, other: &ShardSnapshot) {
        for metric in METRICS {
            match metric.source {
                Source::Shard { field, fold, .. } => {
                    let (mine, theirs) = ((field.get)(self), (field.get)(other));
                    *(field.set)(self) = match fold {
                        Fold::Sum => mine + theirs,
                        Fold::Max => mine.max(theirs),
                    };
                }
                Source::Rate { field, .. } => *(field.set)(self) += (field.get)(other),
                _ => {}
            }
        }
        for (mine, theirs) in self.batch_hist.iter_mut().zip(&other.batch_hist) {
            *mine += theirs;
        }
        self.latency.add(&other.latency);
    }

    /// The histogram percentile of the pass-size distribution in bursts,
    /// interpolated within the winning power-of-two bucket (see
    /// [`log2_percentile`]); 0 when no pass has been recorded.
    #[must_use]
    pub fn batch_size_percentile(&self, percentile: f64) -> u64 {
        log2_percentile(&self.batch_hist, percentile)
    }

    /// Sessions the shard holds now: created minus evicted. Exact,
    /// because eviction is the only way a session leaves a shard.
    #[must_use]
    pub fn sessions_resident(&self) -> u64 {
        self.sessions.saturating_sub(self.sessions_evicted)
    }

    /// Mean bursts per executed request (0 when no request has run).
    #[must_use]
    pub fn bursts_per_request(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.bursts as f64 / self.requests as f64
        }
    }

    /// Mean lane-group chains per packed kernel dispatch (0 before the
    /// first dispatch) — how full the cross-session packing keeps the
    /// kernel sweeps.
    #[must_use]
    pub fn lane_occupancy(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.dispatch_chains as f64 / self.dispatches as f64
        }
    }

    /// Fraction of dispatches whose chain count reached the selected
    /// kernel's lane width (0 before the first dispatch).
    #[must_use]
    pub fn full_dispatch_fraction(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.full_dispatches as f64 / self.dispatches as f64
        }
    }

    /// Writes the shard object: the per-shard rows, then the `latency`
    /// block.
    fn write_json(&self, out: &mut String) {
        out.push('{');
        write_json_members(
            out,
            METRICS
                .iter()
                .filter_map(|metric| Some((metric, metric.source.shard_value(self)?))),
        );
        out.push_str(",\"latency\":{");
        for (index, (name, stats)) in self.latency.stages().into_iter().enumerate() {
            let comma = if index > 0 { "," } else { "" };
            let (count, mean) = (stats.count, stats.mean_ns());
            write!(
                out,
                "{comma}\"{name}\":{{\"count\":{count},\"mean_ns\":{mean}"
            )
            .expect(WRITE);
            for (quantile, key, _) in QUANTILES {
                write!(out, ",\"{key}\":{}", stats.percentile_ns(quantile)).expect(WRITE);
            }
            out.push('}');
        }
        out.push_str("}}");
    }
}

/// Writes `rows` as `"key":value` members of the JSON object `out` is
/// inside, wrapping each run of rows that share a non-empty block in a
/// `,"block":{...}` member. Only a leading `""` row is written without a
/// comma, as the object's first member.
fn write_json_members<'a>(out: &mut String, rows: impl Iterator<Item = (&'a Metric, Num)>) {
    let (mut open, mut comma) = ("", "");
    for (metric, value) in rows {
        if metric.block != open {
            let close = if open.is_empty() { "" } else { "}" };
            write!(out, "{close},\"{}\":{{", metric.block).expect(WRITE);
            (open, comma) = (metric.block, "");
        }
        let key = metric.key;
        match value {
            Num::Flag(value) => write!(out, "{comma}\"{key}\":{value}"),
            Num::Int(_) | Num::Float(_) => write!(out, "{comma}\"{key}\":{value}"),
        }
        .expect(WRITE);
        comma = ",";
    }
    if !open.is_empty() {
        out.push('}');
    }
}

/// Writes a Prometheus family's `# HELP` and `# TYPE` lines.
fn write_family(out: &mut String, family: &str, kind: &str, help: &str) {
    writeln!(out, "# HELP {family} {help}\n# TYPE {family} {kind}").expect(WRITE);
}

/// The counters of every shard of one engine.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Vec<ShardMetrics>,
}

impl MetricsRegistry {
    /// Creates a registry with `shards` zeroed counter sets.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        MetricsRegistry {
            shards: (0..shards).map(|_| ShardMetrics::default()).collect(),
        }
    }

    /// The counters of one shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn shard(&self, shard: usize) -> &ShardMetrics {
        &self.shards[shard]
    }

    /// Number of shards in the registry.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Copies every shard's counters into an owned snapshot. The
    /// plan-cache block starts zeroed; the engine overwrites it with the
    /// live [`PlanCacheStats`] when it snapshots.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            per_shard: self.shards.iter().map(ShardMetrics::snapshot).collect(),
            plan_cache: PlanCacheStats::default(),
            connections: ConnectionsSnapshot::default(),
            durability: SnapshotStatus::default(),
            kernel: dbi_core::simd::selected_kernel().name(),
            forced_scalar: dbi_core::simd::forced_scalar(),
            cpu_features: dbi_core::simd::cpu_features(),
        }
    }
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// One snapshot per shard, in shard order.
    pub per_shard: Vec<ShardSnapshot>,
    /// Counters of the engine's shared plan cache.
    pub plan_cache: PlanCacheStats,
    /// Counters of the connection plane fronting the engine; all zeros
    /// when no TCP server is attached (the registry itself has no
    /// connection counters — the server stamps the live block in when it
    /// serves a metrics request).
    pub connections: ConnectionsSnapshot,
    /// State of the durable session plane, mirroring the
    /// [`SnapshotStatus`] admin response; all zeros with
    /// `configured: false` when the engine was started without a persist
    /// directory (the registry itself holds no durability state — the
    /// engine stamps the live block in when it snapshots).
    pub durability: SnapshotStatus,
    /// The slab kernel tier every worker's batched path dispatches to
    /// ([`dbi_core::simd::selected_kernel`]) — `"scalar"` when pinned by
    /// `DBI_FORCE_SCALAR`.
    pub kernel: &'static str,
    /// Whether `DBI_FORCE_SCALAR` pinned dispatch to the scalar tier.
    pub forced_scalar: bool,
    /// The CPU features detected at startup, comma-joined.
    pub cpu_features: &'static str,
}

impl MetricsSnapshot {
    /// The shards folded into one: counts and rates sum, histograms add
    /// bucket by bucket, and derived values (occupancy, percentiles)
    /// follow from the folded counts.
    #[must_use]
    pub fn totals(&self) -> ShardSnapshot {
        let mut total = ShardSnapshot::default();
        for shard in &self.per_shard {
            total.add(shard);
        }
        total
    }

    /// The kernel block's fields as `(name, value, is a JSON string)`.
    fn kernel_fields(&self) -> [(&'static str, &'static str, bool); 3] {
        let forced_scalar = if self.forced_scalar { "true" } else { "false" };
        [
            ("selected", self.kernel, true),
            ("forced_scalar", forced_scalar, false),
            ("cpu_features", self.cpu_features, true),
        ]
    }

    /// Serialises the snapshot as a single-line JSON object:
    /// `{"shards":[{...},...],"totals":{...},"plan_cache":{...},"connections":{...},"durability":{...},"kernel":{...}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024 * (self.per_shard.len() + 2));
        out.push_str("{\"shards\":[");
        for (index, shard) in self.per_shard.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            shard.write_json(&mut out);
        }
        out.push_str("],\"totals\":");
        self.totals().write_json(&mut out);
        write_json_members(
            &mut out,
            METRICS
                .iter()
                .filter_map(|metric| Some((metric, metric.source.global_value(self)?))),
        );
        out.push_str(",\"kernel\":{");
        for (index, (name, value, string)) in self.kernel_fields().into_iter().enumerate() {
            let comma = if index > 0 { "," } else { "" };
            let quote = if string { "\"" } else { "" };
            write!(out, "{comma}\"{name}\":{quote}{value}{quote}").expect(WRITE);
        }
        out.push_str("}}");
        out
    }

    /// Renders the snapshot in Prometheus text exposition format: one
    /// `{shard="i"}`-labelled series per per-shard row (scrapers sum
    /// shards themselves), a `dbi_stage_latency_nanoseconds` summary with
    /// `{shard,stage,quantile}` labels plus `_sum`/`_count`, one
    /// unlabelled series per engine-global row, and a `dbi_kernel_info`
    /// gauge carrying the kernel block as labels.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024 + 2048 * self.per_shard.len());
        for metric in METRICS.iter().filter(|metric| metric.source.per_shard()) {
            let family = metric.family;
            write_family(&mut out, family, metric.kind, metric.help);
            for (shard, snapshot) in self.per_shard.iter().enumerate() {
                if let Some(value) = metric.source.shard_value(snapshot) {
                    writeln!(out, "{family}{{shard=\"{shard}\"}} {value}").expect(WRITE);
                }
            }
        }
        let name = "dbi_stage_latency_nanoseconds";
        write_family(&mut out, name, "summary", "Per-stage request latency.");
        for (shard, snapshot) in self.per_shard.iter().enumerate() {
            for (stage, stats) in snapshot.latency.stages() {
                let labels = format!("shard=\"{shard}\",stage=\"{stage}\"");
                for (quantile, _, label) in QUANTILES {
                    let value = stats.percentile_ns(quantile);
                    writeln!(out, "{name}{{{labels},quantile=\"{label}\"}} {value}").expect(WRITE);
                }
                writeln!(out, "{name}_sum{{{labels}}} {}", stats.sum_ns).expect(WRITE);
                writeln!(out, "{name}_count{{{labels}}} {}", stats.count).expect(WRITE);
            }
        }
        for metric in METRICS {
            if let Some(value) = metric.source.global_value(self) {
                write_family(&mut out, metric.family, metric.kind, metric.help);
                writeln!(out, "{} {value}", metric.family).expect(WRITE);
            }
        }
        let name = "dbi_kernel_info";
        let help = "Selected slab kernel tier and detected CPU features.";
        write_family(&mut out, name, GAUGE, help);
        out.push_str(name);
        for (index, (label, value, _)) in self.kernel_fields().into_iter().enumerate() {
            let open = if index > 0 { "," } else { "{" };
            write!(out, "{open}{label}=\"{value}\"").expect(WRITE);
        }
        out.push_str("} 1\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_total() {
        let registry = MetricsRegistry::new(2);
        registry.shard(0).record_request(32, 4, 10);
        registry.shard(0).record_request(32, 4, 6);
        registry.shard(1).record_reject();
        registry.shard(1).session_created();
        registry.shard(1).enqueue();

        let snapshot = registry.snapshot();
        assert_eq!(snapshot.per_shard[0].requests, 2);
        assert_eq!(snapshot.per_shard[0].bytes, 64);
        assert_eq!(snapshot.per_shard[0].transitions_saved, 16);
        assert_eq!(snapshot.per_shard[1].rejected, 1);
        assert_eq!(snapshot.per_shard[1].queue_depth, 1);
        registry.shard(1).dequeue();
        assert_eq!(registry.snapshot().per_shard[1].queue_depth, 0);

        let totals = snapshot.totals();
        assert_eq!(totals.requests, 2);
        assert_eq!(totals.rejected, 1);
        assert_eq!(totals.sessions, 1);
    }

    #[test]
    fn batch_counters_histogram_and_percentiles() {
        let metrics = ShardMetrics::default();
        metrics.record_pass(0, 0); // all-error pass lands in bucket 0
        for _ in 0..98 {
            metrics.record_pass(64, 1); // bucket 6
        }
        metrics.record_pass(70_000, 3); // beyond the last bucket boundary
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.passes, 100);
        assert_eq!(snapshot.coalesced, 101);
        assert_eq!(snapshot.batch_hist[0], 1);
        assert_eq!(snapshot.batch_hist[6], 98);
        assert_eq!(snapshot.batch_hist[BATCH_BUCKETS - 1], 1);
        // Interpolated within the [64, 128) bucket: p50's rank 50 sits
        // halfway through its 98 samples (after the 1 fast pass), p99's
        // rank 99 right at its end.
        assert_eq!(snapshot.batch_size_percentile(0.50), 96);
        assert_eq!(snapshot.batch_size_percentile(0.99), 128);
        assert_eq!(
            snapshot.batch_size_percentile(1.0),
            1 << (BATCH_BUCKETS - 1)
        );
        assert_eq!(ShardSnapshot::default().batch_size_percentile(0.5), 0);
        assert_eq!(ShardSnapshot::default().bursts_per_request(), 0.0);

        // Totals fold the histograms elementwise.
        let registry = MetricsRegistry::new(2);
        registry.shard(0).record_pass(8, 0);
        registry.shard(1).record_pass(8, 2);
        let totals = registry.snapshot().totals();
        assert_eq!(totals.passes, 2);
        assert_eq!(totals.coalesced, 2);
        assert_eq!(totals.batch_hist[3], 2);
    }

    #[test]
    fn batch_percentiles_interpolate_at_bucket_boundaries() {
        // One pass of 255 bursts lands in [128, 256): its p50 is the
        // bucket midpoint 192, not the old lower-bound answer of 128.
        let metrics = ShardMetrics::default();
        metrics.record_pass(255, 0);
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.batch_size_percentile(0.50), 192);
        // p0 reports the bucket floor, p100 its upper bound.
        assert_eq!(snapshot.batch_size_percentile(0.0), 128);
        assert_eq!(snapshot.batch_size_percentile(1.0), 256);

        // 256 crosses into the next bucket.
        let metrics = ShardMetrics::default();
        metrics.record_pass(256, 0);
        assert_eq!(metrics.snapshot().batch_size_percentile(0.50), 384);
    }

    #[test]
    fn verify_counters_accumulate_and_serialise() {
        let registry = MetricsRegistry::new(2);
        registry.shard(0).record_verify(true);
        registry.shard(0).record_verify(true);
        registry.shard(1).record_verify(false);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.per_shard[0].verified, 2);
        assert_eq!(snapshot.per_shard[0].verify_failures, 0);
        assert_eq!(snapshot.per_shard[1].verified, 1);
        assert_eq!(snapshot.per_shard[1].verify_failures, 1);
        let totals = snapshot.totals();
        assert_eq!((totals.verified, totals.verify_failures), (3, 1));
        assert!(snapshot
            .to_json()
            .contains("\"verify\":{\"requests\":1,\"failures\":1}"));
    }

    #[test]
    fn json_snapshot_has_the_documented_shape() {
        let registry = MetricsRegistry::new(1);
        registry.shard(0).record_request(8, 1, 2);
        let mut snapshot = registry.snapshot();
        snapshot.plan_cache = PlanCacheStats {
            hits: 5,
            misses: 2,
            evictions: 1,
            entries: 2,
        };
        let json = snapshot.to_json();
        assert!(json.starts_with("{\"shards\":[{"));
        assert!(json.contains("\"requests\":1"));
        assert!(json.contains("\"transitions_saved\":2"));
        assert!(json.contains("\"batch\":{\"passes\":0,\"coalesced\":0"));
        assert!(json.contains("\"bursts_per_request\":1}"));
        assert!(json.contains("\"verify\":{\"requests\":0,\"failures\":0}"));
        assert!(json.contains("\"queue_depth_peak\":0"));
        assert!(json.contains("\"rate\":{\"requests_per_s\":"));
        assert!(json.contains("\"window_s\":8}"));
        assert!(json.ends_with('}'));
        assert!(json.contains("\"totals\":{"));
        assert!(
            json.contains("\"plan_cache\":{\"hits\":5,\"misses\":2,\"evictions\":1,\"entries\":2}")
        );
        // A registry snapshot has no connection plane or persist plane
        // attached, so both blocks are present but zeroed, sitting between
        // plan_cache and kernel.
        assert!(json.contains(
            ",\"connections\":{\"active\":0,\"accepted\":0,\"closed\":0,\
             \"dropped_slow\":0,\"read_buf_high_watermark\":0,\
             \"write_buf_high_watermark\":0,\"wakeups\":0,\"reads\":0,\
             \"writes\":0,\"frames_in\":0,\"frames_out\":0},\
             \"durability\":{\"configured\":false,\"generation\":0,\
             \"snapshots_taken\":0,\"last_sessions\":0,\"last_bytes\":0,\
             \"restored_sessions\":0},\"kernel\":{"
        ));
        assert!(json.contains("\"sessions_evicted\":0"));
        assert!(json.contains("\"journal\":{\"records\":0,\"bytes\":0}"));
        // Exactly one shard object plus the totals object, each with a
        // top-level and a verify-block "requests" key.
        assert_eq!(json.matches("\"requests\":").count(), 4);
        // Per object: the verify counter block plus the verify latency
        // stage.
        assert_eq!(json.matches("\"verify\":").count(), 4);
        assert_eq!(json.matches("\"latency\":{\"queue_wait\":{").count(), 2);
    }

    /// Builds a fully hand-specified snapshot so the golden strings below
    /// are deterministic (live snapshots carry wall-clock rates).
    fn golden_snapshot() -> MetricsSnapshot {
        let mut total_buckets = [0u64; crate::telemetry::LATENCY_BUCKETS];
        total_buckets[9] = 1; // one 700 ns sample in [512, 1024)
        let total = LatencyStats {
            buckets: total_buckets,
            count: 1,
            sum_ns: 700,
        };
        let mut batch_hist = [0u64; BATCH_BUCKETS];
        batch_hist[1] = 2; // two passes in [2, 4) bursts
        let shard = ShardSnapshot {
            requests: 3,
            rejected: 1,
            bytes: 96,
            bursts: 6,
            transitions_saved: 12,
            queue_depth: 1,
            queue_depth_peak: 4,
            sessions: 2,
            sessions_evicted: 1,
            journal_records: 5,
            journal_bytes: 240,
            passes: 2,
            coalesced: 1,
            dispatches: 2,
            dispatch_chains: 7,
            full_dispatches: 1,
            batch_hist,
            verified: 1,
            verify_failures: 0,
            requests_per_s: 2.5,
            rejects_per_s: 0.5,
            latency: StageLatency {
                total,
                ..StageLatency::default()
            },
        };
        MetricsSnapshot {
            per_shard: vec![shard],
            plan_cache: PlanCacheStats {
                hits: 4,
                misses: 2,
                evictions: 1,
                entries: 1,
            },
            connections: ConnectionsSnapshot {
                active: 1,
                accepted: 3,
                closed: 2,
                dropped_slow: 1,
                read_buf_high_watermark: 4096,
                write_buf_high_watermark: 65536,
                wakeups: 40,
                reads: 30,
                writes: 20,
                frames_in: 50,
                frames_out: 60,
            },
            durability: SnapshotStatus {
                configured: true,
                generation: 3,
                snapshots_taken: 2,
                last_sessions: 2,
                last_bytes: 120,
                restored_sessions: 1,
            },
            kernel: "scalar",
            forced_scalar: false,
            cpu_features: "none",
        }
    }

    #[test]
    fn json_golden_string_pins_the_full_key_order() {
        let empty_stage = "{\"count\":0,\"mean_ns\":0,\"p50_ns\":0,\
                           \"p90_ns\":0,\"p99_ns\":0,\"p999_ns\":0}";
        let shard_json = format!(
            "{{\"requests\":3,\"rejected\":1,\"bytes\":96,\"bursts\":6,\
             \"transitions_saved\":12,\"queue_depth\":1,\
             \"queue_depth_peak\":4,\"sessions\":2,\
             \"sessions_evicted\":1,\"sessions_resident\":1,\
             \"journal\":{{\"records\":5,\"bytes\":240}},\
             \"rate\":{{\"requests_per_s\":2.5,\"rejects_per_s\":0.5,\
             \"window_s\":8}},\
             \"batch\":{{\"passes\":2,\"coalesced\":1,\"dispatches\":2,\
             \"dispatch_chains\":7,\"full_dispatches\":1,\
             \"lane_occupancy\":3.5,\"full_dispatch_fraction\":0.5,\
             \"size_p50\":3,\"size_p99\":4,\"bursts_per_request\":2}},\
             \"verify\":{{\"requests\":1,\"failures\":0}},\
             \"latency\":{{\"queue_wait\":{empty_stage},\
             \"encode\":{empty_stage},\"verify\":{empty_stage},\
             \"total\":{{\"count\":1,\"mean_ns\":700,\"p50_ns\":768,\
             \"p90_ns\":973,\"p99_ns\":1019,\"p999_ns\":1023}}}}}}"
        );
        // One shard, so the totals object equals the shard object.
        let expected = format!(
            "{{\"shards\":[{shard_json}],\"totals\":{shard_json},\
             \"plan_cache\":{{\"hits\":4,\"misses\":2,\"evictions\":1,\
             \"entries\":1}},\
             \"connections\":{{\"active\":1,\"accepted\":3,\"closed\":2,\
             \"dropped_slow\":1,\"read_buf_high_watermark\":4096,\
             \"write_buf_high_watermark\":65536,\"wakeups\":40,\
             \"reads\":30,\"writes\":20,\"frames_in\":50,\
             \"frames_out\":60}},\
             \"durability\":{{\"configured\":true,\"generation\":3,\
             \"snapshots_taken\":2,\"last_sessions\":2,\"last_bytes\":120,\
             \"restored_sessions\":1}},\
             \"kernel\":{{\"selected\":\"scalar\",\"forced_scalar\":false,\
             \"cpu_features\":\"none\"}}}}"
        );
        assert_eq!(golden_snapshot().to_json(), expected);
    }

    #[test]
    fn prometheus_exposition_reports_every_block() {
        let text = golden_snapshot().to_prometheus();
        assert!(text.contains("# TYPE dbi_requests_total counter\n"));
        assert!(text.contains("dbi_requests_total{shard=\"0\"} 3\n"));
        assert!(text.contains("dbi_rejected_total{shard=\"0\"} 1\n"));
        assert!(text.contains("# TYPE dbi_queue_depth_peak gauge\n"));
        assert!(text.contains("dbi_queue_depth_peak{shard=\"0\"} 4\n"));
        assert!(text.contains("dbi_requests_per_second{shard=\"0\"} 2.5\n"));
        assert!(text.contains("dbi_rejects_per_second{shard=\"0\"} 0.5\n"));
        assert!(text.contains("# TYPE dbi_stage_latency_nanoseconds summary\n"));
        assert!(text.contains(
            "dbi_stage_latency_nanoseconds{shard=\"0\",stage=\"total\",quantile=\"0.5\"} 768\n"
        ));
        assert!(text.contains(
            "dbi_stage_latency_nanoseconds{shard=\"0\",stage=\"total\",quantile=\"0.999\"} 1023\n"
        ));
        assert!(
            text.contains("dbi_stage_latency_nanoseconds_sum{shard=\"0\",stage=\"total\"} 700\n")
        );
        assert!(
            text.contains("dbi_stage_latency_nanoseconds_count{shard=\"0\",stage=\"total\"} 1\n")
        );
        assert!(text.contains(
            "dbi_stage_latency_nanoseconds{shard=\"0\",stage=\"queue_wait\",quantile=\"0.99\"} 0\n"
        ));
        assert!(text.contains("dbi_plan_cache_hits_total 4\n"));
        assert!(text.contains("dbi_plan_cache_entries 1\n"));
        assert!(text.contains("# TYPE dbi_connections_active gauge\n"));
        assert!(text.contains("dbi_connections_active 1\n"));
        assert!(text.contains("# TYPE dbi_connections_accepted_total counter\n"));
        assert!(text.contains("dbi_connections_accepted_total 3\n"));
        assert!(text.contains("dbi_connections_closed_total 2\n"));
        assert!(text.contains("dbi_connections_dropped_slow_total 1\n"));
        assert!(text.contains("# TYPE dbi_io_wakeups_total counter\n"));
        assert!(text.contains("dbi_io_wakeups_total 40\n"));
        assert!(text.contains("dbi_io_reads_total 30\n"));
        assert!(text.contains("dbi_io_writes_total 20\n"));
        assert!(text.contains("dbi_io_frames_in_total 50\n"));
        assert!(text.contains("dbi_io_frames_out_total 60\n"));
        assert!(text.contains("dbi_connection_read_buf_high_watermark_bytes 4096\n"));
        assert!(text.contains("dbi_connection_write_buf_high_watermark_bytes 65536\n"));
        assert!(text.contains(
            "dbi_kernel_info{selected=\"scalar\",forced_scalar=\"false\",cpu_features=\"none\"} 1\n"
        ));
        assert!(text.contains("# TYPE dbi_batch_dispatches_total counter\n"));
        assert!(text.contains("dbi_batch_dispatches_total{shard=\"0\"} 2\n"));
        assert!(text.contains("dbi_batch_dispatch_chains_total{shard=\"0\"} 7\n"));
        assert!(text.contains("dbi_batch_full_dispatches_total{shard=\"0\"} 1\n"));
        assert!(text.contains("# TYPE dbi_batch_lane_occupancy gauge\n"));
        assert!(text.contains("dbi_batch_lane_occupancy{shard=\"0\"} 3.5\n"));
        assert!(text.contains("dbi_batch_full_dispatch_fraction{shard=\"0\"} 0.5\n"));
        assert!(text.contains("# TYPE dbi_sessions_evicted_total counter\n"));
        assert!(text.contains("dbi_sessions_evicted_total{shard=\"0\"} 1\n"));
        assert!(text.contains("dbi_journal_records_total{shard=\"0\"} 5\n"));
        assert!(text.contains("dbi_journal_bytes_total{shard=\"0\"} 240\n"));
        assert!(text.contains("# TYPE dbi_durability_configured gauge\n"));
        assert!(text.contains("dbi_durability_configured 1\n"));
        assert!(text.contains("dbi_durability_generation 3\n"));
        assert!(text.contains("# TYPE dbi_snapshots_taken_total counter\n"));
        assert!(text.contains("dbi_snapshots_taken_total 2\n"));
        assert!(text.contains("dbi_snapshot_last_sessions 2\n"));
        assert!(text.contains("dbi_snapshot_last_bytes 120\n"));
        assert!(text.contains("dbi_sessions_restored_total 1\n"));
        // Every series of a shard-labelled family appears once per shard.
        assert_eq!(text.matches("dbi_batch_passes_total{shard=").count(), 1);
    }

    #[test]
    fn prometheus_float_gauges_print_at_full_precision() {
        // One full dispatch out of 4, 20 and 300.
        let inputs = [(4, "0.25"), (20, "0.05"), (300, "0.0033333333333333335")];
        for (dispatches, fraction) in inputs {
            let snapshot = MetricsSnapshot {
                per_shard: vec![ShardSnapshot {
                    dispatches,
                    dispatch_chains: 3 * dispatches,
                    full_dispatches: 1,
                    ..ShardSnapshot::default()
                }],
                ..golden_snapshot()
            };
            let text = snapshot.to_prometheus();
            assert!(
                text.contains(&format!(
                    "dbi_batch_full_dispatch_fraction{{shard=\"0\"}} {fraction}\n"
                )),
                "{text}"
            );
            assert!(text.contains("dbi_batch_lane_occupancy{shard=\"0\"} 3\n"));
            // JSON prints the same text.
            assert!(snapshot
                .to_json()
                .contains(&format!("\"full_dispatch_fraction\":{fraction}")));
        }
    }

    /// The JSON text of `block`'s object in the first shard (or, for an
    /// engine-global block, at the top level); `""` is the shard object's
    /// own members before its first nested block.
    fn json_block<'a>(json: &'a str, block: &str) -> &'a str {
        let start = if block.is_empty() {
            json.find("\"shards\":[{").expect("a shard object") + "\"shards\":[{".len()
        } else {
            let opener = format!("\"{block}\":{{");
            json.find(&opener).expect("the block is present") + opener.len()
        };
        let rest = &json[start..];
        &rest[..rest.find(['{', '}']).unwrap_or(rest.len())]
    }

    #[test]
    fn every_table_row_appears_on_both_surfaces() {
        let snapshot = golden_snapshot();
        let json = snapshot.to_json();
        let text = snapshot.to_prometheus();
        let mut families = std::collections::HashSet::new();
        for metric in METRICS {
            assert!(families.insert(metric.family), "{} repeats", metric.family);
            let key = format!("\"{}\":", metric.key);
            assert!(
                json_block(&json, metric.block).contains(&key),
                "{}.{} missing from the JSON",
                metric.block,
                metric.key
            );
            assert!(text.contains(&format!("# TYPE {} {}\n", metric.family, metric.kind)));
            let sample = if metric.source.per_shard() {
                format!("\n{}{{shard=\"0\"}} ", metric.family)
            } else {
                format!("\n{} ", metric.family)
            };
            assert!(text.contains(&sample), "{} has no sample", metric.family);
        }
        // Every family of the exposition, the table's plus the latency
        // summary and the kernel info gauge, has exactly one HELP and one
        // TYPE line.
        let named = |prefix: &str| -> Vec<String> {
            text.lines()
                .filter_map(|line| line.strip_prefix(prefix))
                .map(|rest| rest.split(' ').next().unwrap().to_string())
                .collect()
        };
        let (helps, types) = (named("# HELP "), named("# TYPE "));
        assert_eq!(helps, types);
        assert_eq!(types.len(), METRICS.len() + 2);
        let unique: std::collections::HashSet<&String> = types.iter().collect();
        assert_eq!(unique.len(), types.len(), "a family repeats");
    }

    #[test]
    fn totals_fold_each_rule_across_two_shards() {
        let mut snapshot = golden_snapshot();
        let first = snapshot.per_shard[0];
        let mut second = ShardSnapshot {
            requests: 7,
            bursts: 14,
            queue_depth_peak: 9,
            dispatches: 2,
            dispatch_chains: 1,
            requests_per_s: 1.5,
            rejects_per_s: 0.25,
            ..first
        };
        second.batch_hist[4] = 3;
        second.latency.encode.buckets[5] = 2;
        second.latency.encode.count = 2;
        second.latency.encode.sum_ns = 80;
        snapshot.per_shard.push(second);
        let totals = snapshot.totals();

        // Every stored count sums.
        for metric in METRICS {
            if let Source::Shard { field, fold, .. } = metric.source {
                assert_eq!(fold, Fold::Sum, "{}", metric.family);
                assert_eq!(
                    (field.get)(&totals),
                    (field.get)(&first) + (field.get)(&second)
                );
            }
        }
        assert_eq!(
            (totals.requests, totals.rejected, totals.bytes),
            (10, 2, 192)
        );
        // The queue-depth peak sums too: an upper bound on the peak of
        // total queued work.
        assert_eq!(totals.queue_depth_peak, 13);
        assert_eq!(totals.sessions_evicted, 2);
        assert_eq!((totals.journal_records, totals.journal_bytes), (10, 480));
        // Rates sum.
        assert_eq!((totals.requests_per_s, totals.rejects_per_s), (4.0, 0.75));
        // Histograms add bucket by bucket.
        assert_eq!(totals.batch_hist[1], 4);
        assert_eq!(totals.batch_hist[4], 3);
        for ((_, total), ((_, one), (_, two))) in totals.latency.stages().into_iter().zip(
            first
                .latency
                .stages()
                .into_iter()
                .zip(second.latency.stages()),
        ) {
            for bucket in 0..total.buckets.len() {
                assert_eq!(
                    total.buckets[bucket],
                    one.buckets[bucket] + two.buckets[bucket]
                );
            }
            assert_eq!(total.count, one.count + two.count);
            assert_eq!(total.sum_ns, one.sum_ns + two.sum_ns);
        }
        assert_eq!(totals.latency.total.count, 2);
        assert_eq!(totals.latency.total.sum_ns, 1400);
        // Derived values follow from the folded counts, not from summing
        // the shards' own values.
        assert_eq!(totals.lane_occupancy(), 2.0);
        assert_eq!(totals.bursts_per_request(), 2.0);
        let json = snapshot.to_json();
        let totals_json = &json[json.find("\"totals\":").unwrap()..];
        assert!(totals_json.contains("\"requests\":10,"));
        assert!(totals_json.contains("\"lane_occupancy\":2,"));
    }

    #[test]
    fn publish_sums_io_counts_and_keeps_the_largest_buffer_peak() {
        let metrics = ConnectionMetrics::default();
        metrics.on_accept();
        metrics.on_accept();
        metrics.on_dropped_slow();
        metrics.on_close();
        let mut counters = IoCounters {
            wakeups: 3,
            reads: 2,
            writes: 1,
            frames_in: 4,
            frames_out: 5,
            read_buf_peak: 4096,
            write_buf_peak: 100,
        };
        metrics.publish(&mut counters);
        assert_eq!((counters.wakeups, counters.read_buf_peak), (0, 0));
        metrics.publish(&mut IoCounters {
            wakeups: 1,
            frames_out: 1,
            read_buf_peak: 1024,
            write_buf_peak: 65536,
            ..IoCounters::default()
        });
        let snapshot = metrics.snapshot();
        assert_eq!(
            snapshot,
            ConnectionsSnapshot {
                active: 1,
                accepted: 2,
                closed: 1,
                dropped_slow: 1,
                read_buf_high_watermark: 4096,
                write_buf_high_watermark: 65536,
                wakeups: 4,
                reads: 2,
                writes: 1,
                frames_in: 4,
                frames_out: 6,
            }
        );
    }
}
