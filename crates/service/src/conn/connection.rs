//! One multiplexed connection: buffered nonblocking reads, in-place
//! frame parsing, engine submission with completion routing, and
//! buffered nonblocking writes — the whole state machine one I/O thread
//! drives for each of its connections.
//!
//! A readiness event is serviced whole: read, parse, submit, flush. A
//! completion only frames its reply and marks the connection dirty; the
//! I/O thread flushes each dirty connection once after draining all of
//! its completions ([`Connection::flush_dirty`]), so one wakeup's replies
//! share one `send(2)`. The write buffer always starts on a frame
//! boundary, which lets the slow-consumer notice tell whether the peer
//! last saw a whole frame.
//!
//! Framing errors: a *header*-level violation (bad magic, unsupported
//! version, oversized body) is answered with one `BadRequest` error
//! frame and the connection closes once it flushes — a peer that cannot
//! frame correctly cannot be resynchronised. A well-framed body that
//! fails to decode also gets `BadRequest`, but the frame boundary is
//! intact, so the connection stays open and the next frame is served.

use super::{ConnConfig, SlotPool};
use crate::engine::{Completion, CompletionSink, Engine, Phase, RequestSlot};
use crate::error::ServiceError;
use crate::metrics::{ConnectionMetrics, IoCounters};
use crate::wire::{self, EncodeResponseFrame, ErrorCode, ErrorFrame, Frame, WireError};
use poller::Interest;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Bytes asked of the socket per read call. Reads land in a stack
/// scratch buffer and only the received bytes are appended, so an idle
/// connection's read buffer stays as small as its actual backlog —
/// essential when one thread multiplexes thousands of connections.
const READ_CHUNK: usize = 16 * 1024;

/// Unparsed bytes a connection's read buffer holds before the plane
/// stops reading from its socket (kernel-side backpressure): one maximum
/// frame, so any legal frame can always be buffered whole.
const READ_HIGH_WATERMARK: usize = wire::HEADER_LEN + wire::MAX_BODY_LEN;

/// Flushed-prefix length past which the write buffer is compacted even
/// though unflushed bytes remain, bounding the memmove cost per byte.
const FLUSH_COMPACT_THRESHOLD: usize = 64 * 1024;

/// Why a connection is being torn down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Close {
    /// Normal end: peer hung up, or a protocol violation finished
    /// flushing its error frame.
    Done,
    /// The write backlog stayed past the slow-consumer high-watermark
    /// after a flush: the socket refused the bytes.
    Slow,
    /// The transport failed mid-read or mid-write.
    Error,
}

/// Everything a connection needs from its I/O thread to make progress.
pub(crate) struct IoContext<'a> {
    pub(crate) engine: &'a Engine,
    pub(crate) config: &'a ConnConfig,
    pub(crate) metrics: &'a ConnectionMetrics,
    /// The thread's [`Inbox`](super::Inbox) as a completion sink,
    /// cloned into every submission.
    pub(crate) sink: &'a Arc<dyn CompletionSink>,
    /// Thread-local pool of recycled request slots.
    pub(crate) slot_pool: &'a mut SlotPool,
    /// The thread's counts, published once per loop iteration.
    pub(crate) counters: &'a mut IoCounters,
}

/// One in-flight engine submission of this connection. Its response is
/// framed like the request: the request's optional fields are echoed.
struct Pending {
    slot: Arc<RequestSlot>,
    /// The pipelined request id; `None` for a one-in, one-out request,
    /// which pauses parsing while it is in flight.
    request_id: Option<u64>,
    /// The burst count of a batch request, echoed in its response.
    count: Option<u16>,
    /// The protocol version the request's header announced — failure
    /// responses downgrade v6-only error codes for older peers
    /// ([`ErrorCode::downgrade_for`]).
    version: u8,
}

/// The full state of one multiplexed connection.
pub(crate) struct Connection {
    stream: TcpStream,
    /// The completion token every submission of this connection carries:
    /// `(slab index << 32) | generation`.
    completion_token: u64,
    /// Bytes read off the socket; `[..parsed]` is already consumed.
    read_buf: Vec<u8>,
    parsed: usize,
    /// Bytes queued for the socket; `[..flushed]` is already written.
    /// Always starts on a frame boundary.
    write_buf: Vec<u8>,
    flushed: usize,
    pending: Vec<Pending>,
    /// An id-free encode request (tag 1 or 6, any version) is in
    /// flight: parsing is paused to preserve strict one-in, one-out
    /// response ordering.
    legacy_in_flight: bool,
    /// Mirror of the pause condition, refreshed after every unit of
    /// work, so interest can be computed without a context.
    paused: bool,
    /// The peer closed its write half (clean EOF on our reads).
    read_closed: bool,
    /// A header-level protocol violation was answered; close as soon as
    /// the error frame (and any earlier responses) flush.
    close_after_flush: bool,
    /// Completions queued output that waits for
    /// [`Connection::flush_dirty`]; the I/O thread lists the connection
    /// once, on the clean-to-dirty edge.
    dirty: bool,
    current_interest: Interest,
}

impl Connection {
    pub(crate) fn new(stream: TcpStream, completion_token: u64) -> Connection {
        Connection {
            stream,
            completion_token,
            read_buf: Vec::new(),
            parsed: 0,
            write_buf: Vec::new(),
            flushed: 0,
            pending: Vec::new(),
            legacy_in_flight: false,
            paused: false,
            read_closed: false,
            close_after_flush: false,
            dirty: false,
            current_interest: Interest::READ,
        }
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    pub(crate) fn current_interest(&self) -> Interest {
        self.current_interest
    }

    pub(crate) fn set_current_interest(&mut self, interest: Interest) {
        self.current_interest = interest;
    }

    /// The readiness this connection needs right now: reads unless
    /// paused (backpressure) or finished, writes only while flushing.
    pub(crate) fn desired_interest(&self) -> Interest {
        let read = !self.read_closed && !self.close_after_flush && !self.paused;
        let write = self.flushed < self.write_buf.len();
        match (read, write) {
            (true, true) => Interest::READ_WRITE,
            (true, false) => Interest::READ,
            (false, true) => Interest::WRITE,
            (false, false) => Interest::NONE,
        }
    }

    /// Services one readiness notification.
    pub(crate) fn handle_event(
        &mut self,
        event: poller::Event,
        ctx: &mut IoContext<'_>,
    ) -> Result<(), Close> {
        if event.closed {
            return Err(Close::Done);
        }
        if event.readable && !self.read_closed {
            self.fill_read_buf(ctx)?;
            self.parse_frames(ctx)?;
        }
        self.after_work(ctx)
    }

    /// Services one finished engine submission: frames its response,
    /// then resumes parsing (the completion may have lifted the pause).
    /// Does not flush: the caller marks the connection dirty and runs
    /// [`Connection::flush_dirty`] once its completion drain is done.
    pub(crate) fn handle_completion(
        &mut self,
        slot: &Arc<RequestSlot>,
        ctx: &mut IoContext<'_>,
    ) -> Result<(), Close> {
        let Some(position) = self
            .pending
            .iter()
            .position(|entry| Arc::ptr_eq(&entry.slot, slot))
        else {
            // Not ours (cannot happen while generations are honoured);
            // the caller recycles the slot either way.
            return Ok(());
        };
        let entry = self.pending.remove(position);
        if entry.request_id.is_none() {
            self.legacy_in_flight = false;
        }
        {
            let state = slot.state.lock().expect("slot mutex poisoned");
            debug_assert_eq!(
                state.phase,
                Phase::Done,
                "completion for an unfinished slot"
            );
            match &state.result {
                Ok(bursts) => EncodeResponseFrame {
                    session_id: state.session_id,
                    bursts: *bursts,
                    per_group: &state.per_group,
                    masks: &state.masks,
                }
                .encode_framed_into(
                    &mut self.write_buf,
                    entry.request_id,
                    entry.count,
                ),
                Err(err) => {
                    queue_failure(&mut self.write_buf, entry.request_id, entry.version, err);
                }
            }
        }
        self.note_queued_output(ctx)?;
        self.parse_frames(ctx)
    }

    /// Marks the connection as holding deferred output; true on the
    /// clean-to-dirty edge, when the caller must list it for
    /// [`Connection::flush_dirty`].
    pub(crate) fn mark_dirty(&mut self) -> bool {
        !std::mem::replace(&mut self.dirty, true)
    }

    /// The deferred half of [`Connection::handle_completion`], run once
    /// per dirty connection after a completion drain: one flush for all
    /// the replies framed since, then the pause and close checks.
    pub(crate) fn flush_dirty(&mut self, ctx: &mut IoContext<'_>) -> Result<(), Close> {
        self.dirty = false;
        self.after_work(ctx)
    }

    /// Best-effort slow-consumer notice, sent right before the drop: one
    /// nonblocking write of a typed error frame, made only when the
    /// flushed bytes end on a frame boundary — after a partly sent frame
    /// the notice would splice into it and the peer would parse garbage.
    /// A consumer too slow to drain its responses may miss it either way;
    /// the drop itself is the signal.
    pub(crate) fn send_slow_consumer_notice(&mut self) {
        if last_frame_end(&self.write_buf, self.flushed) != self.flushed {
            return;
        }
        let mut notice = Vec::new();
        ErrorFrame {
            code: ErrorCode::SlowConsumer,
            message: "response backlog crossed the write high-watermark; dropping connection",
        }
        .encode_into(&mut notice);
        let _ = self.stream.write(&notice);
    }

    /// Reads until the socket would block, the peer reaches EOF, or the
    /// unparsed backlog reaches the read high-watermark.
    fn fill_read_buf(&mut self, ctx: &mut IoContext<'_>) -> Result<(), Close> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            if self.read_buf.len() - self.parsed >= READ_HIGH_WATERMARK {
                break;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => {
                    ctx.counters.reads += 1;
                    self.read_buf.extend_from_slice(&chunk[..n]);
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(Close::Error),
            }
        }
        let peak = &mut ctx.counters.read_buf_peak;
        *peak = (*peak).max(self.read_buf.len() as u64);
        Ok(())
    }

    /// Parses and dispatches every complete frame in the read buffer,
    /// stopping at a partial frame or when backpressure pauses the
    /// connection.
    fn parse_frames(&mut self, ctx: &mut IoContext<'_>) -> Result<(), Close> {
        loop {
            if self.close_after_flush || self.is_paused(ctx) {
                break;
            }
            if self.parsed >= self.read_buf.len() {
                break;
            }
            let header = match wire::parse_header(&self.read_buf[self.parsed..]) {
                Ok(header) => header,
                Err(WireError::Truncated { .. }) => break,
                Err(err) => {
                    // Framing violation: answer once, then close after
                    // the flush — resynchronisation is impossible.
                    queue_error(&mut self.write_buf, ErrorCode::BadRequest, &err.to_string());
                    self.close_after_flush = true;
                    self.note_queued_output(ctx)?;
                    break;
                }
            };
            let total = wire::HEADER_LEN + header.body_len;
            if self.read_buf.len() - self.parsed < total {
                break;
            }
            let start = self.parsed;
            self.parsed += total;
            ctx.counters.frames_in += 1;
            let queued = self.write_buf.len();
            // Split borrows: the frame views borrow `read_buf` while the
            // dispatch appends to `write_buf` and grows `pending`.
            let Connection {
                read_buf,
                write_buf,
                pending,
                legacy_in_flight,
                completion_token,
                ..
            } = self;
            match wire::decode_frame(&read_buf[start..start + total]) {
                Ok((frame, _)) => dispatch_frame(
                    frame,
                    header.version,
                    write_buf,
                    pending,
                    legacy_in_flight,
                    *completion_token,
                    ctx,
                ),
                // Body-level decode failure: the frame boundary held, so
                // answer and keep serving the connection.
                Err(err) => queue_error(write_buf, ErrorCode::BadRequest, &err.to_string()),
            }
            // A submitted request queues nothing until it completes.
            if self.write_buf.len() > queued {
                self.note_queued_output(ctx)?;
            }
        }
        if self.parsed > 0 {
            self.read_buf.drain(..self.parsed);
            self.parsed = 0;
        }
        Ok(())
    }

    /// Counts one frame just queued and records the backlog peak. A
    /// backlog past the slow-consumer high-watermark is flushed first;
    /// the connection is dropped only if the socket refuses enough bytes
    /// to bring it back under, never just because its flush was
    /// deferred.
    fn note_queued_output(&mut self, ctx: &mut IoContext<'_>) -> Result<(), Close> {
        ctx.counters.frames_out += 1;
        let outstanding = self.write_buf.len() - self.flushed;
        let peak = &mut ctx.counters.write_buf_peak;
        *peak = (*peak).max(outstanding as u64);
        if outstanding > ctx.config.write_high_watermark {
            self.flush(ctx.counters).map_err(|_| Close::Error)?;
            if self.write_buf.len() - self.flushed > ctx.config.write_high_watermark {
                return Err(Close::Slow);
            }
        }
        Ok(())
    }

    /// Flushes what the socket will take, refreshes the pause mirror and
    /// decides whether the connection is finished.
    fn after_work(&mut self, ctx: &mut IoContext<'_>) -> Result<(), Close> {
        self.flush(ctx.counters).map_err(|_| Close::Error)?;
        self.paused = self.is_paused(ctx);
        let drained = self.flushed == self.write_buf.len();
        if (self.read_closed || self.close_after_flush) && self.pending.is_empty() && drained {
            return Err(Close::Done);
        }
        Ok(())
    }

    fn is_paused(&self, ctx: &IoContext<'_>) -> bool {
        self.legacy_in_flight || self.pending.len() >= ctx.config.max_in_flight
    }

    fn flush(&mut self, counters: &mut IoCounters) -> io::Result<()> {
        while self.flushed < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.flushed..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    counters.writes += 1;
                    self.flushed += n;
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
        if self.flushed == self.write_buf.len() {
            self.write_buf.clear();
            self.flushed = 0;
        } else if self.flushed >= FLUSH_COMPACT_THRESHOLD {
            // Cut at a frame boundary so the buffer keeps starting on one.
            let cut = last_frame_end(&self.write_buf, self.flushed);
            self.write_buf.drain(..cut);
            self.flushed -= cut;
        }
        Ok(())
    }
}

/// The end of the last whole frame within `buf[..upto]`. `buf` starts on
/// a frame boundary and holds only frames this plane framed itself, so
/// every header parses.
fn last_frame_end(buf: &[u8], upto: usize) -> usize {
    let mut end = 0;
    while let Ok(header) = wire::parse_header(&buf[end..]) {
        let next = end + wire::HEADER_LEN + header.body_len;
        if next > upto {
            break;
        }
        end = next;
    }
    end
}

/// Appends a plain error frame.
fn queue_error(write_buf: &mut Vec<u8>, code: ErrorCode, message: &str) {
    ErrorFrame { code, message }.encode_into(write_buf);
}

/// Appends the failure response of one request, echoing its request id
/// if it had one. The code is downgraded for peers whose
/// announced `version` predates it ([`ErrorCode::downgrade_for`]).
fn queue_failure(
    write_buf: &mut Vec<u8>,
    request_id: Option<u64>,
    version: u8,
    err: &ServiceError,
) {
    ErrorFrame {
        code: err.code().downgrade_for(version),
        message: &err.to_string(),
    }
    .encode_framed_into(write_buf, request_id);
}

/// Routes one decoded frame: encode requests into the engine's
/// non-blocking submission path, metrics, telemetry and durability admin
/// requests answered inline, anything else refused. `version` is the
/// request header's announced protocol version, threaded through so
/// failure responses can downgrade v6-only error codes.
fn dispatch_frame(
    frame: Frame<'_>,
    version: u8,
    write_buf: &mut Vec<u8>,
    pending: &mut Vec<Pending>,
    legacy_in_flight: &mut bool,
    completion_token: u64,
    ctx: &mut IoContext<'_>,
) {
    match frame {
        Frame::EncodeRequest {
            request_id,
            count,
            request,
        } => {
            let engine = ctx.engine.inner();
            let slot = ctx.slot_pool.take();
            let completion = Completion {
                sink: Arc::clone(ctx.sink),
                token: completion_token,
            };
            let submitted = match engine.submit_slot(&request, count, Some(completion), &slot) {
                Ok(()) => Ok(slot),
                Err(err) => {
                    ctx.slot_pool.recycle(slot);
                    Err(err)
                }
            };
            // Synchronous failures (validation, backpressure, shutdown)
            // are answered immediately, in the request's own framing.
            match submitted {
                Ok(slot) => {
                    *legacy_in_flight |= request_id.is_none();
                    pending.push(Pending {
                        slot,
                        request_id,
                        count,
                        version,
                    });
                }
                Err(err) => queue_failure(write_buf, request_id, version, &err),
            }
        }
        Frame::MetricsRequest => {
            // The engine snapshot plus this plane's live connection
            // counters — the registry itself cannot see them.
            let mut snapshot = ctx.engine.metrics();
            snapshot.connections = ctx.metrics.snapshot();
            wire::encode_metrics_response(write_buf, &snapshot.to_json());
        }
        Frame::TraceDumpRequest(max_events) => {
            let events = ctx.engine.trace_dump(max_events as usize);
            wire::encode_trace_dump_response(write_buf, &events);
        }
        Frame::SlowlogRequest(max_entries) => {
            let entries = ctx.engine.slowlog(max_entries as usize);
            wire::encode_slowlog_response(write_buf, ctx.engine.slowlog_threshold_ns(), &entries);
        }
        // Durability admin frames (v6): answered inline — a snapshot
        // quiesces every shard anyway, so there is nothing to overlap.
        Frame::SnapshotRequest => match ctx.engine.trigger_snapshot() {
            Ok(status) => status.encode_into(write_buf),
            Err(err) => queue_failure(write_buf, None, version, &err),
        },
        Frame::SnapshotStatusRequest => {
            ctx.engine.snapshot_status().encode_into(write_buf);
        }
        Frame::RestoreRequest => match ctx.engine.restore() {
            Ok(status) => status.encode_into(write_buf),
            Err(err) => queue_failure(write_buf, None, version, &err),
        },
        _ => queue_error(
            write_buf,
            ErrorCode::BadRequest,
            "only encode, metrics, telemetry and durability admin requests are accepted",
        ),
    }
}
