//! The TCP clients: one connection, two surfaces.
//!
//! [`PipelinedClient`] speaks the protocol-5 pipelined form: requests are
//! **submitted** without waiting ([`PipelinedClient::submit`] frames the
//! request into a send queue and returns the auto-assigned request id)
//! and completions are **polled** ([`PipelinedClient::next_completion`] /
//! [`PipelinedClient::try_next_completion`]), matched to submissions by
//! the echoed id rather than by arrival order. The queue is write-behind:
//! it goes out in one write when the client is about to wait for replies,
//! when it would pass 16 KiB, or on [`PipelinedClient::flush`]. Many
//! requests ride one connection concurrently, so a single client can keep
//! every engine shard busy without one thread per outstanding request.
//!
//! [`TcpClient`] is the blocking surface over one private
//! `PipelinedClient`: each call queues one frame, flushes it and waits
//! for its answer, so it never has a request in flight between calls. It
//! exposes the same [`EncodeRequest`]/[`EncodeReply`] types as the
//! in-process [`LocalClient`](crate::LocalClient) — code written against
//! one client works against the other — plus the metrics, telemetry and
//! durability admin calls. Its encode requests travel in the pipelined
//! framings, so it needs a protocol-5 or later service.
//!
//! Both surfaces share one socket, one send queue, one receive buffer and
//! one frame reader. The buffers are owned by the connection and reused,
//! so a steady request loop settles into zero buffer reallocation (the
//! socket itself, of course, still costs syscalls).

use crate::engine::{EncodeBatchRequest, EncodeReply, EncodeRequest};
use crate::error::ClientError;
use crate::telemetry::TraceEvent;
use crate::wire::{self, ErrorCode, ErrorFrame, Frame, SnapshotStatus, HEADER_LEN};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking request–response client over TCP: a facade over one
/// [`PipelinedClient`] that waits for each answer before it returns.
/// Needs a protocol-5 or later service, because its encode requests
/// carry a request id.
#[derive(Debug)]
pub struct TcpClient {
    inner: PipelinedClient,
}

impl TcpClient {
    /// Connects to a service and disables Nagle batching (every call
    /// sends one frame and waits for its answer, so delaying small frames
    /// only adds latency).
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from establishing the connection.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpClient> {
        PipelinedClient::connect(addr).map(|inner| TcpClient { inner })
    }

    /// Executes one encode request over the socket. Results are written
    /// into `reply`, whose buffers are cleared and refilled.
    ///
    /// # Errors
    ///
    /// * [`ClientError::Io`] — the transport failed mid-exchange;
    /// * [`ClientError::Wire`] — the service sent a malformed frame;
    /// * [`ClientError::Remote`] — the service answered with an error
    ///   frame (overload, bad payload, session mismatch, ...);
    /// * [`ClientError::UnexpectedResponse`] — the service answered with
    ///   a frame that is not a response to this request.
    pub fn encode(
        &mut self,
        request: &EncodeRequest<'_>,
        reply: &mut EncodeReply,
    ) -> Result<(), ClientError> {
        self.exchange(request, None, reply)
    }

    /// Executes one **batched** encode request over the socket: a whole
    /// batch of bursts travels as a single batch frame (one header +
    /// contiguous payload) where a per-burst loop would have framed and
    /// round-tripped N times. Results land in `reply` exactly as with
    /// [`TcpClient::encode`]; the reused frame buffers keep the
    /// steady-state zero-reallocation guarantee.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TcpClient::encode`]; a malformed count
    /// field comes back as a remote
    /// [`BadRequest`](crate::wire::ErrorCode::BadRequest).
    pub fn encode_batch(
        &mut self,
        batch: &EncodeBatchRequest<'_>,
        reply: &mut EncodeReply,
    ) -> Result<(), ClientError> {
        self.exchange(&batch.request, Some(batch.count), reply)
    }

    /// The one encode path of both entry points: submits the request in
    /// the framing `count` selects and waits for its completion. A
    /// response must echo the request id, the session id and the count.
    fn exchange(
        &mut self,
        request: &EncodeRequest<'_>,
        count: Option<u16>,
        reply: &mut EncodeReply,
    ) -> Result<(), ClientError> {
        let sent = self.inner.send(request, count)?;
        let echo = (Some(sent), request.session_id, count);
        let done = self.inner.wait_completion(|frame| match frame {
            Frame::EncodeResponse {
                request_id,
                response,
            } if (request_id, response.session_id, response.count) != echo => {
                Err(ClientError::UnexpectedResponse)
            }
            frame => completion(frame, reply),
        })?;
        match done.error {
            _ if done.request_id != sent => Err(ClientError::UnexpectedResponse),
            None => Ok(()),
            Some((code, message)) => Err(ClientError::Remote { code, message }),
        }
    }

    /// Fetches the service's metrics snapshot as JSON.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TcpClient::encode`].
    pub fn metrics_json(&mut self) -> Result<String, ClientError> {
        self.inner
            .admin(wire::encode_metrics_request, |frame| match frame {
                Frame::MetricsResponse(json) => Some(json.to_owned()),
                _ => None,
            })
    }

    /// Drains the service's recent trace events — up to `max_events` per
    /// shard, merged into one timeline ordered by enqueue time (protocol
    /// 4's `TraceDump` frame).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TcpClient::metrics_json`].
    pub fn trace_dump(&mut self, max_events: u32) -> Result<Vec<TraceEvent>, ClientError> {
        self.inner.admin(
            |out| wire::encode_trace_dump_request(out, max_events),
            |frame| match frame {
                Frame::TraceDumpResponse(view) => Some(view.events().collect()),
                _ => None,
            },
        )
    }

    /// Fetches the service's most recent slow requests (protocol 4's
    /// `SlowlogQuery` frame). Returns the service's capture threshold in
    /// nanoseconds alongside up to `max_entries` captures, newest last.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TcpClient::metrics_json`].
    pub fn slowlog(&mut self, max_entries: u32) -> Result<(u64, Vec<TraceEvent>), ClientError> {
        self.inner.admin(
            |out| wire::encode_slowlog_request(out, max_entries),
            |frame| match frame {
                Frame::SlowlogResponse(view) => Some((view.threshold_ns, view.entries().collect())),
                _ => None,
            },
        )
    }

    /// Asks the service to take a durable snapshot now (protocol 6's
    /// snapshot admin frame): every shard's sessions are captured and
    /// written to the persist directory, and the journals rotate to a
    /// fresh generation. Returns the durability status after the
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TcpClient::metrics_json`]; additionally
    /// the service answers `BadRequest` when it was started without a
    /// persist directory, and `Internal` when writing the snapshot
    /// failed.
    pub fn trigger_snapshot(&mut self) -> Result<SnapshotStatus, ClientError> {
        self.status_call(wire::encode_snapshot_request)
    }

    /// Fetches the service's durability status (protocol 6's
    /// snapshot-status admin frame). Always answered — `configured` is
    /// `false` when the service runs without a persist directory.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TcpClient::metrics_json`].
    pub fn snapshot_status(&mut self) -> Result<SnapshotStatus, ClientError> {
        self.status_call(wire::encode_snapshot_status_request)
    }

    /// Asks the service to reload session state from its persist
    /// directory (protocol 6's restore admin frame), replacing any live
    /// session that shares an id with a restored one. Returns the
    /// durability status after the restore.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TcpClient::trigger_snapshot`].
    pub fn restore(&mut self) -> Result<SnapshotStatus, ClientError> {
        self.status_call(wire::encode_restore_request)
    }

    /// Shared exchange of the three durability admin requests: sends the
    /// frame `write` stages, expects a snapshot-status response.
    fn status_call(&mut self, write: fn(&mut Vec<u8>)) -> Result<SnapshotStatus, ClientError> {
        self.inner.admin(write, |frame| match frame {
            Frame::SnapshotStatus(status) => Some(status),
            _ => None,
        })
    }
}

/// One finished pipelined exchange, handed out by
/// [`PipelinedClient::next_completion`] /
/// [`PipelinedClient::try_next_completion`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelinedCompletion {
    /// The id [`PipelinedClient::submit`] returned for this request.
    pub request_id: u64,
    /// `None` when the request succeeded (the poll call filled its
    /// reply); the service's typed error otherwise.
    pub error: Option<(ErrorCode, String)>,
}

impl PipelinedCompletion {
    /// Whether the request succeeded.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Bytes asked of the socket per read while polling for completions.
/// Reads land in a stack scratch buffer and only the received bytes are
/// appended, so the client's receive buffer stays as small as its actual
/// backlog — a soak harness can hold thousands of these clients.
const RECV_CHUNK: usize = 16 * 1024;

/// The most bytes [`PipelinedClient`] queues before a submission writes
/// them out: a frame that would take the queue past it flushes the queue
/// first. One receive chunk, so a flushed queue fits one server read.
const SEND_BOUND: usize = RECV_CHUNK;

/// A pipelined (protocol version 5) client over TCP: submit many, poll
/// completions by request id.
///
/// Responses to different sessions may complete **out of order** — the
/// engine's shards run independently — while responses within one
/// session stay FIFO (sticky sharding orders same-session work). Code
/// must therefore match completions to submissions by
/// [`PipelinedCompletion::request_id`], never by arrival order.
///
/// Submissions are **write-behind**: [`PipelinedClient::submit`] only
/// frames the request into the connection's send queue, and the queue
/// leaves in one blocking write at these points:
///
/// * at the start of [`PipelinedClient::next_completion`], before it
///   blocks on the socket;
/// * at the start of [`PipelinedClient::try_next_completion`], when no
///   whole reply is buffered yet;
/// * inside a submission whose frame would take the queue past 16 KiB
///   (a larger frame is queued alone and leaves at the next point);
/// * on [`PipelinedClient::flush`].
///
/// Every call that waits on the service flushes first, so a caller that
/// submits and then polls one client never deadlocks on its own queue.
/// A caller that submits on many clients before blocking on one should
/// [`flush`](PipelinedClient::flush) each, or the others' requests sit
/// unsent until their own next poll. A write error surfaces from
/// whichever of those calls flushed — possibly a later `submit` or a
/// poll, not the `submit` that queued the bytes — and drops the queue:
/// the connection is then unusable. Dropping the client does **not**
/// flush; queued requests are discarded with the connection.
#[derive(Debug)]
pub struct PipelinedClient {
    stream: TcpStream,
    out_buf: Vec<u8>,
    recv_buf: Vec<u8>,
    parsed: usize,
    next_id: u64,
    in_flight: usize,
}

impl PipelinedClient {
    /// Connects to a service, reserves the send queue's 16 KiB once, and
    /// disables Nagle batching: the client already batches — each flush
    /// hands the queue to the kernel in one write — so Nagle would only
    /// hold back the tail of a flush until the service's ACK.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from establishing the connection.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<PipelinedClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(PipelinedClient {
            stream,
            out_buf: Vec::with_capacity(SEND_BOUND),
            recv_buf: Vec::new(),
            parsed: 0,
            next_id: 0,
            in_flight: 0,
        })
    }

    /// Queues one encode request without waiting for its response;
    /// returns the auto-assigned request id its completion will echo.
    ///
    /// The request is only framed into the send queue; it reaches the
    /// service at the next flush point (see the [type docs](Self)). Only
    /// a submission whose frame would take the queue past 16 KiB writes,
    /// and that write is blocking: if the socket's send buffer is full
    /// (the service applies backpressure by pausing its reads once this
    /// connection has [`ConnConfig::max_in_flight`] requests in flight),
    /// `submit` waits until the queue is fully handed to the kernel.
    ///
    /// [`ConnConfig::max_in_flight`]: crate::ConnConfig::max_in_flight
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] — flushing the queue failed; the error may
    /// belong to bytes earlier submissions queued.
    pub fn submit(&mut self, request: &EncodeRequest<'_>) -> Result<u64, ClientError> {
        self.send(request, None)
    }

    /// Queues one **batched** encode request without waiting; returns
    /// the auto-assigned request id. Same semantics as
    /// [`PipelinedClient::submit`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`PipelinedClient::submit`].
    pub fn submit_batch(&mut self, batch: &EncodeBatchRequest<'_>) -> Result<u64, ClientError> {
        self.send(&batch.request, Some(batch.count))
    }

    /// The one encode path of every entry point: queues the request
    /// behind the next request id, in the framing `count` selects,
    /// flushing first when the frame would take the queue past
    /// `SEND_BOUND`.
    fn send(
        &mut self,
        request: &EncodeRequest<'_>,
        count: Option<u16>,
    ) -> Result<u64, ClientError> {
        // At most the count field's bytes over the exact frame length.
        let frame_len = HEADER_LEN
            + wire::MAX_FRAMING_WIRE_BYTES
            + wire::REQUEST_HEAD_LEN
            + request.payload.len();
        if self.out_buf.len() + frame_len > SEND_BOUND {
            self.flush()?;
        }
        let request_id = self.next_id;
        request.encode_framed_into(&mut self.out_buf, Some(request_id), count);
        self.next_id = self.next_id.wrapping_add(1);
        self.in_flight += 1;
        Ok(request_id)
    }

    /// The one admin exchange (metrics, telemetry, durability): queues
    /// the frame `write` stages, flushes, and hands the next frame to
    /// `read`. An id-free error frame becomes [`ClientError::Remote`]; a
    /// frame `read` declines is [`ClientError::UnexpectedResponse`]. Only
    /// [`TcpClient`] calls it, with no encode request in flight, so the
    /// next frame is the answer.
    fn admin<T>(
        &mut self,
        write: impl FnOnce(&mut Vec<u8>),
        read: impl Fn(Frame<'_>) -> Option<T>,
    ) -> Result<T, ClientError> {
        write(&mut self.out_buf);
        self.next_frame(|frame| match frame {
            Frame::Error {
                request_id: None,
                error,
            } => Err(remote_error(&error)),
            frame => read(frame).ok_or(ClientError::UnexpectedResponse),
        })
    }

    /// Writes every queued submission to the socket in one blocking
    /// write. A no-op when nothing is queued. Callers that submit on
    /// several clients before blocking on one of them flush each, so all
    /// their requests reach the service together.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] — the transport failed mid-write. The queue is
    /// dropped either way; after an error the connection is unusable.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        if self.out_buf.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.out_buf);
        self.out_buf.clear();
        Ok(written?)
    }

    /// How many submitted requests have not yet been completed, queued
    /// ones included.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Flushes the send queue, then blocks until the next completion
    /// arrives (in the service's order, which across sessions need not be
    /// submission order). On success `reply` holds the response's
    /// results; on a per-request failure the returned completion carries
    /// the typed error and `reply` is untouched.
    ///
    /// # Errors
    ///
    /// * [`ClientError::Io`] — the transport failed (the flush included),
    ///   or the service closed the connection with requests still in
    ///   flight (e.g. a slow-consumer drop);
    /// * [`ClientError::Wire`] — the service sent a malformed frame;
    /// * [`ClientError::Remote`] — the service answered with a
    ///   *connection-level* error frame (protocol violation);
    /// * [`ClientError::UnexpectedResponse`] — the service sent a frame
    ///   that is not a pipelined completion.
    pub fn next_completion(
        &mut self,
        reply: &mut EncodeReply,
    ) -> Result<PipelinedCompletion, ClientError> {
        self.wait_completion(|frame| completion(frame, reply))
    }

    /// [`PipelinedClient::next_completion`] without blocking on replies:
    /// when no whole reply is buffered, flushes the send queue, drains
    /// whatever the socket has ready and returns `Ok(None)` when no
    /// complete response frame has arrived yet.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`PipelinedClient::next_completion`].
    pub fn try_next_completion(
        &mut self,
        reply: &mut EncodeReply,
    ) -> Result<Option<PipelinedCompletion>, ClientError> {
        let mut done = self.take_frame(|frame| completion(frame, reply))?;
        if done.is_none() {
            self.flush()?;
            self.stream.set_nonblocking(true)?;
            let drained = self.drain_ready();
            self.stream.set_nonblocking(false)?;
            drained?;
            done = self.take_frame(|frame| completion(frame, reply))?;
        }
        if done.is_some() {
            self.in_flight = self.in_flight.saturating_sub(1);
        }
        Ok(done)
    }

    /// The blocking wait of both clients: the next frame, which `read`
    /// turns into a completion, retires one request in flight.
    fn wait_completion(
        &mut self,
        read: impl FnMut(Frame<'_>) -> Result<PipelinedCompletion, ClientError>,
    ) -> Result<PipelinedCompletion, ClientError> {
        let done = self.next_frame(read)?;
        self.in_flight = self.in_flight.saturating_sub(1);
        Ok(done)
    }

    /// Flushes the send queue, then reads the socket until a whole frame
    /// is buffered and hands it to `read`.
    fn next_frame<T>(
        &mut self,
        mut read: impl FnMut(Frame<'_>) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        self.flush()?;
        loop {
            if let Some(value) = self.take_frame(&mut read)? {
                return Ok(value);
            }
            if !self.read_some()? {
                return Err(closed_early().into());
            }
        }
    }

    /// Reads until the socket would block.
    fn drain_ready(&mut self) -> Result<(), ClientError> {
        loop {
            match self.read_some() {
                Ok(true) => {}
                Ok(false) => return Err(closed_early().into()),
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(err) => return Err(err.into()),
            }
        }
    }

    /// One socket read appended to the receive buffer, after dropping the
    /// prefix [`take_frame`](Self::take_frame) has consumed — so the
    /// buffer holds at most one partial frame plus what the reads since
    /// the last parse returned. Growth is exact, not doubling, so a
    /// blocking read loop never takes the capacity past one chunk plus a
    /// partial frame. Returns `Ok(false)` at end of stream; retries
    /// interrupted reads.
    fn read_some(&mut self) -> io::Result<bool> {
        if self.parsed > 0 {
            self.recv_buf.drain(..self.parsed);
            self.parsed = 0;
        }
        let mut chunk = [0u8; RECV_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.recv_buf.reserve_exact(n);
                    self.recv_buf.extend_from_slice(&chunk[..n]);
                    return Ok(true);
                }
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
    }

    /// The one frame reader: consumes the next whole frame of the receive
    /// buffer and hands it to `read`, decoded; `Ok(None)` when no whole
    /// frame is buffered yet. The header is validated first, so a bad
    /// magic, version or length field ([`wire::MAX_BODY_LEN`]) is
    /// rejected before the body is waited for, let alone buffered. A
    /// whole frame is consumed even when it fails to decode or `read`
    /// refuses it, so the next call starts on the next frame.
    fn take_frame<T>(
        &mut self,
        read: impl FnOnce(Frame<'_>) -> Result<T, ClientError>,
    ) -> Result<Option<T>, ClientError> {
        let avail = &self.recv_buf[self.parsed..];
        let header = match wire::parse_header(avail) {
            Ok(header) => header,
            Err(wire::WireError::Truncated { .. }) => return Ok(None),
            Err(err) => return Err(err.into()),
        };
        let total = HEADER_LEN + header.body_len;
        if avail.len() < total {
            return Ok(None);
        }
        self.parsed += total;
        read(wire::decode_frame(&avail[..total])?.0).map(Some)
    }
}

/// Decodes one pipelined completion, refilling `reply` from a success
/// response's record streams (reusing its capacity). An id-free error
/// frame is a connection-level [`ClientError::Remote`].
fn completion(
    frame: Frame<'_>,
    reply: &mut EncodeReply,
) -> Result<PipelinedCompletion, ClientError> {
    let (request_id, error) = match frame {
        Frame::EncodeResponse {
            request_id: Some(request_id),
            response,
        } => {
            reply.bursts = response.bursts;
            reply.per_group.clear();
            reply.per_group.extend(response.per_group());
            reply.masks.clear();
            reply.masks.extend(response.masks());
            (request_id, None)
        }
        Frame::Error {
            request_id: Some(request_id),
            error,
        } => (request_id, Some((error.code, error.message.to_owned()))),
        Frame::Error {
            request_id: None,
            error,
        } => return Err(remote_error(&error)),
        _ => return Err(ClientError::UnexpectedResponse),
    };
    Ok(PipelinedCompletion { request_id, error })
}

/// Lifts a decoded error frame into the owned client error.
fn remote_error(error: &ErrorFrame<'_>) -> ClientError {
    ClientError::Remote {
        code: error.code,
        message: error.message.to_owned(),
    }
}

fn closed_early() -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "the service closed the connection before answering",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{EncodeResponseFrame, PipelinedResponseFrame, WireError};
    use dbi_core::CostBreakdown;
    use std::net::{SocketAddr, TcpListener};
    use std::thread::JoinHandle;

    /// A one-shot service: accepts one connection, reads one bodiless
    /// request frame, writes `answer` and hangs up.
    fn answer_once(answer: Vec<u8>) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut socket, _) = listener.accept().unwrap();
            let mut request = [0u8; HEADER_LEN];
            socket.read_exact(&mut request).unwrap();
            socket.write_all(&answer).unwrap();
        });
        (addr, server)
    }

    /// What a metrics call makes of `answer`, and the receive buffer's
    /// capacity afterwards.
    fn metrics_answered_by(answer: Vec<u8>) -> (Result<String, ClientError>, usize) {
        let (addr, server) = answer_once(answer);
        let mut client = TcpClient::connect(addr).unwrap();
        let result = client.metrics_json();
        server.join().unwrap();
        (result, client.inner.recv_buf.capacity())
    }

    #[test]
    fn the_frame_reader_tells_a_whole_frame_from_a_cut_stream() {
        let mut whole = Vec::new();
        wire::encode_metrics_response(&mut whole, "{\"x\":1}");
        assert_eq!(metrics_answered_by(whole.clone()).0.unwrap(), "{\"x\":1}");

        // A clean end of stream before, inside the header of, or inside
        // the body of the answer is a transport error alike.
        for cut in [0, 3, whole.len() - 2] {
            match metrics_answered_by(whole[..cut].to_vec()).0 {
                Err(ClientError::Io(err)) => {
                    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
                }
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_header_is_rejected_before_the_body_is_read() {
        let mut frame = Vec::new();
        wire::encode_metrics_response(&mut frame, &"x".repeat(64));
        frame[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let (result, capacity) = metrics_answered_by(frame);
        assert!(
            matches!(result, Err(ClientError::Wire(WireError::Oversized { .. }))),
            "{result:?}"
        );
        // Nothing past the bytes that arrived was buffered for the body.
        assert!(capacity < 1024, "{capacity}");
    }

    #[test]
    fn parsed_replies_are_dropped_when_no_read_ends_on_a_frame() {
        // 102-byte replies (pipelined, 4 groups, no masks), written so
        // that every write ends one byte into the next frame.
        const REPLIES: u64 = 2000;
        let per_group = [CostBreakdown::default(); 4];
        let mut replies = Vec::new();
        for request_id in 0..REPLIES {
            PipelinedResponseFrame {
                request_id,
                response: EncodeResponseFrame {
                    session_id: 1,
                    bursts: 8,
                    per_group: &per_group,
                    masks: &[],
                },
            }
            .encode_into(&mut replies);
        }
        let frame = replies.len() / REPLIES as usize;
        assert_eq!(frame, 102);

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut socket, _) = listener.accept().unwrap();
            let _ = socket.set_nodelay(true);
            let mut at = 0;
            let mut end = frame + 1;
            while at < replies.len() {
                socket.write_all(&replies[at..end]).unwrap();
                at = end;
                end = (end + frame).min(replies.len());
            }
        });

        let mut client = PipelinedClient::connect(addr).unwrap();
        let mut reply = EncodeReply::new();
        let mut peak = 0;
        for request_id in 0..REPLIES {
            let done = client.next_completion(&mut reply).unwrap();
            assert_eq!(done.request_id, request_id);
            peak = peak.max(client.recv_buf.capacity());
        }
        server.join().unwrap();
        assert!(
            peak < RECV_CHUNK + 2 * frame,
            "receive buffer grew to {peak} bytes"
        );
    }
}
