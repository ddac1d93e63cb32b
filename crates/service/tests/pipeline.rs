//! End-to-end tests of protocol-5 pipelining over the event-driven
//! connection plane: many requests in flight on one connection, matched
//! to responses by request id.
//!
//! The ordering contract under test:
//!
//! * **across sessions** completions may arrive out of submission order
//!   (shard workers run independently);
//! * **within one session** completions stay FIFO (sticky sharding
//!   orders same-session work);
//! * and the interleaved pipelined results are **bit-identical** to a
//!   serial [`BusSession`] run, because each session's carried bus state
//!   evolves exactly as in a single-threaded encode.
//!
//! The id-free framings (tags 1 and 6, and the v1 layout), which no
//! client in the crate sends, are driven over a raw socket: they keep
//! their one-in, one-out order on the same connection plane.

use dbi_core::{InversionMask, Scheme};
use dbi_mem::BusSession;
use dbi_service::wire::{
    decode_frame, parse_header, ErrorCode, Frame, COST_MODEL_WIRE_BYTES, HEADER_LEN,
    LEGACY_VERSION, MAX_BODY_LEN, RESPONSE_HEAD_LEN, V1_REQUEST_HEAD_LEN,
};
use dbi_service::{
    ClientError, ConnConfig, CostModel, EncodeBatchRequest, EncodeReply, EncodeRequest, Engine,
    PipelinedClient, ServiceConfig, TcpClient, TcpServer, VerifyMode, MAX_GROUPS,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const GROUPS: u16 = 4;
const BURST_LEN: u8 = 8;
const ACCESS_BYTES: usize = GROUPS as usize * BURST_LEN as usize;

fn pseudo_random(len: usize, mut seed: u32) -> Vec<u8> {
    (0..len)
        .map(|_| {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (seed >> 24) as u8
        })
        .collect()
}

fn request(session_id: u64, payload: &[u8]) -> EncodeRequest<'_> {
    EncodeRequest {
        session_id,
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Inline,
        groups: GROUPS,
        burst_len: BURST_LEN,
        want_masks: true,
        verify: VerifyMode::Off,
        payload,
    }
}

/// Serial reference: the same stream through one `BusSession`.
fn reference_masks(data: &[u8]) -> Vec<InversionMask> {
    let mut session = BusSession::with_plan_geometry(
        usize::from(GROUPS),
        usize::from(BURST_LEN),
        Scheme::OptFixed.plan(),
    );
    let mut per_group = Vec::new();
    let mut masks = Vec::new();
    session
        .encode_stream_into(data, &mut per_group, Some(&mut masks))
        .unwrap();
    masks
}

/// A deterministically slowed session's completion must arrive *after*
/// faster sessions submitted behind it — responses are matched by id,
/// not by ordering.
#[test]
fn completions_cross_sessions_out_of_order() {
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    });
    const SLOW_SESSION: u64 = 1_000;
    engine.inject_slowdown_for_tests(SLOW_SESSION, Duration::from_millis(50));

    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let mut client = PipelinedClient::connect(server.addr()).unwrap();
    let payload = pseudo_random(ACCESS_BYTES, 0x51);

    // The slow session goes first; eight fast sessions pile in behind it.
    // Sticky sharding is deterministic, so some of them always land on
    // the other shard and finish while the slow worker sleeps.
    let slow_id = client.submit(&request(SLOW_SESSION, &payload)).unwrap();
    let mut fast_ids = Vec::new();
    for session in 1..=8u64 {
        fast_ids.push(client.submit(&request(session, &payload)).unwrap());
    }

    let mut reply = EncodeReply::new();
    let mut arrival = Vec::new();
    for _ in 0..=fast_ids.len() {
        let done = client.next_completion(&mut reply).unwrap();
        assert!(done.is_ok(), "{:?}", done.error);
        arrival.push(done.request_id);
    }
    assert_eq!(client.in_flight(), 0);
    assert_ne!(
        arrival[0], slow_id,
        "a fast session must complete before the slowed one: {arrival:?}"
    );
    assert!(arrival.contains(&slow_id), "{arrival:?}");

    server.shutdown();
    engine.shutdown();
}

/// Within one session, completions arrive in submission order even with
/// the whole window in flight — sticky sharding serialises them — and
/// match the serial reference. The window stays well under the client's
/// send bound, so it is queued and leaves only through the flush at the
/// start of `next_completion`: write-behind never strands a submission.
#[test]
fn completions_within_a_session_stay_fifo() {
    let engine = Engine::start(ServiceConfig {
        shards: 4,
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let mut client = PipelinedClient::connect(server.addr()).unwrap();

    const REQUESTS: usize = 32;
    let data = pseudo_random(ACCESS_BYTES * REQUESTS, 0xF1F0);
    let mut submitted = Vec::new();
    for chunk in data.chunks(ACCESS_BYTES) {
        submitted.push(client.submit(&request(7, chunk)).unwrap());
    }

    let mut reply = EncodeReply::new();
    let mut arrival = Vec::new();
    let mut masks = Vec::new();
    for _ in 0..REQUESTS {
        let done = client.next_completion(&mut reply).unwrap();
        assert!(done.is_ok(), "{:?}", done.error);
        arrival.push(done.request_id);
        masks.extend_from_slice(&reply.masks);
    }
    assert_eq!(
        arrival, submitted,
        "one session's completions must keep submission order"
    );
    assert_eq!(masks, reference_masks(&data));

    server.shutdown();
    engine.shutdown();
}

/// Four sessions interleaved through one pipelined connection, in both
/// the plain and the batch framing, produce masks bit-identical to four
/// serial `BusSession` runs — carried state never leaks across sessions,
/// whatever the completion interleaving.
#[test]
fn interleaved_pipelined_load_is_bit_identical_to_serial() {
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let mut client = PipelinedClient::connect(server.addr()).unwrap();

    const SESSIONS: u64 = 4;
    const REQUESTS_PER_SESSION: usize = 6;
    let streams: Vec<Vec<u8>> = (0..SESSIONS)
        .map(|s| pseudo_random(ACCESS_BYTES * REQUESTS_PER_SESSION, 0xBEEF ^ (s as u32)))
        .collect();

    // Round-robin submission: session 0's chunk 0, session 1's chunk 0,
    // ..., session 0's chunk 1, ... — maximum interleaving on the wire.
    let mut id_to_session = HashMap::new();
    for chunk in 0..REQUESTS_PER_SESSION {
        for (session, stream) in streams.iter().enumerate() {
            let payload = &stream[chunk * ACCESS_BYTES..(chunk + 1) * ACCESS_BYTES];
            let request = request(session as u64 + 1, payload);
            // Odd chunks ride the pipelined batch framing: same session
            // stream, same replies.
            let id = if chunk % 2 == 1 {
                client.submit_batch(&EncodeBatchRequest::from_request(&request).unwrap())
            } else {
                client.submit(&request)
            }
            .unwrap();
            id_to_session.insert(id, session);
        }
    }

    // Collect every completion, appending masks per session in arrival
    // order (FIFO within a session makes that the stream order).
    let mut reply = EncodeReply::new();
    let mut masks: Vec<Vec<InversionMask>> = vec![Vec::new(); SESSIONS as usize];
    for _ in 0..SESSIONS as usize * REQUESTS_PER_SESSION {
        let done = client.next_completion(&mut reply).unwrap();
        assert!(done.is_ok(), "{:?}", done.error);
        let session = id_to_session[&done.request_id];
        masks[session].extend_from_slice(&reply.masks);
    }

    for (session, stream) in streams.iter().enumerate() {
        assert_eq!(
            masks[session],
            reference_masks(stream),
            "session {session} diverged from the serial reference"
        );
    }

    server.shutdown();
    engine.shutdown();
}

/// A per-request failure comes back as an error frame (tag 16) echoing the
/// failed request's id — and the connection stays usable for the
/// requests around it.
#[test]
fn per_request_failures_echo_their_id_and_keep_the_connection() {
    let engine = Engine::start(ServiceConfig::default());
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let mut client = PipelinedClient::connect(server.addr()).unwrap();
    let good = pseudo_random(ACCESS_BYTES, 0x60);
    let bad = pseudo_random(ACCESS_BYTES - 1, 0xBAD); // not a whole access

    let ok_before = client.submit(&request(1, &good)).unwrap();
    let failing = client.submit(&request(2, &bad)).unwrap();
    let ok_after = client.submit(&request(1, &good)).unwrap();

    let mut reply = EncodeReply::new();
    let mut outcomes = HashMap::new();
    for _ in 0..3 {
        let done = client.next_completion(&mut reply).unwrap();
        outcomes.insert(done.request_id, done.error);
    }
    assert_eq!(outcomes[&ok_before], None);
    assert_eq!(outcomes[&ok_after], None);
    let (code, message) = outcomes[&failing].clone().expect("bad payload must fail");
    assert_eq!(code, ErrorCode::BadPayload);
    assert!(message.contains("31"), "{message}");

    server.shutdown();
    engine.shutdown();
}

/// Wire parity holds in the *largest* framing: a request whose plain
/// response body would just fit a frame, but whose pipelined response
/// (8 more bytes of request id) would not, is refused up front as
/// `PayloadTooLarge` on every path — it must never be admitted into a
/// reply the service cannot frame — and the pipelined connection keeps
/// serving afterwards.
#[test]
fn payloads_whose_replies_cannot_be_framed_are_refused_on_every_path() {
    // 1 group, BL1, masks on: the plain response body is the head, one
    // 16-byte cost record and one 4-byte mask per burst — 2 bytes under
    // the frame limit, so only the request-id prefix pushes it over.
    let len = (MAX_BODY_LEN - RESPONSE_HEAD_LEN - 16) / 4;
    assert_eq!(len, 2_097_142);
    assert_eq!(RESPONSE_HEAD_LEN + 16 + 4 * len, MAX_BODY_LEN - 2);
    let engine = Engine::start(ServiceConfig {
        shards: 1,
        max_payload: 4 << 20,
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let payload = vec![0xA5u8; len];
    let oversized = EncodeRequest {
        session_id: 9,
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Inline,
        groups: 1,
        burst_len: 1,
        want_masks: true,
        verify: VerifyMode::Off,
        payload: &payload,
    };
    let too_large = dbi_service::ServiceError::PayloadTooLarge {
        got: len,
        max: MAX_BODY_LEN,
    };
    let mut reply = EncodeReply::new();

    assert_eq!(
        engine.local_client().encode(&oversized, &mut reply),
        Err(too_large.clone())
    );

    let mut tcp = dbi_service::TcpClient::connect(server.addr()).unwrap();
    match tcp.encode(&oversized, &mut reply) {
        Err(dbi_service::ClientError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadPayload);
            assert_eq!(message, too_large.to_string());
        }
        other => panic!("expected a typed PayloadTooLarge, got {other:?}"),
    }
    drop(tcp);

    let mut client = PipelinedClient::connect(server.addr()).unwrap();
    let refused = client.submit(&oversized).unwrap();
    let done = client.next_completion(&mut reply).unwrap();
    assert_eq!(done.request_id, refused);
    assert_eq!(
        done.error,
        Some((ErrorCode::BadPayload, too_large.to_string()))
    );
    // The connection still frames and serves the next request.
    let good = pseudo_random(ACCESS_BYTES, 0x600D);
    let served = client.submit(&request(1, &good)).unwrap();
    let done = client.next_completion(&mut reply).unwrap();
    assert_eq!((done.request_id, done.error), (served, None));
    assert_eq!(reply.masks, reference_masks(&good));

    server.shutdown();
    engine.shutdown();
}

/// A widest-geometry BL1 request with masks on: every payload byte is
/// one burst of one lane group and earns a 4-byte mask, and every group
/// a 16-byte cost record — so small requests pile up large replies.
fn masked(session_id: u64, payload: &[u8]) -> EncodeRequest<'_> {
    EncodeRequest {
        session_id,
        scheme: Scheme::Dc,
        cost_model: CostModel::Inline,
        groups: MAX_GROUPS,
        burst_len: 1,
        want_masks: true,
        verify: VerifyMode::Off,
        payload,
    }
}

/// The framed size of the pipelined reply to [`masked`]: header, request
/// id, response head, the cost records and one mask per burst.
fn masked_reply_len(payload_len: usize) -> usize {
    HEADER_LEN + 8 + RESPONSE_HEAD_LEN + 16 * usize::from(MAX_GROUPS) + 4 * payload_len
}

/// A connection-plane counter from a metrics JSON document.
fn counter(json: &str, key: &str) -> u64 {
    let pattern = format!("\"{key}\":");
    let at = json
        .find(&pattern)
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + pattern.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

/// One small request served end to end on `client`, on a session id
/// not used before.
fn assert_served(client: &mut PipelinedClient, session_id: u64, seed: u32) {
    let payload = pseudo_random(ACCESS_BYTES, seed);
    let id = client.submit(&request(session_id, &payload)).unwrap();
    let mut reply = EncodeReply::new();
    let done = client.next_completion(&mut reply).unwrap();
    assert_eq!((done.request_id, done.error), (id, None));
    assert_eq!(reply.masks, reference_masks(&payload));
}

/// A client that submits but never reads is dropped once its unflushed
/// replies pass the write high-watermark (clamped up to one maximum
/// frame), and the drop is counted once. What it did receive parses as
/// whole replies, optionally ending in the `SlowConsumer` notice — never
/// a notice spliced into a partly sent frame. Another connection on the
/// same I/O thread is served before and after.
#[test]
fn a_client_that_never_reads_is_dropped_as_a_slow_consumer() {
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind_with(
        &engine,
        "127.0.0.1:0",
        ConnConfig {
            io_threads: 1,
            write_high_watermark: 0,
            ..ConnConfig::default()
        },
    )
    .unwrap();
    let mut healthy = PipelinedClient::connect(server.addr()).unwrap();
    assert_served(&mut healthy, 1, 0x0A);

    // One burst per group: 64 payload bytes earn a 1.3 KB reply. The
    // server also buffers up to a read high-watermark of unparsed
    // requests, so the drop comes after tens of thousands of submissions.
    let payload = pseudo_random(usize::from(MAX_GROUPS), 0x5107);
    let mut stalled = PipelinedClient::connect(server.addr()).unwrap();
    let mut submitted = 0usize;
    while stalled.submit(&masked(2, &payload)).is_ok() {
        submitted += 1;
        assert!(
            submitted < 1_000_000,
            "a client that never reads was never dropped ({submitted} requests, \
             {} MiB of replies)",
            (submitted * masked_reply_len(payload.len())) >> 20
        );
    }

    let json = TcpClient::connect(server.addr())
        .unwrap()
        .metrics_json()
        .unwrap();
    assert_eq!(counter(&json, "dropped_slow"), 1, "{json}");

    let mut reply = EncodeReply::new();
    let mut received = 0usize;
    let end = loop {
        match stalled.next_completion(&mut reply) {
            Ok(_) => received += 1,
            Err(err) => break err,
        }
    };
    match end {
        ClientError::Io(_)
        | ClientError::Remote {
            code: ErrorCode::SlowConsumer,
            ..
        } => {}
        other => panic!("the dropped stream broke after {received} whole replies: {other:?}"),
    }
    assert!(received < submitted, "{received} of {submitted}");

    assert_served(&mut healthy, 3, 0x0B);
    server.shutdown();
    engine.shutdown();
}

/// A client that reads is never dropped, even when one completion drain
/// frames a whole window of large replies that together pass the write
/// high-watermark: the plane flushes before judging the backlog.
#[test]
fn a_reading_client_with_a_full_window_of_large_replies_is_never_dropped() {
    const WINDOW: usize = 8;
    const ROUNDS: usize = 2;
    let watermark = HEADER_LEN + MAX_BODY_LEN;
    // A window of replies 16 KiB past the (clamped) watermark, in whole
    // bursts of every group.
    let groups = usize::from(MAX_GROUPS);
    let payload_len = (watermark / (4 * WINDOW) + 512) / groups * groups;
    assert!(WINDOW * masked_reply_len(payload_len) > watermark);
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind_with(
        &engine,
        "127.0.0.1:0",
        ConnConfig {
            io_threads: 1,
            write_high_watermark: 0,
            max_in_flight: WINDOW,
        },
    )
    .unwrap();
    let mut client = PipelinedClient::connect(server.addr()).unwrap();
    let payload = pseudo_random(payload_len, 0x1A26E);
    let mut reply = EncodeReply::new();
    for _ in 0..ROUNDS {
        for session in 0..WINDOW as u64 {
            client.submit(&masked(session, &payload)).unwrap();
        }
        for _ in 0..WINDOW {
            let done = client.next_completion(&mut reply).unwrap();
            assert!(done.is_ok(), "{:?}", done.error);
            assert_eq!(reply.masks.len(), payload_len);
        }
    }
    let json = TcpClient::connect(server.addr())
        .unwrap()
        .metrics_json()
        .unwrap();
    assert_eq!(counter(&json, "dropped_slow"), 0, "{json}");

    server.shutdown();
    engine.shutdown();
}

/// A server with one I/O thread, so a metrics request is served in a
/// later loop iteration than the frames read before it, and every count
/// from those is published by then.
fn one_io_thread_server(engine: &Engine) -> TcpServer {
    TcpServer::bind_with(
        engine,
        "127.0.0.1:0",
        ConnConfig {
            io_threads: 1,
            ..ConnConfig::default()
        },
    )
    .unwrap()
}

/// The connection-plane counters account for a pipelined run: one frame
/// in per request, one frame out per reply received, at least one and at
/// most one socket write per reply.
#[test]
fn connection_counters_account_for_a_pipelined_run() {
    const REQUESTS: usize = 64;
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    });
    let server = one_io_thread_server(&engine);
    let mut client = PipelinedClient::connect(server.addr()).unwrap();
    let data = pseudo_random(ACCESS_BYTES * REQUESTS, 0xC0DE);
    for (index, chunk) in data.chunks(ACCESS_BYTES).enumerate() {
        client.submit(&request(index as u64 % 4, chunk)).unwrap();
    }
    let mut reply = EncodeReply::new();
    let mut received = 0u64;
    for _ in 0..REQUESTS {
        let done = client.next_completion(&mut reply).unwrap();
        assert!(done.is_ok(), "{:?}", done.error);
        received += 1;
    }

    let json = TcpClient::connect(server.addr())
        .unwrap()
        .metrics_json()
        .unwrap();
    assert_eq!(counter(&json, "frames_in"), REQUESTS as u64, "{json}");
    assert_eq!(counter(&json, "frames_out"), received, "{json}");
    let writes = counter(&json, "writes");
    assert!((1..=received).contains(&writes), "{json}");
    assert!(counter(&json, "reads") >= 1, "{json}");
    assert!(counter(&json, "wakeups") >= 1, "{json}");

    server.shutdown();
    engine.shutdown();
}

/// Polls `metrics` until the server has parsed `frames` frames besides
/// the polls' own metrics requests; returns the last snapshot and how
/// many polls it took. The snapshot a poll answers counts every earlier
/// poll's frame and read, never its own.
fn wait_for_frames_in(metrics: &mut TcpClient, frames: u64) -> (String, u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut polls = 0;
    loop {
        let json = metrics.metrics_json().unwrap();
        if counter(&json, "frames_in") >= frames + polls {
            return (json, polls);
        }
        assert!(
            Instant::now() < deadline,
            "the server never parsed {frames} frames: {json}"
        );
        polls += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Submissions stay queued until a flush point, and `flush` alone
/// delivers them, with the client never reading: the corked window
/// leaves in one write, so the server reads it in at most two socket
/// reads — not one read per request.
#[test]
fn flush_delivers_a_corked_window_in_at_most_two_reads() {
    const REQUESTS: u64 = 16;
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    });
    let server = one_io_thread_server(&engine);
    let mut client = PipelinedClient::connect(server.addr()).unwrap();
    let mut metrics = TcpClient::connect(server.addr()).unwrap();
    let data = pseudo_random(ACCESS_BYTES * REQUESTS as usize, 0xF1A5);
    for (index, chunk) in data.chunks(ACCESS_BYTES).enumerate() {
        client.submit(&request(index as u64 % 4, chunk)).unwrap();
    }
    std::thread::sleep(Duration::from_millis(20));
    let queued = metrics.metrics_json().unwrap();
    assert_eq!(counter(&queued, "frames_in"), 0, "{queued}");

    client.flush().unwrap();
    // The probe above is one more frame, and one more read: each
    // metrics request is one 8-byte frame, read in one call.
    let (json, polls) = wait_for_frames_in(&mut metrics, REQUESTS + 1);
    assert_eq!(counter(&json, "frames_in"), REQUESTS + 1 + polls, "{json}");
    let corked_reads = counter(&json, "reads") - 1 - polls;
    assert!(
        (1..=2).contains(&corked_reads),
        "{corked_reads} reads: {json}"
    );

    let mut reply = EncodeReply::new();
    for _ in 0..REQUESTS {
        assert!(client.next_completion(&mut reply).unwrap().is_ok());
    }
    server.shutdown();
    engine.shutdown();
}

/// Reads one whole frame off a raw socket into `buf`.
fn read_raw_frame(socket: &mut TcpStream, buf: &mut Vec<u8>) {
    buf.resize(HEADER_LEN, 0);
    socket.read_exact(buf).unwrap();
    let header = parse_header(buf).unwrap();
    buf.resize(HEADER_LEN + header.body_len, 0);
    socket.read_exact(&mut buf[HEADER_LEN..]).unwrap();
}

/// Reads one id-free encode response off `socket`: it must echo
/// `session_id` and `count`. Returns its masks.
fn id_free_masks(
    socket: &mut TcpStream,
    buf: &mut Vec<u8>,
    session_id: u64,
    count: Option<u16>,
) -> Vec<InversionMask> {
    read_raw_frame(socket, buf);
    match decode_frame(buf).unwrap().0 {
        Frame::EncodeResponse {
            request_id: None,
            response,
        } => {
            assert_eq!((response.session_id, response.count), (session_id, count));
            response.masks().collect()
        }
        other => panic!("expected an id-free response for session {session_id}: {other:?}"),
    }
}

/// The id-free encode framings — tag 1, tag 6 and the hand-built v1
/// layout — over a raw socket: each reply carries no request id, echoes
/// its framing's count and matches the serial reference; a request with
/// bad geometry gets an id-free error frame and the connection keeps
/// serving; and two id-free requests written at once are answered in
/// request order, even when the second one's shard finishes first.
#[test]
fn id_free_framings_answer_one_in_one_out_over_a_raw_socket() {
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let mut socket = TcpStream::connect(server.addr()).unwrap();
    let (mut out, mut buf) = (Vec::new(), Vec::new());

    // One session's stream in three id-free framings.
    let data = pseudo_random(ACCESS_BYTES * 3, 0x1D1E);
    let chunk = |index: usize| request(7, &data[index * ACCESS_BYTES..][..ACCESS_BYTES]);
    let mut masks = Vec::new();
    chunk(0).encode_framed_into(&mut out, None, None);
    let batch = EncodeBatchRequest::from_request(&chunk(1)).unwrap();
    batch
        .request
        .encode_framed_into(&mut out, None, Some(batch.count));
    // The v1 layout: a plain inline-cost frame without its cost-model
    // field (after the session id, scheme tag and weights), under a
    // version-1 header.
    let v1_at = out.len();
    chunk(2).encode_framed_into(&mut out, None, None);
    out[v1_at + 2] = LEGACY_VERSION;
    let cost_model_at = v1_at + HEADER_LEN + 8 + 1 + 8;
    out.drain(cost_model_at..cost_model_at + COST_MODEL_WIRE_BYTES);
    let v1_body = (V1_REQUEST_HEAD_LEN + ACCESS_BYTES) as u32;
    out[v1_at + 4..v1_at + 8].copy_from_slice(&v1_body.to_le_bytes());
    socket.write_all(&out).unwrap();
    masks.extend(id_free_masks(&mut socket, &mut buf, 7, None));
    masks.extend(id_free_masks(&mut socket, &mut buf, 7, Some(batch.count)));
    masks.extend(id_free_masks(&mut socket, &mut buf, 7, None));
    assert_eq!(masks, reference_masks(&data));

    // Bad geometry: an id-free error frame, and the connection stays.
    out.clear();
    EncodeRequest {
        groups: 0,
        ..chunk(0)
    }
    .encode_framed_into(&mut out, None, None);
    socket.write_all(&out).unwrap();
    read_raw_frame(&mut socket, &mut buf);
    match decode_frame(&buf).unwrap().0 {
        Frame::Error {
            request_id: None,
            error,
        } => assert_eq!(error.code, ErrorCode::BadGeometry),
        other => panic!("expected an id-free error frame: {other:?}"),
    }

    // A slowed session on shard 0, then a session on shard 1, in one
    // write: the connection answers them in request order.
    let on_shard = |shard| (100..).find(|&id| engine.shard_of(id) == shard).unwrap();
    let (slow, fast) = (on_shard(0), on_shard(1));
    engine.inject_slowdown_for_tests(slow, Duration::from_millis(50));
    let payload = pseudo_random(ACCESS_BYTES, 0x0DE5);
    out.clear();
    request(slow, &payload).encode_framed_into(&mut out, None, None);
    request(fast, &payload).encode_framed_into(&mut out, None, None);
    socket.write_all(&out).unwrap();
    for session_id in [slow, fast] {
        let masks = id_free_masks(&mut socket, &mut buf, session_id, None);
        assert_eq!(masks, reference_masks(&payload));
    }
    engine.inject_slowdown_for_tests(slow, Duration::ZERO);

    drop(socket);
    server.shutdown();
    engine.shutdown();
}
