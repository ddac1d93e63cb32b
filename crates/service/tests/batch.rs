//! End-to-end proof of the batched data plane:
//!
//! * `EncodeBatch` requests over TCP (and locally) return results
//!   **bit-identical** to a serial [`BusSession`] run and to the
//!   per-request path, for every scheme — the top-level differential of
//!   the slab refactor (core and session levels are covered in their own
//!   crates).
//! * Worker-pass accounting is exact: every executed request either
//!   opens a pass or is coalesced into one, so
//!   `passes + coalesced == requests` whatever the interleaving.
//! * Coalesced execution cannot corrupt carried state: hammering one
//!   session from many threads with identical payloads yields exactly the
//!   totals of the equivalent serial run.

use dbi_core::{CostBreakdown, Scheme};
use dbi_mem::{BusSession, ChannelConfig};
use dbi_service::{
    CostModel, EncodeBatchRequest, EncodeReply, EncodeRequest, Engine, ServiceConfig, ServiceError,
    TcpClient, TcpServer, VerifyMode,
};

fn pseudo_random(len: usize, mut seed: u32) -> Vec<u8> {
    (0..len)
        .map(|_| {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (seed >> 24) as u8
        })
        .collect()
}

#[test]
fn tcp_batches_are_bit_identical_to_serial_sessions() {
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        queue_capacity: 32,
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let mut tcp = TcpClient::connect(server.addr()).unwrap();
    let config = ChannelConfig::gddr5x();
    let data = pseudo_random(config.access_bytes() * 24, 0xBEEF);
    let mut reply = EncodeReply::new();

    for (index, scheme) in Scheme::paper_set().iter().copied().enumerate() {
        let session_id = 0xBA7 + index as u64;
        // Two batch frames over one session: carried state must persist
        // across batches exactly as across per-burst requests.
        let half = data.len() / 2;
        let request = |payload| EncodeRequest {
            session_id,
            scheme,
            cost_model: CostModel::Inline,
            groups: 4,
            burst_len: 8,
            want_masks: true,
            verify: VerifyMode::Off,
            payload,
        };
        let mut combined = Vec::new();
        let mut totals: Vec<CostBreakdown> = Vec::new();
        let mut bursts = 0u64;
        for payload in [&data[..half], &data[half..]] {
            let frame = EncodeBatchRequest::from_request(&request(payload)).unwrap();
            tcp.encode_batch(&frame, &mut reply).unwrap();
            assert_eq!(reply.bursts, u64::from(frame.count));
            bursts += reply.bursts;
            combined.extend_from_slice(&reply.masks);
            if totals.is_empty() {
                totals = reply.per_group.clone();
            } else {
                for (total, got) in totals.iter_mut().zip(&reply.per_group) {
                    *total += *got;
                }
            }
        }

        let mut reference = BusSession::new(&config, scheme);
        let mut expected_groups = Vec::new();
        let mut expected_masks = Vec::new();
        let expected_bursts = reference
            .encode_stream_into(&data, &mut expected_groups, Some(&mut expected_masks))
            .unwrap();
        assert_eq!(bursts, expected_bursts, "{scheme}");
        assert_eq!(totals, expected_groups, "{scheme}");
        assert_eq!(combined, expected_masks, "{scheme}");
    }

    // The batch and per-request paths agree with each other too: same
    // payload, two fresh sessions, identical replies.
    let payload = pseudo_random(config.access_bytes() * 8, 77);
    let plain = EncodeRequest {
        session_id: 0xE0,
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Inline,
        groups: 4,
        burst_len: 8,
        want_masks: true,
        verify: VerifyMode::Off,
        payload: &payload,
    };
    let mut plain_reply = EncodeReply::new();
    tcp.encode(&plain, &mut plain_reply).unwrap();
    let batch = EncodeBatchRequest {
        request: EncodeRequest {
            session_id: 0xE1,
            ..plain
        },
        count: (payload.len() / 8) as u16,
    };
    let mut batch_reply = EncodeReply::new();
    tcp.encode_batch(&batch, &mut batch_reply).unwrap();
    assert_eq!(plain_reply, batch_reply);

    // The metrics JSON carries the batch block over the wire.
    let json = tcp.metrics_json().unwrap();
    assert!(json.contains("\"batch\":{\"passes\":"), "{json}");

    drop(tcp);
    server.shutdown();
    engine.shutdown();
}

#[test]
fn malformed_batch_counts_are_rejected_locally_and_remotely() {
    let engine = Engine::start(ServiceConfig::default());
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let payload = [0u8; 32];
    let bad = EncodeBatchRequest {
        request: EncodeRequest {
            session_id: 5,
            scheme: Scheme::OptFixed,
            cost_model: CostModel::Inline,
            groups: 4,
            burst_len: 8,
            want_masks: false,
            verify: VerifyMode::Off,
            payload: &payload,
        },
        count: 3, // payload holds 4 bursts
    };
    let mut reply = EncodeReply::new();
    assert_eq!(
        engine.local_client().encode_batch(&bad, &mut reply),
        Err(ServiceError::BadBatchCount { count: 3, got: 4 })
    );
    // Over TCP the count invariant is enforced by the wire decoder, so a
    // hand-forged frame never even reaches the engine; the client-side
    // frame writer is honest, which means a mismatched count comes back
    // as a BadRequest error frame.
    let mut tcp = TcpClient::connect(server.addr()).unwrap();
    let err = tcp.encode_batch(&bad, &mut reply).unwrap_err();
    match err {
        dbi_service::ClientError::Remote { code, .. } => {
            assert_eq!(code, dbi_service::wire::ErrorCode::BadRequest);
        }
        other => panic!("expected a remote error, got {other}"),
    }
    drop(tcp);
    server.shutdown();
    engine.shutdown();
}

#[test]
fn every_request_is_a_pass_opener_or_coalesced() {
    // One shard, many threads, one session, identical payloads: whatever
    // coalescing happens, the pass accounting must balance exactly and
    // the totals must equal the serial run (identical payloads make the
    // outcome order-independent once the first burst has been driven).
    let engine = Engine::start(ServiceConfig {
        shards: 1,
        queue_capacity: 64,
        ..ServiceConfig::default()
    });
    let config = ChannelConfig::gddr5x();
    let payload = pseudo_random(config.access_bytes() * 4, 0xC0A1);
    const THREADS: usize = 8;
    const PER_THREAD: usize = 50;

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let engine = engine.clone();
            let payload = &payload;
            s.spawn(move || {
                let mut client = engine.local_client();
                let mut reply = EncodeReply::new();
                let request = EncodeRequest {
                    session_id: 42,
                    scheme: Scheme::OptFixed,
                    cost_model: CostModel::Inline,
                    groups: 4,
                    burst_len: 8,
                    want_masks: false,
                    verify: VerifyMode::Off,
                    payload,
                };
                for _ in 0..PER_THREAD {
                    loop {
                        match client.encode(&request, &mut reply) {
                            Ok(()) => break,
                            Err(ServiceError::Overloaded { .. }) => std::thread::yield_now(),
                            Err(err) => panic!("unexpected error: {err}"),
                        }
                    }
                }
            });
        }
    });

    let requests = (THREADS * PER_THREAD) as u64;

    // Serial reference: the same payload driven the same number of times
    // leaves the same carried state (identical payloads make the chain
    // order-independent), so the *next* request must match the serial
    // chain's next step exactly.
    let mut reference = BusSession::new(&config, Scheme::OptFixed);
    for _ in 0..requests {
        reference.encode_stream(&payload).unwrap();
    }
    let expected_next = reference.encode_stream(&payload).unwrap();
    let mut client = engine.local_client();
    let mut reply = EncodeReply::new();
    client
        .encode(
            &EncodeRequest {
                session_id: 42,
                scheme: Scheme::OptFixed,
                cost_model: CostModel::Inline,
                groups: 4,
                burst_len: 8,
                want_masks: false,
                verify: VerifyMode::Off,
                payload: &payload,
            },
            &mut reply,
        )
        .unwrap();
    assert_eq!(
        reply.activity(),
        expected_next,
        "the concurrent/coalesced history must leave bit-identical state"
    );

    // Shutdown joins the workers, so the pass accounting is quiescent:
    // every executed request either opened a pass or was coalesced.
    engine.shutdown();
    let totals = engine.metrics().totals();
    assert_eq!(totals.requests, requests + 1);
    assert_eq!(
        totals.passes + totals.coalesced,
        requests + 1,
        "every request opens a pass or is coalesced into one"
    );
    assert!(totals.passes >= 1);
    assert!(
        totals.batch_hist.iter().sum::<u64>() == totals.passes,
        "every pass lands in exactly one histogram bucket"
    );
}
