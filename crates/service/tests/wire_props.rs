//! Property tests of the wire codec.
//!
//! Seeded, deterministic (the vendored `rand` is a fixed xoshiro256**
//! stream): arbitrary frames must round-trip bit-exactly through
//! encode → decode, and mangled input — truncated at *every* possible
//! boundary, oversized, wrong version, random corruption — must come back
//! as a typed [`WireError`], never a panic.
//!
//! The encode operation's properties are written once and run over the
//! table of its four framings ({plain, batch} × {unpipelined, pipelined});
//! each test below names the table rows it covers.

use dbi_core::{CostBreakdown, CostWeights, InversionMask, Scheme};
use dbi_phy::{NamedInterface, OperatingPoint};
use dbi_service::wire::{
    decode_frame, encode_metrics_request, encode_metrics_response, CostModel,
    EncodeBatchRequestFrame, EncodeRequestFrame, EncodeResponseFrame, ErrorCode, ErrorFrame, Frame,
    PipelinedRequestFrame, PipelinedResponseFrame, VerifyMode, WireError, COUNT_WIRE_BYTES,
    HEADER_LEN, LEGACY_VERSION, REQUEST_HEAD_LEN, REQUEST_ID_WIRE_BYTES, RESPONSE_HEAD_LEN,
    V2_VERSION, VERSION,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROUNDS: usize = 200;

/// One framing of the encode operation, as the protocol specifies it:
/// which optional fields its bodies carry, its tags, and the first
/// version defining them.
#[derive(Debug, Clone, Copy)]
struct Framing {
    name: &'static str,
    request_id: bool,
    count: bool,
    request_tag: u8,
    response_tag: u8,
    error_tag: u8,
    since: u8,
}

const PLAIN: Framing = Framing {
    name: "plain",
    request_id: false,
    count: false,
    request_tag: 1,
    response_tag: 2,
    error_tag: 3,
    since: 1,
};
const BATCH: Framing = Framing {
    name: "batch",
    request_id: false,
    count: true,
    request_tag: 6,
    response_tag: 7,
    error_tag: 3,
    since: 3,
};
const PIPELINED: Framing = Framing {
    name: "pipelined",
    request_id: true,
    count: false,
    request_tag: 12,
    response_tag: 13,
    error_tag: 16,
    since: 5,
};
const PIPELINED_BATCH: Framing = Framing {
    name: "pipelined batch",
    request_id: true,
    count: true,
    request_tag: 14,
    response_tag: 15,
    error_tag: 16,
    since: 5,
};

/// The whole table, for properties that apply to a subset of it.
const FRAMINGS: [Framing; 4] = [PLAIN, BATCH, PIPELINED, PIPELINED_BATCH];

impl Framing {
    /// Bytes the optional request-id field puts in front of a body.
    fn id_len(self) -> usize {
        if self.request_id {
            REQUEST_ID_WIRE_BYTES
        } else {
            0
        }
    }
}

fn arbitrary_scheme(rng: &mut StdRng) -> Scheme {
    let alpha = rng.gen_range(1u32..6);
    let beta = rng.gen_range(1u32..6);
    let parametric = CostWeights::new(alpha, beta).expect("nonzero weights");
    match rng.gen_range(0u8..7) {
        0 => Scheme::Raw,
        1 => Scheme::Dc,
        2 => Scheme::Ac,
        3 => Scheme::AcDc,
        4 => Scheme::Greedy(parametric),
        5 => Scheme::Opt(parametric),
        _ => Scheme::OptFixed,
    }
}

fn arbitrary_cost_model(rng: &mut StdRng) -> CostModel {
    match rng.gen_range(0u8..3) {
        0 => CostModel::Inline,
        1 => CostModel::Weights(
            CostWeights::new(rng.gen_range(0u32..9), rng.gen_range(1u32..9))
                .expect("beta is nonzero"),
        ),
        _ => {
            let interface = NamedInterface::ALL[rng.gen_range(0usize..NamedInterface::ALL.len())];
            let rate_mbps = rng.gen_range(1u32..64_000);
            CostModel::Named(OperatingPoint::new(interface, rate_mbps).expect("nonzero rate"))
        }
    }
}

type ArbitraryRequest = (u64, Scheme, CostModel, u16, u8, bool);

fn arbitrary_request(rng: &mut StdRng, payload: &mut Vec<u8>) -> ArbitraryRequest {
    payload.clear();
    let len = rng.gen_range(0usize..256);
    payload.extend((0..len).map(|_| rng.gen::<u8>()));
    (
        rng.gen::<u64>(),
        arbitrary_scheme(rng),
        arbitrary_cost_model(rng),
        rng.gen::<u16>(),
        rng.gen::<u8>(),
        rng.gen::<bool>(),
    )
}

fn request_frame(request: ArbitraryRequest, payload: &[u8]) -> EncodeRequestFrame<'_> {
    let (session_id, scheme, cost_model, groups, burst_len, want_masks) = request;
    EncodeRequestFrame {
        session_id,
        scheme,
        cost_model,
        groups,
        burst_len,
        want_masks,
        verify: VerifyMode::Off,
        payload,
    }
}

/// A well-formed arbitrary request of `framing`, with its optional
/// fields: batch payloads hold a coherent whole number of bursts.
fn arbitrary_framed<'a>(
    rng: &mut StdRng,
    framing: Framing,
    payload: &'a mut Vec<u8>,
) -> (Option<u64>, Option<u16>, EncodeRequestFrame<'a>) {
    let request_id = framing.request_id.then(|| rng.gen::<u64>());
    if !framing.count {
        let request = arbitrary_request(rng, payload);
        return (request_id, None, request_frame(request, payload));
    }
    let burst_len = rng.gen_range(1u8..33);
    let count = rng.gen_range(1u16..64);
    payload.clear();
    payload.extend((0..usize::from(count) * usize::from(burst_len)).map(|_| rng.gen::<u8>()));
    let request = EncodeRequestFrame {
        session_id: rng.gen::<u64>(),
        scheme: arbitrary_scheme(rng),
        cost_model: arbitrary_cost_model(rng),
        groups: rng.gen::<u16>(),
        burst_len,
        want_masks: rng.gen::<bool>(),
        verify: VerifyMode::Off,
        payload: &payload[..],
    };
    (request_id, Some(count), request)
}

fn arbitrary_records(rng: &mut StdRng) -> (Vec<CostBreakdown>, Vec<InversionMask>) {
    let per_group = (0..rng.gen_range(0usize..16))
        .map(|_| CostBreakdown::new(rng.gen::<u64>(), rng.gen::<u64>()))
        .collect();
    let masks = (0..rng.gen_range(0usize..64))
        .map(|_| InversionMask::from_bits(rng.gen::<u32>()))
        .collect();
    (per_group, masks)
}

fn arbitrary_message(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0usize..48))
        .map(|_| char::from(rng.gen_range(b' '..b'~')))
        .collect()
}

fn framed_request(
    request_id: Option<u64>,
    count: Option<u16>,
    request: &EncodeRequestFrame<'_>,
) -> Vec<u8> {
    let mut buf = Vec::new();
    request.encode_framed_into(&mut buf, request_id, count);
    buf
}

fn framed_response(
    request_id: Option<u64>,
    count: Option<u16>,
    response: &EncodeResponseFrame<'_>,
) -> Vec<u8> {
    let mut buf = Vec::new();
    response.encode_framed_into(&mut buf, request_id, count);
    buf
}

fn framed_error(request_id: Option<u64>, error: &ErrorFrame<'_>) -> Vec<u8> {
    let mut buf = Vec::new();
    error.encode_framed_into(&mut buf, request_id);
    buf
}

/// A sample request and response frame of `framing`, plus its error
/// frame unless the framing carries a count (errors carry none, so the
/// count-free row owns them). Verify is off, so every version from the
/// framing's own decodes them.
fn sample_frames(framing: Framing) -> Vec<Vec<u8>> {
    let payload = [0x5Au8; 32];
    let request = EncodeRequestFrame {
        session_id: 5,
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Weights(CostWeights::new(3, 4).unwrap()),
        groups: 4,
        burst_len: 8,
        want_masks: true,
        verify: VerifyMode::Off,
        payload: &payload,
    };
    let request_id = framing.request_id.then_some(0x1111_2222_3333_4444);
    let count = framing.count.then_some(4);
    let response = EncodeResponseFrame {
        session_id: 5,
        bursts: 4,
        per_group: &[CostBreakdown::new(1, 2), CostBreakdown::new(3, 4)],
        masks: &[InversionMask::from_bits(5), InversionMask::NONE],
    };
    let error = ErrorFrame {
        code: ErrorCode::Overloaded,
        message: "busy",
    };
    let mut frames = vec![
        framed_request(request_id, count, &request),
        framed_response(request_id, count, &response),
    ];
    if !framing.count {
        frames.push(framed_error(request_id, &error));
    }
    frames
}

// ---------------------------------------------------------------------------
// The properties, each written once for any framing.
// ---------------------------------------------------------------------------

/// Requests round-trip bit-exactly with their optional fields, under the
/// framing's tag, with the payload borrowed from the frame buffer.
fn requests_roundtrip(framing: Framing, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut payload = Vec::new();
    for _ in 0..ROUNDS {
        let (request_id, count, request) = arbitrary_framed(&mut rng, framing, &mut payload);
        let buf = framed_request(request_id, count, &request);
        assert_eq!(buf[3], framing.request_tag, "{} request tag", framing.name);
        let (decoded, consumed) = decode_frame(&buf).expect("a well-formed frame must decode");
        assert_eq!(consumed, buf.len());
        assert_eq!(
            decoded,
            Frame::EncodeRequest {
                request_id,
                count,
                request
            },
            "{} request",
            framing.name
        );
        let Frame::EncodeRequest { request: view, .. } = decoded else {
            unreachable!("checked above");
        };
        // Zero-copy: the payload view points into the frame buffer.
        assert!(core::ptr::eq(
            view.payload.as_ptr_range().end,
            buf.as_ptr_range().end
        ));
    }
}

/// Responses round-trip with the request id and the echoed count.
fn responses_roundtrip(framing: Framing, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..ROUNDS {
        let (per_group, masks) = arbitrary_records(&mut rng);
        let request_id = framing.request_id.then(|| rng.gen::<u64>());
        let count = framing.count.then(|| rng.gen::<u16>());
        let frame = EncodeResponseFrame {
            session_id: rng.gen::<u64>(),
            bursts: rng.gen::<u64>(),
            per_group: &per_group,
            masks: &masks,
        };
        let buf = framed_response(request_id, count, &frame);
        assert_eq!(
            buf[3], framing.response_tag,
            "{} response tag",
            framing.name
        );
        let (
            Frame::EncodeResponse {
                request_id: echoed,
                response: view,
            },
            consumed,
        ) = decode_frame(&buf).unwrap()
        else {
            panic!("round trip changed the frame type");
        };
        assert_eq!(consumed, buf.len());
        assert_eq!(echoed, request_id);
        assert_eq!(view.session_id, frame.session_id);
        assert_eq!(view.bursts, frame.bursts);
        assert_eq!(view.count, count);
        assert_eq!(view.group_count(), per_group.len());
        assert_eq!(view.mask_count(), masks.len());
        assert_eq!(view.per_group().collect::<Vec<_>>(), per_group);
        assert_eq!(view.masks().collect::<Vec<_>>(), masks);
    }
}

/// Typed failures round-trip behind the framing's (optional) request id.
fn errors_roundtrip(framing: Framing, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let codes = [
        ErrorCode::Overloaded,
        ErrorCode::ShuttingDown,
        ErrorCode::BadGeometry,
        ErrorCode::BadPayload,
        ErrorCode::SessionMismatch,
        ErrorCode::BadRequest,
        ErrorCode::Internal,
        ErrorCode::BadCostModel,
    ];
    for _ in 0..ROUNDS {
        let message = arbitrary_message(&mut rng);
        let error = ErrorFrame {
            code: codes[rng.gen_range(0usize..codes.len())],
            message: &message,
        };
        let request_id = framing.request_id.then(|| rng.gen::<u64>());
        let buf = framed_error(request_id, &error);
        assert_eq!(buf[3], framing.error_tag, "{} error tag", framing.name);
        let (decoded, consumed) = decode_frame(&buf).expect("a well-formed error must decode");
        assert_eq!(consumed, buf.len());
        assert_eq!(decoded, Frame::Error { request_id, error });
    }
}

/// Every strict prefix of a valid request, response and error frame must
/// decode to `Truncated` — and the reported `needed` must point at (or
/// beyond) the missing bytes.
fn every_truncation_is_typed(framing: Framing, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut payload = Vec::new();
    for _ in 0..16 {
        let (request_id, count, request) = arbitrary_framed(&mut rng, framing, &mut payload);
        let (per_group, masks) = arbitrary_records(&mut rng);
        let response = EncodeResponseFrame {
            session_id: request.session_id,
            bursts: rng.gen::<u64>(),
            per_group: &per_group,
            masks: &masks,
        };
        let message = arbitrary_message(&mut rng);
        let error = ErrorFrame {
            code: ErrorCode::SlowConsumer,
            message: &message,
        };
        for buf in [
            framed_request(request_id, count, &request),
            framed_response(request_id, count, &response),
            framed_error(request_id, &error),
        ] {
            for cut in 0..buf.len() {
                match decode_frame(&buf[..cut]) {
                    Err(WireError::Truncated { needed, got }) => {
                        assert_eq!(got, cut);
                        assert!(
                            needed > cut,
                            "{} tag {} cut at {cut}: needed {needed} must exceed the cut",
                            framing.name,
                            buf[3]
                        );
                    }
                    other => panic!(
                        "{} tag {} cut at {cut}: expected Truncated, got {other:?}",
                        framing.name, buf[3]
                    ),
                }
            }
        }
    }
}

/// Under every header version from the framing's own on, its frames
/// decode to the same frame; under every older one their tags are
/// `UnknownFrameType` — exactly what a genuine old peer would answer.
/// (A plain request re-stamped v1 is skipped: v1 has its own request
/// layout, covered by `legacy_v1_requests_decode_with_an_inline_cost_model`.)
fn frames_exist_from_their_version_on(framing: Framing) {
    for frame in sample_frames(framing) {
        let tag = frame[3];
        let (current, _) = decode_frame(&frame).unwrap();
        for version in LEGACY_VERSION..=VERSION {
            if version == LEGACY_VERSION && tag == PLAIN.request_tag {
                continue;
            }
            let mut stamped = frame.clone();
            stamped[2] = version;
            if version >= framing.since {
                let (old, len) = decode_frame(&stamped)
                    .unwrap_or_else(|err| panic!("v{version} must decode tag {tag}: {err}"));
                assert_eq!(len, frame.len());
                assert_eq!(
                    old, current,
                    "v{version} body of tag {tag} must be identical"
                );
            } else {
                assert_eq!(
                    decode_frame(&stamped),
                    Err(WireError::UnknownFrameType(tag)),
                    "version {version} must not know {} tag {tag}",
                    framing.name
                );
            }
        }
    }
}

/// The request id is an opaque `u64`: every value is legal, so corrupting
/// its bytes cannot be a wire error — but it must change *only* the id,
/// leaving the carried request, response or error bit-identical.
fn request_id_corruption_changes_only_the_id(framing: Framing) {
    for frame in sample_frames(framing) {
        let (pristine, _) = decode_frame(&frame).unwrap();
        for byte in HEADER_LEN..HEADER_LEN + REQUEST_ID_WIRE_BYTES {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = frame.clone();
                corrupt[byte] ^= flip;
                let (decoded, consumed) =
                    decode_frame(&corrupt).expect("id corruption is not detectable");
                assert_eq!(consumed, corrupt.len());
                let mut id = [0u8; REQUEST_ID_WIRE_BYTES];
                id.copy_from_slice(&corrupt[HEADER_LEN..HEADER_LEN + REQUEST_ID_WIRE_BYTES]);
                let id = Some(u64::from_le_bytes(id));
                let expected = match pristine {
                    Frame::EncodeRequest { count, request, .. } => Frame::EncodeRequest {
                        request_id: id,
                        count,
                        request,
                    },
                    Frame::EncodeResponse { response, .. } => Frame::EncodeResponse {
                        request_id: id,
                        response,
                    },
                    Frame::Error { error, .. } => Frame::Error {
                        request_id: id,
                        error,
                    },
                    other => panic!("not an encode-family frame: {other:?}"),
                };
                assert_eq!(
                    decoded, expected,
                    "tag {} byte {byte} ^ {flip:#x}",
                    frame[3]
                );
            }
        }
    }
}

/// The request's count field corrupted to every value: either the
/// mutation keeps `count · burst_len == payload_len` (only possible for
/// the original value, since burst_len ≥ 1) or decoding yields the typed
/// `BadBatchCount` — never a panic, never a silently wrong batch. The
/// response's count is an echo, so corrupting it changes only the count.
fn count_corruption_is_typed(framing: Framing, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut payload = Vec::new();
    let count_at = HEADER_LEN + framing.id_len() + REQUEST_HEAD_LEN - 4;
    for _ in 0..8 {
        let (request_id, count, request) = arbitrary_framed(&mut rng, framing, &mut payload);
        let count = count.expect("a count framing");
        let pristine = framed_request(request_id, Some(count), &request);
        for low in 0..=255u8 {
            for high in [0u8, 1, 0x80, 0xFF] {
                let mut corrupt = pristine.clone();
                corrupt[count_at..count_at + COUNT_WIRE_BYTES].copy_from_slice(&[low, high]);
                let forged = u16::from_le_bytes([low, high]);
                match decode_frame(&corrupt) {
                    Ok((Frame::EncodeRequest { count: decoded, .. }, _)) => {
                        assert_eq!(forged, count, "only the true count may decode");
                        assert_eq!(decoded, Some(count));
                    }
                    Ok(_) => panic!("corruption changed the frame type"),
                    Err(WireError::BadBatchCount {
                        count: got_count,
                        got,
                    }) => {
                        assert_eq!(got_count, forged);
                        assert_eq!(got, request.payload.len() / usize::from(request.burst_len));
                    }
                    Err(other) => panic!("count {forged}: unexpected error {other:?}"),
                }
            }
        }
    }
    let response = &sample_frames(framing)[1];
    let (pristine, _) = decode_frame(response).unwrap();
    let count_at = HEADER_LEN + framing.id_len() + RESPONSE_HEAD_LEN - 6;
    for forged in [0u16, 1, 0x80, u16::MAX] {
        let mut corrupt = response.clone();
        corrupt[count_at..count_at + COUNT_WIRE_BYTES].copy_from_slice(&forged.to_le_bytes());
        let (
            Frame::EncodeResponse {
                request_id,
                response: view,
            },
            _,
        ) = decode_frame(&corrupt).unwrap()
        else {
            panic!("corruption changed the frame type");
        };
        let Frame::EncodeResponse {
            request_id: pristine_id,
            response: pristine_view,
        } = pristine
        else {
            unreachable!("a response image");
        };
        assert_eq!(request_id, pristine_id);
        assert_eq!(view.count, Some(forged));
        assert_eq!(view.session_id, pristine_view.session_id);
        assert_eq!(
            view.per_group().collect::<Vec<_>>(),
            pristine_view.per_group().collect::<Vec<_>>()
        );
        assert_eq!(
            view.masks().collect::<Vec<_>>(),
            pristine_view.masks().collect::<Vec<_>>()
        );
    }
}

// ---------------------------------------------------------------------------
// The table rows.
// ---------------------------------------------------------------------------

#[test]
fn arbitrary_requests_roundtrip() {
    requests_roundtrip(PLAIN, 0xA11CE);
}

#[test]
fn arbitrary_responses_roundtrip() {
    responses_roundtrip(PLAIN, 0xB0B);
}

#[test]
fn arbitrary_batch_requests_roundtrip() {
    requests_roundtrip(BATCH, 0xBA7C4);
}

#[test]
fn arbitrary_batch_responses_roundtrip() {
    responses_roundtrip(BATCH, 0xBA7C5);
}

#[test]
fn arbitrary_pipelined_frames_roundtrip() {
    requests_roundtrip(PIPELINED, 0x9192_5EED);
    responses_roundtrip(PIPELINED, 0x9192_5EEE);
    errors_roundtrip(PIPELINED, 0x9192_5EEF);
}

#[test]
fn arbitrary_pipelined_batch_frames_roundtrip() {
    requests_roundtrip(PIPELINED_BATCH, 0xBA7C_41D5);
    responses_roundtrip(PIPELINED_BATCH, 0xBA7C_41D6);
}

#[test]
fn arbitrary_error_and_metrics_frames_roundtrip() {
    errors_roundtrip(PLAIN, 0xC0FFEE);
    let mut rng = StdRng::seed_from_u64(0xC0FFEF);
    let mut buf = Vec::new();
    for _ in 0..ROUNDS {
        let message = arbitrary_message(&mut rng);
        buf.clear();
        encode_metrics_response(&mut buf, &message);
        let (Frame::MetricsResponse(json), _) = decode_frame(&buf).unwrap() else {
            panic!("round trip changed the frame type");
        };
        assert_eq!(json, message);
    }
}

#[test]
fn every_truncation_is_rejected_without_panicking() {
    every_truncation_is_typed(PLAIN, 0xD00D);
}

#[test]
fn every_batch_truncation_is_rejected_without_panicking() {
    every_truncation_is_typed(BATCH, 0xBA7C6);
}

#[test]
fn every_pipelined_truncation_is_rejected_without_panicking() {
    every_truncation_is_typed(PIPELINED, 0x0007_0CA7);
    every_truncation_is_typed(PIPELINED_BATCH, 0x0007_0CA8);
}

#[test]
fn batch_frames_do_not_exist_below_v3_and_old_frames_still_decode() {
    frames_exist_from_their_version_on(PLAIN);
    frames_exist_from_their_version_on(BATCH);

    // Metrics bodies are byte-identical across every version: re-stamping
    // the version must decode to the same frame.
    let mut request = Vec::new();
    encode_metrics_request(&mut request);
    let mut response = Vec::new();
    encode_metrics_response(&mut response, "{}");
    for frame in [request, response] {
        let (current, _) = decode_frame(&frame).unwrap();
        for version in LEGACY_VERSION..=VERSION {
            let mut stamped = frame.clone();
            stamped[2] = version;
            let (old, len) = decode_frame(&stamped)
                .unwrap_or_else(|err| panic!("v{version} must decode tag {}: {err}", frame[3]));
            assert_eq!(len, frame.len());
            assert_eq!(old, current, "v{version} metrics body must be identical");
        }
    }
}

#[test]
fn pipelined_frames_do_not_exist_below_v5() {
    frames_exist_from_their_version_on(PIPELINED);
    frames_exist_from_their_version_on(PIPELINED_BATCH);
}

/// Every framing carrying a request id: tags 12–16.
#[test]
fn request_id_corruption_stays_inside_the_id_field() {
    for framing in FRAMINGS.into_iter().filter(|framing| framing.request_id) {
        request_id_corruption_changes_only_the_id(framing);
    }
}

/// Every framing carrying a count: tags 6, 7, 14 and 15.
#[test]
fn batch_count_corruption_is_exhaustively_typed() {
    for (index, framing) in FRAMINGS
        .into_iter()
        .filter(|framing| framing.count)
        .enumerate()
    {
        count_corruption_is_typed(framing, 0xC0417 + index as u64);
    }
}

/// The table names every encode-family tag exactly once (the two error
/// tags are shared by the rows with and without a count), and each
/// shorthand writer writes exactly its framing.
#[test]
fn framing_table_covers_the_encode_family() {
    let mut tags: Vec<u8> = FRAMINGS
        .iter()
        .flat_map(|framing| [framing.request_tag, framing.response_tag])
        .chain([PLAIN.error_tag, PIPELINED.error_tag])
        .collect();
    tags.sort_unstable();
    assert_eq!(tags, [1, 2, 3, 6, 7, 12, 13, 14, 15, 16]);
    // The batch shorthand writes exactly the batch framing.
    let payload = [1u8; 16];
    let request = EncodeRequestFrame {
        session_id: 1,
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Inline,
        groups: 1,
        burst_len: 8,
        want_masks: false,
        verify: VerifyMode::Off,
        payload: &payload,
    };
    let batch = EncodeBatchRequestFrame::from_request(&request).unwrap();
    let mut shorthand = Vec::new();
    batch.encode_into(&mut shorthand);
    assert_eq!(shorthand, framed_request(None, Some(2), &request));
    // So do the pipelined shorthands.
    let mut shorthand = Vec::new();
    PipelinedRequestFrame {
        request_id: 7,
        request,
    }
    .encode_into(&mut shorthand);
    assert_eq!(shorthand, framed_request(Some(7), None, &request));
    let response = EncodeResponseFrame {
        session_id: 1,
        bursts: 2,
        per_group: &[CostBreakdown::new(3, 4)],
        masks: &[],
    };
    let mut shorthand = Vec::new();
    PipelinedResponseFrame {
        request_id: 7,
        response,
    }
    .encode_into(&mut shorthand);
    assert_eq!(shorthand, framed_response(Some(7), None, &response));
}

#[test]
fn corrupt_headers_are_typed_errors_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut buf = Vec::new();
    encode_metrics_request(&mut buf);
    let reference = buf.clone();

    // Wrong version.
    buf[2] = VERSION.wrapping_add(1);
    assert_eq!(
        decode_frame(&buf),
        Err(WireError::UnsupportedVersion(VERSION.wrapping_add(1)))
    );
    buf.copy_from_slice(&reference);

    // Oversized body announcement.
    buf[4..8].copy_from_slice(&(u32::MAX / 2).to_le_bytes());
    assert!(matches!(
        decode_frame(&buf),
        Err(WireError::Oversized { .. })
    ));
    buf.copy_from_slice(&reference);

    // Random single-byte corruption of a real frame of every framing:
    // decoding may succeed (payload bytes are arbitrary) but must never
    // panic, and a corrupted *header* must never be accepted as a
    // different length.
    let mut payload = Vec::new();
    for round in 0..64 {
        let framing = FRAMINGS[round % FRAMINGS.len()];
        let (request_id, count, request) = arbitrary_framed(&mut rng, framing, &mut payload);
        let mut frame = framed_request(request_id, count, &request);
        let index = rng.gen_range(0usize..frame.len());
        frame[index] ^= 1 << rng.gen_range(0u8..8);
        let _ = decode_frame(&frame); // must not panic
    }

    // Random garbage buffers of every small length: same bar.
    for len in 0..64usize {
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        let _ = decode_frame(&garbage);
    }
}

/// Every byte of the cost-model field corrupted to every value: decoding
/// either succeeds (the mutation landed on a don't-care pad byte or
/// produced another valid model) or yields a typed cost-model error —
/// never a panic, and never a frame that silently misreports its model.
#[test]
fn cost_model_field_corruption_is_exhaustively_typed() {
    use dbi_service::wire::COST_MODEL_WIRE_BYTES;
    let mut rng = StdRng::seed_from_u64(0xC057);
    let mut payload = Vec::new();
    // The cost-model field sits after session_id (8), scheme tag (1) and
    // the scheme weights (8).
    let field_at = HEADER_LEN + 8 + 1 + 8;
    for _ in 0..8 {
        let request = arbitrary_request(&mut rng, &mut payload);
        let mut pristine = Vec::new();
        request_frame(request, &payload).encode_into(&mut pristine);
        for offset in 0..COST_MODEL_WIRE_BYTES {
            for value in 0..=255u8 {
                let mut frame = pristine.clone();
                frame[field_at + offset] = value;
                match decode_frame(&frame) {
                    Ok((Frame::EncodeRequest { request: view, .. }, consumed)) => {
                        assert_eq!(consumed, frame.len());
                        // Whatever decoded must re-encode to the same
                        // model when written back out.
                        let mut reencoded = Vec::new();
                        view.encode_into(&mut reencoded);
                        let (Frame::EncodeRequest { request: again, .. }, _) =
                            decode_frame(&reencoded).unwrap()
                        else {
                            panic!("re-encode changed the frame type");
                        };
                        assert_eq!(again.cost_model, view.cost_model);
                    }
                    Ok(_) => panic!("corruption changed the frame type"),
                    Err(
                        WireError::UnknownCostModelTag(_)
                        | WireError::UnknownInterfaceTag(_)
                        | WireError::BadDataRate
                        | WireError::BadWeights,
                    ) => {}
                    Err(other) => {
                        panic!("offset {offset} value {value}: unexpected error {other:?}")
                    }
                }
            }
        }
    }
}

/// Arbitrary v1 request frames (hand-assembled in the legacy layout)
/// still decode, with the cost model defaulting to `Inline` — the
/// documented compatibility contract of the version-2 protocol.
#[test]
fn legacy_v1_requests_decode_with_an_inline_cost_model() {
    use dbi_service::wire::V1_REQUEST_HEAD_LEN;
    let mut rng = StdRng::seed_from_u64(0x1E9AC);
    let mut payload = Vec::new();
    for _ in 0..ROUNDS {
        let (session_id, scheme, _, groups, burst_len, want_masks) =
            arbitrary_request(&mut rng, &mut payload);
        // v2 encode, then surgically rewrite into the v1 layout: drop the
        // 13-byte cost-model field and fix up the lengths.
        let request = request_frame(
            (
                session_id,
                scheme,
                CostModel::Inline,
                groups,
                burst_len,
                want_masks,
            ),
            &payload,
        );
        let mut v1 = Vec::new();
        request.encode_into(&mut v1);
        v1[2] = LEGACY_VERSION;
        let field_at = 8 + 8 + 1 + 8;
        v1.drain(field_at..field_at + 13);
        let body_len = (V1_REQUEST_HEAD_LEN + payload.len()) as u32;
        v1[4..8].copy_from_slice(&body_len.to_le_bytes());

        let (decoded, consumed) = decode_frame(&v1).expect("v1 frames must decode");
        assert_eq!(consumed, v1.len());
        assert_eq!(
            decoded,
            Frame::EncodeRequest {
                request_id: None,
                count: None,
                request
            }
        );

        // And every truncation of the v1 frame is still a typed error.
        for cut in 0..v1.len() {
            assert!(
                matches!(decode_frame(&v1[..cut]), Err(WireError::Truncated { .. })),
                "v1 cut at {cut} must be Truncated"
            );
        }
    }
    // A v2 header over the shared v2+ layout decodes identically too.
    let request = &sample_frames(PLAIN)[0];
    let mut v2 = request.clone();
    v2[2] = V2_VERSION;
    assert_eq!(decode_frame(&v2), decode_frame(request));
}

/// Empty and oversized batches never decode as valid frames.
#[test]
fn empty_and_oversized_batches_are_rejected() {
    // count = 0 with an empty payload: structurally consistent lengths,
    // still rejected — a batch must carry at least one burst.
    let empty = EncodeRequestFrame {
        session_id: 1,
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Inline,
        groups: 1,
        burst_len: 8,
        want_masks: false,
        verify: VerifyMode::Off,
        payload: &[],
    };
    for framing in FRAMINGS.into_iter().filter(|framing| framing.count) {
        let request_id = framing.request_id.then_some(9);
        assert_eq!(
            decode_frame(&framed_request(request_id, Some(0), &empty)),
            Err(WireError::BadBatchCount { count: 0, got: 0 })
        );

        // A count field that exceeds the payload is typed, whatever the
        // size.
        let payload = vec![0u8; 8 * 100];
        let request = EncodeRequestFrame {
            payload: &payload,
            ..empty
        };
        assert_eq!(
            decode_frame(&framed_request(request_id, Some(u16::MAX), &request)),
            Err(WireError::BadBatchCount {
                count: u16::MAX,
                got: 100
            })
        );

        // A header announcing a body beyond MAX_BODY_LEN is rejected
        // before any batch field is read.
        let mut buf = framed_request(request_id, Some(100), &request);
        buf[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&buf),
            Err(WireError::Oversized { .. })
        ));
    }
}

/// Frames concatenated back-to-back decode independently, each reporting
/// its own length — the invariant the TCP framing layer relies on.
#[test]
fn concatenated_frames_are_walkable() {
    let mut rng = StdRng::seed_from_u64(0xCA7);
    let mut payload = Vec::new();
    let mut buf = Vec::new();
    let mut expected = Vec::new();
    for index in 0..20 {
        let framing = FRAMINGS[index % FRAMINGS.len()];
        let (request_id, count, request) = arbitrary_framed(&mut rng, framing, &mut payload);
        request.encode_framed_into(&mut buf, request_id, count);
        expected.push((request_id, request.session_id, payload.clone()));
    }
    let mut offset = 0;
    let mut seen = 0;
    while offset < buf.len() {
        let (frame, consumed) = decode_frame(&buf[offset..]).unwrap();
        let Frame::EncodeRequest {
            request_id,
            request: view,
            ..
        } = frame
        else {
            panic!("unexpected frame type");
        };
        assert_eq!(request_id, expected[seen].0);
        assert_eq!(view.session_id, expected[seen].1);
        assert_eq!(view.payload, expected[seen].2.as_slice());
        offset += consumed;
        seen += 1;
    }
    assert_eq!(seen, expected.len());
    assert_eq!(offset, buf.len());
}
