//! Golden images of the encode-family wire frames: every request,
//! response and error tag of the encode operation (1, 2, 3, 6, 7 and
//! 12–16), with masks on and off and the verify bit on and off, plus
//! decode-only images under version-1 and version-2 headers — generated
//! deterministically and checked in as `vectors/wire_v6.hex`.
//!
//! The frame layouts are a compatibility promise to every peer speaking
//! an older protocol version. The corpus in [`crate::corpus`] pins the
//! *coding* behaviour and [`crate::persist_golden`] the on-disk formats;
//! this module pins the *wire* layout the same way: an unchanged writer
//! reproduces the checked-in image bit for bit, and every image decodes
//! and re-encodes to the same bytes, so any diff under version control is
//! a deliberate (and reviewable) protocol change. Regenerate with
//! `cargo run -p dbi-conformance --bin gen_golden`.

use dbi_core::{CostBreakdown, CostWeights, InversionMask, Scheme};
use dbi_service::wire::{
    CostModel, EncodeBatchRequestFrame, EncodeRequestFrame, EncodeResponseFrame, ErrorCode,
    ErrorFrame, VerifyMode, COST_MODEL_WIRE_BYTES, HEADER_LEN, LEGACY_VERSION, V2_VERSION,
};

/// The checked-in golden image (hex text, one named block per frame,
/// blocks separated by a blank line).
pub const CHECKED_IN_WIRE: &str = include_str!("../vectors/wire_v6.hex");

/// One named frame image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireImage {
    /// Stable name: tag, frame and the flag combination it carries.
    pub name: String,
    /// For a decode-only image (an older header this build never
    /// writes): the name of the current-version image it must decode to
    /// and re-encode as. `None` for images this build writes itself,
    /// which must re-encode to their own bytes.
    pub decodes_as: Option<String>,
    /// The full frame, header included.
    pub bytes: Vec<u8>,
}

/// The (masks, verify) combinations every request framing is imaged with.
const FLAGS: [(bool, VerifyMode); 4] = [
    (false, VerifyMode::Off),
    (true, VerifyMode::Off),
    (false, VerifyMode::RoundTrip),
    (true, VerifyMode::RoundTrip),
];

/// Groups and burst length of every imaged request: two accesses of a
/// 2-group BL8 channel, so the batch count field reads 4.
const GROUPS: u16 = 2;
const BURST_LEN: u8 = 8;
const PAYLOAD_LEN: usize = 2 * GROUPS as usize * BURST_LEN as usize;

fn flag_name(want_masks: bool, verify: VerifyMode) -> String {
    format!(
        "masks-{}.verify-{}",
        if want_masks { "on" } else { "off" },
        if verify.is_on() { "on" } else { "off" }
    )
}

/// The request of flag combination `index` in framing `family`: scheme,
/// cost model, session id and payload all vary so every field takes a
/// distinguishing value somewhere in the image. Combination 1 (masks on,
/// verify off) always carries the inline cost model, so its version-1
/// rewrite is a faithful v1 frame.
fn golden_request(family: usize, index: usize, payload: &[u8]) -> EncodeRequestFrame<'_> {
    let schemes = [
        Scheme::OptFixed,
        Scheme::Opt(CostWeights::new(2, 3).expect("nonzero weights")),
        Scheme::Dc,
        Scheme::Greedy(CostWeights::new(3, 5).expect("nonzero weights")),
    ];
    let cost_model = match index {
        0 => CostModel::Weights(CostWeights::new(4, 1).expect("nonzero beta")),
        2 => "pod12@3.2".parse().expect("a named operating point"),
        _ => CostModel::Inline,
    };
    let (want_masks, verify) = FLAGS[index];
    EncodeRequestFrame {
        session_id: 0x00C0_DE00 + (family * 16 + index) as u64,
        scheme: schemes[(family + index) % schemes.len()],
        cost_model,
        groups: GROUPS,
        burst_len: BURST_LEN,
        want_masks,
        verify,
        payload,
    }
}

fn golden_payload(family: usize, index: usize) -> Vec<u8> {
    let mut seed = 0x9E37_79B9u32 ^ ((family * 16 + index) as u32);
    (0..PAYLOAD_LEN)
        .map(|_| {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (seed >> 24) as u8
        })
        .collect()
}

fn request_id(family: usize, index: usize) -> u64 {
    0x0123_4567_89AB_0000 + (family * 16 + index) as u64
}

fn image(name: String, bytes: Vec<u8>) -> WireImage {
    WireImage {
        name,
        decodes_as: None,
        bytes,
    }
}

/// Every golden image, in document order.
#[must_use]
pub fn golden_wire_images() -> Vec<WireImage> {
    let mut images = Vec::new();

    // Requests: the four framings × the four flag combinations.
    for (family, label) in [
        "t01.request",
        "t06.batch-request",
        "t12.pipelined-request",
        "t14.pipelined-batch-request",
    ]
    .into_iter()
    .enumerate()
    {
        for (index, &(want_masks, verify)) in FLAGS.iter().enumerate() {
            let payload = golden_payload(family, index);
            let request = golden_request(family, index, &payload);
            let count = EncodeBatchRequestFrame::from_request(&request)
                .expect("whole bursts")
                .count;
            let mut out = Vec::new();
            request.encode_framed_into(
                &mut out,
                (family >= 2).then(|| request_id(family, index)),
                (family % 2 == 1).then_some(count),
            );
            images.push(image(
                format!("{label}.{}", flag_name(want_masks, verify)),
                out,
            ));
        }
    }

    // Responses: the four framings, without and with masks.
    let per_group = [CostBreakdown::new(11, 7), CostBreakdown::new(5, 13)];
    let masks = [
        InversionMask::from_bits(0b1010_0101),
        InversionMask::NONE,
        InversionMask::from_bits(0xFF),
        InversionMask::from_bits(0b0001_1000),
    ];
    for (family, label) in [
        "t02.response",
        "t07.batch-response",
        "t13.pipelined-response",
        "t15.pipelined-batch-response",
    ]
    .into_iter()
    .enumerate()
    {
        for with_masks in [false, true] {
            let masks: &[InversionMask] = if with_masks { &masks } else { &[] };
            let response = EncodeResponseFrame {
                session_id: 0x00C0_DE00 + family as u64,
                bursts: 4,
                per_group: &per_group,
                masks,
            };
            let mut out = Vec::new();
            response.encode_framed_into(
                &mut out,
                (family >= 2).then(|| request_id(family, usize::from(with_masks))),
                (family % 2 == 1).then_some(4),
            );
            let suffix = if with_masks { "masks-on" } else { "masks-off" };
            images.push(image(format!("{label}.{suffix}"), out));
        }
    }

    // Errors: the plain and the id-carrying form, two codes each.
    for (code, message) in [
        (ErrorCode::Overloaded, "shard 3 queue is full"),
        (ErrorCode::SessionLimit, "shard 0 is at its session limit"),
    ] {
        let error = ErrorFrame { code, message };
        let mut out = Vec::new();
        error.encode_into(&mut out);
        images.push(image(format!("t03.error.code-{}", code as u8), out));
        let mut out = Vec::new();
        error.encode_framed_into(&mut out, Some(0x0123_4567_89AB_CDEF));
        images.push(image(
            format!("t16.pipelined-error.code-{}", code as u8),
            out,
        ));
    }

    // Decode-only images: a version-2 header over the shared v2+ request
    // layout, and a version-1 request in its legacy layout (no cost-model
    // field), each decoding to the named current-version image.
    let v2_source = images[0].clone();
    let mut v2 = v2_source.bytes;
    v2[2] = V2_VERSION;
    images.push(WireImage {
        name: "v2-header.t01.request.masks-off.verify-off".to_owned(),
        decodes_as: Some(v2_source.name),
        bytes: v2,
    });
    let v1_source = images[1].clone();
    let mut v1 = v1_source.bytes;
    v1[2] = LEGACY_VERSION;
    let cost_model_at = HEADER_LEN + 8 + 1 + CostWeights::WIRE_BYTES;
    v1.drain(cost_model_at..cost_model_at + COST_MODEL_WIRE_BYTES);
    let body_len = (v1.len() - HEADER_LEN) as u32;
    v1[4..8].copy_from_slice(&body_len.to_le_bytes());
    images.push(WireImage {
        name: "v1-header.t01.request.masks-on.verify-off".to_owned(),
        decodes_as: Some(v1_source.name),
        bytes: v1,
    });
    images
}

/// Renders the images as the checked-in hex document: per image, a name
/// line (`name` or `name = decodes_as`), then the bytes as hex, 32 per
/// line; images separated by a blank line.
#[must_use]
pub fn to_hex_document(images: &[WireImage]) -> String {
    crate::hex::to_hex_document(images.iter().map(|image| {
        let header = match &image.decodes_as {
            Some(target) => format!("{} = {target}", image.name),
            None => image.name.clone(),
        };
        (Some(header), image.bytes.as_slice())
    }))
}

/// Parses a hex document back into its images.
///
/// # Panics
///
/// Panics when a block is not a name line followed by hex lines — the
/// file is checked in, so malformation means a bad edit.
#[must_use]
pub fn from_hex_document(doc: &str) -> Vec<WireImage> {
    crate::hex::from_hex_document(doc, true)
        .into_iter()
        .map(|(header, bytes)| {
            let header = header.expect("a name line");
            let (name, decodes_as) = match header.split_once(" = ") {
                Some((name, target)) => (name.to_owned(), Some(target.to_owned())),
                None => (header.to_owned(), None),
            };
            WireImage {
                name,
                decodes_as,
                bytes,
            }
        })
        .collect()
}
