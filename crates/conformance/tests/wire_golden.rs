//! Drift check of the encode-family wire formats: the checked-in
//! `vectors/wire_v6.hex` images must match what the frame writers
//! produce today, and every image must decode through the production
//! decoder and re-encode to identical bytes. A failing test means a
//! frame layout changed — which breaks every peer of the older layout —
//! so the diff must be deliberate.

use dbi_conformance::wire_golden::{
    from_hex_document, golden_wire_images, to_hex_document, CHECKED_IN_WIRE,
};
use dbi_core::{CostBreakdown, InversionMask};
use dbi_service::wire::{decode_frame, EncodeResponseFrame, Frame};

/// Re-encodes a decoded encode-family frame through this build's writers
/// (which always stamp the current version). `None` for frames outside
/// the encode family.
fn reencode(frame: &Frame<'_>) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    match *frame {
        Frame::EncodeRequest {
            request_id,
            count,
            request,
        } => request.encode_framed_into(&mut out, request_id, count),
        Frame::EncodeResponse {
            request_id,
            response,
        } => {
            let per_group: Vec<CostBreakdown> = response.per_group().collect();
            let masks: Vec<InversionMask> = response.masks().collect();
            EncodeResponseFrame {
                session_id: response.session_id,
                bursts: response.bursts,
                per_group: &per_group,
                masks: &masks,
            }
            .encode_framed_into(&mut out, request_id, response.count);
        }
        Frame::Error { request_id, error } => error.encode_framed_into(&mut out, request_id),
        _ => return None,
    }
    Some(out)
}

#[test]
fn checked_in_wire_images_match_a_fresh_generation() {
    let checked_in = from_hex_document(CHECKED_IN_WIRE);
    let fresh = golden_wire_images();
    assert_eq!(checked_in.len(), fresh.len(), "image count changed");
    for (old, new) in checked_in.iter().zip(&fresh) {
        assert_eq!(
            old, new,
            "vectors/wire_v6.hex: image {} has drifted; regenerate with \
             `cargo run -p dbi-conformance --bin gen_golden` and review the \
             diff — peers of the old layout must keep decoding",
            old.name
        );
    }
    // And the hex rendering itself is stable.
    assert_eq!(to_hex_document(&checked_in), CHECKED_IN_WIRE);
}

#[test]
fn every_image_decodes_and_reencodes_to_identical_bytes() {
    let images = from_hex_document(CHECKED_IN_WIRE);
    let tags: std::collections::BTreeSet<u8> = images.iter().map(|image| image.bytes[3]).collect();
    assert_eq!(
        tags.into_iter().collect::<Vec<_>>(),
        [1, 2, 3, 6, 7, 12, 13, 14, 15, 16],
        "the image must cover every encode-family tag"
    );
    for image in &images {
        let (frame, consumed) = decode_frame(&image.bytes)
            .unwrap_or_else(|err| panic!("{}: does not decode: {err}", image.name));
        assert_eq!(consumed, image.bytes.len(), "{}", image.name);
        let written = reencode(&frame)
            .unwrap_or_else(|| panic!("{}: not an encode-family frame", image.name));
        let expected = match &image.decodes_as {
            None => &image.bytes,
            Some(target) => {
                &images
                    .iter()
                    .find(|other| &other.name == target)
                    .unwrap_or_else(|| panic!("{}: no image named {target}", image.name))
                    .bytes
            }
        };
        assert_eq!(
            &written, expected,
            "{}: re-encoding changed the bytes",
            image.name
        );
    }
}
