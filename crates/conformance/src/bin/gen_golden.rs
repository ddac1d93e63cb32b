//! Regenerates the checked-in golden corpus from the reference
//! implementation.
//!
//! ```text
//! cargo run -p dbi-conformance --bin gen_golden
//! ```
//!
//! Generation is deterministic in [`dbi_conformance::GOLDEN_SEED`], so an
//! unchanged generator reproduces `vectors/golden.json` byte for byte;
//! a diff under version control therefore always means the reference
//! implementation (or the corpus shape) deliberately changed.

use dbi_conformance::{persist_golden, wire_golden, Corpus, GOLDEN_SEED};

fn main() {
    let corpus = Corpus::generate(GOLDEN_SEED);
    let json = corpus.to_json();
    // Self-check before touching the file: the document must round-trip.
    let parsed = Corpus::from_json(&json).expect("generated corpus must parse");
    assert_eq!(parsed, corpus, "generated corpus must round-trip");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/vectors/golden.json");
    std::fs::write(path, &json).expect("writing the corpus file");
    println!(
        "wrote {} vectors ({} bytes) to {path}",
        corpus.vectors.len(),
        json.len()
    );

    // The durable-store format pin rides the same generator: hex images
    // of a version-1 snapshot and its paired journal.
    let snapshot = persist_golden::golden_snapshot_image();
    let journal = persist_golden::golden_journal_image();
    let doc = persist_golden::to_hex_document(&snapshot, &journal);
    let (re_snapshot, re_journal) = persist_golden::from_hex_document(&doc);
    assert_eq!(re_snapshot, snapshot, "hex document must round-trip");
    assert_eq!(re_journal, journal, "hex document must round-trip");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/vectors/persist_v1.hex");
    std::fs::write(path, &doc).expect("writing the persist image file");
    println!(
        "wrote persist images ({} + {} bytes) to {path}",
        snapshot.len(),
        journal.len()
    );

    // The wire-format pin: every encode-family frame image.
    let images = wire_golden::golden_wire_images();
    let doc = wire_golden::to_hex_document(&images);
    assert_eq!(
        wire_golden::from_hex_document(&doc),
        images,
        "hex document must round-trip"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/vectors/wire_v6.hex");
    std::fs::write(path, &doc).expect("writing the wire image file");
    println!("wrote {} wire images to {path}", images.len());
}
