//! # dbi-conformance
//!
//! The conformance oracle of the workspace: everything else proves the
//! layers agree with **each other** (differential tests against the
//! repo's own serial paths), which a bug shared by both sides would pass
//! silently. This crate pins correctness to something *external*:
//!
//! * [`reference`](mod@crate::reference) — encoders written straight from the paper's scheme
//!   definitions in plain lane-word arithmetic: no cost LUTs, no
//!   survivor-mask kernels, no slabs. The independent implementation the
//!   production stack is judged against.
//! * [`corpus`] — checked-in **golden vectors** (JSON, parsed by the
//!   dependency-free [`json`] reader): carried-state chains per scheme ×
//!   burst length, generated once from the reference implementation by
//!   `cargo run -p dbi-conformance --bin gen_golden`.
//! * [`replay`] — replays the corpus through all four production levels:
//!   the per-burst mask path, the batched slab kernels, multi-group
//!   [`dbi_mem::BusSession`] streams, and the TCP service with verify
//!   mode on. Encode *and* decode at every level.
//! * [`fuzz`] — a seeded, structure-aware fuzz harness (deterministic
//!   vendored RNG) asserting encode→decode identity, reference-oracle
//!   equality, optimal-cost invariants and plan-swap coherence over
//!   randomised geometries, payload families and mutations.
//! * [`persist_golden`] — checked-in golden images of the durable-store
//!   byte formats (version-1 snapshot + journal), so the on-disk layout
//!   cannot drift silently either.
//! * [`wire_golden`] — checked-in golden images of every encode-family
//!   wire frame (requests, responses and errors in all four framings,
//!   plus decode-only v1/v2-header requests), so the protocol's byte
//!   layout is pinned the same way.
//!
//! CI runs the corpus replay and a 10 000-case fuzz smoke on every push
//! (`tests/golden.rs`, `tests/fuzz_smoke.rs`); the `conformance` binary
//! runs the same suite standalone.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod corpus;
pub mod fuzz;
mod hex;
pub mod json;
pub mod persist_golden;
pub mod reference;
pub mod replay;
pub mod wire_golden;

pub use corpus::{Corpus, GoldenVector, GOLDEN_SEED};
pub use fuzz::{FuzzConfig, FuzzReport};
pub use replay::ReplayStats;
