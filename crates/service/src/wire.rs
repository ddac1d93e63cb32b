//! The binary wire protocol of the encode service.
//!
//! Every message is one length-prefixed **frame**:
//!
//! ```text
//!  0      2      3      4            8
//! +------+------+------+------------+----------------- - - -
//! | "DB" | ver  | type | body_len   | body (body_len bytes)
//! | u16  | u8   | u8   | u32 LE     |
//! +------+------+------+------------+----------------- - - -
//! ```
//!
//! The 8-byte header carries a magic (`0x4244`, ASCII `"DB"` little-endian),
//! the protocol version, the frame type tag and the body length; frames
//! whose body would exceed [`MAX_BODY_LEN`] are rejected before any body
//! byte is read. All multi-byte integers are little-endian.
//!
//! ## The encode operation
//!
//! The service runs one operation, and it has **one request body and one
//! response body**. Its tags differ only in which of two optional fields
//! a body carries: a `u64` **request id** in front (protocol 5,
//! pipelining) and a `u16` **burst count** (protocol 3, batching). One
//! table maps the `(request id?, count?)` pair to the tags and to the
//! first version that defines them:
//!
//! | request id | count | request | response | error | since |
//! |------------|-------|---------|----------|-------|-------|
//! | –          | –     | 1       | 2        | 3     | v1    |
//! | –          | ✓     | 6       | 7        | 3     | v3    |
//! | ✓          | –     | 12      | 13       | 16    | v5    |
//! | ✓          | ✓     | 14      | 15       | 16    | v5    |
//!
//! ```text
//! request:  [request_id u64] session_id u64 | scheme u8 | weights 8 |
//!           cost_model 13 | groups u16 | burst_len u8 | flags u8 |
//!           [count u16] | payload_len u32 | payload
//! response: [request_id u64] session_id u64 | bursts u64 | [count u16] |
//!           group_count u16 | mask_count u32 | per-group records | masks
//! error:    [request_id u64] code u8 | message (UTF-8)
//! ```
//!
//! [`EncodeRequestFrame`] is both the written and the decoded request,
//! [`EncodeResponseFrame`] / [`EncodeResponseView`] the written and
//! decoded response, and [`ErrorFrame`] the error both ways. Each writes
//! every framing through one `encode_framed_into(out, request_id, count)`;
//! [`EncodeBatchRequestFrame`], [`PipelinedRequestFrame`] and
//! [`PipelinedResponseFrame`] are shorthands for one framing each.
//! [`decode_frame`] answers [`Frame::EncodeRequest`],
//! [`Frame::EncodeResponse`] or [`Frame::Error`], with the optional
//! fields as `Option`s.
//!
//! **The count field.** `count` is the total number of per-group bursts
//! in the payload and must satisfy `count > 0` and
//! `count · burst_len == payload_len` (violations decode to
//! [`WireError::BadBatchCount`]). The response echoes it after the burst
//! total. A batch carries a whole stream of bursts for one session under
//! a single header, where a per-burst client would have sent N frames.
//!
//! **The request id.** The id is chosen by the client and echoed
//! verbatim in the matching response or error, so many requests can be
//! in flight on one connection and responses are matched **by id rather
//! than by arrival order**. Ordering contract: responses may complete
//! out of order *across* sessions, but requests of one session complete
//! FIFO — sticky shard routing still serialises each session's carried
//! bus state, so pipelined results stay bit-identical to a serial run.
//! The id-free tags remain valid under every later header with their
//! strict one-in-one-out semantics. Failures that cannot be attributed
//! to one request (malformed frames, slow-consumer drops) always use the
//! id-free error tag.
//!
//! ## The other frames
//!
//! | tag | frame | direction | since |
//! |-----|-------|-----------|-------|
//! | 4 | metrics request (empty body) | client → service | v1 |
//! | 5 | metrics response (UTF-8 JSON body) | service → client | v1 |
//! | 8 | trace-dump request (`u32` max events) | client → service | v4 |
//! | 9 | [`TraceDumpResponseView`] | service → client | v4 |
//! | 10 | slowlog query (`u32` max entries) | client → service | v4 |
//! | 11 | [`SlowlogResponseView`] | service → client | v4 |
//! | 17 | snapshot request (empty body) | client → service | v6 |
//! | 18 | snapshot-status request (empty body) | client → service | v6 |
//! | 19 | restore request (empty body) | client → service | v6 |
//! | 20 | [`SnapshotStatus`] response | service → client | v6 |
//!
//! ## The v4 telemetry frames
//!
//! Protocol 4 adds the **observability plane** (see
//! [`crate::telemetry`]): two admin request/response pairs draining the
//! engine's trace rings and slowlogs. Both requests carry a single
//! little-endian `u32` bound on the answer size. The trace-dump response
//! body is a `u32` event count followed by that many fixed-width
//! [`TraceEvent`] records ([`TraceEvent::WIRE_BYTES`] bytes each); the
//! slowlog response prefixes the same layout with the engine's `u64`
//! capture threshold in nanoseconds:
//!
//! ```text
//! trace dump: count u32 | count × 48-byte TraceEvent records
//! slowlog:    threshold_ns u64 | count u32 | count × 48-byte records
//! ```
//!
//! The count field must agree with the body length
//! ([`WireError::BodyMismatch`]) and every record's outcome byte must be
//! a defined [`TraceOutcome`] ([`WireError::UnknownTraceOutcome`]) — both
//! checked eagerly by the decoder, so the views' record iterators cannot
//! fail.
//!
//! ## The v6 durability admin frames
//!
//! Protocol 6 adds the **durable session plane** admin surface (see
//! [`crate::persist`]): three empty-bodied requests — trigger a snapshot
//! (tag 17), query snapshot status (tag 18), restore from disk (tag 19)
//! — all answered by the shared [`SnapshotStatus`] response (tag 20),
//! a fixed 41-byte body:
//!
//! ```text
//! configured u8 | generation u64 | snapshots_taken u64 |
//! last_sessions u64 | last_bytes u64 | restored_sessions u64
//! ```
//!
//! `configured` must be 0 or 1 (anything else is
//! [`WireError::UnknownFlags`]). Protocol 6 also gives session-limit
//! rejections their own typed code, [`ErrorCode::SessionLimit`]; peers
//! that announced an older version keep receiving
//! [`ErrorCode::Overloaded`] for them (see
//! [`ErrorCode::downgrade_for`]).
//!
//! ## Versioning
//!
//! This build speaks protocol [`VERSION`] 6. Version 2 added the
//! fixed-width **cost-model field** to encode requests: [`CostModel`]
//! selects the (α, β) source for a session — the weights embedded in the
//! scheme (v1 semantics), raw runtime coefficients, or a named phy
//! operating point such as `sstl15@6.4` / `pod12@3.2`. Version 3 added
//! the count field and redefined the request's `want_masks` byte as a
//! **flags** byte: bit 0 keeps its v1 `want_masks` meaning and bit 1 is
//! the [`VerifyMode`] **verify bit** — the engine must decode its own
//! output through the receiver path and prove the round trip before
//! replying (failures are [`ErrorCode::VerifyMismatch`]). Every v1/v2
//! body layout is unchanged.
//!
//! Version negotiation rules, receive side:
//!
//! * headers announcing versions 1 through [`VERSION`] are accepted;
//!   anything else is [`WireError::UnsupportedVersion`];
//! * a v1 encode request (no cost-model field) decodes with
//!   [`CostModel::Inline`]; v2/v3 encode requests are byte-identical;
//! * every tag exists only from the version that introduced it — the
//!   batch tags (6, 7) from v3, the telemetry tags (8–11) from v4, the
//!   pipelined tags (12–16) from v5 and the durability admin tags
//!   (17–20) from v6; under an older header a newer tag is
//!   [`WireError::UnknownFrameType`], exactly as a genuine older peer
//!   would treat it;
//! * error-frame bodies are decoded version-blind, but the *writer*
//!   downgrades codes a peer's announced version predates:
//!   [`ErrorCode::SessionLimit`] (v6) travels as
//!   [`ErrorCode::Overloaded`] to a peer whose failing request was
//!   stamped v5 or older — the remedy (back off, spread over fewer
//!   sessions) is the same, and the older peer's decoder would reject
//!   the unknown code byte outright;
//! * the verify bit exists only from v3 on — under a v1/v2 header it is
//!   [`WireError::VerifyUnsupported`] (those versions defined the byte
//!   as a bare boolean, so a set bit 1 there is a corrupt or lying
//!   frame, not a request); flag bits above bit 1 are
//!   [`WireError::UnknownFlags`] under every version;
//! * response/error/metrics bodies are byte-identical across every
//!   accepted version.
//!
//! The compatibility is deliberately **receive-side only**: this build
//! answers every peer with version-[`VERSION`] headers, so a strict older peer
//! (whose decoder rejects any newer version byte) can be *decoded by*
//! this service but cannot parse its replies. That keeps the frame
//! writers version-free and is sufficient for the supported migration
//! order — upgrade servers first, then clients; an old *frame stream*
//! (captures, queued frames, old client builds being migrated) stays
//! readable throughout. A client that must stay compatible with a v2
//! server simply never sends the count field; every frame it receives
//! in answer decodes under both versions' rules.
//!
//! Encoding appends to a caller-owned `Vec<u8>` (reused buffers never
//! reallocate in steady state); decoding is **zero-copy and `unsafe`-free**:
//! [`decode_frame`] hands back views that borrow the receive buffer —
//! payload bytes, per-group cost records and mask streams are exposed as
//! slices/iterators over the original bytes, never copied into new
//! allocations. Malformed input of any shape yields a typed [`WireError`],
//! never a panic.

use crate::telemetry::{TraceEvent, TraceOutcome};
use core::fmt;
use dbi_core::{CostBreakdown, CostWeights, InversionMask, Scheme};
use dbi_phy::{NamedInterface, OperatingPoint};

/// The two magic bytes opening every frame: ASCII `"DB"`.
pub const MAGIC: [u8; 2] = *b"DB";

/// Protocol version written by this build. Peers announcing a version
/// outside [`LEGACY_VERSION`]`..=`[`VERSION`] are rejected with
/// [`WireError::UnsupportedVersion`].
pub const VERSION: u8 = 6;

/// The previous protocol version (pipelined frames, no durability admin
/// frames), still accepted on decode (see the
/// [module documentation](self) for the compatibility rules).
pub const V5_VERSION: u8 = 5;

/// Protocol version 4 (telemetry frames, no pipelined frames), still
/// accepted on decode.
pub const V4_VERSION: u8 = 4;

/// Protocol version 3 (batch frames and the verify bit, no telemetry
/// frames), still accepted on decode.
pub const V3_VERSION: u8 = 3;

/// Protocol version 2 (cost-model field, no batch frames), still
/// accepted on decode.
pub const V2_VERSION: u8 = 2;

/// The protocol version that introduced the batch framing of the encode
/// operation (tags 6 and 7, carrying the burst-count field). Its tags
/// under an older header are [`WireError::UnknownFrameType`] — pinned
/// here, not to [`VERSION`], so future version bumps keep decoding
/// version-3 batch streams.
pub const BATCH_MIN_VERSION: u8 = 3;

/// The protocol version that turned the encode-request `want_masks` byte
/// into a **flags** byte and defined its verify bit ([`VerifyMode`]).
/// Frames older than this carrying the verify bit — or any other bit
/// beyond `want_masks` — are rejected with
/// [`WireError::VerifyUnsupported`], exactly as a genuine v1/v2 peer
/// (which defined no such bit) must not be assumed to have meant it.
pub const VERIFY_MIN_VERSION: u8 = 3;

/// The protocol version that introduced the telemetry admin frames
/// (trace dump and slowlog query). Their tags under an older header are
/// [`WireError::UnknownFrameType`] — pinned here, not to [`VERSION`], so
/// future version bumps keep decoding version-4 telemetry streams.
pub const TELEMETRY_MIN_VERSION: u8 = 4;

/// The protocol version that introduced the pipelined framings of the
/// encode operation (tags 12–16, carrying a `u64` **request id** so many
/// frames can be in flight per connection, matched by id rather than
/// ordering). Their tags under an older header are
/// [`WireError::UnknownFrameType`] — pinned here, not to [`VERSION`], so
/// future version bumps keep decoding version-5 pipelined streams.
pub const PIPELINE_MIN_VERSION: u8 = 5;

/// The protocol version that introduced the durability admin frames
/// (tags 17–20: trigger snapshot, query snapshot status, restore, and
/// the shared [`SnapshotStatus`] response) and the typed
/// [`ErrorCode::SessionLimit`]. Their tags under an older header are
/// [`WireError::UnknownFrameType`] — pinned here, not to [`VERSION`], so
/// future version bumps keep decoding version-6 admin streams.
pub const DURABILITY_MIN_VERSION: u8 = 6;

/// The oldest protocol version still accepted on decode (no cost-model
/// field, no batch frames).
pub const LEGACY_VERSION: u8 = 1;

/// Bytes in the fixed frame header.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a frame body. Larger frames are rejected at the header,
/// so a malicious or corrupt length field can never trigger a huge read.
pub const MAX_BODY_LEN: usize = 8 << 20;

/// Size of the fixed-width wire encoding of a [`CostModel`]: a tag byte
/// plus a 12-byte payload (padded so every variant is the same width).
pub const COST_MODEL_WIRE_BYTES: usize = 13;

/// Size of the optional request-id field that opens a pipelined encode
/// body (protocol 5).
pub const REQUEST_ID_WIRE_BYTES: usize = 8;

/// Size of the optional burst-count field of a batch encode body
/// (protocol 3).
pub const COUNT_WIRE_BYTES: usize = 2;

/// The most bytes the optional fields add to an encode body: a request
/// id plus a burst count (the pipelined batch framing). Public so the
/// engine can verify that whatever it admits fits a frame in every
/// framing.
pub const MAX_FRAMING_WIRE_BYTES: usize = REQUEST_ID_WIRE_BYTES + COUNT_WIRE_BYTES;

/// Fixed-size part of a version-2 encode-request body without optional
/// fields, before the payload bytes.
pub const REQUEST_HEAD_LEN: usize =
    8 + 1 + CostWeights::WIRE_BYTES + COST_MODEL_WIRE_BYTES + 2 + 1 + 1 + 4;

/// Fixed-size part of a version-1 encode-request body (no cost-model
/// field).
pub const V1_REQUEST_HEAD_LEN: usize = 8 + 1 + CostWeights::WIRE_BYTES + 2 + 1 + 1 + 4;

/// Fixed-size part of an encode-response body without optional fields,
/// before the records.
pub const RESPONSE_HEAD_LEN: usize = 8 + 8 + 2 + 4;

/// Tags of the frames outside the encode family (whose tags live in
/// [`FRAMINGS`]).
mod tag {
    pub const METRICS_REQUEST: u8 = 4;
    pub const METRICS_RESPONSE: u8 = 5;
    pub const TRACE_DUMP_REQUEST: u8 = 8;
    pub const TRACE_DUMP_RESPONSE: u8 = 9;
    pub const SLOWLOG_REQUEST: u8 = 10;
    pub const SLOWLOG_RESPONSE: u8 = 11;
    pub const SNAPSHOT_REQUEST: u8 = 17;
    pub const SNAPSHOT_STATUS_REQUEST: u8 = 18;
    pub const RESTORE_REQUEST: u8 = 19;
    pub const SNAPSHOT_STATUS_RESPONSE: u8 = 20;
}

/// One framing of the encode operation: which optional fields its bodies
/// carry, the tags of its request, response and error frames, and the
/// first protocol version defining them.
#[derive(Debug)]
struct Framing {
    request_id: bool,
    count: bool,
    request: u8,
    response: u8,
    error: u8,
    since: u8,
}

/// Every framing of the encode operation, indexed by
/// `(request id?, count?)` — the one place the encode family's tags and
/// version gates are written down. Both error tags serve two rows: an
/// error carries the request id but never the count.
const FRAMINGS: [Framing; 4] = [
    Framing {
        request_id: false,
        count: false,
        request: 1,
        response: 2,
        error: 3,
        since: LEGACY_VERSION,
    },
    Framing {
        request_id: false,
        count: true,
        request: 6,
        response: 7,
        error: 3,
        since: BATCH_MIN_VERSION,
    },
    Framing {
        request_id: true,
        count: false,
        request: 12,
        response: 13,
        error: 16,
        since: PIPELINE_MIN_VERSION,
    },
    Framing {
        request_id: true,
        count: true,
        request: 14,
        response: 15,
        error: 16,
        since: PIPELINE_MIN_VERSION,
    },
];

/// Which direction of the encode operation a tag carries.
#[derive(Debug, Clone, Copy)]
enum Role {
    Request,
    Response,
    Error,
}

impl Framing {
    /// The framing selected by a body's optional fields.
    fn of(request_id: Option<u64>, count: Option<u16>) -> &'static Framing {
        &FRAMINGS[2 * usize::from(request_id.is_some()) + usize::from(count.is_some())]
    }

    /// The role and framing of an encode-family tag (`None` for any other
    /// tag). Error tags resolve to their count-free row.
    fn lookup(tag: u8) -> Option<(Role, &'static Framing)> {
        FRAMINGS.iter().find_map(|row| {
            let role = match tag {
                t if t == row.request => Role::Request,
                t if t == row.response => Role::Response,
                t if t == row.error => Role::Error,
                _ => return None,
            };
            Some((role, row))
        })
    }

    /// Bytes the optional fields add to a body of this framing.
    fn prefix_len(&self) -> usize {
        usize::from(self.request_id) * REQUEST_ID_WIRE_BYTES
            + usize::from(self.count) * COUNT_WIRE_BYTES
    }
}

/// A malformed or unsupported frame. Decoding never panics; every failure
/// mode is one of these variants.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ends before the frame does.
    Truncated {
        /// Bytes required to make progress.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The frame does not start with [`MAGIC`].
    BadMagic([u8; 2]),
    /// The peer speaks a different protocol version.
    UnsupportedVersion(u8),
    /// The frame type tag is not one this version defines.
    UnknownFrameType(u8),
    /// The header announces a body larger than [`MAX_BODY_LEN`].
    Oversized {
        /// Announced body length.
        got: usize,
        /// The enforced limit.
        max: usize,
    },
    /// The body's internal length fields disagree with the body length.
    BodyMismatch,
    /// The scheme tag is not one this version defines.
    UnknownSchemeTag(u8),
    /// A parametric scheme carried invalid cost coefficients.
    BadWeights,
    /// The error code byte is not one this version defines.
    UnknownErrorCode(u8),
    /// A text field is not valid UTF-8.
    BadUtf8,
    /// The cost-model tag is not one this version defines.
    UnknownCostModelTag(u8),
    /// A named cost model carried an interface tag this version does not
    /// define.
    UnknownInterfaceTag(u8),
    /// A named cost model carried a zero data rate.
    BadDataRate,
    /// A batch frame's burst-count field is zero or disagrees with the
    /// payload length (protocol version 3).
    BadBatchCount {
        /// The count field carried by the frame.
        count: u16,
        /// Bursts the payload actually holds at the announced burst
        /// length.
        got: usize,
    },
    /// An encode request under a pre-[`VERIFY_MIN_VERSION`] header carries
    /// the verify-mode bit, which those versions do not define.
    VerifyUnsupported {
        /// The version the frame was stamped with.
        version: u8,
    },
    /// The request's flags byte carries bits this version does not define
    /// (beyond `want_masks` and, from v3, verify).
    UnknownFlags(u8),
    /// A trace record's outcome byte is not one this version defines
    /// (protocol version 4).
    UnknownTraceOutcome(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, have {got}")
            }
            WireError::BadMagic(bytes) => write!(f, "bad frame magic {bytes:02X?}"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks {VERSION} \
                     and still decodes {LEGACY_VERSION} through {V5_VERSION})"
                )
            }
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            WireError::Oversized { got, max } => {
                write!(f, "frame body of {got} bytes exceeds the {max}-byte limit")
            }
            WireError::BodyMismatch => {
                write!(
                    f,
                    "frame body length disagrees with its internal length fields"
                )
            }
            WireError::UnknownSchemeTag(t) => write!(f, "unknown scheme tag {t}"),
            WireError::BadWeights => write!(f, "parametric scheme carries invalid cost weights"),
            WireError::UnknownErrorCode(c) => write!(f, "unknown error code {c}"),
            WireError::BadUtf8 => write!(f, "text field is not valid UTF-8"),
            WireError::UnknownCostModelTag(t) => write!(f, "unknown cost-model tag {t}"),
            WireError::UnknownInterfaceTag(t) => {
                write!(f, "unknown operating-point interface tag {t}")
            }
            WireError::BadDataRate => {
                write!(f, "named cost model carries a zero data rate")
            }
            WireError::BadBatchCount { count, got } => {
                write!(
                    f,
                    "batch count field of {count} disagrees with the {got} bursts in the payload"
                )
            }
            WireError::VerifyUnsupported { version } => {
                write!(
                    f,
                    "verify mode requires protocol version {VERIFY_MIN_VERSION}, \
                     but the frame is stamped version {version}"
                )
            }
            WireError::UnknownFlags(flags) => {
                write!(f, "request flags {flags:#04x} carry undefined bits")
            }
            WireError::UnknownTraceOutcome(byte) => {
                write!(f, "unknown trace outcome byte {byte}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Typed error codes carried by [`ErrorFrame`]s — the wire image of
/// [`ServiceError`](crate::ServiceError).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The target shard's queue was full; retry later.
    Overloaded = 1,
    /// The service is shutting down.
    ShuttingDown = 2,
    /// The requested channel geometry is unsupported.
    BadGeometry = 3,
    /// The payload is empty, misaligned or too large.
    BadPayload = 4,
    /// A session id was reused with a different configuration.
    SessionMismatch = 5,
    /// The request frame itself was malformed.
    BadRequest = 6,
    /// The service hit an internal invariant violation.
    Internal = 7,
    /// The request's cost model does not apply to its scheme (protocol
    /// version 2).
    BadCostModel = 8,
    /// A verify-mode request's output failed to decode back to its input
    /// — the engine detected an encode/decode asymmetry (protocol
    /// version 3).
    VerifyMismatch = 9,
    /// The connection's write buffer overran its high-watermark: the
    /// peer stopped draining responses faster than it submitted
    /// requests, and the service dropped the connection rather than
    /// block an I/O thread on it (protocol version 5).
    SlowConsumer = 10,
    /// The target shard holds its maximum number of sessions, all of
    /// them busy in the pass in flight, so the new session could neither
    /// be created nor make room by evicting an idle one (protocol
    /// version 6; peers announcing an older version receive
    /// [`ErrorCode::Overloaded`] instead — see
    /// [`ErrorCode::downgrade_for`]).
    SessionLimit = 11,
}

impl ErrorCode {
    fn from_u8(byte: u8) -> Result<Self, WireError> {
        match byte {
            1 => Ok(ErrorCode::Overloaded),
            2 => Ok(ErrorCode::ShuttingDown),
            3 => Ok(ErrorCode::BadGeometry),
            4 => Ok(ErrorCode::BadPayload),
            5 => Ok(ErrorCode::SessionMismatch),
            6 => Ok(ErrorCode::BadRequest),
            7 => Ok(ErrorCode::Internal),
            8 => Ok(ErrorCode::BadCostModel),
            9 => Ok(ErrorCode::VerifyMismatch),
            10 => Ok(ErrorCode::SlowConsumer),
            11 => Ok(ErrorCode::SessionLimit),
            other => Err(WireError::UnknownErrorCode(other)),
        }
    }

    /// The code to actually put on the wire for a peer whose failing
    /// request announced `version`: codes newer than the peer's version
    /// are mapped to the closest code that version defines, so a strict
    /// older decoder never sees a code byte it cannot type.
    /// [`ErrorCode::SessionLimit`] (v6) downgrades to
    /// [`ErrorCode::Overloaded`]; every pre-v6 code passes through
    /// unchanged.
    #[must_use]
    pub fn downgrade_for(self, version: u8) -> Self {
        match self {
            ErrorCode::SessionLimit if version < DURABILITY_MIN_VERSION => ErrorCode::Overloaded,
            other => other,
        }
    }
}

/// Whether the engine must **decode its own output** and prove it equal to
/// the request's payload before replying — the protocol-3 verify bit of
/// the request flags byte.
///
/// Verification replays the full receiver path: the worker reconstructs
/// the wire image from payload + masks, decodes it through the carried
/// receiver state ([`dbi_mem::BusSession::decode_stream_into`]), and
/// compares payload bytes, per-group wire activity and carried lane
/// states. Any asymmetry fails the request with
/// [`ErrorCode::VerifyMismatch`] instead of returning silently wrong
/// results. Costs one extra decode pass over the payload; off by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VerifyMode {
    /// Encode only (the v1/v2 behaviour); no receiver replay.
    #[default]
    Off,
    /// Decode the encoded output back through the receiver path and
    /// fail the request on any mismatch.
    RoundTrip,
}

impl VerifyMode {
    /// `true` when verification is requested.
    #[must_use]
    pub const fn is_on(self) -> bool {
        matches!(self, VerifyMode::RoundTrip)
    }
}

impl fmt::Display for VerifyMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyMode::Off => f.write_str("off"),
            VerifyMode::RoundTrip => f.write_str("round-trip"),
        }
    }
}

/// Bits of the encode-request flags byte (the former `want_masks` byte;
/// bit 0 keeps its v1 meaning, so every frame an actual v1/v2 writer
/// produced decodes unchanged).
mod request_flags {
    pub const WANT_MASKS: u8 = 1 << 0;
    pub const VERIFY: u8 = 1 << 1;
    pub const KNOWN: u8 = WANT_MASKS | VERIFY;
}

/// Encodes the flags byte of an encode/batch request.
fn encode_request_flags(want_masks: bool, verify: VerifyMode) -> u8 {
    let mut flags = 0;
    if want_masks {
        flags |= request_flags::WANT_MASKS;
    }
    if verify.is_on() {
        flags |= request_flags::VERIFY;
    }
    flags
}

/// Decodes and validates the flags byte of an encode/batch request under
/// the frame's announced version: undefined bits are
/// [`WireError::UnknownFlags`] everywhere, and the verify bit is
/// [`WireError::VerifyUnsupported`] below [`VERIFY_MIN_VERSION`].
fn decode_request_flags(byte: u8, version: u8) -> Result<(bool, VerifyMode), WireError> {
    if byte & !request_flags::KNOWN != 0 {
        return Err(WireError::UnknownFlags(byte));
    }
    let verify = if byte & request_flags::VERIFY != 0 {
        if version < VERIFY_MIN_VERSION {
            return Err(WireError::VerifyUnsupported { version });
        }
        VerifyMode::RoundTrip
    } else {
        VerifyMode::Off
    };
    Ok((byte & request_flags::WANT_MASKS != 0, verify))
}

/// Where a session's cost coefficients come from — the protocol-2
/// **cost-model field** of an encode request.
///
/// The model composes with the request's [`Scheme`]: for the parametric
/// schemes (`Opt`, `OptFixed`, `Greedy`) a non-inline model *replaces*
/// the embedded weights; the engine rejects non-inline models on schemes
/// that take no coefficients (with [`ErrorCode::BadCostModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum CostModel {
    /// Use the weights embedded in the scheme field — exactly the
    /// version-1 semantics. This is what v1 frames decode to.
    #[default]
    Inline,
    /// Explicit runtime coefficients (raw `alpha,beta`).
    Weights(CostWeights),
    /// A named phy operating point (e.g. `sstl15@6.4`, `pod12@3.2`); the
    /// engine quantises the point's energy ratio into coefficients.
    Named(OperatingPoint),
}

/// Cost-model wire tags.
mod cost_model_tag {
    pub const INLINE: u8 = 0;
    pub const WEIGHTS: u8 = 1;
    pub const NAMED: u8 = 2;
}

impl CostModel {
    /// Appends the fixed-width ([`COST_MODEL_WIRE_BYTES`]) wire form:
    /// a tag byte, then a 12-byte payload (zero-padded).
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut payload = [0u8; COST_MODEL_WIRE_BYTES - 1];
        let tag = match *self {
            CostModel::Inline => cost_model_tag::INLINE,
            CostModel::Weights(weights) => {
                payload[..CostWeights::WIRE_BYTES].copy_from_slice(&weights.to_le_bytes());
                cost_model_tag::WEIGHTS
            }
            CostModel::Named(point) => {
                payload[0] = point.interface().wire_tag();
                payload[4..8].copy_from_slice(&point.rate_mbps().to_le_bytes());
                cost_model_tag::NAMED
            }
        };
        out.push(tag);
        out.extend_from_slice(&payload);
    }

    /// Inverse of [`CostModel::encode_into`]. Padding bytes are ignored.
    fn decode(bytes: &[u8; COST_MODEL_WIRE_BYTES]) -> Result<CostModel, WireError> {
        let payload = &bytes[1..];
        match bytes[0] {
            cost_model_tag::INLINE => Ok(CostModel::Inline),
            cost_model_tag::WEIGHTS => {
                let mut weights = [0u8; CostWeights::WIRE_BYTES];
                weights.copy_from_slice(&payload[..CostWeights::WIRE_BYTES]);
                Ok(CostModel::Weights(
                    CostWeights::from_le_bytes(weights).map_err(|_| WireError::BadWeights)?,
                ))
            }
            cost_model_tag::NAMED => {
                let interface = NamedInterface::from_wire_tag(payload[0])
                    .ok_or(WireError::UnknownInterfaceTag(payload[0]))?;
                let rate_mbps =
                    u32::from_le_bytes([payload[4], payload[5], payload[6], payload[7]]);
                let point = OperatingPoint::new(interface, rate_mbps)
                    .map_err(|_| WireError::BadDataRate)?;
                Ok(CostModel::Named(point))
            }
            other => Err(WireError::UnknownCostModelTag(other)),
        }
    }
}

impl fmt::Display for CostModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostModel::Inline => f.write_str("inline"),
            CostModel::Weights(weights) => write!(f, "{},{}", weights.alpha(), weights.beta()),
            CostModel::Named(point) => write!(f, "{point}"),
        }
    }
}

/// Failure to parse a [`CostModel`] from its string form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCostModelError(String);

impl fmt::Display for ParseCostModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot parse {:?} as a cost model (expected \"inline\", \"ALPHA,BETA\" \
             or \"interface@gbps\")",
            self.0
        )
    }
}

impl std::error::Error for ParseCostModelError {}

impl core::str::FromStr for CostModel {
    type Err = ParseCostModelError;

    /// Parses the human-facing cost-model forms: `inline` (or an empty
    /// string), raw `ALPHA,BETA` coefficients (`3,1`), or a named
    /// operating point (`sstl15@6.4`, `pod12@3.2`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim();
        let invalid = || ParseCostModelError(trimmed.to_owned());
        if trimmed.is_empty() || trimmed.eq_ignore_ascii_case("inline") {
            return Ok(CostModel::Inline);
        }
        if trimmed.contains('@') {
            let point: OperatingPoint = trimmed.parse().map_err(|_| invalid())?;
            return Ok(CostModel::Named(point));
        }
        let (alpha, beta) = trimmed.split_once(',').ok_or_else(invalid)?;
        let alpha: u32 = alpha.trim().parse().map_err(|_| invalid())?;
        let beta: u32 = beta.trim().parse().map_err(|_| invalid())?;
        CostWeights::new(alpha, beta)
            .map(CostModel::Weights)
            .map_err(|_| invalid())
    }
}

/// Maps a [`Scheme`] to its wire tag and the weights field it travels with.
pub(crate) fn scheme_to_wire(scheme: Scheme) -> (u8, CostWeights) {
    match scheme {
        Scheme::Raw => (0, CostWeights::FIXED),
        Scheme::Dc => (1, CostWeights::FIXED),
        Scheme::Ac => (2, CostWeights::FIXED),
        Scheme::AcDc => (3, CostWeights::FIXED),
        Scheme::Greedy(w) => (4, w),
        Scheme::Opt(w) => (5, w),
        Scheme::OptFixed => (6, CostWeights::FIXED),
        // `Scheme` is non-exhaustive: a new variant needs a new tag (and a
        // protocol version bump), which this panic makes impossible to miss.
        other => unimplemented!("scheme {other} has no wire tag in protocol version {VERSION}"),
    }
}

/// Inverse of [`scheme_to_wire`]: the weights field is only interpreted for
/// the parametric schemes.
fn scheme_from_wire(tag: u8, weights: [u8; CostWeights::WIRE_BYTES]) -> Result<Scheme, WireError> {
    let parse = || CostWeights::from_le_bytes(weights).map_err(|_| WireError::BadWeights);
    match tag {
        0 => Ok(Scheme::Raw),
        1 => Ok(Scheme::Dc),
        2 => Ok(Scheme::Ac),
        3 => Ok(Scheme::AcDc),
        4 => Ok(Scheme::Greedy(parse()?)),
        5 => Ok(Scheme::Opt(parse()?)),
        6 => Ok(Scheme::OptFixed),
        other => Err(WireError::UnknownSchemeTag(other)),
    }
}

/// A parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// The protocol version the frame was written with ([`VERSION`] or
    /// [`LEGACY_VERSION`]).
    pub version: u8,
    /// The frame type tag (validated later, by [`decode_frame`]).
    pub frame_type: u8,
    /// Announced body length in bytes.
    pub body_len: usize,
}

/// Parses and validates the fixed 8-byte header: magic, version and the
/// [`MAX_BODY_LEN`] bound. Every version from [`LEGACY_VERSION`] through
/// [`VERSION`] is accepted; the version is reported in the returned
/// [`Header`] so body decoding can pick the right layout.
///
/// # Errors
///
/// [`WireError::Truncated`], [`WireError::BadMagic`],
/// [`WireError::UnsupportedVersion`] or [`WireError::Oversized`].
pub fn parse_header(bytes: &[u8]) -> Result<Header, WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            got: bytes.len(),
        });
    }
    if bytes[..2] != MAGIC {
        return Err(WireError::BadMagic([bytes[0], bytes[1]]));
    }
    if !(LEGACY_VERSION..=VERSION).contains(&bytes[2]) {
        return Err(WireError::UnsupportedVersion(bytes[2]));
    }
    let body_len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
    if body_len > MAX_BODY_LEN {
        return Err(WireError::Oversized {
            got: body_len,
            max: MAX_BODY_LEN,
        });
    }
    Ok(Header {
        version: bytes[2],
        frame_type: bytes[3],
        body_len,
    })
}

fn push_header(out: &mut Vec<u8>, frame_type: u8, body_len: usize) {
    debug_assert!(body_len <= MAX_BODY_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(frame_type);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
}

/// An encode request: the write-side frame and, equally, the decoded
/// form — [`decode_frame`] hands one back with its payload borrowed
/// straight from the receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeRequestFrame<'a> {
    /// Client-chosen session id; requests with the same id share carried
    /// bus state and are routed to the same shard.
    pub session_id: u64,
    /// The DBI scheme to encode with.
    pub scheme: Scheme,
    /// Where the session's cost coefficients come from (protocol 2); see
    /// [`CostModel`]. [`CostModel::Inline`] reproduces v1 semantics, and
    /// is what every version-1 frame decodes to.
    pub cost_model: CostModel,
    /// Lane groups of the channel.
    pub groups: u16,
    /// Burst length in beats.
    pub burst_len: u8,
    /// When set, the response carries the per-burst inversion masks.
    pub want_masks: bool,
    /// Whether the engine must decode its own output and prove the round
    /// trip before replying (protocol 3); see [`VerifyMode`]. Always
    /// [`VerifyMode::Off`] for decoded v1/v2 frames, whose flags byte may
    /// only carry the mask bit.
    pub verify: VerifyMode,
    /// Beat-interleaved payload bytes (byte `k` of an access travels on
    /// group `k mod groups`).
    pub payload: &'a [u8],
}

impl EncodeRequestFrame<'_> {
    /// Appends the plain frame (tag 1) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_framed_into(out, None, None);
    }

    /// Appends the frame in the framing its optional fields select (see
    /// the [module documentation](self)): a `request_id` prefixes the
    /// body (protocol 5), a `count` sits between the flags byte and the
    /// payload length (protocol 3). The one writer of every encode
    /// request tag.
    pub fn encode_framed_into(
        &self,
        out: &mut Vec<u8>,
        request_id: Option<u64>,
        count: Option<u16>,
    ) {
        let framing = Framing::of(request_id, count);
        push_header(
            out,
            framing.request,
            framing.prefix_len() + REQUEST_HEAD_LEN + self.payload.len(),
        );
        if let Some(id) = request_id {
            out.extend_from_slice(&id.to_le_bytes());
        }
        let (tag, weights) = scheme_to_wire(self.scheme);
        out.extend_from_slice(&self.session_id.to_le_bytes());
        out.push(tag);
        out.extend_from_slice(&weights.to_le_bytes());
        self.cost_model.encode_into(out);
        out.extend_from_slice(&self.groups.to_le_bytes());
        out.push(self.burst_len);
        out.push(encode_request_flags(self.want_masks, self.verify));
        if let Some(count) = count {
            out.extend_from_slice(&count.to_le_bytes());
        }
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(self.payload);
    }
}

/// Reads an encode-request body (after any request-id prefix) in the
/// layout `version` defines, with the burst-count field when `with_count`.
fn read_request(
    body: &[u8],
    version: u8,
    with_count: bool,
) -> Result<(Option<u16>, EncodeRequestFrame<'_>), WireError> {
    let legacy = version == LEGACY_VERSION;
    let head_len = if legacy {
        V1_REQUEST_HEAD_LEN
    } else {
        REQUEST_HEAD_LEN
    } + if with_count { COUNT_WIRE_BYTES } else { 0 };
    if body.len() < head_len {
        return Err(WireError::Truncated {
            needed: head_len,
            got: body.len(),
        });
    }
    let session_id = u64::from_le_bytes(body[..8].try_into().expect("checked length"));
    let scheme_tag = body[8];
    let mut weights = [0u8; CostWeights::WIRE_BYTES];
    weights.copy_from_slice(&body[9..9 + CostWeights::WIRE_BYTES]);
    let mut rest = &body[9 + CostWeights::WIRE_BYTES..];
    let cost_model = if legacy {
        CostModel::Inline
    } else {
        let mut field = [0u8; COST_MODEL_WIRE_BYTES];
        field.copy_from_slice(&rest[..COST_MODEL_WIRE_BYTES]);
        rest = &rest[COST_MODEL_WIRE_BYTES..];
        CostModel::decode(&field)?
    };
    let groups = u16::from_le_bytes([rest[0], rest[1]]);
    let burst_len = rest[2];
    let (want_masks, verify) = decode_request_flags(rest[3], version)?;
    rest = &rest[4..];
    let count = if with_count {
        let count = u16::from_le_bytes([rest[0], rest[1]]);
        rest = &rest[COUNT_WIRE_BYTES..];
        Some(count)
    } else {
        None
    };
    let payload_len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
    let payload = &body[head_len..];
    if payload.len() != payload_len {
        return Err(WireError::BodyMismatch);
    }
    if let Some(count) = count {
        let got = payload
            .len()
            .checked_div(usize::from(burst_len))
            .unwrap_or(0);
        if count == 0 || usize::from(count) * usize::from(burst_len) != payload.len() {
            return Err(WireError::BadBatchCount { count, got });
        }
    }
    let request = EncodeRequestFrame {
        session_id,
        scheme: scheme_from_wire(scheme_tag, weights)?,
        cost_model,
        groups,
        burst_len,
        want_masks,
        verify,
        payload,
    };
    Ok((count, request))
}

/// A batched encode request (protocol version 3): one header, one
/// contiguous payload carrying a whole batch of bursts for a session,
/// plus the burst-count field. See the [module documentation](self) for
/// the count-field invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeBatchRequestFrame<'a> {
    /// The request itself.
    pub request: EncodeRequestFrame<'a>,
    /// Total per-group bursts in the payload; must equal
    /// `payload.len() / burst_len`.
    pub count: u16,
}

impl<'a> EncodeBatchRequestFrame<'a> {
    /// Builds the batch form of a plain encode request, computing the
    /// burst-count field from the payload. Returns `None` when the
    /// payload does not divide into `burst_len`-byte bursts or the count
    /// overflows the `u16` field.
    #[must_use]
    pub fn from_request(request: &EncodeRequestFrame<'a>) -> Option<Self> {
        let burst_len = usize::from(request.burst_len);
        if burst_len == 0 || !request.payload.len().is_multiple_of(burst_len) {
            return None;
        }
        let count = u16::try_from(request.payload.len() / burst_len).ok()?;
        Some(EncodeBatchRequestFrame {
            request: *request,
            count,
        })
    }

    /// Appends the batch frame (tag 6) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.request.encode_framed_into(out, None, Some(self.count));
    }
}

/// A pipelined encode request (protocol version 5): an
/// [`EncodeRequestFrame`] behind a client-chosen `u64` **request id**.
/// Many of these may be in flight on one connection; the service echoes
/// the id on the matching response or error, so responses are matched
/// by id rather than by ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelinedRequestFrame<'a> {
    /// Client-chosen id echoed by the matching response; unique among
    /// the connection's in-flight requests.
    pub request_id: u64,
    /// The encode request itself.
    pub request: EncodeRequestFrame<'a>,
}

impl PipelinedRequestFrame<'_> {
    /// Appends the pipelined frame (tag 12) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.request
            .encode_framed_into(out, Some(self.request_id), None);
    }
}

/// An encode response, in its borrowed write-side form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeResponseFrame<'a> {
    /// Echo of the request's session id.
    pub session_id: u64,
    /// Per-group bursts encoded by this request.
    pub bursts: u64,
    /// Activity added by this request, one record per lane group.
    pub per_group: &'a [CostBreakdown],
    /// Per-burst inversion decisions in transmission order; empty unless
    /// the request set [`EncodeRequestFrame::want_masks`].
    pub masks: &'a [InversionMask],
}

impl EncodeResponseFrame<'_> {
    /// Appends the plain frame (tag 2) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_framed_into(out, None, None);
    }

    /// Appends the frame in the framing its optional fields select: a
    /// `request_id` prefixes the body, a `count` (the request's, echoed)
    /// follows the burst total. The one writer of every encode response
    /// tag.
    pub fn encode_framed_into(
        &self,
        out: &mut Vec<u8>,
        request_id: Option<u64>,
        count: Option<u16>,
    ) {
        let framing = Framing::of(request_id, count);
        push_header(
            out,
            framing.response,
            framing.prefix_len()
                + RESPONSE_HEAD_LEN
                + self.per_group.len() * CostBreakdown::WIRE_BYTES
                + self.masks.len() * InversionMask::WIRE_BYTES,
        );
        if let Some(id) = request_id {
            out.extend_from_slice(&id.to_le_bytes());
        }
        out.extend_from_slice(&self.session_id.to_le_bytes());
        out.extend_from_slice(&self.bursts.to_le_bytes());
        if let Some(count) = count {
            out.extend_from_slice(&count.to_le_bytes());
        }
        out.extend_from_slice(&(self.per_group.len() as u16).to_le_bytes());
        out.extend_from_slice(&(self.masks.len() as u32).to_le_bytes());
        for record in self.per_group {
            out.extend_from_slice(&record.to_le_bytes());
        }
        for mask in self.masks {
            out.extend_from_slice(&mask.to_le_bytes());
        }
    }
}

/// A pipelined encode response (protocol version 5): the
/// [`EncodeResponseFrame`] behind the request's echoed id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelinedResponseFrame<'a> {
    /// Echo of the request's id.
    pub request_id: u64,
    /// The response itself.
    pub response: EncodeResponseFrame<'a>,
}

impl PipelinedResponseFrame<'_> {
    /// Appends the pipelined frame (tag 13) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.response
            .encode_framed_into(out, Some(self.request_id), None);
    }
}

/// A decoded encode response. The record streams stay in the receive
/// buffer; [`EncodeResponseView::per_group`] and
/// [`EncodeResponseView::masks`] decode them on the fly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeResponseView<'a> {
    /// Echo of the request's session id.
    pub session_id: u64,
    /// Per-group bursts encoded by this request.
    pub bursts: u64,
    /// Echo of the request's burst-count field; `Some` exactly for the
    /// batch framings (tags 7 and 15).
    pub count: Option<u16>,
    per_group_bytes: &'a [u8],
    mask_bytes: &'a [u8],
}

impl<'a> EncodeResponseView<'a> {
    /// Number of lane-group records.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.per_group_bytes.len() / CostBreakdown::WIRE_BYTES
    }

    /// Number of inversion masks.
    #[must_use]
    pub fn mask_count(&self) -> usize {
        self.mask_bytes.len() / InversionMask::WIRE_BYTES
    }

    /// The per-group activity records, decoded from the borrowed bytes.
    pub fn per_group(&self) -> impl Iterator<Item = CostBreakdown> + 'a {
        self.per_group_bytes
            .chunks_exact(CostBreakdown::WIRE_BYTES)
            .map(|chunk| CostBreakdown::from_le_bytes(chunk.try_into().expect("exact chunks")))
    }

    /// The per-burst inversion masks, decoded from the borrowed bytes.
    pub fn masks(&self) -> impl Iterator<Item = InversionMask> + 'a {
        self.mask_bytes
            .chunks_exact(InversionMask::WIRE_BYTES)
            .map(|chunk| InversionMask::from_le_bytes(chunk.try_into().expect("exact chunks")))
    }
}

/// Reads an encode-response body (after any request-id prefix), with the
/// echoed burst-count field when `with_count`.
fn read_response(body: &[u8], with_count: bool) -> Result<EncodeResponseView<'_>, WireError> {
    let head_len = RESPONSE_HEAD_LEN + if with_count { COUNT_WIRE_BYTES } else { 0 };
    if body.len() < head_len {
        return Err(WireError::Truncated {
            needed: head_len,
            got: body.len(),
        });
    }
    let session_id = u64::from_le_bytes(body[..8].try_into().expect("checked length"));
    let bursts = u64::from_le_bytes(body[8..16].try_into().expect("checked length"));
    let (count, rest) = if with_count {
        (Some(u16::from_le_bytes([body[16], body[17]])), &body[18..])
    } else {
        (None, &body[16..])
    };
    let group_count = u16::from_le_bytes([rest[0], rest[1]]) as usize;
    let mask_count = u32::from_le_bytes([rest[2], rest[3], rest[4], rest[5]]) as usize;
    let records = &body[head_len..];
    let group_bytes = group_count
        .checked_mul(CostBreakdown::WIRE_BYTES)
        .ok_or(WireError::BodyMismatch)?;
    let mask_bytes = mask_count
        .checked_mul(InversionMask::WIRE_BYTES)
        .ok_or(WireError::BodyMismatch)?;
    if records.len()
        != group_bytes
            .checked_add(mask_bytes)
            .ok_or(WireError::BodyMismatch)?
    {
        return Err(WireError::BodyMismatch);
    }
    Ok(EncodeResponseView {
        session_id,
        bursts,
        count,
        per_group_bytes: &records[..group_bytes],
        mask_bytes: &records[group_bytes..],
    })
}

/// An error response: the write-side frame and, equally, the decoded
/// form (its message borrowed from the receive buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrorFrame<'a> {
    /// The typed error code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: &'a str,
}

impl ErrorFrame<'_> {
    /// Appends the plain frame (tag 3) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_framed_into(out, None);
    }

    /// Appends the frame behind the failed request's echoed id when
    /// `request_id` is set (tag 16, protocol 5), so a failure among many
    /// in-flight requests still lands on the right caller. Failures that
    /// cannot be attributed to one request (malformed frames,
    /// slow-consumer drops) use the plain form.
    pub fn encode_framed_into(&self, out: &mut Vec<u8>, request_id: Option<u64>) {
        let framing = Framing::of(request_id, None);
        push_header(
            out,
            framing.error,
            framing.prefix_len() + 1 + self.message.len(),
        );
        if let Some(id) = request_id {
            out.extend_from_slice(&id.to_le_bytes());
        }
        out.push(self.code as u8);
        out.extend_from_slice(self.message.as_bytes());
    }
}

fn read_error(body: &[u8]) -> Result<ErrorFrame<'_>, WireError> {
    let (&code, message) = body
        .split_first()
        .ok_or(WireError::Truncated { needed: 1, got: 0 })?;
    Ok(ErrorFrame {
        code: ErrorCode::from_u8(code)?,
        message: core::str::from_utf8(message).map_err(|_| WireError::BadUtf8)?,
    })
}

/// Decodes an encode-family frame — any tag of the [`FRAMINGS`] table
/// the header's version defines — into the one request, response or
/// error shape.
fn decode_encode_frame(tag: u8, version: u8, body: &[u8]) -> Result<Frame<'_>, WireError> {
    let Some((role, framing)) = Framing::lookup(tag).filter(|(_, row)| version >= row.since) else {
        return Err(WireError::UnknownFrameType(tag));
    };
    let (request_id, body) = if framing.request_id {
        if body.len() < REQUEST_ID_WIRE_BYTES {
            return Err(WireError::Truncated {
                needed: REQUEST_ID_WIRE_BYTES,
                got: body.len(),
            });
        }
        let (id, rest) = body.split_at(REQUEST_ID_WIRE_BYTES);
        (
            Some(u64::from_le_bytes(id.try_into().expect("split length"))),
            rest,
        )
    } else {
        (None, body)
    };
    Ok(match role {
        Role::Request => {
            let (count, request) = read_request(body, version, framing.count)?;
            Frame::EncodeRequest {
                request_id,
                count,
                request,
            }
        }
        Role::Response => Frame::EncodeResponse {
            request_id,
            response: read_response(body, framing.count)?,
        },
        Role::Error => Frame::Error {
            request_id,
            error: read_error(body)?,
        },
    })
}

/// The durability plane's answer to every v6 admin request (trigger
/// snapshot, query status, restore): a fixed-width status block mirroring
/// the engine's durability counters. The [`Default`] value is what an
/// engine without a configured persist directory reports for a plain
/// status query (`configured == false`, everything zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotStatus {
    /// Whether the engine was started with a persist directory.
    pub configured: bool,
    /// The current journal generation (the on-disk snapshot is one
    /// behind).
    pub generation: u64,
    /// Snapshots written since engine start (including the start-time
    /// self-compaction snapshot).
    pub snapshots_taken: u64,
    /// Sessions captured by the most recent snapshot.
    pub last_sessions: u64,
    /// Size in bytes of the most recent snapshot file.
    pub last_bytes: u64,
    /// Sessions recovered from disk at engine start, plus any brought
    /// back by explicit restore requests.
    pub restored_sessions: u64,
}

/// Bytes in a [`SnapshotStatus`] response body.
pub const SNAPSHOT_STATUS_WIRE_BYTES: usize = 1 + 5 * 8;

impl SnapshotStatus {
    /// Appends the full response frame (header + body) to `out`
    /// (protocol 6).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        push_header(
            out,
            tag::SNAPSHOT_STATUS_RESPONSE,
            SNAPSHOT_STATUS_WIRE_BYTES,
        );
        out.push(u8::from(self.configured));
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.snapshots_taken.to_le_bytes());
        out.extend_from_slice(&self.last_sessions.to_le_bytes());
        out.extend_from_slice(&self.last_bytes.to_le_bytes());
        out.extend_from_slice(&self.restored_sessions.to_le_bytes());
    }
}

fn decode_snapshot_status(body: &[u8]) -> Result<SnapshotStatus, WireError> {
    if body.len() != SNAPSHOT_STATUS_WIRE_BYTES {
        return Err(if body.len() < SNAPSHOT_STATUS_WIRE_BYTES {
            WireError::Truncated {
                needed: SNAPSHOT_STATUS_WIRE_BYTES,
                got: body.len(),
            }
        } else {
            WireError::BodyMismatch
        });
    }
    let configured = match body[0] {
        0 => false,
        1 => true,
        other => return Err(WireError::UnknownFlags(other)),
    };
    let word = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().expect("checked length"));
    Ok(SnapshotStatus {
        configured,
        generation: word(1),
        snapshots_taken: word(9),
        last_sessions: word(17),
        last_bytes: word(25),
        restored_sessions: word(33),
    })
}

/// Appends a snapshot-request frame (empty body) to `out`: the service
/// quiesces every shard at a pass boundary, writes a fresh snapshot and
/// rotates the journals, then answers with [`SnapshotStatus`]
/// (protocol 6).
pub fn encode_snapshot_request(out: &mut Vec<u8>) {
    push_header(out, tag::SNAPSHOT_REQUEST, 0);
}

/// Appends a snapshot-status request frame (empty body) to `out`: the
/// service answers with its current [`SnapshotStatus`] without touching
/// disk (protocol 6).
pub fn encode_snapshot_status_request(out: &mut Vec<u8>) {
    push_header(out, tag::SNAPSHOT_STATUS_REQUEST, 0);
}

/// Appends a restore-request frame (empty body) to `out`: the service
/// re-reads its persist directory and seeds every recovered session into
/// the live shards (replacing same-id entries), then answers with
/// [`SnapshotStatus`] (protocol 6).
pub fn encode_restore_request(out: &mut Vec<u8>) {
    push_header(out, tag::RESTORE_REQUEST, 0);
}

/// Appends a metrics-request frame (empty body) to `out`.
pub fn encode_metrics_request(out: &mut Vec<u8>) {
    push_header(out, tag::METRICS_REQUEST, 0);
}

/// Appends a metrics-response frame carrying a JSON snapshot to `out`.
pub fn encode_metrics_response(out: &mut Vec<u8>, json: &str) {
    push_header(out, tag::METRICS_RESPONSE, json.len());
    out.extend_from_slice(json.as_bytes());
}

/// Appends a trace-dump request to `out`: the service answers with up to
/// `max_events` of the most recent trace events per shard (protocol 4).
pub fn encode_trace_dump_request(out: &mut Vec<u8>, max_events: u32) {
    push_header(out, tag::TRACE_DUMP_REQUEST, 4);
    out.extend_from_slice(&max_events.to_le_bytes());
}

/// Appends a slowlog query to `out`: the service answers with up to
/// `max_entries` of the most recent slowlog captures (protocol 4).
pub fn encode_slowlog_request(out: &mut Vec<u8>, max_entries: u32) {
    push_header(out, tag::SLOWLOG_REQUEST, 4);
    out.extend_from_slice(&max_entries.to_le_bytes());
}

fn push_trace_records(out: &mut Vec<u8>, events: &[TraceEvent]) {
    out.extend_from_slice(&(events.len() as u32).to_le_bytes());
    for event in events {
        out.extend_from_slice(&event.to_le_bytes());
    }
}

/// Appends a trace-dump response carrying `events` to `out` (protocol 4).
pub fn encode_trace_dump_response(out: &mut Vec<u8>, events: &[TraceEvent]) {
    push_header(
        out,
        tag::TRACE_DUMP_RESPONSE,
        4 + events.len() * TraceEvent::WIRE_BYTES,
    );
    push_trace_records(out, events);
}

/// Appends a slowlog response carrying `entries` captured at
/// `threshold_ns` to `out` (protocol 4).
pub fn encode_slowlog_response(out: &mut Vec<u8>, threshold_ns: u64, entries: &[TraceEvent]) {
    push_header(
        out,
        tag::SLOWLOG_RESPONSE,
        8 + 4 + entries.len() * TraceEvent::WIRE_BYTES,
    );
    out.extend_from_slice(&threshold_ns.to_le_bytes());
    push_trace_records(out, entries);
}

/// Validates a `count`-prefixed run of fixed-width trace records and
/// returns the record bytes. The count must agree with the body length
/// and every record's outcome byte must be defined, so the views'
/// iterators decode infallibly.
fn check_trace_records(body: &[u8]) -> Result<&[u8], WireError> {
    if body.len() < 4 {
        return Err(WireError::Truncated {
            needed: 4,
            got: body.len(),
        });
    }
    let count = u32::from_le_bytes([body[0], body[1], body[2], body[3]]) as usize;
    let records = &body[4..];
    if count
        .checked_mul(TraceEvent::WIRE_BYTES)
        .ok_or(WireError::BodyMismatch)?
        != records.len()
    {
        return Err(WireError::BodyMismatch);
    }
    for record in records.chunks_exact(TraceEvent::WIRE_BYTES) {
        TraceOutcome::from_wire(record[TraceEvent::OUTCOME_BYTE_AT])?;
    }
    Ok(records)
}

/// Decodes one run of already-validated trace records.
fn trace_records(bytes: &[u8]) -> impl Iterator<Item = TraceEvent> + '_ {
    bytes.chunks_exact(TraceEvent::WIRE_BYTES).map(|chunk| {
        TraceEvent::from_le_bytes(chunk.try_into().expect("exact chunks"))
            .expect("records validated by the decoder")
    })
}

/// A decoded trace-dump response (protocol 4). The records stay in the
/// receive buffer and decode lazily; the decoder has already validated
/// the count field and every outcome byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDumpResponseView<'a> {
    record_bytes: &'a [u8],
}

impl<'a> TraceDumpResponseView<'a> {
    /// Number of trace events in the response.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.record_bytes.len() / TraceEvent::WIRE_BYTES
    }

    /// The trace events, decoded from the borrowed bytes.
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + 'a {
        trace_records(self.record_bytes)
    }
}

/// A decoded slowlog response (protocol 4): the engine's capture
/// threshold plus the captured events, lazily decoded like
/// [`TraceDumpResponseView`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowlogResponseView<'a> {
    /// The engine's slowlog capture threshold in nanoseconds.
    pub threshold_ns: u64,
    record_bytes: &'a [u8],
}

impl<'a> SlowlogResponseView<'a> {
    /// Number of slowlog entries in the response.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.record_bytes.len() / TraceEvent::WIRE_BYTES
    }

    /// The captured events, decoded from the borrowed bytes.
    pub fn entries(&self) -> impl Iterator<Item = TraceEvent> + 'a {
        trace_records(self.record_bytes)
    }
}

/// Decodes the `u32` bound carried by both telemetry request frames.
fn decode_telemetry_bound(body: &[u8]) -> Result<u32, WireError> {
    let bytes: [u8; 4] = body.try_into().map_err(|_| {
        if body.len() < 4 {
            WireError::Truncated {
                needed: 4,
                got: body.len(),
            }
        } else {
            WireError::BodyMismatch
        }
    })?;
    Ok(u32::from_le_bytes(bytes))
}

fn decode_slowlog_response(body: &[u8]) -> Result<SlowlogResponseView<'_>, WireError> {
    if body.len() < 8 {
        return Err(WireError::Truncated {
            needed: 8,
            got: body.len(),
        });
    }
    let threshold_ns = u64::from_le_bytes(body[..8].try_into().expect("checked length"));
    Ok(SlowlogResponseView {
        threshold_ns,
        record_bytes: check_trace_records(&body[8..])?,
    })
}

/// One decoded frame, borrowing the buffer it was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Frame<'a> {
    /// A client encode request, in any of its four framings.
    EncodeRequest {
        /// The client-chosen request id of a pipelined framing (tags 12
        /// and 14); `None` for the one-in-one-out tags 1 and 6.
        request_id: Option<u64>,
        /// The burst-count field of a batch framing (tags 6 and 14),
        /// already checked against the payload; `None` otherwise.
        count: Option<u16>,
        /// The request itself, its payload borrowed from the buffer.
        request: EncodeRequestFrame<'a>,
    },
    /// A service encode response, in any of its four framings (the
    /// echoed count, if any, is [`EncodeResponseView::count`]).
    EncodeResponse {
        /// Echo of a pipelined request's id (tags 13 and 15).
        request_id: Option<u64>,
        /// The response body.
        response: EncodeResponseView<'a>,
    },
    /// A service error response.
    Error {
        /// Echo of the failed pipelined request's id (tag 16); `None`
        /// for the plain form (tag 3).
        request_id: Option<u64>,
        /// The typed error.
        error: ErrorFrame<'a>,
    },
    /// A client metrics request.
    MetricsRequest,
    /// A service metrics response: the JSON snapshot text.
    MetricsResponse(&'a str),
    /// A client trace-dump request: the maximum events wanted per shard
    /// (protocol 4).
    TraceDumpRequest(u32),
    /// A service trace-dump response (protocol 4).
    TraceDumpResponse(TraceDumpResponseView<'a>),
    /// A client slowlog query: the maximum entries wanted (protocol 4).
    SlowlogRequest(u32),
    /// A service slowlog response (protocol 4).
    SlowlogResponse(SlowlogResponseView<'a>),
    /// A client request to snapshot the durable session plane
    /// (protocol 6).
    SnapshotRequest,
    /// A client query of the durability status (protocol 6).
    SnapshotStatusRequest,
    /// A client request to restore sessions from disk (protocol 6).
    RestoreRequest,
    /// The service's answer to every durability admin request
    /// (protocol 6).
    SnapshotStatus(SnapshotStatus),
}

/// Decodes the frame starting at `bytes[0]` and returns it together with
/// its total encoded length (header + body), so a buffer holding several
/// back-to-back frames can be walked.
///
/// # Errors
///
/// Any [`WireError`]; in particular [`WireError::Truncated`] when `bytes`
/// ends mid-frame (the `needed` field tells the transport how many bytes
/// the whole frame requires).
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame<'_>, usize), WireError> {
    let header = parse_header(bytes)?;
    let total = HEADER_LEN + header.body_len;
    if bytes.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            got: bytes.len(),
        });
    }
    let body = &bytes[HEADER_LEN..total];
    let frame = match header.frame_type {
        tag::METRICS_REQUEST => {
            if !body.is_empty() {
                return Err(WireError::BodyMismatch);
            }
            Frame::MetricsRequest
        }
        tag::METRICS_RESPONSE => {
            Frame::MetricsResponse(core::str::from_utf8(body).map_err(|_| WireError::BadUtf8)?)
        }
        // The telemetry tags exist only from protocol 4 on; under an
        // older version header they are exactly as unknown as they would
        // be to a genuine older peer.
        tag::TRACE_DUMP_REQUEST if header.version >= TELEMETRY_MIN_VERSION => {
            Frame::TraceDumpRequest(decode_telemetry_bound(body)?)
        }
        tag::TRACE_DUMP_RESPONSE if header.version >= TELEMETRY_MIN_VERSION => {
            Frame::TraceDumpResponse(TraceDumpResponseView {
                record_bytes: check_trace_records(body)?,
            })
        }
        tag::SLOWLOG_REQUEST if header.version >= TELEMETRY_MIN_VERSION => {
            Frame::SlowlogRequest(decode_telemetry_bound(body)?)
        }
        tag::SLOWLOG_RESPONSE if header.version >= TELEMETRY_MIN_VERSION => {
            Frame::SlowlogResponse(decode_slowlog_response(body)?)
        }
        // The durability admin tags exist only from protocol 6 on, same
        // rule.
        tag::SNAPSHOT_REQUEST if header.version >= DURABILITY_MIN_VERSION => {
            if !body.is_empty() {
                return Err(WireError::BodyMismatch);
            }
            Frame::SnapshotRequest
        }
        tag::SNAPSHOT_STATUS_REQUEST if header.version >= DURABILITY_MIN_VERSION => {
            if !body.is_empty() {
                return Err(WireError::BodyMismatch);
            }
            Frame::SnapshotStatusRequest
        }
        tag::RESTORE_REQUEST if header.version >= DURABILITY_MIN_VERSION => {
            if !body.is_empty() {
                return Err(WireError::BodyMismatch);
            }
            Frame::RestoreRequest
        }
        tag::SNAPSHOT_STATUS_RESPONSE if header.version >= DURABILITY_MIN_VERSION => {
            Frame::SnapshotStatus(decode_snapshot_status(body)?)
        }
        // Everything else is an encode-family tag (gated by the version
        // its framing row names) or unknown.
        other => decode_encode_frame(other, header.version, body)?,
    };
    Ok((frame, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_borrows_the_payload() {
        let payload = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let frame = EncodeRequestFrame {
            session_id: 0xAB,
            scheme: Scheme::Opt(CostWeights::new(2, 3).unwrap()),
            cost_model: CostModel::Inline,
            groups: 4,
            burst_len: 8,
            want_masks: true,
            verify: VerifyMode::Off,
            payload: &payload,
        };
        let mut buf = Vec::new();
        frame.encode_into(&mut buf);
        let (decoded, consumed) = decode_frame(&buf).unwrap();
        assert_eq!(consumed, buf.len());
        let Frame::EncodeRequest {
            request_id: None,
            count: None,
            request: view,
        } = decoded
        else {
            panic!("wrong frame type");
        };
        assert_eq!(view, frame);
        assert_eq!(view.session_id, 0xAB);
        assert_eq!(view.scheme, frame.scheme);
        assert_eq!((view.groups, view.burst_len, view.want_masks), (4, 8, true));
        assert_eq!(view.payload, &payload);
        // Zero-copy: the payload view points into the frame buffer.
        assert!(core::ptr::eq(
            view.payload.as_ptr(),
            &buf[HEADER_LEN + REQUEST_HEAD_LEN]
        ));
    }

    #[test]
    fn response_roundtrip_decodes_records_lazily() {
        let per_group = [CostBreakdown::new(1, 2), CostBreakdown::new(3, 4)];
        let masks = [InversionMask::from_bits(0b1010), InversionMask::NONE];
        let frame = EncodeResponseFrame {
            session_id: 7,
            bursts: 16,
            per_group: &per_group,
            masks: &masks,
        };
        let mut buf = Vec::new();
        frame.encode_into(&mut buf);
        let (
            Frame::EncodeResponse {
                request_id: None,
                response: view,
            },
            _,
        ) = decode_frame(&buf).unwrap()
        else {
            panic!("wrong frame type");
        };
        assert_eq!((view.session_id, view.bursts, view.count), (7, 16, None));
        assert_eq!(view.group_count(), 2);
        assert_eq!(view.mask_count(), 2);
        assert_eq!(view.per_group().collect::<Vec<_>>(), per_group);
        assert_eq!(view.masks().collect::<Vec<_>>(), masks);
    }

    #[test]
    fn error_and_metrics_frames_roundtrip() {
        let mut buf = Vec::new();
        ErrorFrame {
            code: ErrorCode::Overloaded,
            message: "shard 3 is full",
        }
        .encode_into(&mut buf);
        encode_metrics_request(&mut buf);
        encode_metrics_response(&mut buf, "{\"requests\":1}");

        let (
            Frame::Error {
                request_id: None,
                error: err,
            },
            n1,
        ) = decode_frame(&buf).unwrap()
        else {
            panic!("wrong frame type");
        };
        assert_eq!(err.code, ErrorCode::Overloaded);
        assert_eq!(err.message, "shard 3 is full");
        let (frame, n2) = decode_frame(&buf[n1..]).unwrap();
        assert_eq!(frame, Frame::MetricsRequest);
        let (Frame::MetricsResponse(json), n3) = decode_frame(&buf[n1 + n2..]).unwrap() else {
            panic!("wrong frame type");
        };
        assert_eq!(json, "{\"requests\":1}");
        assert_eq!(n1 + n2 + n3, buf.len());
    }

    #[test]
    fn every_scheme_survives_the_wire() {
        let mut all: Vec<Scheme> = Scheme::paper_set().to_vec();
        all.extend_from_slice(Scheme::conventional_set());
        all.push(Scheme::Greedy(CostWeights::new(3, 5).unwrap()));
        for scheme in all {
            let (tag, weights) = scheme_to_wire(scheme);
            assert_eq!(scheme_from_wire(tag, weights.to_le_bytes()), Ok(scheme));
        }
        assert_eq!(
            scheme_from_wire(99, CostWeights::FIXED.to_le_bytes()),
            Err(WireError::UnknownSchemeTag(99))
        );
        assert_eq!(
            scheme_from_wire(5, [0u8; CostWeights::WIRE_BYTES]),
            Err(WireError::BadWeights)
        );
    }

    #[test]
    fn header_violations_are_typed() {
        let mut buf = Vec::new();
        encode_metrics_request(&mut buf);

        assert_eq!(
            parse_header(&buf[..3]),
            Err(WireError::Truncated { needed: 8, got: 3 })
        );
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert_eq!(parse_header(&bad), Err(WireError::BadMagic([b'X', b'B'])));
        let mut bad = buf.clone();
        bad[2] = 9;
        assert_eq!(parse_header(&bad), Err(WireError::UnsupportedVersion(9)));
        let mut bad = buf.clone();
        bad[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            parse_header(&bad),
            Err(WireError::Oversized {
                got: u32::MAX as usize,
                max: MAX_BODY_LEN
            })
        );
        let mut bad = buf;
        bad[3] = 42;
        assert_eq!(decode_frame(&bad), Err(WireError::UnknownFrameType(42)));
    }

    #[test]
    fn internal_length_fields_are_cross_checked() {
        let mut buf = Vec::new();
        EncodeRequestFrame {
            session_id: 1,
            scheme: Scheme::Raw,
            cost_model: CostModel::Inline,
            groups: 1,
            burst_len: 8,
            want_masks: false,
            verify: VerifyMode::Off,
            payload: &[0u8; 8],
        }
        .encode_into(&mut buf);
        // Corrupt the inner payload_len field.
        let payload_len_at = HEADER_LEN + REQUEST_HEAD_LEN - 4;
        buf[payload_len_at] ^= 1;
        assert_eq!(decode_frame(&buf), Err(WireError::BodyMismatch));

        let mut buf = Vec::new();
        EncodeResponseFrame {
            session_id: 1,
            bursts: 2,
            per_group: &[CostBreakdown::ZERO],
            masks: &[],
        }
        .encode_into(&mut buf);
        // Claim one more mask than the body holds.
        buf[HEADER_LEN + 18] = 1;
        assert_eq!(decode_frame(&buf), Err(WireError::BodyMismatch));
    }

    #[test]
    fn error_display_covers_every_variant() {
        let variants = [
            WireError::Truncated { needed: 8, got: 3 },
            WireError::BadMagic([0, 1]),
            WireError::UnsupportedVersion(2),
            WireError::UnknownFrameType(3),
            WireError::Oversized { got: 4, max: 5 },
            WireError::BodyMismatch,
            WireError::UnknownSchemeTag(6),
            WireError::BadWeights,
            WireError::UnknownErrorCode(7),
            WireError::BadUtf8,
            WireError::UnknownCostModelTag(8),
            WireError::UnknownInterfaceTag(9),
            WireError::BadDataRate,
            WireError::BadBatchCount { count: 4, got: 3 },
            WireError::VerifyUnsupported { version: 2 },
            WireError::UnknownFlags(0x80),
            WireError::UnknownTraceOutcome(9),
        ];
        for err in variants {
            assert!(!err.to_string().is_empty());
        }
    }

    /// Offset of the flags byte inside an encode-request frame (v2/v3
    /// layout).
    const FLAGS_AT: usize =
        HEADER_LEN + 8 + 1 + CostWeights::WIRE_BYTES + COST_MODEL_WIRE_BYTES + 3;

    #[test]
    fn verify_bit_roundtrips_on_v3_requests_and_batches() {
        let payload = [0u8; 16];
        let frame = EncodeRequestFrame {
            session_id: 5,
            scheme: Scheme::OptFixed,
            cost_model: CostModel::Inline,
            groups: 2,
            burst_len: 8,
            want_masks: false,
            verify: VerifyMode::RoundTrip,
            payload: &payload,
        };
        let mut buf = Vec::new();
        frame.encode_into(&mut buf);
        assert_eq!(buf[FLAGS_AT], 0b10, "verify alone sets only bit 1");
        let (Frame::EncodeRequest { request: view, .. }, _) = decode_frame(&buf).unwrap() else {
            panic!("wrong frame type");
        };
        assert_eq!(view.verify, VerifyMode::RoundTrip);
        assert!(!view.want_masks);

        // Both bits together.
        let mut buf = Vec::new();
        EncodeRequestFrame {
            want_masks: true,
            ..frame
        }
        .encode_into(&mut buf);
        assert_eq!(buf[FLAGS_AT], 0b11);
        let (Frame::EncodeRequest { request: view, .. }, _) = decode_frame(&buf).unwrap() else {
            panic!("wrong frame type");
        };
        assert!(view.want_masks && view.verify.is_on());

        // The batch frame carries the same flags byte.
        let batch = EncodeBatchRequestFrame::from_request(&frame).unwrap();
        assert_eq!(batch.request.verify, VerifyMode::RoundTrip);
        let mut buf = Vec::new();
        batch.encode_into(&mut buf);
        let (
            Frame::EncodeRequest {
                count: Some(_),
                request: view,
                ..
            },
            _,
        ) = decode_frame(&buf).unwrap()
        else {
            panic!("wrong frame type");
        };
        assert_eq!(view.verify, VerifyMode::RoundTrip);
    }

    #[test]
    fn verify_bits_below_v3_are_rejected_typed() {
        // A v3 verify-mode request re-stamped as v1 or v2 must not decode
        // — those versions defined the byte as a bare boolean, so the set
        // bit is a corrupt or lying frame.
        let payload = [0u8; 8];
        let mut buf = Vec::new();
        EncodeRequestFrame {
            session_id: 1,
            scheme: Scheme::Raw,
            cost_model: CostModel::Inline,
            groups: 1,
            burst_len: 8,
            want_masks: true,
            verify: VerifyMode::RoundTrip,
            payload: &payload,
        }
        .encode_into(&mut buf);
        for version in [LEGACY_VERSION, V2_VERSION] {
            let mut old = buf.clone();
            old[2] = version;
            // The v1 body has no cost-model field; only test the verify
            // gate under v2 (same body layout as v3). For v1, assemble
            // the legacy layout below.
            if version == V2_VERSION {
                assert_eq!(
                    decode_frame(&old),
                    Err(WireError::VerifyUnsupported { version }),
                    "v{version} header must reject the verify bit"
                );
            }
        }
        // Hand-assembled v1 frame with the verify bit in its flags byte.
        let mut v1 = encode_v1_request(1, Scheme::Raw, 1, 8, false, &payload);
        let v1_flags_at = HEADER_LEN + 8 + 1 + CostWeights::WIRE_BYTES + 3;
        v1[v1_flags_at] = 0b10;
        assert_eq!(
            decode_frame(&v1),
            Err(WireError::VerifyUnsupported { version: 1 })
        );
        // A v1 want_masks byte of exactly 1 still decodes (bit 0 keeps
        // its meaning)...
        let mut v1 = encode_v1_request(1, Scheme::Raw, 1, 8, true, &payload);
        let (Frame::EncodeRequest { request: view, .. }, _) = decode_frame(&v1).unwrap() else {
            panic!("wrong frame type");
        };
        assert!(view.want_masks);
        assert_eq!(view.verify, VerifyMode::Off);
        // ...but undefined high bits never do, under any version.
        v1[v1_flags_at] = 0x81;
        assert_eq!(decode_frame(&v1), Err(WireError::UnknownFlags(0x81)));
        let mut v3 = buf;
        v3[FLAGS_AT] = 0b101;
        assert_eq!(decode_frame(&v3), Err(WireError::UnknownFlags(0b101)));
    }

    #[test]
    fn batch_frames_roundtrip_and_enforce_the_count_invariants() {
        let payload = [7u8; 64]; // 8 bursts of 8 bytes
        let request = EncodeRequestFrame {
            session_id: 0xBA7C,
            scheme: Scheme::Opt(CostWeights::new(2, 3).unwrap()),
            cost_model: CostModel::Weights(CostWeights::new(4, 1).unwrap()),
            groups: 4,
            burst_len: 8,
            want_masks: true,
            verify: VerifyMode::Off,
            payload: &payload,
        };
        let batch = EncodeBatchRequestFrame::from_request(&request).unwrap();
        assert_eq!(batch.count, 8);
        let mut buf = Vec::new();
        batch.encode_into(&mut buf);
        assert_eq!(buf[3], 6, "the batch request tag");
        let (
            Frame::EncodeRequest {
                request_id: None,
                count: Some(count),
                request: view,
            },
            consumed,
        ) = decode_frame(&buf).unwrap()
        else {
            panic!("wrong frame type");
        };
        assert_eq!(consumed, buf.len());
        assert_eq!(view, request);
        assert_eq!((view.groups, view.burst_len, count), (4, 8, 8));
        assert!(view.want_masks);
        assert_eq!(view.payload, &payload);

        // Count-field corruption is a typed error.
        let count_at = HEADER_LEN + REQUEST_HEAD_LEN - 4;
        let mut bad = buf.clone();
        bad[count_at] = 9;
        assert_eq!(
            decode_frame(&bad),
            Err(WireError::BadBatchCount { count: 9, got: 8 })
        );
        let mut bad = buf.clone();
        bad[count_at] = 0;
        assert_eq!(
            decode_frame(&bad),
            Err(WireError::BadBatchCount { count: 0, got: 8 })
        );

        // Batch tags do not exist below protocol 3.
        let mut old = buf.clone();
        old[2] = V2_VERSION;
        assert_eq!(
            decode_frame(&old),
            Err(WireError::UnknownFrameType(6)),
            "a v2 header must treat the batch tag as unknown"
        );

        // The response echoes the count and decodes lazily.
        let per_group = [CostBreakdown::new(5, 6); 4];
        let masks = [InversionMask::from_bits(0b11); 8];
        let mut buf = Vec::new();
        EncodeResponseFrame {
            session_id: 0xBA7C,
            bursts: 8,
            per_group: &per_group,
            masks: &masks,
        }
        .encode_framed_into(&mut buf, None, Some(8));
        assert_eq!(buf[3], 7, "the batch response tag");
        let (
            Frame::EncodeResponse {
                request_id: None,
                response: view,
            },
            consumed,
        ) = decode_frame(&buf).unwrap()
        else {
            panic!("wrong frame type");
        };
        assert_eq!(consumed, buf.len());
        assert_eq!(
            (view.session_id, view.bursts, view.count),
            (0xBA7C, 8, Some(8))
        );
        assert_eq!(view.group_count(), 4);
        assert_eq!(view.mask_count(), 8);
        assert_eq!(view.per_group().collect::<Vec<_>>(), per_group);
        assert_eq!(view.masks().collect::<Vec<_>>(), masks);

        // Record-count corruption is still cross-checked.
        buf[HEADER_LEN + 20] ^= 1;
        assert_eq!(decode_frame(&buf), Err(WireError::BodyMismatch));
    }

    fn sample_trace_event(request_id: u64) -> TraceEvent {
        TraceEvent {
            request_id,
            session_id: 7,
            enqueue_ns: 1_000 + request_id,
            queue_wait_ns: 10,
            encode_ns: 20,
            verify_ns: 5,
            total_ns: 40,
            bursts: 4,
            scheme_tag: 6,
            outcome: TraceOutcome::Ok,
            shard: 1,
        }
    }

    #[test]
    fn telemetry_frames_roundtrip() {
        let events = [sample_trace_event(1), sample_trace_event(2)];
        let mut buf = Vec::new();
        encode_trace_dump_request(&mut buf, 128);
        encode_trace_dump_response(&mut buf, &events);
        encode_slowlog_request(&mut buf, 16);
        encode_slowlog_response(&mut buf, 1_000_000, &events[..1]);

        let (frame, n1) = decode_frame(&buf).unwrap();
        assert_eq!(frame, Frame::TraceDumpRequest(128));
        let (Frame::TraceDumpResponse(view), n2) = decode_frame(&buf[n1..]).unwrap() else {
            panic!("wrong frame type");
        };
        assert_eq!(view.event_count(), 2);
        assert_eq!(view.events().collect::<Vec<_>>(), events);
        let (frame, n3) = decode_frame(&buf[n1 + n2..]).unwrap();
        assert_eq!(frame, Frame::SlowlogRequest(16));
        let (Frame::SlowlogResponse(view), n4) = decode_frame(&buf[n1 + n2 + n3..]).unwrap() else {
            panic!("wrong frame type");
        };
        assert_eq!(view.threshold_ns, 1_000_000);
        assert_eq!(view.entry_count(), 1);
        assert_eq!(view.entries().collect::<Vec<_>>(), &events[..1]);
        assert_eq!(n1 + n2 + n3 + n4, buf.len());

        // Empty dumps decode cleanly too.
        let mut buf = Vec::new();
        encode_trace_dump_response(&mut buf, &[]);
        let (Frame::TraceDumpResponse(view), _) = decode_frame(&buf).unwrap() else {
            panic!("wrong frame type");
        };
        assert_eq!(view.event_count(), 0);
    }

    #[test]
    fn telemetry_frames_reject_corruption_typed() {
        let events = [sample_trace_event(1)];
        let mut buf = Vec::new();
        encode_trace_dump_response(&mut buf, &events);

        // A count field disagreeing with the body length.
        let mut bad = buf.clone();
        bad[HEADER_LEN] = 2;
        assert_eq!(decode_frame(&bad), Err(WireError::BodyMismatch));

        // An undefined outcome byte is caught eagerly at decode.
        let mut bad = buf.clone();
        bad[HEADER_LEN + 4 + TraceEvent::OUTCOME_BYTE_AT] = 9;
        assert_eq!(decode_frame(&bad), Err(WireError::UnknownTraceOutcome(9)));

        // Same checks behind the slowlog's threshold prefix.
        let mut buf = Vec::new();
        encode_slowlog_response(&mut buf, 500, &events);
        let mut bad = buf.clone();
        bad[HEADER_LEN + 8 + 4 + TraceEvent::OUTCOME_BYTE_AT] = 7;
        assert_eq!(decode_frame(&bad), Err(WireError::UnknownTraceOutcome(7)));

        // Request bodies must be exactly the u32 bound.
        let mut bad = Vec::new();
        encode_trace_dump_request(&mut bad, 1);
        bad[4..8].copy_from_slice(&5u32.to_le_bytes());
        bad.push(0);
        assert_eq!(decode_frame(&bad), Err(WireError::BodyMismatch));
    }

    #[test]
    fn telemetry_tags_do_not_exist_below_v4() {
        let mut requests = Vec::new();
        encode_trace_dump_request(&mut requests, 8);
        encode_slowlog_request(&mut requests, 8);
        let mut offset = 0;
        while offset < requests.len() {
            let (_, len) = decode_frame(&requests[offset..]).unwrap();
            let mut old = requests[offset..offset + len].to_vec();
            old[2] = V3_VERSION;
            let tag = old[3];
            assert_eq!(
                decode_frame(&old),
                Err(WireError::UnknownFrameType(tag)),
                "a v3 header must treat telemetry tag {tag} as unknown"
            );
            offset += len;
        }
    }

    #[test]
    fn from_request_rejects_undividable_payloads() {
        let payload = [0u8; 12];
        let request = EncodeRequestFrame {
            session_id: 1,
            scheme: Scheme::Raw,
            cost_model: CostModel::Inline,
            groups: 1,
            burst_len: 8,
            want_masks: false,
            verify: VerifyMode::Off,
            payload: &payload,
        };
        assert!(EncodeBatchRequestFrame::from_request(&request).is_none());
        let ok = EncodeRequestFrame {
            payload: &payload[..8],
            ..request
        };
        assert_eq!(EncodeBatchRequestFrame::from_request(&ok).unwrap().count, 1);
    }

    #[test]
    fn cost_models_roundtrip_and_parse() {
        let named: OperatingPoint = "pod12@3.2".parse().unwrap();
        let models = [
            CostModel::Inline,
            CostModel::Weights(CostWeights::new(3, 1).unwrap()),
            CostModel::Named(named),
        ];
        let payload = [0u8; 8];
        for model in models {
            let mut buf = Vec::new();
            EncodeRequestFrame {
                session_id: 7,
                scheme: Scheme::OptFixed,
                cost_model: model,
                groups: 1,
                burst_len: 8,
                want_masks: false,
                verify: VerifyMode::Off,
                payload: &payload,
            }
            .encode_into(&mut buf);
            let (Frame::EncodeRequest { request: view, .. }, _) = decode_frame(&buf).unwrap()
            else {
                panic!("wrong frame type");
            };
            assert_eq!(view.cost_model, model);
            // The string form round-trips through FromStr as well.
            assert_eq!(model.to_string().parse::<CostModel>().unwrap(), model);
        }
        assert_eq!("inline".parse::<CostModel>().unwrap(), CostModel::Inline);
        assert_eq!(
            "sstl15@6.4".parse::<CostModel>().unwrap(),
            CostModel::Named("sstl15@6.4".parse().unwrap())
        );
        for bad in ["nope", "3", "0,0", "lvds@1", "pod12@0"] {
            assert!(bad.parse::<CostModel>().is_err(), "{bad:?}");
            assert!(!ParseCostModelError(bad.to_owned()).to_string().is_empty());
        }
    }

    #[test]
    fn malformed_cost_model_fields_are_typed_errors() {
        let payload = [0u8; 8];
        let mut buf = Vec::new();
        EncodeRequestFrame {
            session_id: 7,
            scheme: Scheme::OptFixed,
            cost_model: CostModel::Weights(CostWeights::FIXED),
            groups: 1,
            burst_len: 8,
            want_masks: false,
            verify: VerifyMode::Off,
            payload: &payload,
        }
        .encode_into(&mut buf);
        let field_at = HEADER_LEN + 8 + 1 + CostWeights::WIRE_BYTES;

        // Unknown cost-model tag.
        let mut bad = buf.clone();
        bad[field_at] = 9;
        assert_eq!(decode_frame(&bad), Err(WireError::UnknownCostModelTag(9)));

        // Weights model carrying an all-zero (invalid) pair.
        let mut bad = buf.clone();
        bad[field_at + 1..field_at + 1 + CostWeights::WIRE_BYTES].fill(0);
        assert_eq!(decode_frame(&bad), Err(WireError::BadWeights));

        // Named model with an unknown interface, then a zero rate.
        let mut bad = buf.clone();
        bad[field_at] = 2;
        bad[field_at + 1] = 77;
        assert_eq!(decode_frame(&bad), Err(WireError::UnknownInterfaceTag(77)));
        let mut bad = buf;
        bad[field_at] = 2;
        bad[field_at + 1] = NamedInterface::Pod12.wire_tag();
        bad[field_at + 5..field_at + 9].fill(0);
        assert_eq!(decode_frame(&bad), Err(WireError::BadDataRate));
    }

    /// Hand-assembles a version-1 encode-request frame (the layout this
    /// protocol shipped with before the cost-model field existed).
    fn encode_v1_request(
        session_id: u64,
        scheme: Scheme,
        groups: u16,
        burst_len: u8,
        want_masks: bool,
        payload: &[u8],
    ) -> Vec<u8> {
        let (scheme_tag, weights) = scheme_to_wire(scheme);
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.push(LEGACY_VERSION);
        out.push(FRAMINGS[0].request);
        out.extend_from_slice(&((V1_REQUEST_HEAD_LEN + payload.len()) as u32).to_le_bytes());
        out.extend_from_slice(&session_id.to_le_bytes());
        out.push(scheme_tag);
        out.extend_from_slice(&weights.to_le_bytes());
        out.extend_from_slice(&groups.to_le_bytes());
        out.push(burst_len);
        out.push(u8::from(want_masks));
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn v1_frames_are_still_decoded() {
        // A v1 request decodes to the same view a v2 Inline request does.
        let payload = [9u8, 8, 7, 6, 5, 4, 3, 2];
        let scheme = Scheme::Opt(CostWeights::new(2, 5).unwrap());
        let v1 = encode_v1_request(0xC0DE, scheme, 4, 8, true, &payload);
        let (Frame::EncodeRequest { request: view, .. }, consumed) = decode_frame(&v1).unwrap()
        else {
            panic!("wrong frame type");
        };
        assert_eq!(consumed, v1.len());
        assert_eq!(view.session_id, 0xC0DE);
        assert_eq!(view.scheme, scheme);
        assert_eq!(view.cost_model, CostModel::Inline);
        assert_eq!(view.payload, &payload);

        // v1 response/error/metrics bodies are byte-identical to v2:
        // re-stamping a v2 frame's version byte must decode unchanged.
        let mut buf = Vec::new();
        EncodeResponseFrame {
            session_id: 3,
            bursts: 4,
            per_group: &[CostBreakdown::new(1, 2)],
            masks: &[InversionMask::from_bits(5)],
        }
        .encode_into(&mut buf);
        encode_metrics_request(&mut buf);
        encode_metrics_response(&mut buf, "{}");
        ErrorFrame {
            code: ErrorCode::Overloaded,
            message: "busy",
        }
        .encode_into(&mut buf);
        let mut offset = 0;
        while offset < buf.len() {
            let (v2_frame, len) = decode_frame(&buf[offset..]).unwrap();
            let mut v1_bytes = buf[offset..offset + len].to_vec();
            v1_bytes[2] = LEGACY_VERSION;
            let (v1_frame, v1_len) = decode_frame(&v1_bytes).unwrap();
            assert_eq!(v1_len, len);
            assert_eq!(v1_frame, v2_frame);
            offset += len;
        }

        // Anything beyond the two known versions stays rejected.
        let mut future = encode_v1_request(1, Scheme::Raw, 1, 8, false, &[0u8; 8]);
        future[2] = VERSION + 1;
        assert_eq!(
            decode_frame(&future),
            Err(WireError::UnsupportedVersion(VERSION + 1))
        );
    }

    #[test]
    fn durability_admin_frames_roundtrip() {
        let status = SnapshotStatus {
            configured: true,
            generation: 7,
            snapshots_taken: 3,
            last_sessions: 120,
            last_bytes: 4096,
            restored_sessions: 11,
        };
        let mut buf = Vec::new();
        encode_snapshot_request(&mut buf);
        encode_snapshot_status_request(&mut buf);
        encode_restore_request(&mut buf);
        status.encode_into(&mut buf);

        let (frame, n1) = decode_frame(&buf).unwrap();
        assert_eq!(frame, Frame::SnapshotRequest);
        let (frame, n2) = decode_frame(&buf[n1..]).unwrap();
        assert_eq!(frame, Frame::SnapshotStatusRequest);
        let (frame, n3) = decode_frame(&buf[n1 + n2..]).unwrap();
        assert_eq!(frame, Frame::RestoreRequest);
        let (frame, n4) = decode_frame(&buf[n1 + n2 + n3..]).unwrap();
        assert_eq!(frame, Frame::SnapshotStatus(status));
        assert_eq!(n1 + n2 + n3 + n4, buf.len());

        // The default status (durability off) round-trips too.
        let mut buf = Vec::new();
        SnapshotStatus::default().encode_into(&mut buf);
        let (frame, _) = decode_frame(&buf).unwrap();
        assert_eq!(frame, Frame::SnapshotStatus(SnapshotStatus::default()));
    }

    #[test]
    fn durability_frames_reject_corruption_typed() {
        // Admin requests must carry empty bodies.
        let mut bad = Vec::new();
        encode_snapshot_request(&mut bad);
        bad[4..8].copy_from_slice(&1u32.to_le_bytes());
        bad.push(0);
        assert_eq!(decode_frame(&bad), Err(WireError::BodyMismatch));

        // The status body is fixed-width: short is truncated, long is a
        // mismatch, and the configured byte is two-valued.
        let mut buf = Vec::new();
        SnapshotStatus {
            configured: true,
            generation: 1,
            ..SnapshotStatus::default()
        }
        .encode_into(&mut buf);
        let mut short = buf.clone();
        short.truncate(buf.len() - 1);
        short[4..8].copy_from_slice(&((SNAPSHOT_STATUS_WIRE_BYTES - 1) as u32).to_le_bytes());
        assert!(matches!(
            decode_frame(&short),
            Err(WireError::Truncated { .. })
        ));
        let mut long = buf.clone();
        long.push(0);
        long[4..8].copy_from_slice(&((SNAPSHOT_STATUS_WIRE_BYTES + 1) as u32).to_le_bytes());
        assert_eq!(decode_frame(&long), Err(WireError::BodyMismatch));
        let mut bad_flag = buf;
        bad_flag[HEADER_LEN] = 2;
        assert_eq!(decode_frame(&bad_flag), Err(WireError::UnknownFlags(2)));
    }

    #[test]
    fn durability_tags_do_not_exist_below_v6() {
        let mut frames = Vec::new();
        encode_snapshot_request(&mut frames);
        encode_snapshot_status_request(&mut frames);
        encode_restore_request(&mut frames);
        SnapshotStatus::default().encode_into(&mut frames);
        let mut offset = 0;
        while offset < frames.len() {
            let (_, len) = decode_frame(&frames[offset..]).unwrap();
            let mut old = frames[offset..offset + len].to_vec();
            old[2] = V5_VERSION;
            let tag = old[3];
            assert_eq!(
                decode_frame(&old),
                Err(WireError::UnknownFrameType(tag)),
                "a v5 header must treat durability tag {tag} as unknown"
            );
            offset += len;
        }
    }

    #[test]
    fn session_limit_code_roundtrips_and_downgrades() {
        // The v6 code survives the wire…
        let mut buf = Vec::new();
        ErrorFrame {
            code: ErrorCode::SessionLimit,
            message: "shard 0 is at its session limit",
        }
        .encode_into(&mut buf);
        let (Frame::Error { error: view, .. }, _) = decode_frame(&buf).unwrap() else {
            panic!("wrong frame type");
        };
        assert_eq!(view.code, ErrorCode::SessionLimit);

        // …and the writer downgrades it for pre-v6 peers, leaving every
        // older code untouched under every version.
        for version in LEGACY_VERSION..DURABILITY_MIN_VERSION {
            assert_eq!(
                ErrorCode::SessionLimit.downgrade_for(version),
                ErrorCode::Overloaded
            );
            assert_eq!(
                ErrorCode::VerifyMismatch.downgrade_for(version),
                ErrorCode::VerifyMismatch
            );
        }
        assert_eq!(
            ErrorCode::SessionLimit.downgrade_for(DURABILITY_MIN_VERSION),
            ErrorCode::SessionLimit
        );
        assert_eq!(ErrorCode::from_u8(11), Ok(ErrorCode::SessionLimit));
        assert_eq!(ErrorCode::from_u8(12), Err(WireError::UnknownErrorCode(12)));
    }
}
