//! Workload definitions and their seeded inputs.
//!
//! Every payload is drawn from a [`LoadProfile`] before any timing
//! starts; the service only ever sees the generated bytes.

use dbi_core::Scheme;
use dbi_service::{CostModel, EncodeRequest, VerifyMode};
use dbi_workloads::LoadProfile;

/// Lane groups per access (a x32 channel).
pub const GROUPS: u16 = 4;
/// Beats per burst (BL8).
pub const BURST_LEN: u8 = 8;
/// Bytes in one access: `GROUPS × BURST_LEN`.
pub const ACCESS_BYTES: usize = GROUPS as usize * BURST_LEN as usize;
/// The one scheme every workload encodes with.
pub const SCHEME: Scheme = Scheme::OptFixed;

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop of 8 KiB `LocalClient::encode_batch` calls on one
    /// session: the encode stage dominates.
    BatchLocal,
    /// One driver thread keeping 32 requests in flight on each of two
    /// pipelined loopback connections: the connection plane dominates.
    PipelinedTcp,
    /// Closed loop of small verified, journaled requests over many
    /// sessions: per-request overhead dominates.
    DurableVerify,
}

/// The fixed shape of one workload's traffic.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in results.
    pub name: &'static str,
    /// `LoadProfile` constructor the payloads come from.
    pub profile: fn(u64) -> LoadProfile,
    /// Accesses per request.
    pub accesses: usize,
    /// Distinct session ids the requests rotate over.
    pub sessions: u32,
    /// Distinct payloads generated up front and cycled through; every
    /// workload's pool holds 1 MiB.
    pub pool: usize,
    /// Whether the engine decodes every reply back before answering.
    pub verify: VerifyMode,
    /// Requests each set-up runs before timing starts: a few tenths of a
    /// second of load, long enough that caches fill and one slow moment
    /// of the host does not decide the set-up time.
    pub warmup: usize,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::BatchLocal,
        Workload::PipelinedTcp,
        Workload::DurableVerify,
    ];

    /// Parses a command-line workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.spec().name == name)
    }

    /// The workload's traffic shape.
    #[must_use]
    pub fn spec(self) -> Spec {
        match self {
            Workload::BatchLocal => Spec {
                name: "batch-local",
                profile: LoadProfile::uniform,
                accesses: 256,
                sessions: 1,
                pool: 128,
                verify: VerifyMode::Off,
                warmup: 2048,
            },
            Workload::PipelinedTcp => Spec {
                name: "pipelined-tcp",
                profile: LoadProfile::server,
                accesses: 16,
                sessions: 64,
                pool: 2048,
                verify: VerifyMode::Off,
                warmup: 32_768,
            },
            Workload::DurableVerify => Spec {
                name: "durable-verify",
                profile: LoadProfile::gpu,
                accesses: 4,
                sessions: 512,
                pool: 8192,
                verify: VerifyMode::RoundTrip,
                warmup: 16_384,
            },
        }
    }
}

/// Independently seeded profile instances a pool is drawn from. One
/// instance's traffic keeps seed-specific traits (a framebuffer's
/// gradient, a text's alphabet) across all its bursts; mixing many keeps
/// seed-to-seed differences in the encoder's savings to about 1%.
const CLIENTS: usize = 64;

/// A workload's pre-generated payloads, one request each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pool {
    bytes: Vec<u8>,
    stride: usize,
}

impl Pool {
    /// Draws `spec.pool` request payloads from [`CLIENTS`] instances of
    /// the workload's profile, seeded from `seed`; payload `i` comes from
    /// instance `i % CLIENTS`. The same seed gives the same bytes.
    #[must_use]
    pub fn generate(spec: &Spec, seed: u64) -> Pool {
        let mut clients: Vec<LoadProfile> = (0..CLIENTS as u64)
            .map(|client| (spec.profile)(mix(seed ^ mix(client))))
            .collect();
        let stride = spec.accesses * ACCESS_BYTES;
        let mut bytes = Vec::with_capacity(spec.pool * stride);
        for index in 0..spec.pool {
            let profile = &mut clients[index % CLIENTS];
            for _ in 0..spec.accesses {
                profile.fill_access(usize::from(GROUPS), usize::from(BURST_LEN), &mut bytes);
            }
        }
        assert_eq!(
            bytes.len(),
            spec.pool * stride,
            "fill_access appends one access"
        );
        Pool { bytes, stride }
    }

    /// Payload `index`, wrapping around the pool.
    #[must_use]
    pub fn get(&self, index: usize) -> &[u8] {
        let start = (index % self.len()) * self.stride;
        &self.bytes[start..start + self.stride]
    }

    /// Number of distinct payloads.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len() / self.stride
    }
}

/// The splitmix64 finaliser: spreads nearby seeds over the whole range,
/// since the profiles derive their member seeds by flipping low bits.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The request every workload sends for `payload` on `session_id`.
#[must_use]
pub fn request<'a>(spec: &Spec, session_id: u64, payload: &'a [u8]) -> EncodeRequest<'a> {
    EncodeRequest {
        session_id,
        scheme: SCHEME,
        cost_model: CostModel::Inline,
        groups: GROUPS,
        burst_len: BURST_LEN,
        want_masks: false,
        verify: spec.verify,
        payload,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for workload in Workload::ALL {
            let spec = workload.spec();
            let a = Pool::generate(&spec, 7);
            assert_eq!(a, Pool::generate(&spec, 7), "{}", spec.name);
            assert_ne!(a, Pool::generate(&spec, 8), "{}", spec.name);
            assert_eq!(a.len(), spec.pool);
            assert_eq!(spec.pool * spec.accesses * ACCESS_BYTES, 1 << 20);
            assert_eq!(a.get(0).len(), spec.accesses * ACCESS_BYTES);
            assert_eq!(a.get(spec.pool), a.get(0), "indices wrap");
        }
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.spec().name), Some(workload));
        }
        assert_eq!(Workload::from_name("bogus"), None);
    }
}
