//! Direct-call rows of the layer ledger: each times one layer's public
//! function on the workload's own payloads, with nothing above it.

use crate::load::{Pool, Spec, ACCESS_BYTES, BURST_LEN, GROUPS, SCHEME};
use crate::stats::median;
use dbi_core::{BurstSlab, BusState, CostBreakdown, DbiEncoder, InversionMask};
use dbi_mem::BusSession;
use dbi_service::wire::{self, EncodeResponseFrame, PipelinedRequestFrame, PipelinedResponseFrame};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Chains and bursts per chain of a full-width kernel dispatch.
const FULL_CHAINS: usize = 8;
const FULL_PER_CHAIN: usize = 128;
/// Calls timed together when one call is too short to time alone.
const WIRE_BATCH: usize = 256;
/// Bursts one reading of a kernel or session row covers at least, so
/// the clock reads stay negligible beside the timed work.
const MIN_BURSTS_PER_READING: usize = 1024;

/// One workload's direct-call rows, nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rows {
    /// Priced lanes encode at full width, per burst.
    pub lanes_full: f64,
    /// Priced lanes encode at one request's session shape, per burst.
    pub lanes_session: f64,
    /// Lanes decode at full width, per burst.
    pub lanes_decode: f64,
    /// `BusSession` slab encode of one request, per burst.
    pub session_encode: f64,
    /// `BusSession` slab decode of one request, per burst.
    pub session_decode: f64,
    /// Pipelined request frame encode, per frame.
    pub request_encode: f64,
    /// Pipelined request frame decode, per frame.
    pub request_decode: f64,
    /// Pipelined response frame encode, per frame.
    pub response_encode: f64,
    /// Pipelined response frame decode, per frame.
    pub response_decode: f64,
}

/// Times every row, each for about `budget`.
#[must_use]
pub fn measure(spec: &Spec, pool: &Pool, budget: Duration) -> Rows {
    let groups = usize::from(GROUPS);
    let plan = SCHEME.plan();
    let fresh = || BusSession::with_geometry(groups, usize::from(BURST_LEN), SCHEME);

    // Kernel rows: chain-major slabs filled from the workload's bytes
    // the same way a session fills them.
    let full = slab_of(
        &stream(pool, FULL_CHAINS * FULL_PER_CHAIN / groups),
        FULL_CHAINS / groups,
    );
    let session_shape = slab_of(pool.get(0), 1);
    let lanes = |mut slab: BurstSlab, chains: usize| {
        let reps = MIN_BURSTS_PER_READING.div_ceil(slab.burst_count());
        let bursts = (reps * slab.burst_count()) as f64;
        let mut states = vec![BusState::idle(); chains];
        sample(budget, || {
            let start = Instant::now();
            for _ in 0..reps {
                states.fill(BusState::idle());
                plan.encode_lanes_into(&mut slab, &mut states);
                black_box(&states);
            }
            start.elapsed().as_nanos() as f64 / bursts
        })
    };
    let lanes_full = lanes(full.clone(), FULL_CHAINS);
    let lanes_session = lanes(session_shape, groups);

    let mut encoded = full;
    plan.encode_lanes_into(&mut encoded, &mut [BusState::idle(); FULL_CHAINS]);
    let masks: Vec<InversionMask> = encoded.masks().to_vec();
    let mut wire_image = Vec::with_capacity(encoded.bytes().len());
    for (index, mask) in masks.iter().enumerate() {
        let start = wire_image.len();
        wire_image.extend_from_slice(encoded.burst_bytes(index).expect("burst exists"));
        mask.apply_in_place(&mut wire_image[start..]);
    }
    let mut receiver = BurstSlab::with_capacity(usize::from(BURST_LEN), masks.len());
    receiver.set_pricing(true);
    let lanes_decode = sample(budget, || {
        receiver.reset(usize::from(BURST_LEN));
        receiver
            .extend_from_bytes(&wire_image)
            .expect("whole bursts");
        receiver.load_masks(&masks).expect("one mask per burst");
        let mut states = [BusState::idle(); FULL_CHAINS];
        let start = Instant::now();
        receiver
            .decode_in_place_chains(&mut states)
            .expect("masks cover the slab");
        black_box(&states);
        start.elapsed().as_nanos() as f64 / masks.len() as f64
    });

    // Session rows: one request per call, cycling the pool in order so
    // the carried state evolves as in the service.
    let bursts = (spec.accesses * groups) as f64;
    let reps = MIN_BURSTS_PER_READING.div_ceil(spec.accesses * groups);
    let mut slab = BurstSlab::new(usize::from(BURST_LEN));
    let mut per_group: Vec<CostBreakdown> = Vec::new();
    let mut tx = fresh();
    let mut next = 0;
    let session_encode = sample(budget, || {
        let start = Instant::now();
        for _ in 0..reps {
            tx.encode_stream_slab_into(pool.get(next), &mut per_group, None, &mut slab)
                .expect("whole accesses");
            black_box(&per_group);
            next += 1;
        }
        start.elapsed().as_nanos() as f64 / (reps as f64 * bursts)
    });

    let mut tx = fresh();
    let mut request_masks = Vec::new();
    let wires: Vec<(Vec<u8>, Vec<InversionMask>)> = (0..pool.len())
        .map(|index| {
            let payload = pool.get(index);
            tx.encode_stream_slab_into(
                payload,
                &mut per_group,
                Some(&mut request_masks),
                &mut slab,
            )
            .expect("whole accesses");
            let mut wire_bytes = Vec::new();
            tx.transmit_stream_into(payload, &request_masks, &mut wire_bytes)
                .expect("masks match the payload");
            (wire_bytes, request_masks.clone())
        })
        .collect();
    let mut rx = fresh();
    let mut out = Vec::new();
    let mut next = 0;
    let session_decode = sample(budget, || {
        let start = Instant::now();
        for _ in 0..reps {
            if next % wires.len() == 0 {
                // The sequence restarts from an idle transmitter.
                rx.reset();
            }
            let (wire_bytes, masks) = &wires[next % wires.len()];
            rx.decode_stream_slab_into(wire_bytes, masks, &mut per_group, &mut out, &mut slab)
                .expect("a matching wire image");
            black_box(&out);
            next += 1;
        }
        start.elapsed().as_nanos() as f64 / (reps as f64 * bursts)
    });

    // Wire rows: v5 pipelined frames carrying the workload's requests
    // and replies, encoded and decoded with no socket.
    let mut frames: Vec<Vec<u8>> = (0..WIRE_BATCH)
        .map(|index| {
            let mut frame = Vec::new();
            PipelinedRequestFrame {
                request_id: index as u64,
                request: crate::load::request(spec, 1 + (index % 64) as u64, pool.get(index)),
            }
            .encode_into(&mut frame);
            frame
        })
        .collect();
    let costs = [CostBreakdown::new(100, 50); GROUPS as usize];
    let mut response = Vec::new();
    PipelinedResponseFrame {
        request_id: 7,
        response: EncodeResponseFrame {
            session_id: 1,
            bursts: bursts as u64,
            per_group: &costs,
            masks: &[],
        },
    }
    .encode_into(&mut response);
    let request_encode = sample(budget, || {
        let start = Instant::now();
        for (index, frame) in frames.iter_mut().enumerate() {
            frame.clear();
            PipelinedRequestFrame {
                request_id: index as u64,
                request: crate::load::request(spec, 1, pool.get(index)),
            }
            .encode_into(frame);
        }
        black_box(&frames);
        start.elapsed().as_nanos() as f64 / WIRE_BATCH as f64
    });
    let request_decode = sample(budget, || {
        let start = Instant::now();
        for frame in &frames {
            black_box(wire::decode_frame(black_box(frame)).expect("a valid frame"));
        }
        start.elapsed().as_nanos() as f64 / WIRE_BATCH as f64
    });
    let mut out = Vec::with_capacity(response.len());
    let response_encode = sample(budget, || {
        let start = Instant::now();
        for index in 0..WIRE_BATCH {
            out.clear();
            PipelinedResponseFrame {
                request_id: index as u64,
                response: EncodeResponseFrame {
                    session_id: 1,
                    bursts: bursts as u64,
                    per_group: black_box(&costs),
                    masks: &[],
                },
            }
            .encode_into(&mut out);
            black_box(&out);
        }
        start.elapsed().as_nanos() as f64 / WIRE_BATCH as f64
    });
    let response_decode = sample(budget, || {
        let start = Instant::now();
        for _ in 0..WIRE_BATCH {
            black_box(wire::decode_frame(black_box(&response)).expect("a valid frame"));
        }
        start.elapsed().as_nanos() as f64 / WIRE_BATCH as f64
    });

    Rows {
        lanes_full,
        lanes_session,
        lanes_decode,
        session_encode,
        session_decode,
        request_encode,
        request_decode,
        response_encode,
        response_decode,
    }
}

/// `accesses` whole accesses of the pool's bytes, payload after payload.
fn stream(pool: &Pool, accesses: usize) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(accesses * ACCESS_BYTES);
    let mut index = 0;
    while bytes.len() < accesses * ACCESS_BYTES {
        let need = accesses * ACCESS_BYTES - bytes.len();
        let payload = pool.get(index);
        bytes.extend_from_slice(&payload[..need.min(payload.len())]);
        index += 1;
    }
    bytes
}

/// A priced chain-major slab holding `sessions` sessions' worth of
/// chains, `data` split evenly between them.
fn slab_of(data: &[u8], sessions: usize) -> BurstSlab {
    let session = BusSession::with_geometry(usize::from(GROUPS), usize::from(BURST_LEN), SCHEME);
    let mut slab = BurstSlab::new(usize::from(BURST_LEN));
    slab.set_pricing(true);
    for part in data.chunks(data.len() / sessions) {
        session
            .append_chains_to_slab(part, &mut slab)
            .expect("whole accesses");
    }
    slab
}

/// Median of `one()`'s readings, called repeatedly for about `budget`
/// (at least five times).
fn sample(budget: Duration, mut one: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut readings = Vec::new();
    while readings.len() < 5 || start.elapsed() < budget {
        readings.push(one());
    }
    median(&readings).expect("at least five readings")
}
