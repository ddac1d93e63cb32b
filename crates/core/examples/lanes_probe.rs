//! Standalone probe of the lanes kernels: ns/burst per tier and pricing
//! mode, at two shapes — 8 chains × 128 BL8 bursts (the full-width
//! dispatch) and 4 chains × 16 bursts (one request's session shape).
//!
//! Each reading is the best of 200 encodes; each row prints the median,
//! min and max of 7 readings, so a tier comparison carries its own noise.
//! Run: `cargo run -p dbi-core --example lanes_probe --release`

use dbi_core::schemes::OptFixedEncoder;
use dbi_core::{BurstSlab, BusState};
use std::time::Instant;

const READINGS: usize = 7;
const BEST_OF: usize = 200;

fn main() {
    let opt = OptFixedEncoder::new();
    for (chains, per_chain) in [(8usize, 128usize), (4, 16)] {
        let mut slab = random_slab(chains * per_chain);
        println!("{chains} chains x {per_chain} bursts (ns/burst: median [min, max])");
        for &kernel in dbi_core::simd::available_kernels() {
            for pricing in [false, true] {
                slab.set_pricing(pricing);
                let mut readings: Vec<f64> = (0..READINGS)
                    .map(|_| best_ns_per_burst(&opt, kernel, &mut slab, chains))
                    .collect();
                readings.sort_by(f64::total_cmp);
                println!(
                    "  {:7} pricing={pricing:5}  {:7.2} [{:.2}, {:.2}]",
                    kernel.name(),
                    readings[READINGS / 2],
                    readings[0],
                    readings[READINGS - 1]
                );
            }
        }
    }
}

fn random_slab(count: usize) -> BurstSlab {
    let mut slab = BurstSlab::with_capacity(8, count);
    let mut x = 0x1234_5678_9abc_def0u64;
    for _ in 0..count {
        slab.push_with(|out| {
            for _ in 0..8 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                out.push((x >> 33) as u8);
            }
        });
    }
    slab
}

fn best_ns_per_burst(
    opt: &OptFixedEncoder,
    kernel: dbi_core::KernelKind,
    slab: &mut BurstSlab,
    chains: usize,
) -> f64 {
    let bursts = slab.burst_count() as f64;
    let mut states = vec![BusState::idle(); chains];
    let mut best = f64::INFINITY;
    for _ in 0..BEST_OF {
        states.fill(BusState::idle());
        let start = Instant::now();
        opt.encode_lanes_into_with(kernel, slab, &mut states);
        std::hint::black_box(&states);
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / bursts);
    }
    best
}
