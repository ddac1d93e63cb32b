//! Differential proof of the slab contract: for **every** scheme,
//! [`DbiEncoder::encode_lanes_into`] — including the optimal encoders'
//! overridden carried-state LUT and SIMD kernels, one chain or many — is
//! bit-identical to the serial per-burst `encode_mask` chain: same masks,
//! same per-burst cost rows, same carried final state.

use dbi_core::simd::KernelKind;
use dbi_core::slab::encode_slab_serial;
use dbi_core::{Burst, BurstSlab, BusState, CostWeights, DbiEncoder, EncodePlan, LaneWord, Scheme};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::slice::from_mut;

fn all_schemes() -> Vec<Scheme> {
    let mut schemes: Vec<Scheme> = Scheme::paper_set().to_vec();
    schemes.extend_from_slice(Scheme::conventional_set());
    schemes.push(Scheme::Greedy(CostWeights::new(3, 1).unwrap()));
    schemes.push(Scheme::Opt(CostWeights::new(1, 5).unwrap()));
    schemes.push(Scheme::Opt(CostWeights::new(7, 2).unwrap()));
    schemes.dedup();
    schemes
}

fn random_slab(rng: &mut StdRng, burst_len: usize, bursts: usize) -> BurstSlab {
    let mut slab = BurstSlab::with_capacity(burst_len, bursts);
    for _ in 0..bursts {
        slab.push_with(|out| out.extend((0..burst_len).map(|_| rng.gen::<u8>())));
    }
    slab
}

/// The reference chain, spelled out independently of `encode_slab_serial`:
/// per-burst `encode_mask` through fresh `Burst` values.
fn reference_chain(
    scheme: Scheme,
    slab: &BurstSlab,
    mut state: BusState,
) -> (
    Vec<dbi_core::InversionMask>,
    Vec<dbi_core::CostBreakdown>,
    BusState,
) {
    let mut masks = Vec::new();
    let mut costs = Vec::new();
    for index in 0..slab.burst_count() {
        let burst = Burst::from_slice(slab.burst_bytes(index).unwrap()).unwrap();
        let mask = scheme.encode_mask(&burst, &state);
        costs.push(mask.breakdown(&burst, &state));
        state = mask.final_state(&burst, &state);
        masks.push(mask);
    }
    (masks, costs, state)
}

#[test]
fn slab_encode_is_bit_identical_to_the_per_burst_chain() {
    let mut rng = StdRng::seed_from_u64(0x51AB);
    for scheme in all_schemes() {
        for burst_len in [1usize, 3, 8, 16, 32] {
            for bursts in [1usize, 2, 17, 64] {
                let mut slab = random_slab(&mut rng, burst_len, bursts);
                let initial = BusState::new(LaneWord::encode_byte(rng.gen(), rng.gen()));

                let (expected_masks, expected_costs, expected_state) =
                    reference_chain(scheme, &slab, initial);

                let mut state = initial;
                scheme.encode_lanes_into(&mut slab, from_mut(&mut state));
                let label = format!("{scheme} len={burst_len} bursts={bursts}");
                assert_eq!(slab.masks(), expected_masks.as_slice(), "{label}: masks");
                assert_eq!(slab.costs(), expected_costs.as_slice(), "{label}: costs");
                assert_eq!(state, expected_state, "{label}: final state");
                assert_eq!(
                    slab.total(),
                    expected_costs.iter().copied().sum(),
                    "{label}: total"
                );
            }
        }
    }
}

#[test]
fn plan_slab_encode_matches_scheme_slab_encode() {
    let mut rng = StdRng::seed_from_u64(0x9A17);
    for scheme in all_schemes() {
        let mut by_scheme = random_slab(&mut rng, 8, 48);
        let mut by_plan = by_scheme.clone();
        let initial = BusState::idle();

        let mut scheme_state = initial;
        scheme.encode_lanes_into(&mut by_scheme, from_mut(&mut scheme_state));

        let plan = EncodePlan::new(scheme);
        let mut plan_state = initial;
        plan.encode_lanes_into(&mut by_plan, from_mut(&mut plan_state));

        assert_eq!(by_scheme.masks(), by_plan.masks(), "{scheme}");
        assert_eq!(by_scheme.costs(), by_plan.costs(), "{scheme}");
        assert_eq!(scheme_state, plan_state, "{scheme}");
    }
}

#[test]
fn serial_helper_matches_the_override_for_opt() {
    // `encode_slab_serial` bypasses every override; the optimal encoders'
    // kernel must agree with it on the same slab.
    let mut rng = StdRng::seed_from_u64(0x0457);
    let encoder = dbi_core::schemes::OptEncoder::new(CostWeights::new(2, 3).unwrap());
    let mut serial = random_slab(&mut rng, 8, 96);
    let mut kernel = serial.clone();

    let mut serial_state = BusState::idle();
    encode_slab_serial(&encoder, &mut serial, &mut serial_state);
    let mut kernel_state = BusState::idle();
    encoder.encode_lanes_into(&mut kernel, from_mut(&mut kernel_state));

    assert_eq!(serial.masks(), kernel.masks());
    assert_eq!(serial.costs(), kernel.costs());
    assert_eq!(serial_state, kernel_state);
}

#[test]
fn slab_state_carries_across_successive_slabs() {
    // Feeding one stream as two slabs must equal feeding it as one —
    // the property session layers rely on.
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let whole = random_slab(&mut rng, 8, 32);

    let mut one = whole.clone();
    let mut one_state = BusState::idle();
    Scheme::OptFixed.encode_lanes_into(&mut one, from_mut(&mut one_state));

    let mut head = BurstSlab::new(8);
    head.extend_from_bytes(&whole.bytes()[..16 * 8]).unwrap();
    let mut tail = BurstSlab::new(8);
    tail.extend_from_bytes(&whole.bytes()[16 * 8..]).unwrap();
    let mut split_state = BusState::idle();
    Scheme::OptFixed.encode_lanes_into(&mut head, from_mut(&mut split_state));
    Scheme::OptFixed.encode_lanes_into(&mut tail, from_mut(&mut split_state));

    assert_eq!(one.masks()[..16], *head.masks());
    assert_eq!(one.masks()[16..], *tail.masks());
    assert_eq!(one.costs()[..16], *head.costs());
    assert_eq!(one.costs()[16..], *tail.costs());
    assert_eq!(one_state, split_state);
}

#[test]
fn masks_only_mode_matches_priced_mode_across_geometries() {
    // The geometry sweep of the priced differential, replayed with
    // pricing off: decisions and carried state must be bit-identical to
    // the priced encode whatever the slab shape, for every scheme
    // (including the optimal kernels, whose masks-only sweep skips the
    // fused pricing accumulators entirely).
    let mut rng = StdRng::seed_from_u64(0x90FF);
    for scheme in all_schemes() {
        for burst_len in [1usize, 3, 8, 16, 32] {
            for bursts in [1usize, 2, 17] {
                let mut priced = random_slab(&mut rng, burst_len, bursts);
                let mut unpriced = priced.clone();
                unpriced.set_pricing(false);
                let initial = BusState::new(LaneWord::encode_byte(rng.gen(), rng.gen()));

                let mut priced_state = initial;
                scheme.encode_lanes_into(&mut priced, from_mut(&mut priced_state));
                let mut unpriced_state = initial;
                scheme.encode_lanes_into(&mut unpriced, from_mut(&mut unpriced_state));

                assert_eq!(
                    priced.masks(),
                    unpriced.masks(),
                    "{scheme} len {burst_len} x {bursts}: masks"
                );
                assert_eq!(
                    priced_state, unpriced_state,
                    "{scheme} len {burst_len} x {bursts}: state"
                );
                assert!(unpriced.costs().is_empty());
            }
        }
    }
}

#[test]
fn slab_decode_is_bit_identical_to_the_per_burst_decode_chain() {
    use dbi_core::DbiDecoder;
    let mut rng = StdRng::seed_from_u64(0xDEC0);
    for scheme in all_schemes() {
        for burst_len in [1usize, 8, 32] {
            for pricing in [true, false] {
                let mut slab = random_slab(&mut rng, burst_len, 24);
                let payload = slab.bytes().to_vec();
                let initial = BusState::new(LaneWord::encode_byte(rng.gen(), rng.gen()));
                let mut tx_state = initial;
                scheme.encode_lanes_into(&mut slab, from_mut(&mut tx_state));
                let masks = slab.masks().to_vec();
                let tx_costs = slab.costs().to_vec();

                // Drive the wire image burst by burst.
                let mut wire = payload.clone();
                for (index, mask) in masks.iter().enumerate() {
                    mask.apply_in_place(&mut wire[index * burst_len..(index + 1) * burst_len]);
                }

                // Slab decode...
                let mut rx_slab = BurstSlab::new(burst_len);
                rx_slab.set_pricing(pricing);
                rx_slab.extend_from_bytes(&wire).unwrap();
                rx_slab.load_masks(&masks).unwrap();
                let mut rx_state = initial;
                scheme
                    .decode_lanes_into(&mut rx_slab, from_mut(&mut rx_state))
                    .unwrap();

                // ...against the per-burst decode chain.
                let mut out = Vec::new();
                let mut decoded = Vec::new();
                for (index, mask) in masks.iter().enumerate() {
                    scheme
                        .decode_mask(
                            &wire[index * burst_len..(index + 1) * burst_len],
                            *mask,
                            &mut out,
                        )
                        .unwrap();
                    decoded.extend_from_slice(&out);
                }

                assert_eq!(rx_slab.bytes(), &decoded[..], "{scheme}: per-burst chain");
                assert_eq!(rx_slab.bytes(), &payload[..], "{scheme}: round trip");
                assert_eq!(rx_state, tx_state, "{scheme}: receiver state");
                if pricing {
                    assert_eq!(rx_slab.costs(), &tx_costs[..], "{scheme}: wire pricing");
                } else {
                    assert!(rx_slab.costs().is_empty());
                }
            }
        }
    }
}

#[test]
fn masks_only_mode_yields_identical_decisions_and_state() {
    let mut rng = StdRng::seed_from_u64(0x3A5C);
    for scheme in all_schemes() {
        let mut priced = random_slab(&mut rng, 8, 40);
        let mut unpriced = priced.clone();
        unpriced.set_pricing(false);
        assert!(!unpriced.pricing());

        let mut priced_state = BusState::idle();
        scheme.encode_lanes_into(&mut priced, from_mut(&mut priced_state));
        let mut unpriced_state = BusState::idle();
        scheme.encode_lanes_into(&mut unpriced, from_mut(&mut unpriced_state));

        assert_eq!(priced.masks(), unpriced.masks(), "{scheme}: masks");
        assert_eq!(priced_state, unpriced_state, "{scheme}: final state");
        assert!(unpriced.costs().is_empty(), "{scheme}: no cost rows");
        assert_eq!(unpriced.total(), dbi_core::CostBreakdown::ZERO);
        assert_eq!(priced.costs().len(), 40);

        // Switching pricing back on restores the rows on the next encode.
        unpriced.set_pricing(true);
        let mut state = BusState::idle();
        scheme.encode_lanes_into(&mut unpriced, from_mut(&mut state));
        assert_eq!(unpriced.costs(), priced.costs(), "{scheme}: rows return");
    }
}

#[test]
fn re_encoding_a_slab_with_another_scheme_overwrites_results() {
    let mut rng = StdRng::seed_from_u64(0x0DD);
    let mut slab = random_slab(&mut rng, 8, 8);
    let mut state = [BusState::idle()];
    Scheme::Dc.encode_lanes_into(&mut slab, &mut state);
    let dc_masks = slab.masks().to_vec();

    let mut state = [BusState::idle()];
    Scheme::Ac.encode_lanes_into(&mut slab, &mut state);
    assert_ne!(slab.masks(), dc_masks.as_slice());
    assert_eq!(slab.masks().len(), 8);
}

// ---------------------------------------------------------------------------
// Kernel-tier sweeps: every requested kernel vs the scalar oracle
// ---------------------------------------------------------------------------

fn random_states(rng: &mut StdRng, chains: usize) -> Vec<BusState> {
    (0..chains)
        .map(|_| BusState::new(LaneWord::encode_byte(rng.gen(), rng.gen())))
        .collect()
}

/// Every [`KernelKind`] variant, whether or not this target compiles it
/// or this CPU supports it.
const ALL_KERNELS: [KernelKind; 4] = [
    KernelKind::Scalar,
    KernelKind::Sse2,
    KernelKind::Avx2,
    KernelKind::Neon,
];

/// Every kernel tier — SSE2, AVX2, NEON, available or not — must produce
/// bit-identical masks, pricing rows and carried chain states to the
/// `Scalar` tier and to the serial per-burst reference, across burst
/// lengths, chain counts (including the AVX2 eight-chain geometry and its
/// odd remainders) and masks-only mode. A tier the target or CPU lacks
/// must take the scalar fallback, never run its kernel.
#[test]
fn lane_kernels_are_bit_identical_to_the_serial_chain_reference() {
    let mut rng = StdRng::seed_from_u64(0x51D3);
    let encoder = dbi_core::schemes::OptEncoder::new(CostWeights::new(2, 3).unwrap());
    for burst_len in [1usize, 3, 8, 16, 32] {
        for chains in [1usize, 2, 4, 5, 8, 9] {
            for per_chain in [1usize, 2, 17] {
                for pricing in [true, false] {
                    let mut slab = random_slab(&mut rng, burst_len, chains * per_chain);
                    slab.set_pricing(pricing);
                    let initial = random_states(&mut rng, chains);

                    let mut reference = slab.clone();
                    let mut reference_states = initial.clone();
                    reference.encode_chains_with(&mut reference_states, |burst, state| {
                        encoder.encode_mask(burst, state)
                    });

                    for kernel in ALL_KERNELS {
                        let mut lanes = slab.clone();
                        let mut states = initial.clone();
                        encoder.encode_lanes_into_with(kernel, &mut lanes, &mut states);
                        let label = format!(
                            "{kernel} len={burst_len} chains={chains} per={per_chain} \
                             pricing={pricing}"
                        );
                        assert_eq!(lanes.masks(), reference.masks(), "{label}: masks");
                        assert_eq!(lanes.costs(), reference.costs(), "{label}: costs");
                        assert_eq!(states, reference_states, "{label}: states");
                    }
                }
            }
        }
    }
}

/// The SWAR decode kernel must agree with the scalar beat-by-beat decode —
/// payload bytes, wire re-pricing and carried receiver states — and both
/// must round-trip the transmitter exactly, across the same geometry sweep.
#[test]
fn lane_decode_kernels_match_the_scalar_decode_oracle() {
    let mut rng = StdRng::seed_from_u64(0xDE5A);
    let encoder = dbi_core::schemes::OptEncoder::new(CostWeights::new(3, 1).unwrap());
    for burst_len in [1usize, 3, 8, 16, 32] {
        for chains in [1usize, 2, 5, 8] {
            for per_chain in [1usize, 2, 17] {
                for pricing in [true, false] {
                    let bursts = chains * per_chain;
                    let mut tx = random_slab(&mut rng, burst_len, bursts);
                    let payload = tx.bytes().to_vec();
                    let initial = random_states(&mut rng, chains);
                    let mut tx_states = initial.clone();
                    encoder.encode_lanes_into_with(
                        dbi_core::simd::selected_kernel(),
                        &mut tx,
                        &mut tx_states,
                    );
                    let masks = tx.masks().to_vec();
                    let tx_costs = tx.costs().to_vec();

                    let mut wire = payload.clone();
                    for (index, mask) in masks.iter().enumerate() {
                        mask.apply_in_place(&mut wire[index * burst_len..(index + 1) * burst_len]);
                    }

                    let decode_with = |kernel: KernelKind| {
                        let mut rx = BurstSlab::new(burst_len);
                        rx.set_pricing(pricing);
                        rx.extend_from_bytes(&wire).unwrap();
                        rx.load_masks(&masks).unwrap();
                        let mut states = initial.clone();
                        rx.decode_in_place_with(kernel, &mut states).unwrap();
                        (rx, states)
                    };

                    let (oracle, oracle_states) = decode_with(KernelKind::Scalar);
                    assert_eq!(oracle.bytes(), &payload[..], "scalar round trip");
                    assert_eq!(oracle_states, tx_states, "scalar receiver states");
                    if pricing {
                        assert_eq!(oracle.costs(), &tx_costs[..], "scalar wire pricing");
                    }

                    for &kernel in dbi_core::simd::available_kernels() {
                        let (rx, states) = decode_with(kernel);
                        let label = format!(
                            "{kernel} len={burst_len} chains={chains} per={per_chain} \
                             pricing={pricing}"
                        );
                        assert_eq!(rx.bytes(), oracle.bytes(), "{label}: payload");
                        assert_eq!(rx.costs(), oracle.costs(), "{label}: costs");
                        assert_eq!(states, oracle_states, "{label}: states");
                    }
                }
            }
        }
    }
}

/// `encode_lanes_into` with one chain — the scalar sweep with its BL8/BL16
/// literal-length dispatch — must match the same chain encoded inside a
/// packed eight-chain dispatch, where the vector blocks sweep it.
#[test]
fn single_chain_lanes_encode_matches_the_slab_kernel() {
    let mut rng = StdRng::seed_from_u64(0x1A4E);
    for scheme in all_schemes() {
        for burst_len in [8usize, 16] {
            let mut packed = random_slab(&mut rng, burst_len, 8 * 24);
            let initial = random_states(&mut rng, 8);
            let mut packed_states = initial.clone();
            scheme.encode_lanes_into(&mut packed, &mut packed_states);

            for chain in [0usize, 3, 7] {
                let view = packed.chain_view(chain, 8);
                let mut solo = BurstSlab::new(burst_len);
                solo.extend_from_bytes(view.bytes()).unwrap();
                let mut state = initial[chain];
                scheme.encode_lanes_into(&mut solo, from_mut(&mut state));

                let label = format!("{scheme} len={burst_len} chain={chain}");
                assert_eq!(solo.masks(), view.masks(), "{label}: masks");
                assert_eq!(solo.costs(), view.costs(), "{label}: costs");
                assert_eq!(state, packed_states[chain], "{label}: state");
            }
        }
    }
}
