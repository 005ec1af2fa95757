//! DESIGN.md E3 (paper Fig. 5): the WDM MMM equals K independent VMMs,
//! through the full optical chain (transmitter → oPCM crossbar →
//! photodetector/TIA → count recovery).

use eb_bitnn::{ops, BitMatrix, BitVec};
use eb_core::OpticalTacitMapped;
use eb_photonics::{OpcmParams, OpticalCrossbar, Receiver, Transmitter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rng() -> StdRng {
    StdRng::seed_from_u64(0x1DDE)
}

#[test]
fn mmm_equals_stacked_vmms_through_full_optical_chain() {
    let mut r = rng();
    let bits = BitMatrix::from_fn(32, 8, |a, b| (3 * a + b) % 4 != 2);
    let mut xbar = OpticalCrossbar::new(32, 8, OpcmParams::ideal_binary());
    xbar.program_matrix(&bits, &mut r).unwrap();
    let tx = Transmitter::with_capacity(16);
    let inputs: Vec<BitVec> = (0..16)
        .map(|k| BitVec::from_bools(&(0..32).map(|i| (i * (k + 1)) % 7 < 3).collect::<Vec<_>>()))
        .collect();

    let frame = tx.encode(&inputs).unwrap();
    let mmm = xbar.mmm_counts(&frame, &Receiver::ideal(), &mut r).unwrap();
    assert_eq!(mmm.len(), 16);

    for (k, v) in inputs.iter().enumerate() {
        let single = tx.encode(std::slice::from_ref(v)).unwrap();
        let vmm = xbar
            .mmm_counts(&single, &Receiver::ideal(), &mut r)
            .unwrap();
        assert_eq!(mmm[k], vmm[0], "wavelength {k} diverged");
        // And against the pure software AND-accumulate.
        for c in 0..8 {
            assert_eq!(mmm[k][c], v.and(&bits.col(c)).popcount());
        }
    }
}

#[test]
fn wdm_tacitmap_layer_is_exact_for_every_lane_count() {
    let mut r = rng();
    let weights = BitMatrix::from_fn(24, 40, |a, b| (a * 5 + b * 3) % 7 < 3);
    let mut mapped = OpticalTacitMapped::program(&weights, 64, 16, 16, &mut r).unwrap();
    for lanes in [1usize, 2, 5, 16] {
        let inputs: Vec<BitVec> = (0..lanes)
            .map(|k| BitVec::from_bools(&(0..40).map(|i| (i + 3 * k) % 4 < 2).collect::<Vec<_>>()))
            .collect();
        let complements: Vec<BitVec> = inputs.iter().map(BitVec::complement).collect();
        let xnor_lanes: Vec<(&BitVec, &BitVec)> = inputs.iter().zip(&complements).collect();
        let counts = mapped.execute_wdm_ref(&xnor_lanes, &mut r).unwrap();
        for (k, v) in inputs.iter().enumerate() {
            assert_eq!(
                counts[k],
                ops::binary_linear_popcounts(v, &weights),
                "lanes={lanes} k={k}"
            );
        }
    }
    // Four calls above = four MMM time-steps regardless of lane count.
    assert_eq!(mapped.steps_taken(), 4);
}

#[test]
fn over_capacity_is_rejected_cleanly() {
    let tx = Transmitter::with_capacity(4);
    let vs: Vec<BitVec> = (0..5).map(|_| BitVec::ones(8)).collect();
    let err = tx.encode(&vs).unwrap_err();
    assert!(err.to_string().contains("WDM capacity"));
}

#[test]
fn noisy_receiver_stays_within_one_count_at_moderate_scale() {
    let mut r = rng();
    let bits = BitMatrix::from_fn(64, 1, |a, _| a % 2 == 0);
    let mut xbar = OpticalCrossbar::new(64, 1, OpcmParams::ideal_binary());
    xbar.program_matrix(&bits, &mut r).unwrap();
    let tx = Transmitter::with_capacity(2);
    let frame = tx.encode(&[BitVec::ones(64)]).unwrap();
    let mut max_err = 0i64;
    for _ in 0..50 {
        let counts = xbar.mmm_counts(&frame, &Receiver::noisy(), &mut r).unwrap();
        max_err = max_err.max((i64::from(counts[0][0]) - 32).abs());
    }
    assert!(max_err <= 4, "receiver noise too destructive: ±{max_err}");
}

#[test]
fn noisy_wdm_counts_and_rng_end_state_are_pinned() {
    // A noisy read over full 256-row crossbars, with XNOR and bit-serial
    // lanes at several lane counts. The counts and the RNG's next word
    // afterwards were recorded from the original per-cell read loop: a
    // faster kernel must sum the same products in the same order and
    // draw the same noise samples in the same order.
    let mut r = StdRng::seed_from_u64(0x5EED);
    let weights = BitMatrix::from_fn(300, 300, |a, b| (a * 7 + b * 11) % 5 < 2);
    let mut mapped = OpticalTacitMapped::program(&weights, 256, 256, 16, &mut r).unwrap();
    mapped.set_receiver(Receiver::noisy());
    let inputs: Vec<BitVec> = (0..16)
        .map(|k| BitVec::from_bools(&(0..300).map(|i| (i * (k + 2)) % 9 < 4).collect::<Vec<_>>()))
        .collect();
    let complements: Vec<BitVec> = inputs.iter().map(BitVec::complement).collect();
    let zero = BitVec::zeros(300);
    let mut digest = Vec::new();
    for lanes in [1usize, 5, 16] {
        let xnor: Vec<(&BitVec, &BitVec)> = inputs.iter().zip(&complements).take(lanes).collect();
        let serial: Vec<(&BitVec, &BitVec)> =
            inputs.iter().map(|v| (v, &zero)).take(lanes).collect();
        for lane_set in [xnor, serial] {
            let counts = mapped.execute_wdm_ref(&lane_set, &mut r).unwrap();
            let ideal: Vec<Vec<u32>> = lane_set
                .iter()
                .map(|(pos, neg)| {
                    (0..300)
                        .map(|j| {
                            let w = weights.row(j);
                            pos.and(&w).popcount() + neg.and(&w.complement()).popcount()
                        })
                        .collect()
                })
                .collect();
            let flips: usize = counts
                .iter()
                .flatten()
                .zip(ideal.iter().flatten())
                .filter(|(a, b)| a != b)
                .count();
            // FNV-1a over every count, lane-major.
            let hash = counts
                .iter()
                .flatten()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, &c| {
                    (h ^ u64::from(c)).wrapping_mul(0x0100_0000_01b3)
                });
            digest.push((hash, flips));
        }
    }
    // (count hash, counts off the ideal popcount) per read; noise does
    // flip counts on the XNOR lanes, so the pin covers rounding too.
    let want = vec![
        (592_897_986_001_690_303, 10),
        (1_828_086_233_679_951_757, 0),
        (3_626_371_421_993_274_927, 44),
        (2_414_636_204_234_035_997, 0),
        (11_199_547_430_028_133_032, 146),
        (5_281_812_091_170_588_661, 0),
    ];
    assert_eq!(digest, want);
    assert_eq!(r.gen::<u64>(), 5_507_542_958_440_810_863);
}
