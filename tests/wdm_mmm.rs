//! DESIGN.md E3 (paper Fig. 5): the WDM MMM equals K independent VMMs,
//! through the full optical chain (transmitter → oPCM crossbar →
//! photodetector/TIA → count recovery).

use eb_bitnn::{ops, BitMatrix, BitVec};
use eb_core::OpticalTacitMapped;
use eb_photonics::{OpcmParams, OpticalCrossbar, Receiver, Transmitter};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
