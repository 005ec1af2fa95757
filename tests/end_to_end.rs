//! End-to-end pipeline: train → export → compile → simulate on analog /
//! optical hardware, bit-exact against the software reference; plus a
//! full benchmark-network (MLP-S) inference through the simulated
//! TacitMap-ePCM accelerator.

use eb_bitnn::{BenchModel, Dataset, DatasetKind, MlpTrainer, Tensor, TrainConfig};
use eb_core::{compile, Design, Machine};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn trained_network_runs_bit_exact_on_both_designs() {
    let data = Dataset::generate(DatasetKind::Mnist, 60, 17).flattened();
    let mut trainer = MlpTrainer::new(
        &[784, 24, 16, 10],
        TrainConfig {
            learning_rate: 0.05,
            epochs: 4,
            // Exercise the mini-batch GEMM trainer end to end; hardware
            // bit-exactness below holds for any trained weights.
            batch_size: 12,
            seed: 1,
        },
    );
    trainer.fit(&data);
    let net = trainer.to_bnn("e2e").unwrap();

    let mut rng = StdRng::seed_from_u64(2);
    for design in [Design::tacitmap_epcm(), Design::einstein_barrier()] {
        for (x, _) in &data[..5] {
            let want = net.forward(x).unwrap();
            let compiled = compile(&design, &net, &mut rng).unwrap();
            let mut machine = Machine::new(compiled, &design, &mut rng);
            let got = machine.run(x).unwrap();
            assert_eq!(got, want, "{}", design.kind);
            let stats = machine.stats();
            assert!(stats.latency_ns > 0.0 && stats.energy_j > 0.0);
        }
    }
}

#[test]
fn compiled_machine_is_reusable_across_inputs() {
    let data = Dataset::generate(DatasetKind::Mnist, 20, 3).flattened();
    let mut trainer = MlpTrainer::new(&[784, 16, 10], TrainConfig::default());
    trainer.fit(&data);
    let net = trainer.to_bnn("reuse").unwrap();
    let design = Design::tacitmap_epcm();
    let mut rng = StdRng::seed_from_u64(4);
    let compiled = compile(&design, &net, &mut rng).unwrap();
    let program_len = compiled.program.len() as u64;
    // The machine owns the compiled program and the RNG: compile once,
    // serve many inputs.
    let mut machine = Machine::new(compiled, &design, rng);
    for (x, _) in &data[..6] {
        let want = net.forward(x).unwrap();
        let got = machine.run(x).unwrap();
        assert_eq!(got, want);
    }
    let stats = machine.stats();
    // The program has no branches: every run retires all of it.
    assert_eq!(stats.instructions, 6 * program_len);
}

#[test]
fn benchmark_mlp_s_simulates_bit_exact() {
    // The real MLP-S benchmark network (784-500-250-10) through the full
    // functional stack — 14 + 4 + 16 mapped crossbars.
    let net = BenchModel::MlpS.build(11).unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let x = Tensor::from_fn(&[784], |i| ((i as f32) * 0.0137).sin());
    let want = net.forward(&x).unwrap();
    let design = Design::tacitmap_epcm();
    let compiled = compile(&design, &net, &mut rng).unwrap();
    let mut machine = Machine::new(compiled, &design, &mut rng);
    let got = machine.run(&x).unwrap();
    assert_eq!(got, want);
    let stats = machine.stats();
    // 8 bit-planes × 2 half-drives for the first layer + 1 binary + the
    // rest: at least 17 crossbar steps.
    assert!(stats.crossbar_steps >= 17, "steps {}", stats.crossbar_steps);
}

#[test]
fn placements_respect_chip_hierarchy() {
    let net = BenchModel::MlpS.build(12).unwrap();
    let design = Design::tacitmap_epcm();
    let mut rng = StdRng::seed_from_u64(7);
    let compiled = compile(&design, &net, &mut rng).unwrap();
    // The first and hidden layers are mapped to crossbars; the output
    // layer runs on the ECore scalar FU (see DESIGN.md), so two placements.
    assert_eq!(compiled.placements.len(), 2);
    let budget = design.crossbar_budget();
    let mut total = 0usize;
    for p in &compiled.placements {
        total += p.crossbars.len();
        for addr in &p.crossbars {
            assert!(addr.node < design.chip.nodes);
            assert!(addr.tile < design.chip.tiles_per_node);
            assert!(addr.ecore < design.chip.ecores_per_tile);
            assert!(addr.vcore < design.chip.vcores_per_ecore);
        }
    }
    assert!(
        total <= budget,
        "MLP-S fits the paper chip: {total}/{budget}"
    );
}
