//! Microbenchmarks of the substrates: packed XNOR+popcount kernels,
//! analog crossbar VMM, optical WDM MMM, and the end-to-end simulated
//! inference (TacitMap-ePCM vs EinsteinBarrier on a small MLP).

use criterion::{criterion_group, criterion_main, Criterion};
use eb_bitnn::{
    ops, BinLinear, BitMatrix, BitVec, Bnn, FixedLinear, Layer, OutputLinear, Shape, Tensor,
};
use eb_core::{compile, Design, Machine, OpticalTacitMapped};
use eb_xbar::{CrossbarArray, DeviceParams, VmmEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_bitops(c: &mut Criterion) {
    let a = BitVec::from_bools(&(0..4096).map(|i| i % 3 == 0).collect::<Vec<_>>());
    let b = BitVec::from_bools(&(0..4096).map(|i| i % 5 != 0).collect::<Vec<_>>());
    c.bench_function("xnor_popcount_4096", |bench| {
        bench.iter(|| black_box(ops::xnor_popcount(&a, &b)))
    });
    let w = BitMatrix::from_fn(256, 4096, |r, q| (r + q) % 7 == 0);
    c.bench_function("binary_linear_256x4096", |bench| {
        bench.iter(|| black_box(ops::binary_linear_popcounts(&a, &w)))
    });
}

fn bench_analog_vmm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let bits = BitMatrix::from_fn(256, 256, |r, q| (r * q) % 3 == 0);
    let mut array = CrossbarArray::new(256, 256, DeviceParams::ideal());
    array.program_matrix(&bits, &mut rng).expect("fits");
    let engine = VmmEngine::with_defaults(array);
    let drive = BitVec::from_bools(&(0..256).map(|i| i % 2 == 0).collect::<Vec<_>>());
    c.bench_function("analog_vmm_256x256", |bench| {
        bench.iter(|| black_box(engine.vmm_counts(&drive, &mut rng).expect("vmm")))
    });
}

fn bench_optical_mmm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let weights = BitMatrix::from_fn(64, 64, |r, q| (r + 2 * q) % 3 == 0);
    let mut mapped = OpticalTacitMapped::program(&weights, 256, 64, 16, &mut rng).expect("fits");
    let inputs: Vec<BitVec> = (0..16)
        .map(|k| BitVec::from_bools(&(0..64).map(|i| (i + k) % 3 == 0).collect::<Vec<_>>()))
        .collect();
    let complements: Vec<BitVec> = inputs.iter().map(BitVec::complement).collect();
    let lanes: Vec<(&BitVec, &BitVec)> = inputs.iter().zip(&complements).collect();
    c.bench_function("optical_mmm_16lanes_64x64", |bench| {
        bench.iter(|| black_box(mapped.execute_wdm_ref(&lanes, &mut rng).expect("mmm")))
    });
}

fn bench_simulated_inference(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let net = Bnn::new(
        "bench-mlp",
        Shape::Flat(64),
        vec![
            Layer::FixedLinear(FixedLinear::random("in", 64, 32, &mut rng)),
            Layer::BinLinear(BinLinear::random("h1", 32, 32, &mut rng)),
            Layer::Output(OutputLinear::random("out", 32, 10, &mut rng)),
        ],
    )
    .expect("valid");
    let x = Tensor::from_fn(&[64], |i| ((i as f32) * 0.1).sin());
    let mut group = c.benchmark_group("simulated_inference");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    for (tag, design) in [
        ("tacitmap_epcm", Design::tacitmap_epcm()),
        ("einstein_barrier", Design::einstein_barrier()),
    ] {
        group.bench_function(tag, |bench| {
            bench.iter(|| {
                // Compile + run, as one cold inference would.
                let compiled = compile(&design, &net, &mut rng).expect("compile");
                let mut machine = Machine::new(compiled, &design, &mut rng);
                black_box(machine.run(&x).expect("simulate"))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));
    targets =
    bench_bitops,
    bench_analog_vmm,
    bench_optical_mmm,
    bench_simulated_inference
}
criterion_main!(benches);
