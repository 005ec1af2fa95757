//! The served networks and the seeded request inputs.
//!
//! Network weights are fixed: they never depend on the workload seed.
//! The seed only generates the inputs the load phases send.

use einstein_barrier::bitnn::{
    BinLinear, Bnn, Dataset, DatasetKind, FixedLinear, Layer, MlpTrainer, OutputLinear, Shape,
    Tensor, TrainConfig,
};
use einstein_barrier::derived_model_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Model name the edge workload deploys (eb-serve's default).
pub const TINY_NAME: &str = "demo";
/// Input width of the tiny edge network.
pub const TINY_INPUT: usize = 16;

/// eb-serve's demo shape, 16→32→32→10 (FixedLinear → BinLinear →
/// Output), with the weights eb-serve itself would derive for model
/// `demo` at its default seed 7.
pub fn tiny_net() -> Bnn {
    let mut rng = StdRng::seed_from_u64(derived_model_seed(TINY_NAME, 7));
    Bnn::new(
        TINY_NAME,
        Shape::Flat(TINY_INPUT),
        vec![
            Layer::FixedLinear(FixedLinear::random("in", TINY_INPUT, 32, &mut rng)),
            Layer::BinLinear(BinLinear::random("h", 32, 32, &mut rng)),
            Layer::Output(OutputLinear::random("out", 32, 10, &mut rng)),
        ],
    )
    .expect("the tiny demo shape is valid")
}

/// The trained 784→64→32→10 BinaryConnect MLP the `serve_throughput`
/// criterion bench serves (same data, same training recipe).
pub fn mlp_net() -> Bnn {
    let data = Dataset::generate(DatasetKind::Mnist, 64, 13).flattened();
    let mut trainer = MlpTrainer::new(
        &[784, 64, 32, 10],
        TrainConfig {
            learning_rate: 0.05,
            epochs: 2,
            batch_size: 16,
            seed: 3,
        },
    );
    trainer.fit(&data);
    trainer
        .to_bnn("serve-throughput-mlp")
        .expect("the trained MLP converts to a BNN")
}

/// `n` edge inputs in [-1, 1), drawn from `seed`.
pub fn edge_inputs(seed: u64, n: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_ed9e);
    (0..n)
        .map(|_| {
            let values = (0..TINY_INPUT)
                .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) as f32)
                .collect();
            Tensor::from_vec(&[TINY_INPUT], values)
        })
        .collect()
}

/// `n` synthetic MNIST-like 784-pixel images, drawn from `seed`.
pub fn pool_inputs(seed: u64, n: usize) -> Vec<Tensor> {
    Dataset::generate(DatasetKind::Mnist, n, seed)
        .flattened()
        .into_iter()
        .map(|(x, _)| x)
        .collect()
}

/// The software reference logits for every input.
pub fn reference(net: &Bnn, inputs: &[Tensor]) -> Vec<Tensor> {
    inputs
        .iter()
        .map(|x| net.forward(x).expect("reference forward pass"))
        .collect()
}
