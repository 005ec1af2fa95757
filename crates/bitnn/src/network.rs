//! Whole-network container and reference inference.

use crate::error::BitnnError;
use crate::layers::{Activation, ForwardScratch, Layer, LayerDims, Shape};
use crate::ops;
use crate::tensor::Tensor;
use rayon::prelude::*;

/// A feed-forward BNN: an input shape plus a validated layer stack.
///
/// `Bnn` is the golden software reference. The crossbar mappings and the
/// EinsteinBarrier simulator are tested to reproduce its outputs bit-exactly
/// in their noiseless configurations.
///
/// # Examples
///
/// ```
/// use eb_bitnn::{Bnn, Layer, BinLinear, FixedLinear, OutputLinear, Shape};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let net = Bnn::new(
///     "tiny",
///     Shape::Flat(16),
///     vec![
///         Layer::FixedLinear(FixedLinear::random("in", 16, 8, &mut rng)),
///         Layer::BinLinear(BinLinear::random("h1", 8, 8, &mut rng)),
///         Layer::Output(OutputLinear::random("out", 8, 4, &mut rng)),
///     ],
/// )?;
/// assert_eq!(net.output_shape(), Shape::Flat(4));
/// # Ok::<(), eb_bitnn::BitnnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bnn {
    name: String,
    input_shape: Shape,
    layers: Vec<Layer>,
    shapes: Vec<Shape>,
}

impl Bnn {
    /// Builds and shape-checks a network.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::InvalidNetwork`] if consecutive layers have
    /// incompatible shapes.
    pub fn new(
        name: impl Into<String>,
        input_shape: Shape,
        layers: Vec<Layer>,
    ) -> Result<Self, BitnnError> {
        let mut shapes = Vec::with_capacity(layers.len() + 1);
        shapes.push(input_shape);
        let mut cur = input_shape;
        for layer in &layers {
            cur = layer.out_shape(cur)?;
            shapes.push(cur);
        }
        Ok(Self {
            name: name.into(),
            input_shape,
            layers,
            shapes,
        })
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input shape.
    pub fn input_shape(&self) -> Shape {
        self.input_shape
    }

    /// Output shape (logits length for classifier networks).
    pub fn output_shape(&self) -> Shape {
        *self.shapes.last().unwrap_or(&self.input_shape)
    }

    /// The layer stack.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Activation shape entering layer `i` (index 0 = network input).
    pub fn shape_at(&self, i: usize) -> Shape {
        self.shapes[i]
    }

    /// Full forward pass from a real-valued input tensor to logits.
    ///
    /// # Errors
    ///
    /// Propagates layer shape/kind errors.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, BitnnError> {
        self.forward_with(input, &mut ForwardScratch::default())
    }

    /// [`Bnn::forward`] reusing caller-owned scratch buffers.
    ///
    /// The input is borrowed straight into the first layer (no
    /// `Activation::Real` clone) and every layer's intermediate buffers
    /// (quantization, im2col, popcounts) come from `scratch`, so a loop
    /// over samples holding one scratch runs allocation-free apart from
    /// the activations themselves.
    ///
    /// # Errors
    ///
    /// Propagates layer shape/kind errors.
    pub fn forward_with(
        &self,
        input: &Tensor,
        scratch: &mut ForwardScratch,
    ) -> Result<Tensor, BitnnError> {
        let mut act: Option<Activation> = None;
        for layer in &self.layers {
            act = Some(match act {
                None => layer.forward_real(input, scratch)?,
                Some(a) => layer.forward_with(&a, scratch)?,
            });
        }
        match act {
            None => Ok(input.clone()),
            Some(Activation::Real(t)) => Ok(t),
            Some(other) => Err(BitnnError::InvalidNetwork(format!(
                "network `{}` ended on a {} activation instead of logits",
                self.name,
                match other {
                    Activation::Binary(_) => "binary",
                    Activation::BinaryMap(_) => "binary map",
                    Activation::Real(_) => unreachable!(),
                }
            ))),
        }
    }

    /// Forward pass returning every intermediate activation (input excluded,
    /// one entry per layer). Used by the crossbar equivalence tests.
    ///
    /// # Errors
    ///
    /// Propagates layer shape/kind errors.
    pub fn forward_trace(&self, input: &Tensor) -> Result<Vec<Activation>, BitnnError> {
        let mut scratch = ForwardScratch::default();
        let mut trace: Vec<Activation> = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let next = match trace.last() {
                None => layer.forward_real(input, &mut scratch)?,
                Some(a) => layer.forward_with(a, &mut scratch)?,
            };
            trace.push(next);
        }
        Ok(trace)
    }

    /// Batched forward pass: runs [`Bnn::forward_with`] over every input,
    /// parallelized across samples with rayon. Weights are shared
    /// read-only between workers, and each worker owns one
    /// [`ForwardScratch`] for its whole chunk of the batch, so the
    /// per-sample buffer allocations of the seed path disappear entirely.
    ///
    /// # Errors
    ///
    /// Returns a layer shape/kind error if any sample fails.
    pub fn forward_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, BitnnError> {
        let parts = thread_chunks(inputs);
        let nested: Result<Vec<Vec<Tensor>>, BitnnError> = parts
            .par_iter()
            .map(|part| {
                let mut scratch = ForwardScratch::default();
                part.iter()
                    .map(|x| self.forward_with(x, &mut scratch))
                    .collect()
            })
            .collect();
        Ok(nested?.into_iter().flatten().collect())
    }

    /// Argmax of a logits tensor, rejecting the empty case — an empty
    /// logits vector has no class, and silently predicting class 0 (the
    /// pre-PR-4 behavior) masked the misconfiguration.
    fn predicted_class(&self, logits: &Tensor) -> Result<usize, BitnnError> {
        ops::argmax(logits.as_slice()).ok_or_else(|| BitnnError::EmptyLogits {
            network: self.name.clone(),
        })
    }

    /// Batched prediction (argmax of logits per sample), parallelized
    /// across samples with per-worker scratch reuse.
    ///
    /// # Errors
    ///
    /// Returns a layer shape/kind error if any sample fails, or
    /// [`BitnnError::EmptyLogits`] if the network produces empty logits.
    pub fn predict_batch(&self, inputs: &[Tensor]) -> Result<Vec<usize>, BitnnError> {
        self.forward_batch(inputs)?
            .into_iter()
            .map(|logits| self.predicted_class(&logits))
            .collect()
    }

    /// Predicted class (argmax of logits).
    ///
    /// # Errors
    ///
    /// Propagates layer shape/kind errors, or returns
    /// [`BitnnError::EmptyLogits`] if the network produces empty logits.
    pub fn predict(&self, input: &Tensor) -> Result<usize, BitnnError> {
        let logits = self.forward(input)?;
        self.predicted_class(&logits)
    }

    /// Classification accuracy over a labelled set (evaluated through the
    /// parallel batch path with per-worker scratch reuse).
    ///
    /// # Errors
    ///
    /// Propagates layer shape/kind errors.
    pub fn accuracy(&self, samples: &[(Tensor, usize)]) -> Result<f64, BitnnError> {
        if samples.is_empty() {
            return Ok(0.0);
        }
        let parts = thread_chunks(samples);
        let correct: usize = parts
            .par_iter()
            .map(|part| {
                let mut scratch = ForwardScratch::default();
                let mut hits = 0usize;
                for (x, y) in part.iter() {
                    let logits = self.forward_with(x, &mut scratch)?;
                    hits += usize::from(self.predicted_class(&logits)? == *y);
                }
                Ok(hits)
            })
            .collect::<Result<Vec<_>, BitnnError>>()?
            .into_iter()
            .sum();
        Ok(correct as f64 / samples.len() as f64)
    }

    /// Crossbar workload dimensions for every matrix layer, in order.
    ///
    /// This is the interface the mapping and accelerator crates consume: it
    /// is independent of the weight values, only the topology matters.
    pub fn layer_dims(&self) -> Vec<LayerDims> {
        let mut dims = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            if let Ok(Some(d)) = layer.dims(self.shapes[i]) {
                dims.push(d);
            }
        }
        dims
    }

    /// Total binary-equivalent MAC count per sample.
    pub fn total_macs(&self) -> u64 {
        self.layer_dims().iter().map(LayerDims::macs).sum()
    }
}

/// Splits `items` into one contiguous chunk per rayon worker — the unit a
/// per-worker [`ForwardScratch`] is amortized over.
fn thread_chunks<T>(items: &[T]) -> Vec<&[T]> {
    let chunk = items
        .len()
        .div_ceil(rayon::current_num_threads().max(1))
        .max(1);
    items.chunks(chunk).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BinLinear, FixedConv, FixedLinear, OutputLinear};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> Bnn {
        let mut rng = StdRng::seed_from_u64(7);
        Bnn::new(
            "tiny",
            Shape::Flat(12),
            vec![
                Layer::FixedLinear(FixedLinear::random("in", 12, 6, &mut rng)),
                Layer::BinLinear(BinLinear::random("h1", 6, 6, &mut rng)),
                Layer::Output(OutputLinear::random("out", 6, 3, &mut rng)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn forward_produces_logits() {
        let net = tiny();
        let x = Tensor::from_fn(&[12], |i| (i as f32 - 6.0) / 6.0);
        let logits = net.forward(&x).unwrap();
        assert_eq!(logits.len(), 3);
        let class = net.predict(&x).unwrap();
        assert!(class < 3);
    }

    #[test]
    fn forward_is_deterministic() {
        let net = tiny();
        let x = Tensor::from_fn(&[12], |i| (i % 3) as f32 - 1.0);
        assert_eq!(net.forward(&x).unwrap(), net.forward(&x).unwrap());
    }

    #[test]
    fn invalid_chain_rejected() {
        let mut rng = StdRng::seed_from_u64(7);
        let err = Bnn::new(
            "bad",
            Shape::Flat(12),
            vec![
                Layer::FixedLinear(FixedLinear::random("in", 12, 6, &mut rng)),
                Layer::BinLinear(BinLinear::random("h1", 7, 6, &mut rng)), // wrong fan-in
            ],
        )
        .unwrap_err();
        assert!(matches!(err, BitnnError::InvalidNetwork(_)));
    }

    #[test]
    fn convs_that_fit_no_window_are_rejected_not_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        for (what, conv) in [
            ("stride 0", FixedConv::random("c", 1, 2, 3, 0, 1, &mut rng)),
            (
                "kernel past padding",
                FixedConv::random("c", 1, 2, 5, 1, 1, &mut rng),
            ),
        ] {
            let err = Bnn::new("bad", Shape::Img(1, 2, 2), vec![Layer::FixedConv(conv)]);
            assert!(
                matches!(err, Err(BitnnError::InvalidNetwork(_))),
                "{what}: {err:?}"
            );
        }
    }

    #[test]
    fn trace_covers_all_layers() {
        let net = tiny();
        let x = Tensor::zeros(&[12]);
        let trace = net.forward_trace(&x).unwrap();
        assert_eq!(trace.len(), 3);
        assert!(matches!(trace[0], Activation::Binary(_)));
        assert!(matches!(trace[2], Activation::Real(_)));
    }

    #[test]
    fn dims_and_macs() {
        let net = tiny();
        let dims = net.layer_dims();
        assert_eq!(dims.len(), 3);
        assert_eq!(dims[0].fan_in, 12);
        assert_eq!(dims[1].out_vectors, 6);
        assert_eq!(net.total_macs(), (12 * 6 + 6 * 6 + 6 * 3) as u64);
    }

    #[test]
    fn forward_batch_matches_sequential() {
        let net = tiny();
        let inputs: Vec<Tensor> = (0..9)
            .map(|s| Tensor::from_fn(&[12], |i| ((i + s) as f32 * 0.31).sin()))
            .collect();
        let batch = net.forward_batch(&inputs).unwrap();
        for (x, got) in inputs.iter().zip(&batch) {
            assert_eq!(*got, net.forward(x).unwrap());
        }
        let preds = net.predict_batch(&inputs).unwrap();
        for (x, p) in inputs.iter().zip(&preds) {
            assert_eq!(*p, net.predict(x).unwrap());
        }
    }

    #[test]
    fn forward_with_reused_scratch_matches_fresh() {
        let net = tiny();
        let mut scratch = ForwardScratch::new();
        for s in 0..7 {
            let x = Tensor::from_fn(&[12], |i| ((i * 3 + s) as f32 * 0.17).cos());
            assert_eq!(
                net.forward_with(&x, &mut scratch).unwrap(),
                net.forward(&x).unwrap(),
                "sample {s}"
            );
        }
    }

    #[test]
    fn forward_batch_propagates_errors() {
        let net = tiny();
        let inputs = vec![Tensor::zeros(&[12]), Tensor::zeros(&[13])];
        assert!(net.forward_batch(&inputs).is_err());
        assert!(net.predict_batch(&inputs).is_err());
    }

    #[test]
    fn empty_logits_error_instead_of_class_zero() {
        // A zero-layer network echoes its input; with a zero-length input
        // that is an empty logits vector, which must surface as an error
        // rather than a silent class-0 prediction.
        let net = Bnn::new("empty", Shape::Flat(0), vec![]).unwrap();
        let x = Tensor::zeros(&[0]);
        assert!(matches!(
            net.predict(&x).unwrap_err(),
            BitnnError::EmptyLogits { .. }
        ));
        assert!(matches!(
            net.predict_batch(std::slice::from_ref(&x)).unwrap_err(),
            BitnnError::EmptyLogits { .. }
        ));
        assert!(net.accuracy(&[(x, 0)]).is_err());
    }

    #[test]
    fn accuracy_counts_matches() {
        let net = tiny();
        let samples: Vec<(Tensor, usize)> = (0..8)
            .map(|i| {
                let x = Tensor::from_fn(&[12], |j| ((i * j) % 5) as f32 / 5.0 - 0.4);
                let y = net.predict(&x).unwrap();
                (x, y)
            })
            .collect();
        // Labels chosen as the network's own predictions => accuracy 1.
        assert_eq!(net.accuracy(&samples).unwrap(), 1.0);
        assert_eq!(net.accuracy(&[]).unwrap(), 0.0);
    }
}
