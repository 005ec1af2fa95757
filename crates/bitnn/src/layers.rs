//! BNN layers and activations.
//!
//! Following the paper (Section II-B) and standard BNN practice
//! (BinaryConnect / XNOR-Net), the **first** layer consumes 8-bit
//! fixed-point activations with binary weights, **hidden** layers are fully
//! binary (XNOR + popcount + folded batch-norm threshold), and the
//! **output** layer keeps real-valued weights. Max pooling on {0,1}
//! activations is a logical OR.

use crate::batchnorm::{BatchNorm, ThresholdSpec};
use crate::bits::BitVec;
use crate::bittensor::{conv_output_dims, BitTensor};
use crate::error::BitnnError;
use crate::matrix::BitMatrix;
use crate::ops;
use crate::tensor::Tensor;
use rand::Rng;

/// Reusable buffers for the inference hot path.
///
/// Every layer forward needs a handful of intermediate buffers (quantized
/// input, im2col patches, integer pre-activations, XNOR popcounts). A
/// `ForwardScratch` owns them all so a batch loop — or any caller running
/// many samples through [`crate::Bnn::forward_with`] — pays the
/// allocations once and then runs allocation-free; only the activations
/// that flow between layers are still materialized. A fresh
/// (`Default`) scratch is always valid: buffers grow on first use.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    /// Quantized 8-bit input (fixed-point first layers).
    q: Vec<i16>,
    /// Flattened fixed-point im2col patches ([`FixedConv`]).
    patches: Vec<i16>,
    /// Integer pre-activations (fixed-point layers).
    preacts: Vec<i32>,
    /// XNOR popcounts (binary layers), flat row-major for conv.
    pops: Vec<u32>,
    /// Packed im2col window matrix ([`BinConv`]).
    windows: BitMatrix,
}

impl ForwardScratch {
    /// An empty scratch; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// An activation flowing between layers.
#[derive(Debug, Clone, PartialEq)]
pub enum Activation {
    /// Real-valued input (network input or logits).
    Real(Tensor),
    /// Flat binary activation vector.
    Binary(BitVec),
    /// Spatial binary activation map (conv feature map).
    BinaryMap(BitTensor),
}

impl Activation {
    fn kind(&self) -> &'static str {
        match self {
            Self::Real(_) => "real",
            Self::Binary(_) => "binary vector",
            Self::BinaryMap(_) => "binary map",
        }
    }
}

/// Static shape of an activation, used to chain layers and derive the
/// workload dimensions consumed by the performance models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// Flat vector of `n` elements.
    Flat(usize),
    /// `(channels, height, width)` image.
    Img(usize, usize, usize),
}

impl Shape {
    /// Total element count.
    pub fn len(&self) -> usize {
        match *self {
            Self::Flat(n) => n,
            Self::Img(c, h, w) => c * h * w,
        }
    }

    /// Returns `true` for a zero-element shape.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::Flat(n) => write!(f, "{n}"),
            Self::Img(c, h, w) => write!(f, "{c}×{h}×{w}"),
        }
    }
}

/// Precision role of a layer, used by the accelerator cost models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// First layer: 8-bit activations × binary weights (bit-serial input).
    FirstFixed,
    /// Hidden layer: fully binary XNOR + popcount.
    HiddenBinary,
    /// Output layer: binary activations × 8-bit weights.
    OutputFixed,
    /// Pooling — no crossbar work.
    Pool,
}

/// Crossbar-relevant dimensions of one layer: the `(m, n, v)` triple of the
/// DESIGN.md performance model plus operand precisions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LayerDims {
    /// Human-readable layer name.
    pub name: String,
    /// Precision role.
    pub kind: LayerKind,
    /// `m`: weight-vector length (fan-in of each output).
    pub fan_in: usize,
    /// `n`: number of weight vectors (outputs / filters).
    pub out_vectors: usize,
    /// `v`: input vectors per sample (sliding windows; 1 for dense layers).
    pub input_vectors: usize,
    /// Activation operand width in bits (1 or 8).
    pub input_bits: u8,
    /// Weight operand width in bits (1 or 8).
    pub weight_bits: u8,
}

impl LayerDims {
    /// Binary MAC operations implied per sample (`m·n·v`).
    pub fn macs(&self) -> u64 {
        self.fan_in as u64 * self.out_vectors as u64 * self.input_vectors as u64
    }
}

/// A first layer consuming 8-bit quantized activations with ±1 weights.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedLinear {
    name: String,
    /// One weight vector per output, fan-in = input length.
    weights: BitMatrix,
    thresholds: Vec<ThresholdSpec>,
    input_bits: u8,
}

impl FixedLinear {
    /// Builds the layer from binary weights and folded thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `thresholds.len() != weights.rows()`.
    pub fn new(
        name: impl Into<String>,
        weights: BitMatrix,
        thresholds: Vec<ThresholdSpec>,
    ) -> Self {
        assert_eq!(weights.rows(), thresholds.len(), "threshold count mismatch");
        Self {
            name: name.into(),
            weights,
            thresholds,
            input_bits: 8,
        }
    }

    /// Random weights with majority thresholds centred for sign-balanced
    /// 8-bit inputs (threshold 0 on the integer pre-activation).
    pub fn random(
        name: impl Into<String>,
        inputs: usize,
        outputs: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let weights = BitMatrix::from_fn(outputs, inputs, |_, _| rng.gen::<bool>());
        let thresholds = vec![ThresholdSpec::fire_at_or_above(0); outputs];
        Self::new(name, weights, thresholds)
    }

    /// Binary weight matrix (one weight vector per row).
    pub fn weights(&self) -> &BitMatrix {
        &self.weights
    }

    /// Folded thresholds.
    pub fn thresholds(&self) -> &[ThresholdSpec] {
        &self.thresholds
    }

    /// Integer pre-activations for a quantized input.
    pub fn preacts(&self, input: &[i16]) -> Vec<i32> {
        ops::fixed_linear_preacts(input, &self.weights)
    }

    fn forward(&self, t: &Tensor, scratch: &mut ForwardScratch) -> Result<BitVec, BitnnError> {
        if t.len() != self.weights.cols() {
            return Err(BitnnError::ShapeMismatch {
                layer: self.name.clone(),
                expected: self.weights.cols().to_string(),
                got: t.len().to_string(),
            });
        }
        t.quantize_into(self.input_bits, &mut scratch.q);
        ops::fixed_linear_preacts_into(&scratch.q, &self.weights, &mut scratch.preacts);
        Ok(scratch
            .preacts
            .iter()
            .zip(&self.thresholds)
            .map(|(&p, spec)| spec.fire(i64::from(p)))
            .collect())
    }
}

/// A fully binary hidden dense layer (XNOR + popcount + threshold).
#[derive(Debug, Clone, PartialEq)]
pub struct BinLinear {
    name: String,
    weights: BitMatrix,
    thresholds: Vec<ThresholdSpec>,
}

impl BinLinear {
    /// Builds the layer from binary weights and popcount-domain thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `thresholds.len() != weights.rows()`.
    pub fn new(
        name: impl Into<String>,
        weights: BitMatrix,
        thresholds: Vec<ThresholdSpec>,
    ) -> Self {
        assert_eq!(weights.rows(), thresholds.len(), "threshold count mismatch");
        Self {
            name: name.into(),
            weights,
            thresholds,
        }
    }

    /// Builds the layer folding an explicit batch norm.
    pub fn with_batchnorm(name: impl Into<String>, weights: BitMatrix, bn: &BatchNorm) -> Self {
        let t = bn.fold_popcount(weights.cols());
        Self::new(name, weights, t)
    }

    /// Random weights with majority thresholds.
    pub fn random(
        name: impl Into<String>,
        inputs: usize,
        outputs: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let weights = BitMatrix::from_fn(outputs, inputs, |_, _| rng.gen::<bool>());
        let thresholds = vec![ThresholdSpec::majority(inputs); outputs];
        Self::new(name, weights, thresholds)
    }

    /// Binary weight matrix (one weight vector per row).
    pub fn weights(&self) -> &BitMatrix {
        &self.weights
    }

    /// Popcount-domain thresholds.
    pub fn thresholds(&self) -> &[ThresholdSpec] {
        &self.thresholds
    }

    /// XNOR popcounts for one input vector — exactly what one TacitMap
    /// crossbar activation reads from its ADCs.
    pub fn popcounts(&self, input: &BitVec) -> Vec<u32> {
        ops::binary_linear_popcounts(input, &self.weights)
    }

    fn forward(&self, x: &BitVec, scratch: &mut ForwardScratch) -> Result<BitVec, BitnnError> {
        if x.len() != self.weights.cols() {
            return Err(BitnnError::ShapeMismatch {
                layer: self.name.clone(),
                expected: self.weights.cols().to_string(),
                got: x.len().to_string(),
            });
        }
        ops::binary_linear_popcounts_into(x, &self.weights, &mut scratch.pops);
        Ok(scratch
            .pops
            .iter()
            .zip(&self.thresholds)
            .map(|(&p, spec)| spec.fire(i64::from(p)))
            .collect())
    }
}

/// A first convolutional layer: 8-bit input image, binary filters.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedConv {
    name: String,
    /// One flattened filter per row; fan-in = `in_channels · k · k`.
    filters: BitMatrix,
    thresholds: Vec<ThresholdSpec>,
    in_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    input_bits: u8,
}

impl FixedConv {
    /// Builds the layer.
    ///
    /// # Panics
    ///
    /// Panics if the filter fan-in does not equal `in_channels · k²` or the
    /// threshold count differs from the filter count.
    pub fn new(
        name: impl Into<String>,
        filters: BitMatrix,
        thresholds: Vec<ThresholdSpec>,
        in_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        assert_eq!(
            filters.cols(),
            in_channels * kernel * kernel,
            "filter fan-in mismatch"
        );
        assert_eq!(filters.rows(), thresholds.len(), "threshold count mismatch");
        Self {
            name: name.into(),
            filters,
            thresholds,
            in_channels,
            kernel,
            stride,
            pad,
            input_bits: 8,
        }
    }

    /// Random filters with a zero integer threshold.
    #[allow(clippy::too_many_arguments)]
    pub fn random(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let filters = BitMatrix::from_fn(out_channels, in_channels * kernel * kernel, |_, _| {
            rng.gen::<bool>()
        });
        let thresholds = vec![ThresholdSpec::fire_at_or_above(0); out_channels];
        Self::new(name, filters, thresholds, in_channels, kernel, stride, pad)
    }

    /// Flattened binary filters (one per row).
    pub fn filters(&self) -> &BitMatrix {
        &self.filters
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Folded thresholds (integer pre-activation domain).
    pub fn thresholds(&self) -> &[ThresholdSpec] {
        &self.thresholds
    }

    fn check_input(&self, t: &Tensor) -> Result<(usize, usize, usize), BitnnError> {
        let shape = t.shape();
        if shape.len() != 3 || shape[0] != self.in_channels {
            return Err(BitnnError::ShapeMismatch {
                layer: self.name.clone(),
                expected: format!("{}×H×W", self.in_channels),
                got: format!("{shape:?}"),
            });
        }
        Ok((shape[0], shape[1], shape[2]))
    }

    /// Packed-im2col forward pass: quantizes the input once, extracts
    /// *all* sliding windows into a single patch matrix, and runs the
    /// word-level fixed-point kernel over its rows. This is the hot path;
    /// [`FixedConv::forward_naive`] is the per-pixel reference it is
    /// tested against.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ShapeMismatch`] when the input is not a
    /// `in_channels×H×W` tensor.
    pub fn forward(&self, t: &Tensor) -> Result<BitTensor, BitnnError> {
        self.forward_with(t, &mut ForwardScratch::default())
    }

    /// [`FixedConv::forward`] reusing caller-owned scratch buffers: the
    /// quantized input, the im2col patch matrix, and the per-window
    /// pre-activations all live in `scratch`, so repeated calls are
    /// allocation-free apart from the output map.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ShapeMismatch`] when the input is not a
    /// `in_channels×H×W` tensor.
    pub fn forward_with(
        &self,
        t: &Tensor,
        scratch: &mut ForwardScratch,
    ) -> Result<BitTensor, BitnnError> {
        let (c, h, w) = self.check_input(t)?;
        let (oh, ow) = conv_output_dims(h, w, self.kernel, self.stride, self.pad);
        t.quantize_into(self.input_bits, &mut scratch.q);
        let fan_in = c * self.kernel * self.kernel;
        im2col_i16_into(
            &scratch.q,
            c,
            h,
            w,
            self.kernel,
            self.stride,
            self.pad,
            &mut scratch.patches,
        );
        let mut out = BitTensor::zeros(self.filters.rows(), oh, ow);
        // Indexed slicing (not `chunks_exact`) so a degenerate zero fan-in
        // layer still thresholds every output pixel like the naive path.
        for row in 0..oh * ow {
            let patch = &scratch.patches[row * fan_in..(row + 1) * fan_in];
            ops::fixed_linear_preacts_into(patch, &self.filters, &mut scratch.preacts);
            let (oy, ox) = (row / ow, row % ow);
            for (f, (&p, spec)) in scratch.preacts.iter().zip(&self.thresholds).enumerate() {
                if spec.fire(i64::from(p)) {
                    out.set(f, oy, ox, true);
                }
            }
        }
        Ok(out)
    }

    /// Naive per-pixel reference: allocates one `c·k·k` window per output
    /// position and runs the element-wise kernel — the oracle the packed
    /// path is property-tested against.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ShapeMismatch`] when the input is not a
    /// `in_channels×H×W` tensor.
    pub fn forward_naive(&self, t: &Tensor) -> Result<BitTensor, BitnnError> {
        let (c, h, w) = self.check_input(t)?;
        let (oh, ow) = conv_output_dims(h, w, self.kernel, self.stride, self.pad);
        let q = t.quantize(self.input_bits);
        let mut out = BitTensor::zeros(self.filters.rows(), oh, ow);
        let k = self.kernel;
        for oy in 0..oh {
            for ox in 0..ow {
                // Extract the quantized window (padding reads 0).
                let mut window = vec![0i16; c * k * k];
                for ci in 0..c {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * self.stride + ky) as isize - self.pad as isize;
                            let ix = (ox * self.stride + kx) as isize - self.pad as isize;
                            if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                                continue;
                            }
                            window[(ci * k + ky) * k + kx] =
                                q[(ci * h + iy as usize) * w + ix as usize];
                        }
                    }
                }
                let pre = ops::fixed_linear_preacts_naive(&window, &self.filters);
                for (f, (&p, spec)) in pre.iter().zip(&self.thresholds).enumerate() {
                    if spec.fire(i64::from(p)) {
                        out.set(f, oy, ox, true);
                    }
                }
            }
        }
        Ok(out)
    }
}

/// im2col for quantized fixed-point maps: every `k×k` window of the
/// channel-major `c×h×w` map `q`, flattened into consecutive `c·k·k`
/// rows of the caller-owned `patches` buffer (cleared, zero-filled, and
/// refilled; padding positions stay 0). No allocation at all once the
/// buffer has grown to the layer's size.
#[allow(clippy::too_many_arguments)]
fn im2col_i16_into(
    q: &[i16],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    patches: &mut Vec<i16>,
) {
    let (oh, ow) = conv_output_dims(h, w, k, stride, pad);
    let fan_in = c * k * k;
    patches.clear();
    patches.resize(oh * ow * fan_in, 0);
    for oy in 0..oh {
        for ox in 0..ow {
            let base = (oy * ow + ox) * fan_in;
            for ci in 0..c {
                for ky in 0..k {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    let iy = iy as usize;
                    for kx in 0..k {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if ix < 0 || ix as usize >= w {
                            continue;
                        }
                        patches[base + (ci * k + ky) * k + kx] = q[(ci * h + iy) * w + ix as usize];
                    }
                }
            }
        }
    }
}

/// A fully binary hidden convolutional layer.
#[derive(Debug, Clone, PartialEq)]
pub struct BinConv {
    name: String,
    filters: BitMatrix,
    thresholds: Vec<ThresholdSpec>,
    in_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
}

impl BinConv {
    /// Builds the layer.
    ///
    /// # Panics
    ///
    /// Panics if the filter fan-in does not equal `in_channels · k²` or the
    /// threshold count differs from the filter count.
    pub fn new(
        name: impl Into<String>,
        filters: BitMatrix,
        thresholds: Vec<ThresholdSpec>,
        in_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        assert_eq!(
            filters.cols(),
            in_channels * kernel * kernel,
            "filter fan-in mismatch"
        );
        assert_eq!(filters.rows(), thresholds.len(), "threshold count mismatch");
        Self {
            name: name.into(),
            filters,
            thresholds,
            in_channels,
            kernel,
            stride,
            pad,
        }
    }

    /// Random filters with majority thresholds.
    #[allow(clippy::too_many_arguments)]
    pub fn random(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let filters = BitMatrix::from_fn(out_channels, fan_in, |_, _| rng.gen::<bool>());
        let thresholds = vec![ThresholdSpec::majority(fan_in); out_channels];
        Self::new(name, filters, thresholds, in_channels, kernel, stride, pad)
    }

    /// Flattened binary filters (one per row).
    pub fn filters(&self) -> &BitMatrix {
        &self.filters
    }

    /// Popcount-domain thresholds.
    pub fn thresholds(&self) -> &[ThresholdSpec] {
        &self.thresholds
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    fn check_input(&self, t: &BitTensor) -> Result<(), BitnnError> {
        if t.channels() != self.in_channels {
            return Err(BitnnError::ShapeMismatch {
                layer: self.name.clone(),
                expected: format!("{} channels", self.in_channels),
                got: format!("{} channels", t.channels()),
            });
        }
        Ok(())
    }

    /// Packed forward pass: builds one im2col patch matrix for the whole
    /// layer and runs the blocked word-level XNOR-GEMM
    /// ([`ops::binary_mmm_popcounts`]) against the filters — no per-pixel
    /// window or per-row `BitVec` allocations. This is the hot path;
    /// [`BinConv::forward_naive`] is the reference it is tested against.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ShapeMismatch`] on a channel-count mismatch.
    pub fn forward(&self, t: &BitTensor) -> Result<BitTensor, BitnnError> {
        self.forward_with(t, &mut ForwardScratch::default())
    }

    /// [`BinConv::forward`] reusing caller-owned scratch buffers: the
    /// packed im2col window matrix and the flat popcount buffer live in
    /// `scratch`, so repeated calls are allocation-free apart from the
    /// output map.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ShapeMismatch`] on a channel-count mismatch.
    pub fn forward_with(
        &self,
        t: &BitTensor,
        scratch: &mut ForwardScratch,
    ) -> Result<BitTensor, BitnnError> {
        self.check_input(t)?;
        let (oh, ow) = conv_output_dims(t.height(), t.width(), self.kernel, self.stride, self.pad);
        t.im2col_into(self.kernel, self.stride, self.pad, &mut scratch.windows);
        ops::binary_mmm_popcounts_into(&scratch.windows, &self.filters, &mut scratch.pops);
        let n = self.filters.rows();
        let mut out = BitTensor::zeros(n, oh, ow);
        for (row, row_pops) in scratch.pops.chunks(n.max(1)).enumerate() {
            let (oy, ox) = (row / ow, row % ow);
            for (f, (&p, spec)) in row_pops.iter().zip(&self.thresholds).enumerate() {
                if spec.fire(i64::from(p)) {
                    out.set(f, oy, ox, true);
                }
            }
        }
        Ok(out)
    }

    /// Naive per-pixel reference: extracts one window `BitVec` per output
    /// position and dots it against every filter row bit-by-bit — the
    /// oracle the packed path is property-tested against.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ShapeMismatch`] on a channel-count mismatch.
    pub fn forward_naive(&self, t: &BitTensor) -> Result<BitTensor, BitnnError> {
        self.check_input(t)?;
        let (oh, ow) = conv_output_dims(t.height(), t.width(), self.kernel, self.stride, self.pad);
        let k = self.kernel;
        let c = self.in_channels;
        let mut out = BitTensor::zeros(self.filters.rows(), oh, ow);
        for oy in 0..oh {
            for ox in 0..ow {
                let mut window = BitVec::zeros(c * k * k);
                for ci in 0..c {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * self.stride + ky) as isize - self.pad as isize;
                            let ix = (ox * self.stride + kx) as isize - self.pad as isize;
                            if iy < 0 || ix < 0 {
                                continue;
                            }
                            if t.get(ci, iy as usize, ix as usize) == Some(true) {
                                window.set((ci * k + ky) * k + kx, true);
                            }
                        }
                    }
                }
                for (f, spec) in self.thresholds.iter().enumerate() {
                    // Scalar bit-by-bit agreement count — no packing tricks,
                    // mirroring `ops::bipolar_dot_naive`.
                    let pop = (0..window.len())
                        .filter(|&i| window.get(i) == self.filters.get(f, i))
                        .count() as u32;
                    if spec.fire(i64::from(pop)) {
                        out.set(f, oy, ox, true);
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Output layer: binary activations, real-valued weights, produces logits.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputLinear {
    name: String,
    weights: Vec<Vec<f32>>,
    bias: Vec<f32>,
}

impl OutputLinear {
    /// Builds the layer.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != bias.len()` or the weight rows are ragged.
    pub fn new(name: impl Into<String>, weights: Vec<Vec<f32>>, bias: Vec<f32>) -> Self {
        assert_eq!(weights.len(), bias.len(), "weight/bias count mismatch");
        if let Some(first) = weights.first() {
            assert!(
                weights.iter().all(|r| r.len() == first.len()),
                "ragged weight rows"
            );
        }
        Self {
            name: name.into(),
            weights,
            bias,
        }
    }

    /// Random Gaussian-ish weights in `[-0.5, 0.5)` and zero bias.
    pub fn random(
        name: impl Into<String>,
        inputs: usize,
        outputs: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let weights = (0..outputs)
            .map(|_| (0..inputs).map(|_| rng.gen::<f32>() - 0.5).collect())
            .collect();
        Self::new(name, weights, vec![0.0; outputs])
    }

    /// Real-valued weights (one row per class).
    pub fn weights(&self) -> &[Vec<f32>] {
        &self.weights
    }

    /// Bias per class.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    fn forward(&self, x: &BitVec) -> Result<Tensor, BitnnError> {
        let fan_in = self.weights.first().map_or(0, Vec::len);
        if x.len() != fan_in {
            return Err(BitnnError::ShapeMismatch {
                layer: self.name.clone(),
                expected: fan_in.to_string(),
                got: x.len().to_string(),
            });
        }
        let logits = ops::output_logits(x, &self.weights, &self.bias);
        Ok(Tensor::from_vec(&[logits.len()], logits))
    }
}

/// Any layer of a BNN.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Layer {
    /// First dense layer (8-bit input).
    FixedLinear(FixedLinear),
    /// First conv layer (8-bit input).
    FixedConv(FixedConv),
    /// Binary hidden dense layer.
    BinLinear(BinLinear),
    /// Binary hidden conv layer.
    BinConv(BinConv),
    /// 2×2 max pooling (OR) on a binary map.
    MaxPool2,
    /// Flattens a binary map to a flat binary vector.
    Flatten,
    /// Output layer producing logits.
    Output(OutputLinear),
}

impl Layer {
    /// Layer name for diagnostics.
    pub fn name(&self) -> &str {
        match self {
            Self::FixedLinear(l) => &l.name,
            Self::FixedConv(l) => &l.name,
            Self::BinLinear(l) => &l.name,
            Self::BinConv(l) => &l.name,
            Self::MaxPool2 => "maxpool2",
            Self::Flatten => "flatten",
            Self::Output(l) => &l.name,
        }
    }

    /// Runs the layer on an activation.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ActivationKind`] when fed the wrong activation
    /// kind and [`BitnnError::ShapeMismatch`] on dimension mismatch.
    pub fn forward(&self, input: &Activation) -> Result<Activation, BitnnError> {
        self.forward_with(input, &mut ForwardScratch::default())
    }

    /// [`Layer::forward`] reusing caller-owned scratch buffers for the
    /// layer's intermediate results — the allocation-free hot path behind
    /// [`crate::Bnn::forward_with`].
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ActivationKind`] when fed the wrong activation
    /// kind and [`BitnnError::ShapeMismatch`] on dimension mismatch.
    pub fn forward_with(
        &self,
        input: &Activation,
        scratch: &mut ForwardScratch,
    ) -> Result<Activation, BitnnError> {
        match (self, input) {
            (Self::FixedLinear(_) | Self::FixedConv(_), Activation::Real(t)) => {
                self.forward_real(t, scratch)
            }
            (Self::BinLinear(l), Activation::Binary(x)) => {
                Ok(Activation::Binary(l.forward(x, scratch)?))
            }
            (Self::BinConv(l), Activation::BinaryMap(t)) => {
                Ok(Activation::BinaryMap(l.forward_with(t, scratch)?))
            }
            (Self::MaxPool2, Activation::BinaryMap(t)) => {
                Ok(Activation::BinaryMap(t.max_pool_2x2()))
            }
            (Self::Flatten, Activation::BinaryMap(t)) => Ok(Activation::Binary(t.flatten())),
            (Self::Output(l), Activation::Binary(x)) => Ok(Activation::Real(l.forward(x)?)),
            (layer, act) => Err(BitnnError::ActivationKind {
                layer: layer.name().to_string(),
                expected: layer.expected_kind(),
                got: act.kind(),
            }),
        }
    }

    /// Feeds a real-valued input tensor directly to a first layer without
    /// wrapping it in an owned [`Activation::Real`] — the borrowed entry
    /// point that lets [`crate::Bnn::forward`] skip the unconditional
    /// input clone the seed engine paid on every sample.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ActivationKind`] for layers that do not
    /// consume real inputs and [`BitnnError::ShapeMismatch`] on dimension
    /// mismatch.
    pub fn forward_real(
        &self,
        t: &Tensor,
        scratch: &mut ForwardScratch,
    ) -> Result<Activation, BitnnError> {
        match self {
            Self::FixedLinear(l) => Ok(Activation::Binary(l.forward(t, scratch)?)),
            Self::FixedConv(l) => Ok(Activation::BinaryMap(l.forward_with(t, scratch)?)),
            layer => Err(BitnnError::ActivationKind {
                layer: layer.name().to_string(),
                expected: layer.expected_kind(),
                got: "real",
            }),
        }
    }

    fn expected_kind(&self) -> &'static str {
        match self {
            Self::FixedLinear(_) | Self::FixedConv(_) => "real",
            Self::BinLinear(_) | Self::Output(_) => "binary vector",
            Self::BinConv(_) | Self::MaxPool2 | Self::Flatten => "binary map",
        }
    }

    /// Output shape for a given input shape.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::InvalidNetwork`] when the input shape is
    /// incompatible with the layer.
    pub fn out_shape(&self, input: Shape) -> Result<Shape, BitnnError> {
        let bad = |expected: &str| {
            Err(BitnnError::InvalidNetwork(format!(
                "layer `{}` cannot consume shape {input} (expected {expected})",
                self.name()
            )))
        };
        // A conv slides its kernel at a positive stride over an input
        // that, padded, holds at least one window.
        let conv =
            |in_channels: usize, filters: usize, k: usize, stride: usize, pad: usize| match input {
                Shape::Img(c, h, w) if c == in_channels => {
                    if stride == 0 || h + 2 * pad < k || w + 2 * pad < k {
                        return Err(BitnnError::InvalidNetwork(format!(
                            "layer `{}` cannot slide a {k}×{k} kernel at stride {stride} over \
                             shape {input} padded by {pad}",
                            self.name()
                        )));
                    }
                    let (oh, ow) = conv_output_dims(h, w, k, stride, pad);
                    Ok(Shape::Img(filters, oh, ow))
                }
                _ => bad(&format!("{in_channels}×H×W")),
            };
        match self {
            Self::FixedLinear(l) => {
                if input.len() != l.weights.cols() {
                    return bad(&l.weights.cols().to_string());
                }
                Ok(Shape::Flat(l.weights.rows()))
            }
            Self::BinLinear(l) => {
                if input.len() != l.weights.cols() {
                    return bad(&l.weights.cols().to_string());
                }
                Ok(Shape::Flat(l.weights.rows()))
            }
            Self::FixedConv(l) => conv(l.in_channels, l.filters.rows(), l.kernel, l.stride, l.pad),
            Self::BinConv(l) => conv(l.in_channels, l.filters.rows(), l.kernel, l.stride, l.pad),
            Self::MaxPool2 => match input {
                Shape::Img(c, h, w) => Ok(Shape::Img(c, h / 2, w / 2)),
                Shape::Flat(_) => bad("image"),
            },
            Self::Flatten => match input {
                Shape::Img(c, h, w) => Ok(Shape::Flat(c * h * w)),
                Shape::Flat(_) => bad("image"),
            },
            Self::Output(l) => {
                let fan_in = l.weights.first().map_or(0, Vec::len);
                if input.len() != fan_in {
                    return bad(&fan_in.to_string());
                }
                Ok(Shape::Flat(l.weights.len()))
            }
        }
    }

    /// Crossbar workload dimensions, or `None` for layers with no matrix
    /// work (pool / flatten).
    pub fn dims(&self, input: Shape) -> Result<Option<LayerDims>, BitnnError> {
        let out = self.out_shape(input)?;
        Ok(match self {
            Self::FixedLinear(l) => Some(LayerDims {
                name: self.name().to_string(),
                kind: LayerKind::FirstFixed,
                fan_in: l.weights.cols(),
                out_vectors: l.weights.rows(),
                input_vectors: 1,
                input_bits: 8,
                weight_bits: 1,
            }),
            Self::FixedConv(l) => {
                let (oh, ow) = match out {
                    Shape::Img(_, oh, ow) => (oh, ow),
                    Shape::Flat(_) => unreachable!("conv output is an image"),
                };
                Some(LayerDims {
                    name: self.name().to_string(),
                    kind: LayerKind::FirstFixed,
                    fan_in: l.filters.cols(),
                    out_vectors: l.filters.rows(),
                    input_vectors: oh * ow,
                    input_bits: 8,
                    weight_bits: 1,
                })
            }
            Self::BinLinear(l) => Some(LayerDims {
                name: self.name().to_string(),
                kind: LayerKind::HiddenBinary,
                fan_in: l.weights.cols(),
                out_vectors: l.weights.rows(),
                input_vectors: 1,
                input_bits: 1,
                weight_bits: 1,
            }),
            Self::BinConv(l) => {
                let (oh, ow) = match out {
                    Shape::Img(_, oh, ow) => (oh, ow),
                    Shape::Flat(_) => unreachable!("conv output is an image"),
                };
                Some(LayerDims {
                    name: self.name().to_string(),
                    kind: LayerKind::HiddenBinary,
                    fan_in: l.filters.cols(),
                    out_vectors: l.filters.rows(),
                    input_vectors: oh * ow,
                    input_bits: 1,
                    weight_bits: 1,
                })
            }
            Self::MaxPool2 | Self::Flatten => None,
            Self::Output(l) => Some(LayerDims {
                name: self.name().to_string(),
                kind: LayerKind::OutputFixed,
                fan_in: l.weights.first().map_or(0, Vec::len),
                out_vectors: l.weights.len(),
                input_vectors: 1,
                input_bits: 1,
                weight_bits: 8,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn bin_linear_forward_matches_manual_threshold() {
        let w = BitMatrix::from_rows(&[
            BitVec::from_bools(&[true, true, false, false]),
            BitVec::from_bools(&[true, false, true, false]),
        ]);
        let layer = BinLinear::new("fc", w, vec![ThresholdSpec::majority(4); 2]);
        let x = BitVec::from_bools(&[true, true, true, false]);
        // pops: row0 = 3 (pos0,1 agree + pos3 agrees) => fire (>=2)
        // row1: pos0 agree, pos2 agree, pos3 agree => 3 => fire
        let out = layer.forward(&x, &mut ForwardScratch::new()).unwrap();
        assert_eq!(out.to_bools(), vec![true, true]);
    }

    #[test]
    fn bin_linear_shape_error() {
        let layer = BinLinear::random("fc", 8, 4, &mut rng());
        let err = layer
            .forward(&BitVec::zeros(9), &mut ForwardScratch::new())
            .unwrap_err();
        assert!(matches!(err, BitnnError::ShapeMismatch { .. }));
    }

    #[test]
    fn fixed_linear_quantizes_and_thresholds() {
        let w = BitMatrix::from_rows(&[BitVec::from_bools(&[true, false])]);
        let layer = FixedLinear::new("in", w, vec![ThresholdSpec::fire_at_or_above(0)]);
        let mut scratch = ForwardScratch::new();
        // x = [1.0, -1.0] -> quantized [127, -127]; preact = 127 + 127 = 254 >= 0
        let out = layer
            .forward(&Tensor::from_vec(&[2], vec![1.0, -1.0]), &mut scratch)
            .unwrap();
        assert_eq!(out.to_bools(), vec![true]);
        // x = [-1.0, 1.0] -> preact = -254 < 0 (scratch reused)
        let out = layer
            .forward(&Tensor::from_vec(&[2], vec![-1.0, 1.0]), &mut scratch)
            .unwrap();
        assert_eq!(out.to_bools(), vec![false]);
    }

    #[test]
    fn layer_enum_dispatches_and_rejects_kind() {
        let layer = Layer::BinLinear(BinLinear::random("fc", 4, 2, &mut rng()));
        let ok = layer.forward(&Activation::Binary(BitVec::zeros(4)));
        assert!(ok.is_ok());
        let err = layer
            .forward(&Activation::Real(Tensor::zeros(&[4])))
            .unwrap_err();
        assert!(matches!(err, BitnnError::ActivationKind { .. }));
    }

    #[test]
    fn bin_conv_forward_shape_and_values() {
        let mut r = rng();
        let conv = BinConv::random("c1", 1, 2, 3, 1, 0, &mut r);
        let mut t = BitTensor::zeros(1, 5, 5);
        t.set(0, 2, 2, true);
        let out = conv.forward(&t).unwrap();
        assert_eq!((out.channels(), out.height(), out.width()), (2, 3, 3));
        // Cross-check one output against the reference kernel.
        let windows = t.im2col(3, 1, 0);
        let pops = ops::binary_linear_popcounts(&windows.row(0), conv.filters());
        let expect = conv.thresholds()[0].fire(i64::from(pops[0]));
        assert_eq!(out.get(0, 0, 0), Some(expect));
    }

    #[test]
    fn out_shape_chain_for_small_cnn() {
        let mut r = rng();
        let layers = vec![
            Layer::FixedConv(FixedConv::random("c1", 1, 6, 5, 1, 0, &mut r)),
            Layer::MaxPool2,
            Layer::BinConv(BinConv::random("c2", 6, 16, 5, 1, 0, &mut r)),
            Layer::MaxPool2,
            Layer::Flatten,
            Layer::BinLinear(BinLinear::random("fc1", 16 * 4 * 4, 120, &mut r)),
            Layer::Output(OutputLinear::random("out", 120, 10, &mut r)),
        ];
        let mut shape = Shape::Img(1, 28, 28);
        for l in &layers {
            shape = l.out_shape(shape).unwrap();
        }
        assert_eq!(shape, Shape::Flat(10));
    }

    #[test]
    fn dims_reports_conv_windows() {
        let mut r = rng();
        let conv = Layer::BinConv(BinConv::random("c", 6, 16, 5, 1, 0, &mut r));
        let dims = conv.dims(Shape::Img(6, 12, 12)).unwrap().unwrap();
        assert_eq!(dims.fan_in, 6 * 25);
        assert_eq!(dims.out_vectors, 16);
        assert_eq!(dims.input_vectors, 8 * 8);
        assert_eq!(dims.kind, LayerKind::HiddenBinary);
        assert_eq!(dims.macs(), (6 * 25 * 16 * 64) as u64);
    }

    #[test]
    fn pool_and_flatten_have_no_dims() {
        assert_eq!(Layer::MaxPool2.dims(Shape::Img(2, 4, 4)).unwrap(), None);
        assert_eq!(Layer::Flatten.dims(Shape::Img(2, 4, 4)).unwrap(), None);
    }

    #[test]
    fn output_layer_produces_logits() {
        let out = OutputLinear::new("out", vec![vec![1.0, -1.0], vec![0.5, 0.5]], vec![0.0, 1.0]);
        let layer = Layer::Output(out);
        let act = layer
            .forward(&Activation::Binary(BitVec::from_bools(&[true, true])))
            .unwrap();
        match act {
            Activation::Real(t) => {
                assert_eq!(t.as_slice(), &[0.0, 2.0]);
            }
            other => panic!("expected logits, got {other:?}"),
        }
    }
}
