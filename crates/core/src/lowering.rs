//! The layer plan: the per-layer constants of the crossbar lowering,
//! derived once per network and consumed by the [`compiler`](crate::compiler)
//! and by every crossbar serving session alike.
//!
//! [`LayerPlan::new`] walks a network once. It rejects layer stacks the
//! lowering cannot run: a fixed-point layer must read the real-valued
//! network input (so it can only be layer 0), every other layer must read
//! the binary vector or map its predecessor produces, and a non-empty
//! network must end on an output layer. For each layer it records what
//! both lowerings read: the matrix index and network layer index of every
//! crossbar layer, its weights (whose dimensions a programmed matrix must
//! have) and threshold table, the conv geometry, and the bit-serial
//! quantization offsets `127·Σw`. [`LayerPlan::check_fit`] is the one
//! check that already-programmed matrices fit a network.

use crate::compiler::{CompileError, MappedVcore};
use eb_bitnn::{conv_output_dims, BitMatrix, Bnn, Layer, OutputLinear, Shape, ThresholdSpec};

/// Spatial geometry of one conv layer instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub channels: usize,
    /// Input height.
    pub(crate) height: usize,
    /// Input width.
    pub(crate) width: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Window stride.
    pub stride: usize,
    /// Zero padding on every side.
    pub pad: usize,
    /// Output height.
    pub out_height: usize,
    /// Output width.
    pub out_width: usize,
}

impl ConvGeometry {
    fn of(
        (channels, height, width): (usize, usize, usize),
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        let (out_height, out_width) = conv_output_dims(height, width, kernel, stride, pad);
        Self {
            channels,
            height,
            width,
            kernel,
            stride,
            pad,
            out_height,
            out_width,
        }
    }

    /// Output windows per sample.
    pub fn windows(&self) -> usize {
        self.out_height * self.out_width
    }

    /// Walks the filter positions of window `(oy, ox)` that land inside
    /// the (unpadded) input, yielding `(filter_index, input_index)` into
    /// the flattened `c·k·k` filter row and `c·h·w` input map. This is the
    /// lowering's one copy of the conv boundary rule: the per-window
    /// offsets and a session's window extraction must agree on it exactly
    /// for padded convs to stay bit-exact.
    pub fn for_each_valid_pos(&self, oy: usize, ox: usize, mut f: impl FnMut(usize, usize)) {
        let k = self.kernel;
        for ci in 0..self.channels {
            for ky in 0..k {
                for kx in 0..k {
                    let iy = (oy * self.stride + ky) as isize - self.pad as isize;
                    let ix = (ox * self.stride + kx) as isize - self.pad as isize;
                    if iy < 0 || ix < 0 || iy as usize >= self.height || ix as usize >= self.width {
                        continue;
                    }
                    f(
                        (ci * k + ky) * k + kx,
                        (ci * self.height + iy as usize) * self.width + ix as usize,
                    );
                }
            }
        }
    }
}

/// A layer executed on crossbars: a dense layer or a conv, binary or
/// bit-serial fixed-point.
#[derive(Debug, Clone)]
pub struct MatrixStep {
    /// Index of the layer in the network — the key per-layer programming
    /// and execution RNGs derive from.
    pub layer: usize,
    /// Index among the network's matrix layers, in network order — the
    /// VCore id.
    pub index: usize,
    /// Layer name (placements).
    pub(crate) name: String,
    /// Binary weights, one row per output (filter). A programmed matrix
    /// must hold exactly these dimensions.
    pub weights: BitMatrix,
    /// Folded batch-norm threshold of each output.
    pub thresholds: Vec<ThresholdSpec>,
    /// Conv geometry; `None` on a dense layer (one window per sample).
    pub conv: Option<ConvGeometry>,
    /// On a bit-serial fixed-point layer, `127·Σw` per (window, output),
    /// window-major: each output's bipolar weight sum over the window
    /// positions inside the unpadded input (padding never carries the
    /// `+127` of `x' = q + 127`). Subtracting it turns the offset-unsigned
    /// accumulator back into the signed pre-activation. `None` on a
    /// binary layer.
    pub offsets: Option<Vec<i64>>,
}

impl MatrixStep {
    /// Outputs (filters) per window.
    pub fn outputs(&self) -> usize {
        self.weights.rows()
    }

    /// Windows per sample (1 on a dense layer).
    pub fn windows(&self) -> usize {
        self.conv.map_or(1, |g| g.windows())
    }
}

/// One layer of the lowering.
#[derive(Debug, Clone)]
pub enum Step {
    /// A layer executed on crossbars.
    Matrix(MatrixStep),
    /// 2×2 OR pooling over a `(channels, height, width)` binary map.
    MaxPool2 {
        /// Input map dimensions.
        input: (usize, usize, usize),
    },
    /// Binary map → flat binary vector (a layout no-op).
    Flatten,
    /// Real-valued output layer.
    Output(OutputLinear),
}

// The activation kinds flowing between layers, named as errors print them.
const INPUT: &str = "the real-valued network input";
const VECTOR: &str = "a binary vector";
const MAP: &str = "a binary map";
const LOGITS: &str = "logits";

/// A network lowered for crossbars: one [`Step`] per layer, in network
/// order.
#[derive(Debug, Clone)]
pub struct LayerPlan {
    input_shape: Shape,
    steps: Vec<Step>,
}

impl LayerPlan {
    /// Plans `net`, deriving every step's constants.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Unsupported`] when a layer is fed an
    /// activation it does not take (a fixed-point layer after layer 0, a
    /// binary layer or pooling fed the real input, ...) or a non-empty
    /// network does not end on an output layer.
    pub fn new(net: &Bnn) -> Result<Self, CompileError> {
        let mut act = INPUT;
        let mut steps = Vec::with_capacity(net.layers().len());
        let mut matrices = 0;
        for (i, layer) in net.layers().iter().enumerate() {
            // Spatial layers read an image; `Bnn::new` has checked the shapes.
            let image = || match net.shape_at(i) {
                Shape::Img(c, h, w) => Ok((c, h, w)),
                flat => Err(CompileError::Unsupported(format!(
                    "layer {i} (`{}`) fed the flat shape {flat}",
                    layer.name()
                ))),
            };
            let mut matrix = |weights: &BitMatrix,
                              thresholds: &[ThresholdSpec],
                              conv: Option<(usize, usize, usize)>,
                              bit_serial: bool| {
                let conv = conv
                    .map(|(k, s, p)| image().map(|input| ConvGeometry::of(input, k, s, p)))
                    .transpose()?;
                matrices += 1;
                Ok::<_, CompileError>(Step::Matrix(MatrixStep {
                    layer: i,
                    index: matrices - 1,
                    name: layer.name().to_string(),
                    weights: weights.clone(),
                    thresholds: thresholds.to_vec(),
                    conv,
                    offsets: bit_serial.then(|| offsets(weights, conv.as_ref())),
                }))
            };
            let (takes, gives, step) = match layer {
                Layer::FixedLinear(l) => (
                    INPUT,
                    VECTOR,
                    matrix(l.weights(), l.thresholds(), None, true)?,
                ),
                Layer::FixedConv(l) => {
                    let conv = (l.kernel(), l.stride(), l.pad());
                    (
                        INPUT,
                        MAP,
                        matrix(l.filters(), l.thresholds(), Some(conv), true)?,
                    )
                }
                Layer::BinLinear(l) => (
                    VECTOR,
                    VECTOR,
                    matrix(l.weights(), l.thresholds(), None, false)?,
                ),
                Layer::BinConv(l) => {
                    let conv = (l.kernel(), l.stride(), l.pad());
                    (
                        MAP,
                        MAP,
                        matrix(l.filters(), l.thresholds(), Some(conv), false)?,
                    )
                }
                Layer::MaxPool2 => (MAP, MAP, Step::MaxPool2 { input: image()? }),
                Layer::Flatten => (MAP, VECTOR, Step::Flatten),
                Layer::Output(l) => (VECTOR, LOGITS, Step::Output(l.clone())),
                other => {
                    return Err(CompileError::Unsupported(format!(
                        "layer {i} ({}) is not supported by the crossbar lowering",
                        other.name()
                    )))
                }
            };
            if takes != act {
                return Err(CompileError::Unsupported(format!(
                    "layer {i} (`{}`) takes {takes} but is fed {act}",
                    layer.name()
                )));
            }
            act = gives;
            steps.push(step);
        }
        if !steps.is_empty() && act != LOGITS {
            return Err(CompileError::Unsupported(format!(
                "network `{}` ends on {act} instead of an output layer's logits",
                net.name()
            )));
        }
        Ok(Self {
            input_shape: net.input_shape(),
            steps,
        })
    }

    /// Network input shape.
    pub fn input_shape(&self) -> Shape {
        self.input_shape
    }

    /// The steps, one per network layer.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The crossbar steps, in network (= matrix index) order.
    pub fn matrices(&self) -> impl Iterator<Item = &MatrixStep> {
        self.steps.iter().filter_map(|step| match step {
            Step::Matrix(m) => Some(m),
            _ => None,
        })
    }

    /// Checks that `vcores` — one per matrix, in network order — are what
    /// programming this plan on `substrate` would leave: crossbars of
    /// shape `(rows, cols)` at WDM capacity `Some(K)` (optical) or `None`
    /// (electronic), each holding its layer's weight dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Unsupported`] naming the first misfit.
    pub fn check_fit<'a>(
        &self,
        vcores: impl ExactSizeIterator<Item = &'a MappedVcore>,
        substrate: ((usize, usize), Option<usize>),
    ) -> Result<(), CompileError> {
        let unfit = |what: String| {
            Err(CompileError::Unsupported(format!(
                "the programmed matrices do not fit this network: {what}"
            )))
        };
        let describe = |((rows, cols), k): ((usize, usize), Option<usize>)| match k {
            None => format!("{rows}×{cols} crossbars"),
            Some(k) => format!("{rows}×{cols} optical crossbars at K = {k}"),
        };
        let (given, wanted) = (vcores.len(), self.matrices().count());
        if given != wanted {
            return unfit(format!(
                "{given} for {wanted} matrix layer(s); they were captured for a different network"
            ));
        }
        for (m, vcore) in self.matrices().zip(vcores) {
            let programmed = (vcore.xbar_shape(), vcore.wdm_capacity());
            if programmed != substrate {
                return unfit(format!(
                    "matrix {} was programmed on {}, not the configured {}",
                    m.index,
                    describe(programmed),
                    describe(substrate)
                ));
            }
            let (rows, cols) = (vcore.out_vectors(), vcore.fan_in());
            if (rows, cols) != (m.weights.rows(), m.weights.cols()) {
                return unfit(format!(
                    "matrix {} holds a {rows}×{cols} weight matrix where layer {} (`{}`) is \
                     {}×{}; they were captured for a different network",
                    m.index,
                    m.layer,
                    m.name,
                    m.weights.rows(),
                    m.weights.cols()
                ));
            }
        }
        Ok(())
    }

    /// Approximate heap bytes of the plan: binary weights, offset tables
    /// (which dominate on a bit-serial conv) and output layers.
    pub fn bytes(&self) -> usize {
        let step = |step: &Step| match step {
            Step::Matrix(m) => {
                m.weights.rows() * m.weights.cols().div_ceil(8)
                    + 8 * m.offsets.as_ref().map_or(0, Vec::len)
            }
            Step::Output(l) => 4 * l.bias().len() * (l.weights().first().map_or(0, Vec::len) + 1),
            Step::MaxPool2 { .. } | Step::Flatten => 0,
        };
        self.steps.iter().map(step).sum()
    }
}

/// `127·Σw` per (window, output), window-major, over the positions each
/// window reads inside the unpadded input (every position on a dense
/// layer).
fn offsets(weights: &BitMatrix, conv: Option<&ConvGeometry>) -> Vec<i64> {
    let Some(g) = conv else {
        let cols = weights.cols() as i64;
        return (0..weights.rows())
            .map(|r| 127 * (2 * i64::from(weights.row(r).popcount()) - cols))
            .collect();
    };
    let mut out = Vec::with_capacity(g.windows() * weights.rows());
    for oy in 0..g.out_height {
        for ox in 0..g.out_width {
            let mut sums = vec![0i64; weights.rows()];
            g.for_each_valid_pos(oy, ox, |fi, _| {
                for (f, sum) in sums.iter_mut().enumerate() {
                    *sum += if weights.get(f, fi) == Some(true) {
                        1
                    } else {
                        -1
                    };
                }
            });
            out.extend(sums.into_iter().map(|s| 127 * s));
        }
    }
    out
}
