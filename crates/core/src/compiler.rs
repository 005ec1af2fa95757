//! The EinsteinBarrier compiler: lowers an `eb-bitnn` network to an
//! instruction stream over mapped VCores.
//!
//! This is the "heavily extended PUMA compiler" of the paper's Section V:
//! every matrix layer is programmed onto crossbars (TacitMap layout —
//! electronic or optical depending on the design), batch-norm folds into
//! threshold tables, convolutions unroll into window extraction +
//! VMM/MMM + scatter, and the first fixed-point layer lowers to
//! bit-serial plane drives with shift-add accumulation.

use crate::arch::{ChipLayout, LayerPlacement};
use crate::configs::{Design, DesignKind};
use crate::isa::{AluOp, Instruction, MmmLane, Program, RegId, TableId, VcoreId};
use crate::optical::{OpticalMapError, OpticalTacitMapped};
use eb_bitnn::{BitMatrix, BitVec, Bnn, Layer, Shape, ThresholdSpec};
use eb_mapping::{MappingError, TacitMapped};
use rand::Rng;
use std::error::Error;
use std::fmt;

/// A mapped VCore instance: the crossbars hosting one layer's weights.
///
/// This is the one programmed-layer type from the compiler to a serving
/// session to an artifact, and the one place the electronic-vs-optical
/// dispatch is written.
#[derive(Debug, Clone)]
pub enum MappedVcore {
    /// Electronic 1T1R crossbars (Baseline/TacitMap-ePCM designs).
    Electronic(TacitMapped),
    /// Optical oPCM crossbars with WDM (EinsteinBarrier).
    Optical(OpticalTacitMapped),
}

impl MappedVcore {
    /// Fan-in (weight-vector length).
    pub fn fan_in(&self) -> usize {
        match self {
            Self::Electronic(m) => m.fan_in(),
            Self::Optical(m) => m.fan_in(),
        }
    }

    /// Number of stored weight vectors.
    pub fn out_vectors(&self) -> usize {
        match self {
            Self::Electronic(m) => m.out_vectors(),
            Self::Optical(m) => m.out_vectors(),
        }
    }

    /// Crossbars occupied.
    pub fn footprint(&self) -> usize {
        match self {
            Self::Electronic(m) => m.footprint(),
            Self::Optical(m) => m.footprint(),
        }
    }

    /// Per-crossbar shape `(rows, cols)` the VCore was programmed on.
    pub fn xbar_shape(&self) -> (usize, usize) {
        match self {
            Self::Electronic(m) => (m.config().rows, m.config().cols),
            Self::Optical(m) => m.xbar_shape(),
        }
    }

    /// WDM capacity `K` of an optical VCore; `None` on electronic
    /// crossbars, which carry no WDM lanes.
    pub fn wdm_capacity(&self) -> Option<usize> {
        match self {
            Self::Electronic(_) => None,
            Self::Optical(m) => Some(m.capacity()),
        }
    }

    /// Activates the VCore over borrowed `(pos, neg)` half-drive pairs,
    /// one count row per pair. Electronic crossbars take the whole batch
    /// through the VMM engines' batched path
    /// ([`TacitMapped::execute_ref_pairs`]); optical crossbars pack the
    /// pairs into WDM lanes, `K` per MMM step
    /// ([`OpticalTacitMapped::execute_wdm_ref`]).
    ///
    /// # Errors
    ///
    /// Returns [`OpticalMapError`] on a fan-in mismatch or a crossbar
    /// read failure.
    pub fn activate_pairs(
        &mut self,
        pairs: &[(&BitVec, &BitVec)],
        rng: &mut impl Rng,
    ) -> Result<Vec<Vec<u32>>, OpticalMapError> {
        match self {
            Self::Electronic(m) => Ok(m.execute_ref_pairs(pairs, rng)?),
            Self::Optical(m) => {
                let mut out = Vec::with_capacity(pairs.len());
                for chunk in pairs.chunks(m.capacity()) {
                    out.extend(m.execute_wdm_ref(chunk, rng)?);
                }
                Ok(out)
            }
        }
    }

    /// Crossbar steps taken so far (VMM steps; an MMM counts once).
    pub fn steps_taken(&self) -> u64 {
        match self {
            Self::Electronic(m) => m.steps_taken(),
            Self::Optical(m) => m.steps_taken(),
        }
    }

    /// Modeled energy spent so far in joules: programming plus VMM
    /// charges on electronic crossbars ([`TacitMapped::energy_j`]). The
    /// optical mapping has no energy counter and reports 0.
    pub fn energy_j(&self) -> f64 {
        match self {
            Self::Electronic(m) => m.energy_j(),
            Self::Optical(_) => 0.0,
        }
    }

    /// Faulty cells across the VCore's crossbars (0 on optical crossbars,
    /// which have no cell fault model).
    pub fn fault_count(&self) -> usize {
        match self {
            Self::Electronic(m) => m.fault_count(),
            Self::Optical(_) => 0,
        }
    }

    /// Mints a replica sharing this VCore's programmed crossbars (an
    /// `Arc` bump per array — no re-programming, no RNG draws) with
    /// fresh telemetry counters.
    pub fn replicate(&self) -> Self {
        match self {
            Self::Electronic(m) => Self::Electronic(m.replicate()),
            Self::Optical(m) => Self::Optical(m.replicate()),
        }
    }

    /// Approximate heap bytes of the shared programmed crossbars —
    /// counted once however many replicas share them.
    pub fn core_bytes(&self) -> usize {
        match self {
            Self::Electronic(m) => m.core_bytes(),
            Self::Optical(m) => m.core_bytes(),
        }
    }

    /// Approximate bytes private to this replica of the VCore.
    pub fn rind_bytes(&self) -> usize {
        match self {
            Self::Electronic(m) => m.rind_bytes(),
            Self::Optical(m) => m.rind_bytes(),
        }
    }
}

/// Compilation errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum CompileError {
    /// A layer could not be mapped onto crossbars.
    Mapping(MappingError),
    /// An optical layer could not be mapped.
    Optical(OpticalMapError),
    /// The network shape is unsupported by the compiler.
    Unsupported(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Mapping(e) => write!(f, "mapping failed: {e}"),
            Self::Optical(e) => write!(f, "optical mapping failed: {e}"),
            Self::Unsupported(s) => write!(f, "unsupported network: {s}"),
        }
    }
}

impl Error for CompileError {}

impl From<MappingError> for CompileError {
    fn from(e: MappingError) -> Self {
        Self::Mapping(e)
    }
}

impl From<OpticalMapError> for CompileError {
    fn from(e: OpticalMapError) -> Self {
        Self::Optical(e)
    }
}

/// A network compiled for a design: program + mapped weights + tables.
#[derive(Debug)]
pub struct CompiledNetwork {
    /// The instruction stream.
    pub program: Program,
    /// Mapped VCores, indexed by [`VcoreId`].
    pub vcores: Vec<MappedVcore>,
    /// Threshold tables (folded batch norms), indexed by [`TableId`].
    pub tables: Vec<Vec<ThresholdSpec>>,
    /// Output-layer parameters `(weights, bias)`.
    pub output_layers: Vec<(Vec<Vec<f32>>, Vec<f32>)>,
    /// Physical placement of every mapped layer.
    pub placements: Vec<LayerPlacement>,
    /// Design this was compiled for.
    pub design: DesignKind,
    /// WDM capacity available to `Mmm` (1 for electronic designs).
    pub wdm_capacity: usize,
    /// Registers used.
    pub register_count: usize,
    /// Network input shape.
    pub input_shape: Shape,
}

impl CompiledNetwork {
    /// Mints a replica of the compiled network whose VCores **share**
    /// the original's programmed crossbars (see
    /// [`MappedVcore::replicate`]); the program, tables, and placements
    /// are plain-data clones, small next to the device grids. No
    /// crossbar is re-programmed and no RNG is drawn.
    pub fn replicate(&self) -> Self {
        Self {
            program: self.program.clone(),
            vcores: self.vcores.iter().map(MappedVcore::replicate).collect(),
            tables: self.tables.clone(),
            output_layers: self.output_layers.clone(),
            placements: self.placements.clone(),
            design: self.design,
            wdm_capacity: self.wdm_capacity,
            register_count: self.register_count,
            input_shape: self.input_shape,
        }
    }
}

/// Register allocator: monotonically increasing ids (register files in
/// the ECore are large; a real allocator would reuse).
#[derive(Debug, Default)]
struct Regs {
    next: RegId,
}

impl Regs {
    fn alloc(&mut self) -> RegId {
        let r = self.next;
        self.next += 1;
        r
    }
}

/// Compiles a network for a design, programming every matrix layer onto
/// fresh crossbars with draws from `rng` (in network order).
///
/// # Errors
///
/// Returns [`CompileError`] when a layer cannot be mapped or the topology
/// is not representable.
pub fn compile(
    design: &Design,
    net: &Bnn,
    rng: &mut impl Rng,
) -> Result<CompiledNetwork, CompileError> {
    lower(design, net, |weights| {
        Ok(match design.kind {
            DesignKind::EinsteinBarrier => MappedVcore::Optical(OpticalTacitMapped::program(
                weights,
                design.xbar.rows,
                design.xbar.cols,
                design.wdm_capacity.max(1),
                rng,
            )?),
            _ => MappedVcore::Electronic(TacitMapped::program(weights, &design.xbar, rng)?),
        })
    })
}

/// Recompiles a network for a design over already-programmed VCores —
/// one per matrix layer, in network order, as [`compile`] left them in
/// [`CompiledNetwork::vcores`]. The instruction stream, threshold tables,
/// output layers, and placements are derived from `net` and `design`
/// alone, so this reproduces `compile`'s result exactly without
/// re-programming a crossbar or drawing from an RNG.
///
/// # Errors
///
/// Returns [`CompileError`] when the network is not representable, or
/// when `vcores` does not fit it: too few or too many, a VCore on the
/// wrong substrate for the design, or one programmed for a different
/// weight matrix, crossbar shape, or WDM capacity.
pub fn recompile(
    design: &Design,
    net: &Bnn,
    vcores: Vec<MappedVcore>,
) -> Result<CompiledNetwork, CompileError> {
    let saved = vcores.len();
    let mut vcores = vcores.into_iter().enumerate();
    let compiled = lower(design, net, |weights| {
        let (i, vcore) = vcores.next().ok_or_else(|| {
            CompileError::Unsupported(format!(
                "only {saved} saved vcore(s) for a network with more matrix layers"
            ))
        })?;
        check_saved_vcore(design, i, &vcore, weights)?;
        Ok(vcore)
    })?;
    if vcores.len() != 0 {
        return Err(CompileError::Unsupported(format!(
            "{saved} saved vcore(s) for a network with {} matrix layer(s)",
            compiled.vcores.len()
        )));
    }
    Ok(compiled)
}

/// Rejects saved VCore `i` unless it is what [`compile`] would have
/// programmed for `weights` on `design`: the design's substrate, its
/// crossbar shape and (optical) WDM capacity, and the layer's weight
/// matrix dimensions.
fn check_saved_vcore(
    design: &Design,
    i: usize,
    vcore: &MappedVcore,
    weights: &BitMatrix,
) -> Result<(), CompileError> {
    let mismatch = |what: String| {
        Err(CompileError::Unsupported(format!(
            "saved vcore {i} {what} ({} design)",
            design.kind.name()
        )))
    };
    let optical = design.kind == DesignKind::EinsteinBarrier;
    match (vcore.wdm_capacity(), optical) {
        (Some(_), false) => return mismatch("is optical".into()),
        (None, true) => return mismatch("is electronic".into()),
        (Some(k), true) if k != design.wdm_capacity.max(1) => {
            return mismatch(format!("carries {k} WDM lanes"));
        }
        _ => {}
    }
    let shape = vcore.xbar_shape();
    if shape != (design.xbar.rows, design.xbar.cols) {
        return mismatch(format!(
            "is programmed on {}×{} crossbars",
            shape.0, shape.1
        ));
    }
    let (rows, cols) = (vcore.out_vectors(), vcore.fan_in());
    if (rows, cols) != (weights.rows(), weights.cols()) {
        return mismatch(format!(
            "holds a {rows}×{cols} weight matrix where the layer has {}×{}",
            weights.rows(),
            weights.cols()
        ));
    }
    Ok(())
}

/// Lowers `net` for `design`, taking each matrix layer's programmed VCore
/// from `program_vcore` in network order — the one lowering behind
/// [`compile`] (fresh crossbars) and [`recompile`] (saved ones).
fn lower(
    design: &Design,
    net: &Bnn,
    program_vcore: impl FnMut(&BitMatrix) -> Result<MappedVcore, CompileError>,
) -> Result<CompiledNetwork, CompileError> {
    let mut c = Compiler {
        design: design.clone(),
        program: Program::new(),
        vcores: Vec::new(),
        tables: Vec::new(),
        output_layers: Vec::new(),
        layout: ChipLayout::new(design.chip.clone()),
        regs: Regs::default(),
    };
    c.lower_network(net, program_vcore)?;
    Ok(CompiledNetwork {
        program: c.program,
        vcores: c.vcores,
        tables: c.tables,
        output_layers: c.output_layers,
        placements: c.layout.placements().to_vec(),
        design: design.kind,
        wdm_capacity: design.wdm_capacity.max(1),
        register_count: c.regs.next,
        input_shape: net.input_shape(),
    })
}

struct Compiler {
    design: Design,
    program: Program,
    vcores: Vec<MappedVcore>,
    tables: Vec<Vec<ThresholdSpec>>,
    output_layers: Vec<(Vec<Vec<f32>>, Vec<f32>)>,
    layout: ChipLayout,
    regs: Regs,
}

impl Compiler {
    fn map_weights(
        &mut self,
        name: &str,
        weights: &BitMatrix,
        program_vcore: &mut impl FnMut(&BitMatrix) -> Result<MappedVcore, CompileError>,
    ) -> Result<VcoreId, CompileError> {
        let vcore = program_vcore(weights)?;
        self.layout.allocate(name, vcore.footprint());
        self.vcores.push(vcore);
        Ok(self.vcores.len() - 1)
    }

    fn add_table(&mut self, specs: &[ThresholdSpec]) -> TableId {
        self.tables.push(specs.to_vec());
        self.tables.len() - 1
    }

    /// Emits the crossbar activation(s) for one `(pos, neg)` drive pair,
    /// using `Mmm` lanes on EinsteinBarrier and a `Vmm` otherwise.
    fn emit_activation(&mut self, vcore: VcoreId, pairs: &[(RegId, RegId, RegId)]) {
        match self.design.kind {
            DesignKind::EinsteinBarrier => {
                let k = self.design.wdm_capacity.max(1);
                for chunk in pairs.chunks(k) {
                    self.program.push(Instruction::Mmm {
                        vcore,
                        lanes: chunk
                            .iter()
                            .map(|&(pos, neg, dst)| MmmLane { pos, neg, dst })
                            .collect(),
                    });
                }
            }
            _ => {
                for &(pos, neg, dst) in pairs {
                    self.program.push(Instruction::Vmm {
                        vcore,
                        dst,
                        pos,
                        neg,
                    });
                }
            }
        }
    }

    /// Lowers a binary XNOR+popcount + threshold over a 0/1 register.
    fn lower_binary_matvec(&mut self, vcore: VcoreId, table: TableId, input: RegId) -> RegId {
        let not = self.regs.alloc();
        self.program.push(Instruction::Not {
            dst: not,
            src: input,
        });
        let counts = self.regs.alloc();
        self.emit_activation(vcore, &[(input, not, counts)]);
        let out = self.regs.alloc();
        self.program.push(Instruction::Threshold {
            dst: out,
            src: counts,
            table,
        });
        out
    }

    /// Lowers the bit-serial fixed-point pre-activation: input register
    /// holds offset-unsigned integers (`x' = q + 127`, 8 bits); the
    /// result register holds `Σ qᵢ·wᵢ` per output.
    fn lower_bitserial_preact(
        &mut self,
        vcore: VcoreId,
        input: RegId,
        fan_in: usize,
        weight_sums: Vec<f64>,
        bits: u8,
    ) -> RegId {
        let zero = self.regs.alloc();
        self.program.push(Instruction::Fill {
            dst: zero,
            value: 0.0,
            len: fan_in,
        });
        let n = weight_sums.len();
        let acc = self.regs.alloc();
        self.program.push(Instruction::Fill {
            dst: acc,
            value: 0.0,
            len: n,
        });
        for b in 0..bits {
            let plane = self.regs.alloc();
            self.program.push(Instruction::BitSlice {
                dst: plane,
                src: input,
                bit: b,
            });
            let c_plus = self.regs.alloc();
            let c_minus = self.regs.alloc();
            // Both half-drives ride one WDM step on EinsteinBarrier.
            self.emit_activation(vcore, &[(plane, zero, c_plus), (zero, plane, c_minus)]);
            let diff = self.regs.alloc();
            self.program.push(Instruction::Alu {
                op: AluOp::Sub,
                dst: diff,
                a: c_plus,
                b: c_minus,
            });
            self.program.push(Instruction::ShiftAdd {
                dst: acc,
                src: diff,
                shift: i32::from(b),
            });
        }
        // preact = acc − 127·Σwᵢ (the quantization offset).
        let sums = self.regs.alloc();
        self.program.push(Instruction::Const {
            dst: sums,
            values: weight_sums.iter().map(|s| s * 127.0).collect(),
        });
        let pre = self.regs.alloc();
        self.program.push(Instruction::Alu {
            op: AluOp::Sub,
            dst: pre,
            a: acc,
            b: sums,
        });
        pre
    }

    #[allow(clippy::too_many_arguments)]
    fn lower_conv(
        &mut self,
        vcore: VcoreId,
        table: TableId,
        input: RegId,
        in_shape: (usize, usize, usize),
        kernel: usize,
        stride: usize,
        pad: usize,
        out_channels: usize,
    ) -> (RegId, (usize, usize, usize)) {
        let (c, h, w) = in_shape;
        let (oh, ow) = eb_bitnn::conv_output_dims(h, w, kernel, stride, pad);
        let out = self.regs.alloc();
        self.program.push(Instruction::Fill {
            dst: out,
            value: 0.0,
            len: out_channels * oh * ow,
        });
        // Extract all windows, then activate (WDM groups windows on EB).
        let mut pending: Vec<(RegId, RegId, RegId)> = Vec::new();
        let mut dests: Vec<(RegId, usize, usize)> = Vec::new();
        for oy in 0..oh {
            for ox in 0..ow {
                let win = self.regs.alloc();
                self.program.push(Instruction::Window {
                    dst: win,
                    src: input,
                    channels: c,
                    height: h,
                    width: w,
                    kernel,
                    stride,
                    pad,
                    oy,
                    ox,
                });
                let not = self.regs.alloc();
                self.program.push(Instruction::Not { dst: not, src: win });
                let counts = self.regs.alloc();
                pending.push((win, not, counts));
                dests.push((counts, oy, ox));
            }
        }
        self.emit_activation(vcore, &pending);
        for (counts, oy, ox) in dests {
            let bits = self.regs.alloc();
            self.program.push(Instruction::Threshold {
                dst: bits,
                src: counts,
                table,
            });
            self.program.push(Instruction::Scatter {
                dst: out,
                src: bits,
                out_channels,
                oh,
                ow,
                oy,
                ox,
            });
        }
        (out, (out_channels, oh, ow))
    }

    /// Lowers a fixed-point (8-bit input) convolution: per output window,
    /// extract the integer window (offset-unsigned `x' = q + 127`), run
    /// the bit-serial pre-activation against the mapped filters, correct
    /// the per-window quantization offset (padding positions never carried
    /// the +127 offset), threshold, and scatter into the output map.
    #[allow(clippy::too_many_arguments)]
    fn lower_fixed_conv(
        &mut self,
        vcore: VcoreId,
        table: TableId,
        input: RegId,
        in_shape: (usize, usize, usize),
        filters: &BitMatrix,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> (RegId, (usize, usize, usize)) {
        let (c, h, w) = in_shape;
        let (oh, ow) = eb_bitnn::conv_output_dims(h, w, kernel, stride, pad);
        let out_channels = filters.rows();
        let out = self.regs.alloc();
        self.program.push(Instruction::Fill {
            dst: out,
            value: 0.0,
            len: out_channels * oh * ow,
        });
        for oy in 0..oh {
            for ox in 0..ow {
                let win = self.regs.alloc();
                self.program.push(Instruction::Window {
                    dst: win,
                    src: input,
                    channels: c,
                    height: h,
                    width: w,
                    kernel,
                    stride,
                    pad,
                    oy,
                    ox,
                });
                // Per-window weight sums over valid (non-pad) positions.
                let sums = window_weight_sums(filters, (c, h, w), kernel, stride, pad, oy, ox);
                let pre = self.lower_bitserial_preact(vcore, win, c * kernel * kernel, sums, 8);
                let bits = self.regs.alloc();
                self.program.push(Instruction::Threshold {
                    dst: bits,
                    src: pre,
                    table,
                });
                self.program.push(Instruction::Scatter {
                    dst: out,
                    src: bits,
                    out_channels,
                    oh,
                    ow,
                    oy,
                    ox,
                });
            }
        }
        (out, (out_channels, oh, ow))
    }

    fn lower_network(
        &mut self,
        net: &Bnn,
        mut program_vcore: impl FnMut(&BitMatrix) -> Result<MappedVcore, CompileError>,
    ) -> Result<(), CompileError> {
        let input = self.regs.alloc();
        self.program.push(Instruction::LoadInput {
            dst: input,
            bits: 8,
        });
        let mut cur = input;
        let mut cur_shape = net.input_shape();
        let mut result = cur;
        for (i, layer) in net.layers().iter().enumerate() {
            match layer {
                Layer::FixedLinear(l) => {
                    let weights = l.weights().clone();
                    let sums: Vec<f64> = weights
                        .iter_rows()
                        .map(|r| 2.0 * f64::from(r.popcount()) - weights.cols() as f64)
                        .collect();
                    let vcore = self.map_weights(layer.name(), &weights, &mut program_vcore)?;
                    let table = self.add_table(l.thresholds());
                    let pre = self.lower_bitserial_preact(vcore, cur, weights.cols(), sums, 8);
                    let out = self.regs.alloc();
                    self.program.push(Instruction::Threshold {
                        dst: out,
                        src: pre,
                        table,
                    });
                    cur = out;
                    cur_shape = Shape::Flat(weights.rows());
                }
                Layer::BinLinear(l) => {
                    let vcore = self.map_weights(layer.name(), l.weights(), &mut program_vcore)?;
                    let table = self.add_table(l.thresholds());
                    cur = self.lower_binary_matvec(vcore, table, cur);
                    cur_shape = Shape::Flat(l.weights().rows());
                }
                Layer::FixedConv(l) => {
                    let (c, h, w) = match cur_shape {
                        Shape::Img(c, h, w) => (c, h, w),
                        Shape::Flat(_) => {
                            return Err(CompileError::Unsupported(format!(
                                "layer {i}: conv over flat activation"
                            )))
                        }
                    };
                    let k = l.kernel();
                    let (s, p) = (l.stride(), l.pad());
                    let filters = l.filters().clone();
                    let vcore = self.map_weights(layer.name(), &filters, &mut program_vcore)?;
                    let table = self.add_table(l.thresholds());
                    let (out, shape) =
                        self.lower_fixed_conv(vcore, table, cur, (c, h, w), &filters, k, s, p);
                    cur = out;
                    cur_shape = Shape::Img(shape.0, shape.1, shape.2);
                }
                Layer::BinConv(l) => {
                    let (c, h, w) = match cur_shape {
                        Shape::Img(c, h, w) => (c, h, w),
                        Shape::Flat(_) => {
                            return Err(CompileError::Unsupported(format!(
                                "layer {i}: conv over flat activation"
                            )))
                        }
                    };
                    let vcore = self.map_weights(layer.name(), l.filters(), &mut program_vcore)?;
                    let table = self.add_table(l.thresholds());
                    let (out, shape) = self.lower_conv(
                        vcore,
                        table,
                        cur,
                        (c, h, w),
                        l.kernel(),
                        l.stride(),
                        l.pad(),
                        l.filters().rows(),
                    );
                    cur = out;
                    cur_shape = Shape::Img(shape.0, shape.1, shape.2);
                }
                Layer::MaxPool2 => {
                    let (c, h, w) = match cur_shape {
                        Shape::Img(c, h, w) => (c, h, w),
                        Shape::Flat(_) => {
                            return Err(CompileError::Unsupported(format!(
                                "layer {i}: pool over flat activation"
                            )))
                        }
                    };
                    let out = self.regs.alloc();
                    self.program.push(Instruction::MaxPool2 {
                        dst: out,
                        src: cur,
                        channels: c,
                        height: h,
                        width: w,
                    });
                    cur = out;
                    cur_shape = Shape::Img(c, h / 2, w / 2);
                }
                Layer::Flatten => {
                    // Channel-major layout is already flat in registers.
                    cur_shape = Shape::Flat(cur_shape.len());
                }
                Layer::Output(l) => {
                    self.output_layers
                        .push((l.weights().to_vec(), l.bias().to_vec()));
                    let idx = self.output_layers.len() - 1;
                    let out = self.regs.alloc();
                    self.program.push(Instruction::OutputFc {
                        dst: out,
                        src: cur,
                        layer: idx,
                    });
                    cur = out;
                    cur_shape = Shape::Flat(l.weights().len());
                }
                other => {
                    return Err(CompileError::Unsupported(format!(
                        "layer {i}: {} not supported by the compiler",
                        other.name()
                    )));
                }
            }
            result = cur;
        }
        self.program.push(Instruction::Halt { result });
        Ok(())
    }
}

/// Bipolar weight sums of each filter restricted to the window positions
/// that fall inside the (unpadded) input — the compile-time constant that
/// corrects the `x' = q + 127` offset per window.
fn window_weight_sums(
    filters: &BitMatrix,
    (c, h, w): (usize, usize, usize),
    kernel: usize,
    stride: usize,
    pad: usize,
    oy: usize,
    ox: usize,
) -> Vec<f64> {
    (0..filters.rows())
        .map(|f| {
            let mut sum = 0.0;
            for ci in 0..c {
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                            continue;
                        }
                        let bit = filters.get(f, (ci * kernel + ky) * kernel + kx) == Some(true);
                        sum += if bit { 1.0 } else { -1.0 };
                    }
                }
            }
            sum
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eb_bitnn::{BinLinear, FixedLinear, Layer, OutputLinear};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_mlp() -> Bnn {
        let mut rng = StdRng::seed_from_u64(3);
        Bnn::new(
            "tiny",
            Shape::Flat(16),
            vec![
                Layer::FixedLinear(FixedLinear::random("in", 16, 8, &mut rng)),
                Layer::BinLinear(BinLinear::random("h1", 8, 8, &mut rng)),
                Layer::Output(OutputLinear::random("out", 8, 4, &mut rng)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn compiles_mlp_on_electronic_design() {
        let mut rng = StdRng::seed_from_u64(4);
        let c = compile(&Design::tacitmap_epcm(), &tiny_mlp(), &mut rng).unwrap();
        assert_eq!(c.vcores.len(), 2); // two mapped layers
        assert_eq!(c.output_layers.len(), 1);
        assert!(c.program.len() > 10);
        let asm = c.program.disassemble();
        assert!(asm.contains("vmm"));
        assert!(!asm.contains("mmm"), "electronic design must not emit MMM");
        assert!(asm.contains("halt"));
    }

    #[test]
    fn compiles_mlp_on_einstein_barrier_with_mmm() {
        let mut rng = StdRng::seed_from_u64(4);
        let c = compile(&Design::einstein_barrier(), &tiny_mlp(), &mut rng).unwrap();
        let asm = c.program.disassemble();
        assert!(asm.contains("mmm"), "EB design should emit MMM");
        assert!(matches!(c.vcores[0], MappedVcore::Optical(_)));
        assert_eq!(c.wdm_capacity, 16);
    }

    #[test]
    fn conv_lowering_emits_window_and_scatter() {
        let mut rng = StdRng::seed_from_u64(6);
        let net = Bnn::new(
            "conv",
            Shape::Img(1, 6, 6),
            vec![
                Layer::FixedConv(eb_bitnn::FixedConv::random("c1", 1, 2, 3, 1, 0, &mut rng)),
                Layer::Flatten,
                Layer::Output(OutputLinear::random("out", 2 * 4 * 4, 3, &mut rng)),
            ],
        )
        .unwrap();
        let c = compile(&Design::tacitmap_epcm(), &net, &mut rng).unwrap();
        let asm = c.program.disassemble();
        assert!(asm.contains("window"));
        assert!(asm.contains("scatt"));
        assert!(asm.contains("bits"), "bit-serial planes expected");
        assert!(asm.contains("shadd"), "shift-add accumulation expected");
        // 16 windows × 8 bit-planes × 2 half-drives = 256 activations.
        let vmm_count = asm.matches("vmm").count();
        assert_eq!(vmm_count, 256);
    }

    #[test]
    fn eb_bitserial_pairs_share_mmm_steps() {
        // On EinsteinBarrier the (plane, 0)/(0, plane) drives of each
        // bit-plane ride one MMM: 8 MMMs for the first layer instead of
        // 16 VMMs.
        let mut rng = StdRng::seed_from_u64(6);
        let c = compile(&Design::einstein_barrier(), &tiny_mlp(), &mut rng).unwrap();
        let asm = c.program.disassemble();
        let mmm_2lane = asm.matches("2 lanes").count();
        assert_eq!(mmm_2lane, 8, "8 bit-planes, one 2-lane MMM each:\n{asm}");
    }

    #[test]
    fn unsupported_shapes_report_cleanly() {
        let mut rng = StdRng::seed_from_u64(6);
        // Pooling a flat activation is a topology error caught by Bnn::new,
        // so exercise the compiler's own guard via a hand-built stack that
        // the network validator would also reject — compile from parts.
        let net = Bnn::new(
            "flatpool",
            Shape::Img(1, 4, 4),
            vec![Layer::MaxPool2, Layer::Flatten],
        )
        .unwrap();
        // No matrix layers at all: program is just LoadInput/pool/halt and
        // compiles fine (zero placements).
        let c = compile(&Design::tacitmap_epcm(), &net, &mut rng).unwrap();
        assert!(c.placements.is_empty());
        assert!(c.vcores.is_empty());
    }

    fn padded_cnn() -> Bnn {
        let mut rng = StdRng::seed_from_u64(31);
        Bnn::new(
            "pad-cnn",
            Shape::Img(2, 6, 6),
            vec![
                Layer::FixedConv(eb_bitnn::FixedConv::random("c1", 2, 4, 3, 1, 1, &mut rng)),
                Layer::BinConv(eb_bitnn::BinConv::random("c2", 4, 4, 3, 1, 1, &mut rng)),
                Layer::MaxPool2,
                Layer::Flatten,
                Layer::Output(OutputLinear::random("out", 4 * 3 * 3, 3, &mut rng)),
            ],
        )
        .unwrap()
    }

    fn vcores(design: &Design, net: &Bnn) -> Vec<MappedVcore> {
        compile(design, net, &mut StdRng::seed_from_u64(9))
            .unwrap()
            .vcores
    }

    #[test]
    fn recompile_reproduces_every_derived_fact() {
        for net in [tiny_mlp(), padded_cnn()] {
            for design in [Design::tacitmap_epcm(), Design::einstein_barrier()] {
                let fresh = compile(&design, &net, &mut StdRng::seed_from_u64(9)).unwrap();
                let saved = fresh.vcores.iter().map(MappedVcore::replicate).collect();
                let again = recompile(&design, &net, saved).unwrap();
                let what = format!("{} on {}", net.name(), design.kind.name());
                assert_eq!(again.program, fresh.program, "{what}");
                assert_eq!(again.tables, fresh.tables, "{what}");
                assert_eq!(again.output_layers, fresh.output_layers, "{what}");
                assert_eq!(again.placements, fresh.placements, "{what}");
                assert_eq!(again.register_count, fresh.register_count, "{what}");
                assert_eq!(again.vcores.len(), fresh.vcores.len(), "{what}");
                for (a, b) in again.vcores.iter().zip(&fresh.vcores) {
                    let shared = match (a, b) {
                        (MappedVcore::Electronic(a), MappedVcore::Electronic(b)) => {
                            a.shares_core_with(b)
                        }
                        (MappedVcore::Optical(a), MappedVcore::Optical(b)) => a.shares_core_with(b),
                        _ => false,
                    };
                    assert!(shared, "{what}");
                }
            }
        }
    }

    #[test]
    fn recompile_rejects_vcores_that_do_not_fit() {
        let net = tiny_mlp();
        for design in [Design::tacitmap_epcm(), Design::einstein_barrier()] {
            let rejects = |vcores: Vec<MappedVcore>| {
                matches!(
                    recompile(&design, &net, vcores),
                    Err(CompileError::Unsupported(_))
                )
            };
            let mut short = vcores(&design, &net);
            short.pop();
            assert!(rejects(short), "short list");
            let mut long = vcores(&design, &net);
            long.push(long[0].replicate());
            assert!(rejects(long), "long list");
            let mut swapped = vcores(&design, &net);
            swapped.swap(0, 1);
            assert!(rejects(swapped), "wrong weight shape");
            let mut small = design.clone();
            small.xbar.rows /= 2;
            small.xbar.cols /= 2;
            assert!(rejects(vcores(&small, &net)), "wrong crossbar shape");
            let other = match design.kind {
                DesignKind::EinsteinBarrier => {
                    let mut narrow = design.clone();
                    narrow.wdm_capacity = 4;
                    assert!(rejects(vcores(&narrow, &net)), "wrong WDM capacity");
                    Design::tacitmap_epcm()
                }
                _ => Design::einstein_barrier(),
            };
            assert!(rejects(vcores(&other, &net)), "wrong substrate");
        }
    }

    #[test]
    fn placements_cover_all_layers() {
        let mut rng = StdRng::seed_from_u64(4);
        let c = compile(&Design::tacitmap_epcm(), &tiny_mlp(), &mut rng).unwrap();
        assert_eq!(c.placements.len(), 2);
        assert_eq!(c.placements[0].layer, "in");
        assert!(!c.placements[0].crossbars.is_empty());
    }
}
