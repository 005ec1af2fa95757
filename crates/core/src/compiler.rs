//! The EinsteinBarrier compiler: lowers an `eb-bitnn` network to an
//! instruction stream over mapped VCores.
//!
//! This is the "heavily extended PUMA compiler" of the paper's Section V:
//! every matrix layer is programmed onto crossbars (TacitMap layout —
//! electronic or optical depending on the design), batch-norm folds into
//! threshold tables, convolutions unroll into window extraction +
//! VMM/MMM + scatter, and the first fixed-point layer lowers to
//! bit-serial plane drives with shift-add accumulation.
//!
//! The compiler emits from the network's [`LayerPlan`], which derives the
//! per-layer constants (matrix indices, conv geometry, the `127·Σw` offset
//! tables) once; the runtime's crossbar sessions walk the same plan, and
//! [`recompile`] and the runtime's restore path share its fit check.

use crate::arch::{ChipLayout, LayerPlacement};
use crate::configs::{Design, DesignKind};
use crate::isa::{AluOp, Instruction, MmmLane, Program, RegId, TableId, VcoreId};
use crate::lowering::{LayerPlan, MatrixStep, Step};
use crate::optical::{OpticalMapError, OpticalTacitMapped};
use eb_bitnn::{BitVec, Bnn, ThresholdSpec};
use eb_mapping::{MappingError, TacitMapped};
use rand::Rng;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

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
    /// The layer plan the program was lowered from, which a serving
    /// session walks over the same VCores.
    pub plan: Arc<LayerPlan>,
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
            plan: Arc::clone(&self.plan),
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
    let plan = LayerPlan::new(net)?;
    let vcores = plan
        .matrices()
        .map(|m| {
            Ok(match wdm_lanes(design) {
                Some(k) => MappedVcore::Optical(OpticalTacitMapped::program(
                    &m.weights,
                    design.xbar.rows,
                    design.xbar.cols,
                    k,
                    rng,
                )?),
                None => {
                    MappedVcore::Electronic(TacitMapped::program(&m.weights, &design.xbar, rng)?)
                }
            })
        })
        .collect::<Result<_, CompileError>>()?;
    Ok(lower(design, plan, vcores))
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
/// when `vcores` does not fit it ([`LayerPlan::check_fit`]): too few or
/// too many, a VCore on the wrong substrate for the design, or one
/// programmed for a different weight matrix, crossbar shape, or WDM
/// capacity.
pub fn recompile(
    design: &Design,
    net: &Bnn,
    vcores: Vec<MappedVcore>,
) -> Result<CompiledNetwork, CompileError> {
    let plan = LayerPlan::new(net)?;
    let substrate = ((design.xbar.rows, design.xbar.cols), wdm_lanes(design));
    plan.check_fit(vcores.iter(), substrate)?;
    Ok(lower(design, plan, vcores))
}

/// WDM lanes per `Mmm` on an optical design; `None` on an electronic one,
/// which activates its crossbars one `Vmm` at a time.
fn wdm_lanes(design: &Design) -> Option<usize> {
    (design.kind == DesignKind::EinsteinBarrier).then_some(design.wdm_capacity.max(1))
}

/// Lowers `plan` for `design` over its programmed VCores, one per matrix
/// in network order — the one lowering behind [`compile`] (fresh
/// crossbars) and [`recompile`] (saved ones).
fn lower(design: &Design, plan: LayerPlan, vcores: Vec<MappedVcore>) -> CompiledNetwork {
    let mut c = Compiler {
        wdm: wdm_lanes(design),
        program: Program::new(),
        tables: Vec::new(),
        output_layers: Vec::new(),
        layout: ChipLayout::new(design.chip.clone()),
        regs: Regs::default(),
    };
    for (m, vcore) in plan.matrices().zip(&vcores) {
        c.layout.allocate(&m.name, vcore.footprint());
    }
    c.lower_network(&plan);
    CompiledNetwork {
        program: c.program,
        vcores,
        tables: c.tables,
        output_layers: c.output_layers,
        placements: c.layout.placements().to_vec(),
        design: design.kind,
        wdm_capacity: design.wdm_capacity.max(1),
        register_count: c.regs.next,
        plan: Arc::new(plan),
    }
}

struct Compiler {
    wdm: Option<usize>,
    program: Program,
    tables: Vec<Vec<ThresholdSpec>>,
    output_layers: Vec<(Vec<Vec<f32>>, Vec<f32>)>,
    layout: ChipLayout,
    regs: Regs,
}

impl Compiler {
    /// Emits the crossbar activation(s) for one `(pos, neg)` drive pair,
    /// using `Mmm` lanes on EinsteinBarrier and a `Vmm` otherwise.
    fn emit_activation(&mut self, vcore: VcoreId, pairs: &[(RegId, RegId, RegId)]) {
        match self.wdm {
            Some(k) => {
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
            None => {
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

    /// Lowers the bit-serial fixed-point pre-activation: input register
    /// holds offset-unsigned integers (`x' = q + 127`, 8 bits); the
    /// result register holds `Σ qᵢ·wᵢ` per output, `offsets` (the plan's
    /// `127·Σw` for this window) subtracted.
    fn lower_bitserial_preact(
        &mut self,
        vcore: VcoreId,
        input: RegId,
        fan_in: usize,
        offsets: &[i64],
    ) -> RegId {
        let zero = self.regs.alloc();
        self.program.push(Instruction::Fill {
            dst: zero,
            value: 0.0,
            len: fan_in,
        });
        let acc = self.regs.alloc();
        self.program.push(Instruction::Fill {
            dst: acc,
            value: 0.0,
            len: offsets.len(),
        });
        for b in 0..8u8 {
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
        let sums = self.regs.alloc();
        self.program.push(Instruction::Const {
            dst: sums,
            values: offsets.iter().map(|&o| o as f64).collect(),
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

    /// Lowers one crossbar step over the activation in `input`. A conv
    /// extracts every window with `Window` and scatters each window's
    /// thresholded outputs into a zeroed output map; a dense layer is one
    /// window, the input itself. Binary windows are driven `(x, x̄)` in one
    /// activation group (WDM packs windows on EinsteinBarrier); bit-serial
    /// windows run their eight planes one window at a time.
    fn lower_matrix(&mut self, m: &MatrixStep, input: RegId) -> RegId {
        self.tables.push(m.thresholds.clone());
        let (vcore, table) = (m.index, self.tables.len() - 1);
        let out = m.conv.map(|g| {
            let out = self.regs.alloc();
            self.program.push(Instruction::Fill {
                dst: out,
                value: 0.0,
                len: m.outputs() * g.windows(),
            });
            out
        });
        let mut last = input;
        match &m.offsets {
            None => {
                let pending: Vec<_> = (0..m.windows())
                    .map(|wi| {
                        let win = self.window(m, input, wi);
                        let not = self.regs.alloc();
                        self.program.push(Instruction::Not { dst: not, src: win });
                        (win, not, self.regs.alloc())
                    })
                    .collect();
                self.emit_activation(vcore, &pending);
                for (wi, &(_, _, counts)) in pending.iter().enumerate() {
                    last = self.threshold(m, table, counts, out, wi);
                }
            }
            Some(offsets) => {
                for (wi, offsets) in offsets.chunks_exact(m.outputs()).enumerate() {
                    let win = self.window(m, input, wi);
                    let pre = self.lower_bitserial_preact(vcore, win, m.weights.cols(), offsets);
                    last = self.threshold(m, table, pre, out, wi);
                }
            }
        }
        out.unwrap_or(last)
    }

    /// The register holding window `wi`'s drive: the input itself on a
    /// dense layer, an extracted `Window` on a conv.
    fn window(&mut self, m: &MatrixStep, input: RegId, wi: usize) -> RegId {
        let Some(g) = m.conv else {
            return input;
        };
        let win = self.regs.alloc();
        self.program.push(Instruction::Window {
            dst: win,
            src: input,
            channels: g.channels,
            height: g.height,
            width: g.width,
            kernel: g.kernel,
            stride: g.stride,
            pad: g.pad,
            oy: wi / g.out_width,
            ox: wi % g.out_width,
        });
        win
    }

    /// Thresholds window `wi`'s pre-activations and, on a conv, scatters
    /// them into the output map `out`.
    fn threshold(
        &mut self,
        m: &MatrixStep,
        table: TableId,
        src: RegId,
        out: Option<RegId>,
        wi: usize,
    ) -> RegId {
        let bits = self.regs.alloc();
        self.program.push(Instruction::Threshold {
            dst: bits,
            src,
            table,
        });
        if let (Some(dst), Some(g)) = (out, m.conv) {
            self.program.push(Instruction::Scatter {
                dst,
                src: bits,
                out_channels: m.outputs(),
                oh: g.out_height,
                ow: g.out_width,
                oy: wi / g.out_width,
                ox: wi % g.out_width,
            });
        }
        bits
    }

    fn lower_network(&mut self, plan: &LayerPlan) {
        let input = self.regs.alloc();
        self.program.push(Instruction::LoadInput {
            dst: input,
            bits: 8,
        });
        let mut cur = input;
        for step in plan.steps() {
            cur = match step {
                Step::Matrix(m) => self.lower_matrix(m, cur),
                &Step::MaxPool2 {
                    input: (channels, height, width),
                } => {
                    let out = self.regs.alloc();
                    self.program.push(Instruction::MaxPool2 {
                        dst: out,
                        src: cur,
                        channels,
                        height,
                        width,
                    });
                    out
                }
                // Channel-major layout is already flat in registers.
                Step::Flatten => cur,
                Step::Output(l) => {
                    self.output_layers
                        .push((l.weights().to_vec(), l.bias().to_vec()));
                    let out = self.regs.alloc();
                    self.program.push(Instruction::OutputFc {
                        dst: out,
                        src: cur,
                        layer: self.output_layers.len() - 1,
                    });
                    out
                }
            };
        }
        self.program.push(Instruction::Halt { result: cur });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eb_bitnn::{BinLinear, FixedLinear, Layer, OutputLinear, Shape};
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
        let fixed = |rng: &mut StdRng| Layer::FixedLinear(FixedLinear::random("fx", 8, 8, rng));
        let binary = |rng: &mut StdRng| Layer::BinLinear(BinLinear::random("bin", 8, 8, rng));
        let output = |rng: &mut StdRng| Layer::Output(OutputLinear::random("out", 8, 2, rng));
        // Stacks whose shapes chain, so `Bnn::new` accepts them, but whose
        // activation kinds do not: the layer plan rejects each before a
        // crossbar is programmed.
        let misfits = [
            (
                "pooling the real input",
                Shape::Img(1, 4, 4),
                vec![Layer::MaxPool2, Layer::Flatten],
            ),
            (
                "a fixed-point layer after layer 0",
                Shape::Flat(8),
                vec![fixed(&mut rng), fixed(&mut rng), output(&mut rng)],
            ),
            (
                "a binary layer fed the real input",
                Shape::Flat(8),
                vec![binary(&mut rng), output(&mut rng)],
            ),
            (
                "no output layer",
                Shape::Flat(8),
                vec![fixed(&mut rng), binary(&mut rng)],
            ),
        ];
        for (what, shape, layers) in misfits {
            let net = Bnn::new(what, shape, layers).unwrap();
            for design in [Design::tacitmap_epcm(), Design::einstein_barrier()] {
                let got = compile(&design, &net, &mut rng);
                assert!(
                    matches!(got, Err(CompileError::Unsupported(_))),
                    "{what} on {}",
                    design.kind.name()
                );
            }
        }
        // No layers at all: the program echoes its input, with no matrix
        // and no placement.
        let empty = Bnn::new("empty", Shape::Flat(4), vec![]).unwrap();
        let c = compile(&Design::tacitmap_epcm(), &empty, &mut rng).unwrap();
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

    /// FNV-1a digest of a program's `Debug` form, which prints every
    /// `Const` value (`Program::disassemble` elides them).
    fn program_digest(program: &Program) -> u64 {
        format!("{program:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn emitted_programs_are_pinned() {
        // The instruction streams — registers, conv geometry and every
        // offset constant — on TacitMap-ePCM and EinsteinBarrier.
        let nets = [
            eb_bitnn::BenchModel::MlpS.build(7).unwrap(),
            eb_bitnn::BenchModel::CnnS.build(7).unwrap(),
            padded_cnn(),
        ];
        let got: Vec<[u64; 2]> = nets
            .iter()
            .map(|net| {
                [Design::tacitmap_epcm(), Design::einstein_barrier()].map(|design| {
                    let mut rng = StdRng::seed_from_u64(1);
                    program_digest(&compile(&design, net, &mut rng).unwrap().program)
                })
            })
            .collect();
        let expected: Vec<[u64; 2]> = vec![
            [0xe27f_5c1d_25e5_1133, 0xef4d_a19a_9052_24b6],
            [0x7100_5941_c045_d2fa, 0x2aee_f0a6_0823_4b86],
            [0x8597_7e6a_4e18_1b85, 0x1af6_b447_5d41_5637],
        ];
        assert_eq!(got, expected, "{got:#x?}");
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
