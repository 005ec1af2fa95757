//! The EinsteinBarrier instruction set.
//!
//! A PUMA-style VLIW-ish vector ISA (paper Section IV: "EinsteinBarrier
//! extends the ISA discussed in an earlier work to support multiple
//! simultaneous VMMs, called Matrix-Matrix-Multiplication (MMM)").
//! Registers hold variable-length numeric vectors; `Vmm` dispatches one
//! input vector to a VCore, and the new `Mmm` dispatches up to `K` input
//! vectors in a single WDM step.

use std::fmt;

/// Register index within an ECore register file.
pub type RegId = usize;

/// Index of a threshold table (folded batch-norm) in the compiled network.
pub type TableId = usize;

/// Index of a mapped VCore (crossbar group hosting one layer).
pub type VcoreId = usize;

/// Element-wise vector ALU operations of the ECore scalar/vector
/// functional units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `dst = a + b`.
    Add,
    /// `dst = a - b`.
    Sub,
    /// `dst = max(a, b)`.
    Max,
}

/// One instruction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Instruction {
    /// Loads the current network input (quantized to `bits`, offset to
    /// unsigned) into `dst`.
    LoadInput {
        /// Destination register.
        dst: RegId,
        /// Quantization width.
        bits: u8,
    },
    /// Copies a register.
    Mov {
        /// Destination register.
        dst: RegId,
        /// Source register.
        src: RegId,
    },
    /// Fills `dst` with `len` copies of `value`.
    Fill {
        /// Destination register.
        dst: RegId,
        /// Fill value.
        value: f64,
        /// Vector length.
        len: usize,
    },
    /// Loads an immediate vector (compile-time constants such as
    /// per-output weight sums).
    Const {
        /// Destination register.
        dst: RegId,
        /// Immediate values.
        values: Vec<f64>,
    },
    /// Logical complement of a 0/1 vector (`dst = 1 - src`), used to build
    /// the `[v ; v̄]` TacitMap drive.
    Not {
        /// Destination register.
        dst: RegId,
        /// Source register.
        src: RegId,
    },
    /// Extracts the `k×k` window at `(oy, ox)` from a channel-major
    /// binary map (im2col on the operand-steer unit).
    Window {
        /// Destination register.
        dst: RegId,
        /// Source feature map.
        src: RegId,
        /// Channels of the map.
        channels: usize,
        /// Map height.
        height: usize,
        /// Map width.
        width: usize,
        /// Kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
        /// Output row.
        oy: usize,
        /// Output column.
        ox: usize,
    },
    /// Scatters a per-filter bit vector into position `(oy, ox)` of a
    /// channel-major output map.
    Scatter {
        /// Destination map register (pre-filled).
        dst: RegId,
        /// Per-filter bits.
        src: RegId,
        /// Output channels.
        out_channels: usize,
        /// Output height.
        oh: usize,
        /// Output width.
        ow: usize,
        /// Output row.
        oy: usize,
        /// Output column.
        ox: usize,
    },
    /// Extracts bit-plane `bit` of the (non-negative integer) vector in
    /// `src` as a 0/1 vector.
    BitSlice {
        /// Destination register.
        dst: RegId,
        /// Source register.
        src: RegId,
        /// Bit index.
        bit: u8,
    },
    /// `dst += src · 2^shift` (bit-serial accumulation).
    ShiftAdd {
        /// Accumulator register.
        dst: RegId,
        /// Source register.
        src: RegId,
        /// Power-of-two scale.
        shift: i32,
    },
    /// Element-wise ALU.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: RegId,
        /// Left operand.
        a: RegId,
        /// Right operand.
        b: RegId,
    },
    /// `dst = a · scale`.
    Scale {
        /// Destination register.
        dst: RegId,
        /// Source register.
        src: RegId,
        /// Multiplier.
        scale: f64,
    },
    /// One crossbar activation: drives the 0/1 vector in `pos` on the
    /// stored-weight half and the 0/1 vector in `neg` on the complement
    /// half of VCore `vcore`; writes per-column counts to `dst`.
    ///
    /// TacitMap's XNOR+popcount is `Vmm { pos: v, neg: v̄ }`; bit-serial
    /// fixed-point layers drive `(plane, 0)` and `(0, plane)` pairs.
    Vmm {
        /// Target VCore.
        vcore: VcoreId,
        /// Destination register (one count per stored weight vector).
        dst: RegId,
        /// Drive on the weight half.
        pos: RegId,
        /// Drive on the complement half.
        neg: RegId,
    },
    /// The EinsteinBarrier extension: up to `K` (pos, neg, dst) triples
    /// processed in a single WDM step on VCore `vcore`.
    Mmm {
        /// Target VCore.
        vcore: VcoreId,
        /// Per-wavelength drives and destinations.
        lanes: Vec<MmmLane>,
    },
    /// Applies threshold table `table` to the integer statistics in `src`,
    /// producing a 0/1 vector.
    Threshold {
        /// Destination register.
        dst: RegId,
        /// Source register.
        src: RegId,
        /// Folded batch-norm table.
        table: TableId,
    },
    /// 2×2 OR max-pool on a channel-major binary map in `src`.
    MaxPool2 {
        /// Destination register.
        dst: RegId,
        /// Source register.
        src: RegId,
        /// Channels.
        channels: usize,
        /// Input height.
        height: usize,
        /// Input width.
        width: usize,
    },
    /// Runs the real-weight output layer `table` (stored alongside
    /// threshold tables) on the 0/1 vector in `src`, producing logits.
    OutputFc {
        /// Destination register.
        dst: RegId,
        /// Source register.
        src: RegId,
        /// Output-layer parameter index.
        layer: usize,
    },
    /// Ends the program; `result` holds the logits.
    Halt {
        /// Register holding the final logits.
        result: RegId,
    },
}

/// One WDM lane of an [`Instruction::Mmm`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MmmLane {
    /// Drive on the weight half.
    pub pos: RegId,
    /// Drive on the complement half.
    pub neg: RegId,
    /// Destination register.
    pub dst: RegId,
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LoadInput { dst, bits } => write!(f, "ldin   r{dst}, u{bits}"),
            Self::Mov { dst, src } => write!(f, "mov    r{dst}, r{src}"),
            Self::Fill { dst, value, len } => write!(f, "fill   r{dst}, {value}, ×{len}"),
            Self::Const { dst, values } => write!(f, "const  r{dst}, [{} values]", values.len()),
            Self::Not { dst, src } => write!(f, "not    r{dst}, r{src}"),
            Self::Window {
                dst, src, oy, ox, ..
            } => write!(f, "window r{dst}, r{src} @({oy},{ox})"),
            Self::Scatter {
                dst, src, oy, ox, ..
            } => write!(f, "scatt  r{dst}, r{src} @({oy},{ox})"),
            Self::BitSlice { dst, src, bit } => write!(f, "bits   r{dst}, r{src}[{bit}]"),
            Self::ShiftAdd { dst, src, shift } => write!(f, "shadd  r{dst}, r{src} << {shift}"),
            Self::Alu { op, dst, a, b } => {
                write!(
                    f,
                    "{:<6} r{dst}, r{a}, r{b}",
                    format!("{op:?}").to_lowercase()
                )
            }
            Self::Scale { dst, src, scale } => write!(f, "scale  r{dst}, r{src}, {scale}"),
            Self::Vmm {
                vcore,
                dst,
                pos,
                neg,
            } => {
                write!(f, "vmm    x{vcore}, r{dst}, r{pos}/r{neg}")
            }
            Self::Mmm { vcore, lanes } => {
                write!(f, "mmm    x{vcore}, {} lanes", lanes.len())
            }
            Self::Threshold { dst, src, table } => write!(f, "thr    r{dst}, r{src}, t{table}"),
            Self::MaxPool2 {
                dst,
                src,
                channels,
                height,
                width,
            } => write!(f, "pool2  r{dst}, r{src} ({channels}×{height}×{width})"),
            Self::OutputFc { dst, src, layer } => write!(f, "outfc  r{dst}, r{src}, w{layer}"),
            Self::Halt { result } => write!(f, "halt   r{result}"),
        }
    }
}

/// A compiled instruction stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    instructions: Vec<Instruction>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an instruction.
    pub fn push(&mut self, i: Instruction) {
        self.instructions.push(i);
    }

    /// Instruction stream.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Returns `true` for an empty program.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Disassembles to readable assembly, one instruction per line.
    pub fn disassemble(&self) -> String {
        self.instructions
            .iter()
            .enumerate()
            .map(|(pc, i)| format!("{pc:>5}: {i}\n"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms_are_readable() {
        let prog = {
            let mut p = Program::new();
            p.push(Instruction::LoadInput { dst: 0, bits: 8 });
            p.push(Instruction::Vmm {
                vcore: 2,
                dst: 1,
                pos: 0,
                neg: 3,
            });
            p.push(Instruction::Mmm {
                vcore: 2,
                lanes: vec![MmmLane {
                    pos: 0,
                    neg: 3,
                    dst: 1,
                }],
            });
            p.push(Instruction::Halt { result: 1 });
            p
        };
        let asm = prog.disassemble();
        assert!(asm.contains("ldin"));
        assert!(asm.contains("vmm    x2"));
        assert!(asm.contains("mmm    x2, 1 lanes"));
        assert!(asm.contains("halt"));
        assert_eq!(prog.len(), 4);
    }

    #[test]
    fn program_collects_instructions() {
        let mut p = Program::new();
        assert!(p.is_empty());
        p.push(Instruction::Halt { result: 0 });
        assert_eq!(p.instructions().len(), 1);
    }
}
