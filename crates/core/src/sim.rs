//! The instruction-level simulator: executes a [`CompiledNetwork`]
//! functionally (bit-exact against the `eb-bitnn` reference in noiseless
//! configurations) while accumulating per-instruction latency and energy
//! from the design's cost constants.

use crate::compiler::{CompiledNetwork, MappedVcore};
use crate::configs::{Design, DesignKind};
use crate::isa::Instruction;
use eb_bitnn::{ops, BitVec, Tensor};
use rand::Rng;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Execution statistics of one simulated inference.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Crossbar activations (VMM steps; an MMM counts once).
    pub crossbar_steps: u64,
    /// WDM lanes carried across all MMMs.
    pub wdm_lanes: u64,
    /// Scalar/vector FU operations.
    pub scalar_ops: u64,
    /// Modeled latency, nanoseconds.
    pub latency_ns: f64,
    /// Modeled energy, joules.
    pub energy_j: f64,
    /// Per-opcode retired counts.
    pub per_opcode: HashMap<&'static str, u64>,
}

/// Simulation errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// An instruction referenced an out-of-range or empty register.
    BadRegister(usize),
    /// Crossbar or optical execution failed.
    Execution(String),
    /// The input tensor does not match the compiled network.
    BadInput {
        /// Expected element count.
        expected: usize,
        /// Received element count.
        got: usize,
    },
    /// The program ended without a `Halt`.
    NoHalt,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadRegister(r) => write!(f, "register r{r} read before write"),
            Self::Execution(s) => write!(f, "crossbar execution failed: {s}"),
            Self::BadInput { expected, got } => {
                write!(f, "input has {got} elements, network expects {expected}")
            }
            Self::NoHalt => write!(f, "program ended without halt"),
        }
    }
}

impl Error for SimError {}

/// The simulated ECore machine: owns the compiled network, its register
/// file, and the RNG that drives every noise draw. It is the ISA-level
/// oracle the batched serving lowering is tested against, and the one
/// place modeled cost is composed: its charges depend only on shapes and
/// lane counts, so the `eb-runtime` `SimulatorBackend` runs it once per
/// prepare and charges that per-inference [`SimStats`] to every served
/// inference.
///
/// Callers that only hold a borrowed RNG can still construct a machine:
/// `&mut R` implements [`Rng`], so `Machine::new(net, &design, &mut rng)`
/// borrows the caller's generator for the machine's lifetime.
#[derive(Debug)]
pub struct Machine<R: Rng> {
    net: CompiledNetwork,
    design: Design,
    regs: Vec<Option<Vec<f64>>>,
    rng: R,
    stats: SimStats,
}

impl<R: Rng> Machine<R> {
    /// Prepares a machine for a compiled network, taking ownership of the
    /// network and the RNG.
    pub fn new(net: CompiledNetwork, design: &Design, rng: R) -> Self {
        let regs = vec![None; net.register_count.max(1)];
        Self {
            net,
            design: design.clone(),
            regs,
            rng,
            stats: SimStats::default(),
        }
    }

    /// Runs the program on one input, returning the logits.
    ///
    /// The register file uses take-and-restore semantics: accumulating
    /// instructions (`ShiftAdd`, `Scatter`) move their destination vector
    /// out, mutate it in place, and move it back, and every read is a
    /// borrow — no instruction clones a register it only reads. Holding
    /// the program, VCores, and tables as disjoint borrows of the
    /// compiled network also removes the per-run program clone and the
    /// per-`Threshold` table clone the previous implementation paid.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on malformed programs or execution failures.
    pub fn run(&mut self, input: &Tensor) -> Result<Tensor, SimError> {
        let expected = self.net.input_shape.len();
        if input.len() != expected {
            return Err(SimError::BadInput {
                expected,
                got: input.len(),
            });
        }
        let Machine {
            net,
            design,
            regs,
            rng,
            stats,
        } = self;
        let CompiledNetwork {
            program,
            vcores,
            tables,
            output_layers,
            ..
        } = &mut *net;
        let design: &Design = design;
        for instr in program.instructions() {
            stats.instructions += 1;
            *stats.per_opcode.entry(opcode_name(instr)).or_default() += 1;
            match instr {
                Instruction::LoadInput { dst, bits } => {
                    // Quantize then offset to unsigned (x' = q + 127).
                    let q = input.quantize(*bits);
                    let v: Vec<f64> = q.iter().map(|&x| f64::from(x) + 127.0).collect();
                    let n = v.len();
                    set_reg(regs, *dst, v);
                    charge_scalar(stats, n);
                }
                Instruction::Mov { dst, src } => {
                    // A genuine architectural copy: the one clone that stays.
                    let v = reg(regs, *src)?.clone();
                    set_reg(regs, *dst, v);
                }
                Instruction::Fill { dst, value, len } => {
                    set_reg(regs, *dst, vec![*value; *len]);
                }
                Instruction::Const { dst, values } => {
                    set_reg(regs, *dst, values.clone());
                }
                Instruction::Not { dst, src } => {
                    let v: Vec<f64> = reg(regs, *src)?
                        .iter()
                        .map(|&x| if x >= 0.5 { 0.0 } else { 1.0 })
                        .collect();
                    let n = v.len();
                    set_reg(regs, *dst, v);
                    charge_scalar(stats, n);
                }
                Instruction::BitSlice { dst, src, bit } => {
                    let v: Vec<f64> = reg(regs, *src)?
                        .iter()
                        .map(|&x| {
                            let i = x.max(0.0).round() as u64;
                            f64::from(((i >> bit) & 1) as u32)
                        })
                        .collect();
                    let n = v.len();
                    set_reg(regs, *dst, v);
                    charge_scalar(stats, n);
                }
                Instruction::ShiftAdd { dst, src, shift } => {
                    let scale = 2f64.powi(*shift);
                    let mut acc = take_reg(regs, *dst)?;
                    if *src == *dst {
                        // x += x·2^s collapses to a scale by (1 + 2^s).
                        for a in acc.iter_mut() {
                            *a += *a * scale;
                        }
                    } else {
                        let add = match reg(regs, *src) {
                            Ok(add) => add,
                            Err(e) => {
                                regs[*dst] = Some(acc);
                                return Err(e);
                            }
                        };
                        if acc.len() != add.len() {
                            let msg = format!(
                                "shift-add length mismatch: {} vs {}",
                                acc.len(),
                                add.len()
                            );
                            regs[*dst] = Some(acc);
                            return Err(SimError::Execution(msg));
                        }
                        for (a, b) in acc.iter_mut().zip(add) {
                            *a += b * scale;
                        }
                    }
                    let n = acc.len();
                    set_reg(regs, *dst, acc);
                    charge_scalar(stats, n);
                }
                Instruction::Alu { op, dst, a, b } => {
                    let x = reg(regs, *a)?;
                    let y = reg(regs, *b)?;
                    if x.len() != y.len() {
                        return Err(SimError::Execution(format!(
                            "alu length mismatch: {} vs {}",
                            x.len(),
                            y.len()
                        )));
                    }
                    let v: Vec<f64> = x
                        .iter()
                        .zip(y)
                        .map(|(&p, &q)| match op {
                            crate::isa::AluOp::Add => p + q,
                            crate::isa::AluOp::Sub => p - q,
                            crate::isa::AluOp::Max => p.max(q),
                        })
                        .collect();
                    let n = v.len();
                    set_reg(regs, *dst, v);
                    charge_scalar(stats, n);
                }
                Instruction::Scale { dst, src, scale } => {
                    let v: Vec<f64> = reg(regs, *src)?.iter().map(|&x| x * scale).collect();
                    let n = v.len();
                    set_reg(regs, *dst, v);
                    charge_scalar(stats, n);
                }
                Instruction::Window {
                    dst,
                    src,
                    channels,
                    height,
                    width,
                    kernel,
                    stride,
                    pad,
                    oy,
                    ox,
                } => {
                    let map = reg(regs, *src)?;
                    let mut v = vec![0.0; channels * kernel * kernel];
                    for c in 0..*channels {
                        for ky in 0..*kernel {
                            for kx in 0..*kernel {
                                let iy = (oy * stride + ky) as isize - *pad as isize;
                                let ix = (ox * stride + kx) as isize - *pad as isize;
                                if iy < 0 || ix < 0 {
                                    continue;
                                }
                                let (iy, ix) = (iy as usize, ix as usize);
                                if iy >= *height || ix >= *width {
                                    continue;
                                }
                                v[(c * kernel + ky) * kernel + kx] =
                                    map[(c * height + iy) * width + ix];
                            }
                        }
                    }
                    let n = v.len();
                    set_reg(regs, *dst, v);
                    charge_scalar(stats, n);
                }
                Instruction::Scatter {
                    dst,
                    src,
                    out_channels,
                    oh,
                    ow,
                    oy,
                    ox,
                } => {
                    let mut map = take_reg(regs, *dst)?;
                    if *src == *dst {
                        // Aliased scatter: snapshot the source bits first so
                        // the writes cannot shadow later reads (matching the
                        // semantics of the former clone-based implementation).
                        let bits: Vec<f64> = map[..*out_channels].to_vec();
                        for (f, bit) in bits.into_iter().enumerate() {
                            map[(f * oh + oy) * ow + ox] = bit;
                        }
                    } else {
                        match reg(regs, *src) {
                            Ok(bits) => {
                                for f in 0..*out_channels {
                                    map[(f * oh + oy) * ow + ox] = bits[f];
                                }
                            }
                            Err(e) => {
                                regs[*dst] = Some(map);
                                return Err(e);
                            }
                        }
                    }
                    set_reg(regs, *dst, map);
                    charge_scalar(stats, *out_channels);
                }
                Instruction::Vmm {
                    vcore,
                    dst,
                    pos,
                    neg,
                } => {
                    let p = bits_of(regs, *pos)?;
                    let n = bits_of(regs, *neg)?;
                    let counts = match &mut vcores[*vcore] {
                        MappedVcore::Electronic(m) => m
                            .execute_raw(&p, &n, &mut *rng)
                            .map_err(|e| SimError::Execution(e.to_string()))?,
                        MappedVcore::Optical(m) => m
                            .execute_wdm_ref(&[(&p, &n)], &mut *rng)
                            .map_err(|e| SimError::Execution(e.to_string()))?
                            .remove(0),
                    };
                    set_reg(regs, *dst, counts.iter().map(|&c| f64::from(c)).collect());
                    let v = &vcores[*vcore];
                    charge_crossbar(stats, design, v.out_vectors(), v.footprint(), 1);
                }
                Instruction::Mmm { vcore, lanes } => {
                    let drives: Vec<(BitVec, BitVec)> = lanes
                        .iter()
                        .map(|l| Ok((bits_of(regs, l.pos)?, bits_of(regs, l.neg)?)))
                        .collect::<Result<_, SimError>>()?;
                    let refs: Vec<(&BitVec, &BitVec)> =
                        drives.iter().map(|(p, n)| (p, n)).collect();
                    let counts = match &mut vcores[*vcore] {
                        MappedVcore::Optical(m) => m
                            .execute_wdm_ref(&refs, &mut *rng)
                            .map_err(|e| SimError::Execution(e.to_string()))?,
                        MappedVcore::Electronic(m) => {
                            // Electronic fallback: serialize the lanes.
                            let mut out = Vec::with_capacity(drives.len());
                            for (p, n) in refs {
                                out.push(
                                    m.execute_raw(p, n, &mut *rng)
                                        .map_err(|e| SimError::Execution(e.to_string()))?,
                                );
                            }
                            out
                        }
                    };
                    for (lane, lane_counts) in lanes.iter().zip(counts) {
                        set_reg(
                            regs,
                            lane.dst,
                            lane_counts.iter().map(|&c| f64::from(c)).collect(),
                        );
                    }
                    let v = &vcores[*vcore];
                    charge_crossbar(stats, design, v.out_vectors(), v.footprint(), lanes.len());
                }
                Instruction::Threshold { dst, src, table } => {
                    let specs = &tables[*table];
                    let v: Vec<f64> = reg(regs, *src)?
                        .iter()
                        .zip(specs)
                        .map(|(&x, spec)| {
                            if spec.fire(x.round() as i64) {
                                1.0
                            } else {
                                0.0
                            }
                        })
                        .collect();
                    let n = v.len();
                    set_reg(regs, *dst, v);
                    charge_scalar(stats, n);
                }
                Instruction::MaxPool2 {
                    dst,
                    src,
                    channels,
                    height,
                    width,
                } => {
                    let map = reg(regs, *src)?;
                    let (oh, ow) = (height / 2, width / 2);
                    let mut v = vec![0.0; channels * oh * ow];
                    for c in 0..*channels {
                        for y in 0..oh {
                            for x in 0..ow {
                                let mut m = 0.0f64;
                                for dy in 0..2 {
                                    for dx in 0..2 {
                                        m = m.max(
                                            map[(c * height + 2 * y + dy) * width + 2 * x + dx],
                                        );
                                    }
                                }
                                v[(c * oh + y) * ow + x] = m;
                            }
                        }
                    }
                    let n = v.len();
                    set_reg(regs, *dst, v);
                    charge_scalar(stats, n);
                }
                Instruction::OutputFc { dst, src, layer } => {
                    let bits = bits_of(regs, *src)?;
                    let (w, b) = &output_layers[*layer];
                    let logits = ops::output_logits(&bits, w, b);
                    let n = logits.len() * bits.len();
                    set_reg(regs, *dst, logits.iter().map(|&x| f64::from(x)).collect());
                    charge_scalar(stats, n);
                }
                Instruction::Halt { result } => {
                    let out: Vec<f32> = reg(regs, *result)?.iter().map(|&x| x as f32).collect();
                    return Ok(Tensor::from_vec(&[out.len()], out));
                }
            }
        }
        Err(SimError::NoHalt)
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }
}

fn opcode_name(i: &Instruction) -> &'static str {
    match i {
        Instruction::LoadInput { .. } => "ldin",
        Instruction::Mov { .. } => "mov",
        Instruction::Fill { .. } => "fill",
        Instruction::Const { .. } => "const",
        Instruction::Not { .. } => "not",
        Instruction::Window { .. } => "window",
        Instruction::Scatter { .. } => "scatter",
        Instruction::BitSlice { .. } => "bits",
        Instruction::ShiftAdd { .. } => "shadd",
        Instruction::Alu { .. } => "alu",
        Instruction::Scale { .. } => "scale",
        Instruction::Vmm { .. } => "vmm",
        Instruction::Mmm { .. } => "mmm",
        Instruction::Threshold { .. } => "thr",
        Instruction::MaxPool2 { .. } => "pool2",
        Instruction::OutputFc { .. } => "outfc",
        Instruction::Halt { .. } => "halt",
    }
}

/// Borrows register `r`, or reports a read-before-write.
fn reg(regs: &[Option<Vec<f64>>], r: usize) -> Result<&Vec<f64>, SimError> {
    regs.get(r)
        .and_then(Option::as_ref)
        .ok_or(SimError::BadRegister(r))
}

/// Moves register `r` out for in-place mutation (take-and-restore).
fn take_reg(regs: &mut [Option<Vec<f64>>], r: usize) -> Result<Vec<f64>, SimError> {
    regs.get_mut(r)
        .and_then(Option::take)
        .ok_or(SimError::BadRegister(r))
}

/// Stores `v` into register `r`, growing the file if needed.
fn set_reg(regs: &mut Vec<Option<Vec<f64>>>, r: usize, v: Vec<f64>) {
    if r >= regs.len() {
        regs.resize(r + 1, None);
    }
    regs[r] = Some(v);
}

/// Reads register `r` as a packed 0/1 vector (threshold at 0.5).
fn bits_of(regs: &[Option<Vec<f64>>], r: usize) -> Result<BitVec, SimError> {
    Ok(reg(regs, r)?.iter().map(|&x| x >= 0.5).collect())
}

/// Charges the scalar/vector FU for an element-wise op.
fn charge_scalar(stats: &mut SimStats, elems: usize) {
    // ECore vector FU: 8 lanes at 1 GHz, ~0.1 pJ per element op.
    stats.scalar_ops += elems as u64;
    stats.latency_ns += elems.div_ceil(8) as f64;
    stats.energy_j += elems as f64 * 0.1e-12;
}

/// Charges one crossbar activation (VMM or WDM MMM step).
fn charge_crossbar(
    stats: &mut SimStats,
    design: &Design,
    out_vectors: usize,
    footprint: usize,
    lanes: usize,
) {
    let xbar = &design.xbar;
    let cols = out_vectors.min(xbar.cols);
    let step_ns = xbar.timings.vmm_step_ns(cols * lanes.max(1), xbar.n_adcs);
    stats.crossbar_steps += 1;
    stats.wdm_lanes += lanes as u64;
    stats.latency_ns += step_ns;
    let energy = match (&design.kind, &design.optical) {
        (DesignKind::EinsteinBarrier, Some(opt)) => {
            opt.step_energy_j(lanes.max(1), xbar.rows, cols)
                + (cols * lanes.max(1)) as f64 * xbar.energies.e_adc_pj * 1e-12
        }
        _ => xbar
            .energies
            .vmm_step_joules(xbar.rows, xbar.rows * cols / 2, cols * lanes.max(1)),
    };
    stats.energy_j += energy * footprint as f64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::Design;
    use eb_bitnn::{BinLinear, Bnn, FixedLinear, Layer, OutputLinear, Shape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_mlp(seed: u64) -> Bnn {
        let mut rng = StdRng::seed_from_u64(seed);
        Bnn::new(
            "tiny",
            Shape::Flat(20),
            vec![
                Layer::FixedLinear(FixedLinear::random("in", 20, 12, &mut rng)),
                Layer::BinLinear(BinLinear::random("h1", 12, 10, &mut rng)),
                Layer::BinLinear(BinLinear::random("h2", 10, 8, &mut rng)),
                Layer::Output(OutputLinear::random("out", 8, 4, &mut rng)),
            ],
        )
        .unwrap()
    }

    fn test_input(seed: u64) -> Tensor {
        Tensor::from_fn(&[20], |i| ((i as f32 + seed as f32) * 0.37).sin())
    }

    /// Compiles `net` for `design` and runs one input on a fresh
    /// machine, drawing compile- and run-time noise from `rng`.
    fn simulate(
        design: &Design,
        net: &Bnn,
        x: &Tensor,
        rng: &mut StdRng,
    ) -> Result<(Tensor, SimStats), Box<dyn Error>> {
        let compiled = crate::compiler::compile(design, net, &mut *rng)?;
        let mut machine = Machine::new(compiled, design, rng);
        let logits = machine.run(x)?;
        Ok((logits, machine.stats().clone()))
    }

    #[test]
    fn electronic_simulation_matches_reference() {
        let net = tiny_mlp(1);
        let design = Design::tacitmap_epcm();
        let mut rng = StdRng::seed_from_u64(2);
        for s in 0..5u64 {
            let x = test_input(s);
            let want = net.forward(&x).unwrap();
            let (got, _) = simulate(&design, &net, &x, &mut rng).unwrap();
            assert_eq!(got, want, "input {s}");
        }
    }

    #[test]
    fn optical_simulation_matches_reference() {
        let net = tiny_mlp(3);
        let design = Design::einstein_barrier();
        let mut rng = StdRng::seed_from_u64(5);
        for s in 0..5u64 {
            let x = test_input(s);
            let want = net.forward(&x).unwrap();
            let (got, _) = simulate(&design, &net, &x, &mut rng).unwrap();
            assert_eq!(got, want, "input {s}");
        }
    }

    #[test]
    fn stats_accumulate_and_eb_uses_fewer_steps() {
        let net = tiny_mlp(7);
        let x = test_input(0);
        let mut rng = StdRng::seed_from_u64(8);
        let (_, tm) = simulate(&Design::tacitmap_epcm(), &net, &x, &mut rng).unwrap();
        let (_, eb) = simulate(&Design::einstein_barrier(), &net, &x, &mut rng).unwrap();
        assert!(tm.instructions > 0 && tm.crossbar_steps > 0);
        assert!(tm.latency_ns > 0.0 && tm.energy_j > 0.0);
        // The bit-serial (plane, 0)/(0, plane) pairs ride one MMM on EB.
        assert!(
            eb.crossbar_steps < tm.crossbar_steps,
            "EB {} vs TM {}",
            eb.crossbar_steps,
            tm.crossbar_steps
        );
        assert!(eb.per_opcode.contains_key("mmm"));
        assert!(tm.per_opcode.contains_key("vmm"));
    }

    #[test]
    fn cnn_simulation_matches_reference_on_both_designs() {
        // Small LeNet-style CNN: FixedConv (bit-serial) + pool + BinConv +
        // flatten + BinLinear + output, on a 12×12 synthetic image.
        let mut rng = StdRng::seed_from_u64(21);
        let net = Bnn::new(
            "mini-cnn",
            Shape::Img(1, 12, 12),
            vec![
                Layer::FixedConv(eb_bitnn::FixedConv::random("c1", 1, 4, 3, 1, 0, &mut rng)),
                Layer::MaxPool2,
                Layer::BinConv(eb_bitnn::BinConv::random("c2", 4, 6, 3, 1, 0, &mut rng)),
                Layer::Flatten,
                Layer::BinLinear(BinLinear::random("fc1", 6 * 3 * 3, 16, &mut rng)),
                Layer::Output(OutputLinear::random("out", 16, 4, &mut rng)),
            ],
        )
        .unwrap();
        let x = Tensor::from_fn(&[1, 12, 12], |i| ((i as f32) * 0.21).sin());
        let want = net.forward(&x).unwrap();
        for design in [Design::tacitmap_epcm(), Design::einstein_barrier()] {
            let (got, stats) = simulate(&design, &net, &x, &mut rng).unwrap();
            assert_eq!(got, want, "{}", design.kind);
            assert!(stats.crossbar_steps > 0);
        }
    }

    #[test]
    fn padded_cnn_simulation_is_exact() {
        // Same-padded convs exercise the per-window offset correction of
        // the bit-serial lowering (pad positions never carry the +127
        // quantization offset).
        let mut rng = StdRng::seed_from_u64(31);
        let net = Bnn::new(
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
        .unwrap();
        let x = Tensor::from_fn(&[2, 6, 6], |i| ((i as f32) * 0.43).cos());
        let want = net.forward(&x).unwrap();
        for design in [Design::tacitmap_epcm(), Design::einstein_barrier()] {
            let (got, _) = simulate(&design, &net, &x, &mut rng).unwrap();
            assert_eq!(got, want, "{}", design.kind);
        }
    }

    #[test]
    fn bad_input_rejected() {
        let net = tiny_mlp(9);
        let design = Design::tacitmap_epcm();
        let mut rng = StdRng::seed_from_u64(1);
        let err = simulate(&design, &net, &Tensor::zeros(&[21]), &mut rng);
        assert!(err.is_err());
    }
}
