//! Functional CustBinaryMap: the SotA baseline mapping of Hirtzlin et al.
//! ("Digital biologically plausible implementation of BNNs with
//! differential hafnium oxide resistive memory arrays"), as characterised
//! by the paper's Fig. 2-(a)/Fig. 3-(a).
//!
//! Weight vectors sit **horizontally**, one per 2T2R row, each bit stored
//! as a complementary device pair `(w, w̄)`. Reading row `r` with the
//! input applied to the precharge sense amplifiers yields the XNOR bits of
//! one input/weight vector pair; a 5-bit counter per column plus a
//! popcount tree then produce the popcount **digitally**. Processing `n`
//! weight vectors takes `n` sequential row steps — the serialization
//! TacitMap removes.

use crate::error::MappingError;
use eb_bitnn::{BitMatrix, BitVec};
use eb_xbar::{CrossbarArray, Pcsa, PopcountTree, XbarConfig};
use rand::Rng;

/// A binary weight matrix programmed in CustBinaryMap (2T2R) layout.
///
/// # Examples
///
/// ```
/// use eb_mapping::CustBinaryMapped;
/// use eb_bitnn::{ops, BitMatrix, BitVec};
/// use eb_xbar::XbarConfig;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let weights = BitMatrix::from_fn(4, 6, |r, c| (r * c) % 3 == 1);
/// let mut mapped =
///     CustBinaryMapped::program(&weights, &XbarConfig::new(8, 16), &mut rng)?;
/// let input = BitVec::from_bools(&[true, true, false, true, false, false]);
/// let pops = mapped.execute(&input, &mut rng)?;
/// assert_eq!(pops, ops::binary_linear_popcounts(&input, &weights));
/// // n weight vectors ⇒ n sequential PCSA steps.
/// assert_eq!(mapped.steps_taken(), 4);
/// # Ok::<(), eb_mapping::MappingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CustBinaryMapped {
    /// `arrays[weight_group][vec_chunk]`.
    arrays: Vec<Vec<CrossbarArray>>,
    pcsa: Pcsa,
    tree: PopcountTree,
    m: usize,
    n: usize,
    bits_per_row: usize,
    steps: u64,
    cfg: XbarConfig,
}

impl CustBinaryMapped {
    /// Programs `weights` (one weight vector per row) into interleaved
    /// 2T2R rows.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::EmptyWeights`] for an empty matrix or
    /// [`MappingError::CrossbarTooSmall`] when a crossbar cannot hold one
    /// 2T2R bit.
    pub fn program(
        weights: &BitMatrix,
        cfg: &XbarConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, MappingError> {
        if weights.rows() == 0 || weights.cols() == 0 {
            return Err(MappingError::EmptyWeights);
        }
        let bits_per_row = cfg.custbinary_chunk_cols();
        if bits_per_row == 0 || cfg.rows == 0 {
            return Err(MappingError::CrossbarTooSmall {
                rows: cfg.rows,
                cols: cfg.cols,
            });
        }
        let m = weights.cols();
        let n = weights.rows();
        let vec_chunks = m.div_ceil(bits_per_row);
        let weight_groups = n.div_ceil(cfg.rows);
        let mut arrays = Vec::with_capacity(weight_groups);
        for g in 0..weight_groups {
            let rlo = g * cfg.rows;
            let rhi = (rlo + cfg.rows).min(n);
            let mut group = Vec::with_capacity(vec_chunks);
            for vc in 0..vec_chunks {
                let blo = vc * bits_per_row;
                let bhi = (blo + bits_per_row).min(m);
                // Interleave w and w̄: bit b of the chunk occupies device
                // columns (2b, 2b+1).
                let block = BitMatrix::from_fn(rhi - rlo, 2 * (bhi - blo), |r, dc| {
                    let bit = weights.get(rlo + r, blo + dc / 2) == Some(true);
                    if dc % 2 == 0 {
                        bit
                    } else {
                        !bit
                    }
                });
                let mut array = CrossbarArray::new(cfg.rows, cfg.cols, cfg.device.clone());
                array
                    .program_matrix(&block, rng)
                    .map_err(MappingError::Xbar)?;
                group.push(array);
            }
            arrays.push(group);
        }
        Ok(Self {
            arrays,
            pcsa: Pcsa::ideal(),
            tree: PopcountTree::paper_default(),
            m,
            n,
            bits_per_row,
            steps: 0,
            cfg: cfg.clone(),
        })
    }

    /// Replaces the ideal PCSA (e.g. to inject sense-offset noise).
    pub fn set_pcsa(&mut self, pcsa: Pcsa) {
        self.pcsa = pcsa;
    }

    /// Fan-in.
    pub fn fan_in(&self) -> usize {
        self.m
    }

    /// Stored weight vectors.
    pub fn out_vectors(&self) -> usize {
        self.n
    }

    /// Crossbars occupied.
    pub fn footprint(&self) -> usize {
        self.arrays.iter().map(Vec::len).sum()
    }

    /// Sequential PCSA row steps taken so far. Weight groups on different
    /// crossbars step in parallel, so one `execute` adds
    /// `min(n, rows)` steps.
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// Reads the XNOR bits of `input` against stored weight vector `j` —
    /// one PCSA row step (within one weight group).
    fn read_xnor_row(&self, j: usize, input: &BitVec, rng: &mut impl Rng) -> Vec<bool> {
        let g = j / self.cfg.rows;
        let local = j % self.cfg.rows;
        let mut bits = Vec::with_capacity(self.m);
        for (vc, array) in self.arrays[g].iter().enumerate() {
            let blo = vc * self.bits_per_row;
            let bhi = (blo + self.bits_per_row).min(self.m);
            for b in 0..(bhi - blo) {
                let straight = array.read_conductance(local, 2 * b, rng);
                let comp = array.read_conductance(local, 2 * b + 1, rng);
                // The input bit swaps which branch the PCSA treats as
                // positive, realizing XNOR in the sense operation.
                let bit = if input.get(blo + b) == Some(true) {
                    self.pcsa.sense(straight, comp, rng)
                } else {
                    self.pcsa.sense(comp, straight, rng)
                };
                bits.push(bit);
            }
        }
        bits
    }

    /// Executes one input vector: `min(n, rows)` sequential PCSA row steps
    /// plus digital popcounts, returning `popcount(input ⊙ Wⱼ)` for every
    /// `j`.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::InputLength`] on fan-in mismatch.
    pub fn execute(
        &mut self,
        input: &BitVec,
        rng: &mut impl Rng,
    ) -> Result<Vec<u32>, MappingError> {
        if input.len() != self.m {
            return Err(MappingError::InputLength {
                expected: self.m,
                got: input.len(),
            });
        }
        let mut out = Vec::with_capacity(self.n);
        for j in 0..self.n {
            let bits = self.read_xnor_row(j, input, rng);
            let (pop, _depth) = self.tree.reduce(&bits);
            out.push(pop);
        }
        // Weight groups proceed in parallel crossbars; the critical path is
        // the largest group.
        self.steps += self.n.min(self.cfg.rows) as u64;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eb_bitnn::ops;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    fn random_bits(rows: usize, cols: usize, seed: u64) -> BitMatrix {
        BitMatrix::from_fn(rows, cols, |r, c| {
            (seed.wrapping_mul((r * cols + c) as u64 + 29)) % 5 < 2
        })
    }

    #[test]
    fn single_crossbar_exact() {
        let mut r = rng();
        let w = random_bits(6, 8, 3);
        let mut mapped = CustBinaryMapped::program(&w, &XbarConfig::new(8, 16), &mut r).unwrap();
        assert_eq!(mapped.footprint(), 1);
        let input = BitVec::from_bools(&[true, false, true, true, false, false, true, true]);
        let got = mapped.execute(&input, &mut r).unwrap();
        assert_eq!(got, ops::binary_linear_popcounts(&input, &w));
        assert_eq!(mapped.steps_taken(), 6);
    }

    #[test]
    fn vector_chunked_exact() {
        // fan-in 50 over 2T2R rows of 8 bits: 7 chained crossbars.
        let mut r = rng();
        let w = random_bits(4, 50, 7);
        let cfg = XbarConfig::new(8, 16); // 8 bits per row
        let mut mapped = CustBinaryMapped::program(&w, &cfg, &mut r).unwrap();
        assert_eq!(mapped.footprint(), 7);
        let input = BitVec::from_bools(&(0..50).map(|i| i % 3 == 0).collect::<Vec<_>>());
        let got = mapped.execute(&input, &mut r).unwrap();
        assert_eq!(got, ops::binary_linear_popcounts(&input, &w));
    }

    #[test]
    fn weight_grouped_exact_and_steps_parallel() {
        // 20 weight vectors on 8-row crossbars: 3 groups in parallel; steps
        // per execute = min(n, rows) = 8.
        let mut r = rng();
        let w = random_bits(20, 8, 11);
        let cfg = XbarConfig::new(8, 16);
        let mut mapped = CustBinaryMapped::program(&w, &cfg, &mut r).unwrap();
        assert_eq!(mapped.footprint(), 3);
        let input = BitVec::from_bools(&(0..8).map(|i| i % 2 == 1).collect::<Vec<_>>());
        let got = mapped.execute(&input, &mut r).unwrap();
        assert_eq!(got, ops::binary_linear_popcounts(&input, &w));
        assert_eq!(mapped.steps_taken(), 8);
    }

    #[test]
    fn stored_devices_are_complementary() {
        let mut r = rng();
        let w = random_bits(3, 4, 13);
        let cfg = XbarConfig::new(4, 8);
        let mapped = CustBinaryMapped::program(&w, &cfg, &mut r).unwrap();
        let array = &mapped.arrays[0][0];
        for row in 0..3 {
            for b in 0..4 {
                let s = array.stored_bit(row, 2 * b).unwrap();
                let c = array.stored_bit(row, 2 * b + 1).unwrap();
                assert_ne!(s, c, "device pair ({row}, {b}) not complementary");
                assert_eq!(Some(s), w.get(row, b));
            }
        }
    }

    #[test]
    fn noisy_pcsa_causes_bit_errors() {
        let mut r = rng();
        let w = random_bits(8, 64, 17);
        let cfg = XbarConfig::new(16, 128);
        let mut mapped = CustBinaryMapped::program(&w, &cfg, &mut r).unwrap();
        // Offset comparable to the on/off current difference.
        mapped.set_pcsa(Pcsa::with_offset(60e-6));
        let input = BitVec::from_bools(&(0..64).map(|i| i % 2 == 0).collect::<Vec<_>>());
        let want = ops::binary_linear_popcounts(&input, &w);
        let mut mismatches = 0;
        for _ in 0..20 {
            if mapped.execute(&input, &mut r).unwrap() != want {
                mismatches += 1;
            }
        }
        assert!(mismatches > 0, "large PCSA offset should corrupt reads");
    }

    #[test]
    fn input_length_checked() {
        let mut r = rng();
        let w = random_bits(2, 4, 1);
        let mut mapped = CustBinaryMapped::program(&w, &XbarConfig::new(4, 8), &mut r).unwrap();
        assert!(matches!(
            mapped.execute(&BitVec::zeros(5), &mut r),
            Err(MappingError::InputLength { .. })
        ));
    }
}
