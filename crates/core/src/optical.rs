//! TacitMap on optical crossbars: the functional model of an
//! EinsteinBarrier VCore, executing up to `K` input vectors per step via
//! WDM (paper Fig. 5-(b)).
//!
//! Mirrors [`eb_mapping::TacitMapped`] but hosts the weights on
//! [`eb_photonics::OpticalCrossbar`]s behind a [`Transmitter`]/[`Receiver`]
//! pair, so the full optical chain (comb → VOA encode → crossbar
//! attenuation → photodetector + TIA → count recovery) is exercised.

use eb_bitnn::{BitMatrix, BitVec};
use eb_mapping::MappingError;
use eb_photonics::{OpcmParams, OpticalCrossbar, PhotonicsError, Receiver, Transmitter};
use rand::Rng;
use std::sync::Arc;

/// A binary weight matrix programmed in TacitMap layout on oPCM crossbars.
///
/// # Examples
///
/// ```
/// use eb_core::OpticalTacitMapped;
/// use eb_bitnn::{ops, BitMatrix, BitVec};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let weights = BitMatrix::from_fn(4, 6, |r, c| (r + 2 * c) % 3 == 0);
/// let mut mapped = OpticalTacitMapped::program(&weights, 16, 8, 4, &mut rng)?;
/// let inputs: Vec<BitVec> = (0..3)
///     .map(|k| BitVec::from_bools(&(0..6).map(|i| (i + k) % 2 == 0).collect::<Vec<_>>()))
///     .collect();
/// // XNOR lanes drive each input against its complement.
/// let complements: Vec<BitVec> = inputs.iter().map(BitVec::complement).collect();
/// let lanes: Vec<(&BitVec, &BitVec)> = inputs.iter().zip(&complements).collect();
/// let counts = mapped.execute_wdm_ref(&lanes, &mut rng)?;
/// for (k, v) in inputs.iter().enumerate() {
///     assert_eq!(counts[k], ops::binary_linear_popcounts(v, &weights));
/// }
/// # Ok::<(), eb_core::OpticalMapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OpticalTacitMapped {
    /// `xbars[row_chunk][col_chunk]`, `Arc`-shared: the grid is fixed at
    /// programming time (no post-program mutation path exists), so
    /// replicas of a prepared model clone the `Arc` instead of the
    /// devices. The receiver and step counter below are the per-replica
    /// mutable rind.
    xbars: Arc<Vec<Vec<OpticalCrossbar>>>,
    transmitter: Transmitter,
    receiver: Receiver,
    m: usize,
    n: usize,
    chunk_len: usize,
    rows: usize,
    cols: usize,
    steps: u64,
}

/// Errors from the optical mapping.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OpticalMapError {
    /// Re-used mapping errors (empty weights, fan-in mismatch...).
    Mapping(MappingError),
    /// Underlying photonics errors (WDM capacity, bounds...).
    Photonics(PhotonicsError),
}

impl std::fmt::Display for OpticalMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Mapping(e) => write!(f, "{e}"),
            Self::Photonics(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for OpticalMapError {}

impl From<MappingError> for OpticalMapError {
    fn from(e: MappingError) -> Self {
        Self::Mapping(e)
    }
}

impl From<PhotonicsError> for OpticalMapError {
    fn from(e: PhotonicsError) -> Self {
        Self::Photonics(e)
    }
}

impl OpticalTacitMapped {
    /// Programs `weights` (one weight vector per row) onto `rows × cols`
    /// optical crossbars with WDM capacity `k`.
    ///
    /// # Errors
    ///
    /// Returns an error for empty weights or a degenerate crossbar.
    pub fn program(
        weights: &BitMatrix,
        rows: usize,
        cols: usize,
        k: usize,
        rng: &mut impl Rng,
    ) -> Result<Self, OpticalMapError> {
        if weights.rows() == 0 || weights.cols() == 0 {
            return Err(MappingError::EmptyWeights.into());
        }
        let chunk_len = rows / 2;
        if chunk_len == 0 || cols == 0 {
            return Err(MappingError::CrossbarTooSmall { rows, cols }.into());
        }
        let m = weights.cols();
        let n = weights.rows();
        let row_chunks = m.div_ceil(chunk_len);
        let col_chunks = n.div_ceil(cols);
        let mut xbars = Vec::with_capacity(row_chunks);
        for rc in 0..row_chunks {
            let lo = rc * chunk_len;
            let hi = (lo + chunk_len).min(m);
            let len = hi - lo;
            let mut row = Vec::with_capacity(col_chunks);
            for cc in 0..col_chunks {
                let jlo = cc * cols;
                let jhi = (jlo + cols).min(n);
                let block = BitMatrix::from_fn(2 * len, jhi - jlo, |r, j| {
                    let w = weights.row(jlo + j);
                    if r < len {
                        w.get(lo + r) == Some(true)
                    } else {
                        w.get(lo + r - len) == Some(false)
                    }
                });
                let mut xbar = OpticalCrossbar::new(rows, cols, OpcmParams::ideal_binary());
                xbar.program_matrix(&block, rng)?;
                row.push(xbar);
            }
            xbars.push(row);
        }
        Ok(Self {
            xbars: Arc::new(xbars),
            transmitter: Transmitter::with_capacity(k),
            receiver: Receiver::ideal(),
            m,
            n,
            chunk_len,
            rows,
            cols,
            steps: 0,
        })
    }

    /// Rebuilds a mapping from previously exported state: the programmed
    /// crossbar grid plus the geometry, receiver, and step counter a prior
    /// [`OpticalTacitMapped::program`] produced. Restoring is not a
    /// re-program — no RNG draws happen and no device writes are counted.
    ///
    /// # Errors
    ///
    /// Returns an error for zero dimensions, a degenerate crossbar shape,
    /// or a crossbar grid that does not match the chunk geometry implied
    /// by `rows × cols` crossbars holding an `n × m` weight matrix.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        xbars: Vec<Vec<OpticalCrossbar>>,
        k: usize,
        receiver: Receiver,
        m: usize,
        n: usize,
        rows: usize,
        cols: usize,
        steps: u64,
    ) -> Result<Self, OpticalMapError> {
        if m == 0 || n == 0 {
            return Err(MappingError::EmptyWeights.into());
        }
        let chunk_len = rows / 2;
        if chunk_len == 0 || cols == 0 {
            return Err(MappingError::CrossbarTooSmall { rows, cols }.into());
        }
        let row_chunks = m.div_ceil(chunk_len);
        let col_chunks = n.div_ceil(cols);
        let cells = xbars.iter().map(Vec::len).sum::<usize>();
        let grid_ok = xbars.len() == row_chunks
            && xbars.iter().all(|row| row.len() == col_chunks)
            && xbars
                .iter()
                .flatten()
                .all(|x| x.rows() == rows && x.cols() == cols);
        if !grid_ok {
            return Err(PhotonicsError::DimensionMismatch {
                what: "restored optical crossbar grid",
                expected: row_chunks * col_chunks,
                got: cells,
            }
            .into());
        }
        Ok(Self {
            xbars: Arc::new(xbars),
            transmitter: Transmitter::with_capacity(k),
            receiver,
            m,
            n,
            chunk_len,
            rows,
            cols,
            steps,
        })
    }

    /// Programmed optical crossbars in chunk-grid order,
    /// `[row_chunk][col_chunk]` — the export surface for snapshotting
    /// prepared state.
    pub fn xbars(&self) -> &[Vec<OpticalCrossbar>] {
        &self.xbars
    }

    /// The receiver chain currently resolving reads.
    pub fn receiver(&self) -> &Receiver {
        &self.receiver
    }

    /// Mints a replica **sharing** this mapping's programmed crossbar
    /// grid (an `Arc` bump — no device is re-programmed, no RNG drawn)
    /// with its own receiver copy and a fresh step counter.
    pub fn replicate(&self) -> Self {
        Self {
            xbars: Arc::clone(&self.xbars),
            transmitter: self.transmitter.clone(),
            receiver: self.receiver.clone(),
            m: self.m,
            n: self.n,
            chunk_len: self.chunk_len,
            rows: self.rows,
            cols: self.cols,
            steps: 0,
        }
    }

    /// `true` when both mappings read from the same programmed crossbar
    /// grid (`Arc` pointer equality) — the replica weight-sharing
    /// invariant.
    pub fn shares_core_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.xbars, &other.xbars)
    }

    /// Approximate heap bytes of the shared programmed grid — counted
    /// once however many replicas share it.
    pub fn core_bytes(&self) -> usize {
        self.xbars
            .iter()
            .flatten()
            .map(OpticalCrossbar::approx_bytes)
            .sum()
    }

    /// Approximate heap bytes of this replica's private state
    /// (transmitter/receiver chain and counters).
    pub fn rind_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    /// Per-crossbar shape `(rows, cols)` this mapping was programmed for.
    pub fn xbar_shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// WDM capacity of the transmitter.
    pub fn capacity(&self) -> usize {
        self.transmitter.capacity()
    }

    /// Fan-in.
    pub fn fan_in(&self) -> usize {
        self.m
    }

    /// Stored weight vectors.
    pub fn out_vectors(&self) -> usize {
        self.n
    }

    /// Optical crossbars occupied.
    pub fn footprint(&self) -> usize {
        self.xbars.iter().map(Vec::len).sum()
    }

    /// MMM steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// Switches to a noisy receiver (for robustness experiments).
    pub fn set_receiver(&mut self, receiver: Receiver) {
        self.receiver = receiver;
    }

    /// One WDM step over up to `K` lanes, each with independent
    /// `(pos, neg)` half drives (see
    /// [`eb_mapping::TacitMapped::execute_raw`]): returns
    /// `counts[k][j]`, the column-`j` count of lane `k`. An XNOR lane
    /// drives `(v, v̄)` and reads `popcount(v ⊙ Wⱼ)`; bit-serial lanes
    /// drive `(plane, 0)` / `(0, plane)`. This is the one WDM execution
    /// implementation, borrowing its lanes so callers whose lanes share
    /// common halves allocate nothing per lane.
    ///
    /// # Errors
    ///
    /// Returns an error on fan-in mismatch or when more than `K` lanes
    /// are offered.
    pub fn execute_wdm_ref(
        &mut self,
        lanes: &[(&BitVec, &BitVec)],
        rng: &mut impl Rng,
    ) -> Result<Vec<Vec<u32>>, OpticalMapError> {
        for (pos, neg) in lanes {
            if pos.len() != self.m || neg.len() != self.m {
                return Err(MappingError::InputLength {
                    expected: self.m,
                    got: pos.len().max(neg.len()),
                }
                .into());
            }
        }
        let mut acc = vec![vec![0u32; self.n]; lanes.len()];
        for (rc, row) in self.xbars.iter().enumerate() {
            let lo = rc * self.chunk_len;
            let hi = (lo + self.chunk_len).min(self.m);
            let len = hi - lo;
            let drives: Vec<BitVec> = lanes
                .iter()
                .map(|(pos, neg)| lane_drive(pos, neg, lo, len, self.rows))
                .collect();
            let frame = self.transmitter.encode(&drives)?;
            for (cc, xbar) in row.iter().enumerate() {
                let jlo = cc * self.cols;
                let jhi = (jlo + self.cols).min(self.n);
                let counts = xbar.mmm_counts(&frame, &self.receiver, rng)?;
                for (k, lane_counts) in counts.iter().enumerate() {
                    for j in 0..(jhi - jlo) {
                        acc[k][j + jlo] += lane_counts[j];
                    }
                }
            }
        }
        self.steps += 1;
        Ok(acc)
    }
}

/// The physical drive of one lane over the row chunk `[lo, lo + len)`:
/// `[pos ; neg ; 0…]` across `rows` crossbar rows, built a word at a
/// time.
fn lane_drive(pos: &BitVec, neg: &BitVec, lo: usize, len: usize, rows: usize) -> BitVec {
    let mut words = vec![0u64; rows.div_ceil(64)];
    or_bits(&mut words, 0, pos.words(), lo, len);
    or_bits(&mut words, len, neg.words(), lo, len);
    BitVec::from_words(words, rows)
}

/// ORs bits `[from, from + len)` of `src` into `dst` starting at bit
/// `at`, 64 bits per step.
fn or_bits(dst: &mut [u64], at: usize, src: &[u64], from: usize, len: usize) {
    for i in (0..len).step_by(64) {
        let n = (len - i).min(64);
        let (w, b) = ((from + i) / 64, (from + i) % 64);
        let mut word = src[w] >> b;
        if b > 0 {
            word |= src.get(w + 1).map_or(0, |next| next << (64 - b));
        }
        if n < 64 {
            word &= (1 << n) - 1;
        }
        let (w, b) = ((at + i) / 64, (at + i) % 64);
        dst[w] |= word << b;
        if b > 0 && n > 64 - b {
            dst[w + 1] |= word >> (64 - b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eb_bitnn::ops;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    fn random_bits(rows: usize, cols: usize, seed: u64) -> BitMatrix {
        BitMatrix::from_fn(rows, cols, |r, c| {
            (seed.wrapping_mul((r * cols + c) as u64 + 41)) % 4 < 2
        })
    }

    /// One WDM step over XNOR lanes: each input against its complement.
    fn execute_xnor(
        mapped: &mut OpticalTacitMapped,
        inputs: &[BitVec],
        rng: &mut StdRng,
    ) -> Result<Vec<Vec<u32>>, OpticalMapError> {
        let complements: Vec<BitVec> = inputs.iter().map(BitVec::complement).collect();
        let lanes: Vec<(&BitVec, &BitVec)> = inputs.iter().zip(&complements).collect();
        mapped.execute_wdm_ref(&lanes, rng)
    }

    #[test]
    fn chunked_wdm_matches_reference() {
        let mut r = rng();
        let w = random_bits(20, 50, 3);
        // 16-row crossbars (chunk 8) × 8 cols: 7 × 3 footprint.
        let mut mapped = OpticalTacitMapped::program(&w, 16, 8, 4, &mut r).unwrap();
        assert_eq!(mapped.footprint(), 21);
        let inputs: Vec<BitVec> = (0..4)
            .map(|k| {
                BitVec::from_bools(&(0..50).map(|i| (i * (k + 3)) % 7 < 3).collect::<Vec<_>>())
            })
            .collect();
        let counts = execute_xnor(&mut mapped, &inputs, &mut r).unwrap();
        for (k, v) in inputs.iter().enumerate() {
            assert_eq!(counts[k], ops::binary_linear_popcounts(v, &w), "lane {k}");
        }
        assert_eq!(mapped.steps_taken(), 1);
    }

    #[test]
    fn over_capacity_rejected() {
        let mut r = rng();
        let w = random_bits(4, 8, 1);
        let mut mapped = OpticalTacitMapped::program(&w, 16, 8, 2, &mut r).unwrap();
        let inputs: Vec<BitVec> = (0..3).map(|_| BitVec::ones(8)).collect();
        assert!(matches!(
            execute_xnor(&mut mapped, &inputs, &mut r),
            Err(OpticalMapError::Photonics(
                PhotonicsError::WdmOverCapacity { .. }
            ))
        ));
    }

    #[test]
    fn raw_halves_enable_bit_serial() {
        let mut r = rng();
        let w = random_bits(3, 12, 9);
        let mut mapped = OpticalTacitMapped::program(&w, 32, 8, 4, &mut r).unwrap();
        let p = BitVec::from_bools(&(0..12).map(|i| i % 3 == 0).collect::<Vec<_>>());
        let zero = BitVec::zeros(12);
        let counts = mapped
            .execute_wdm_ref(&[(&p, &zero), (&zero, &p)], &mut r)
            .unwrap();
        for j in 0..3 {
            let signed: i32 = (0..12)
                .map(|i| {
                    if p.get(i) == Some(true) {
                        if w.get(j, i) == Some(true) {
                            1
                        } else {
                            -1
                        }
                    } else {
                        0
                    }
                })
                .sum();
            assert_eq!(counts[0][j] as i32 - counts[1][j] as i32, signed);
        }
    }

    #[test]
    fn fan_in_checked() {
        let mut r = rng();
        let w = random_bits(2, 6, 2);
        let mut mapped = OpticalTacitMapped::program(&w, 16, 4, 2, &mut r).unwrap();
        assert!(execute_xnor(&mut mapped, &[BitVec::zeros(7)], &mut r).is_err());
    }

    /// The bit-by-bit drive build [`lane_drive`] replaces.
    fn lane_drive_reference(
        pos: &BitVec,
        neg: &BitVec,
        lo: usize,
        len: usize,
        rows: usize,
    ) -> BitVec {
        let mut d = BitVec::zeros(rows);
        for i in 0..len {
            if pos.get(lo + i) == Some(true) {
                d.set(i, true);
            }
            if neg.get(lo + i) == Some(true) {
                d.set(len + i, true);
            }
        }
        d
    }

    #[test]
    fn word_level_drives_match_bit_by_bit() {
        // Every chunk start, so chunks straddle word boundaries on both
        // the source and the drive side, over dense and sparse operands.
        let mut r = rng();
        for m in [1usize, 63, 64, 65, 130, 200] {
            let pos = BitVec::from_bools(&(0..m).map(|_| r.gen::<bool>()).collect::<Vec<_>>());
            let neg = BitVec::from_bools(&(0..m).map(|_| r.gen_bool(0.2)).collect::<Vec<_>>());
            for rows in [2usize, 64, 130, 256] {
                let chunk = rows / 2;
                for lo in 0..m {
                    let len = chunk.min(m - lo);
                    assert_eq!(
                        lane_drive(&pos, &neg, lo, len, rows),
                        lane_drive_reference(&pos, &neg, lo, len, rows),
                        "m={m} rows={rows} lo={lo} len={len}"
                    );
                }
            }
        }
    }
}
