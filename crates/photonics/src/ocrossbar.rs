//! The optical crossbar: an oPCM device grid performing WDM-parallel
//! matrix–matrix multiplication (the paper's MMM, Fig. 5-(b)).
//!
//! Each wavelength carries one input vector; every device attenuates all
//! wavelengths identically (GST absorption is broadband across the C
//! band); per-column wavelength demultiplexing recovers one accumulated
//! popcount per (wavelength, column) pair in a single time step.

use crate::error::PhotonicsError;
use crate::opcm::{OpcmDevice, OpcmParams};
use crate::receiver::Receiver;
use crate::transmitter::WdmFrame;
use eb_bitnn::BitMatrix;
use rand::Rng;

/// Stored-level sentinel of an unprogrammed cell; the compact grid
/// holds levels `0..UNPROGRAMMED`.
const UNPROGRAMMED: u8 = u8::MAX;

/// An optical crossbar of binary oPCM devices.
///
/// # Examples
///
/// ```
/// use eb_photonics::{OpticalCrossbar, OpcmParams, Transmitter, Receiver};
/// use eb_bitnn::{BitMatrix, BitVec};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut xbar = OpticalCrossbar::new(4, 2, OpcmParams::ideal_binary());
/// xbar.program_matrix(&BitMatrix::from_fn(4, 2, |r, _| r % 2 == 0), &mut rng)?;
/// let tx = Transmitter::with_capacity(4);
/// let frame = tx.encode(&[BitVec::ones(4)])?;
/// let counts = xbar.mmm_counts(&frame, &Receiver::ideal(), &mut rng)?;
/// assert_eq!(counts, vec![vec![2, 2]]);
/// # Ok::<(), eb_photonics::PhotonicsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OpticalCrossbar {
    rows: usize,
    cols: usize,
    params: OpcmParams,
    /// Row-major transmission of every cell — the read snapshot itself.
    /// Unprogrammed cells hold `t_high`: pristine GST is amorphous
    /// (transparent).
    transmissions: Vec<f64>,
    /// Row-major programmed level, [`UNPROGRAMMED`] where none.
    levels: Vec<u8>,
    /// One past the last column holding a programmed cell: every column
    /// from here on reads `t_high` in every row.
    used_cols: usize,
    writes: u64,
}

/// The compact form of a device level.
///
/// # Errors
///
/// Returns [`PhotonicsError::InvalidLevel`] when `level` is at or past
/// `params.levels` or does not fit the compact grid.
fn compact_level(level: usize, params: &OpcmParams) -> Result<u8, PhotonicsError> {
    let levels = params.levels.min(usize::from(UNPROGRAMMED));
    if level >= levels {
        return Err(PhotonicsError::InvalidLevel { level, levels });
    }
    Ok(level as u8)
}

impl OpticalCrossbar {
    /// Creates an unprogrammed optical crossbar.
    pub fn new(rows: usize, cols: usize, params: OpcmParams) -> Self {
        Self {
            rows,
            cols,
            transmissions: vec![params.t_high; rows * cols],
            levels: vec![UNPROGRAMMED; rows * cols],
            used_cols: 0,
            params,
            writes: 0,
        }
    }

    /// Approximate resident bytes of this crossbar (struct plus the
    /// device grid) — the memory-accounting surface for shared-weight
    /// replica telemetry.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.transmissions.capacity() * std::mem::size_of::<f64>()
            + self.levels.capacity()
    }

    /// Rows (input waveguides).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns (output waveguides).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Device parameters.
    pub fn params(&self) -> &OpcmParams {
        &self.params
    }

    /// Total device writes (endurance accounting).
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// The device at `(r, c)`, or `None` if unprogrammed or out of range.
    pub fn device(&self, r: usize, c: usize) -> Option<OpcmDevice> {
        if r >= self.rows || c >= self.cols {
            return None;
        }
        let i = self.idx(r, c);
        (self.levels[i] != UNPROGRAMMED)
            .then(|| OpcmDevice::from_parts(self.levels[i].into(), self.transmissions[i]))
    }

    /// Rebuilds a crossbar from serialized state: the exact device grid
    /// (row-major, `None` for unprogrammed cells) and write counter a
    /// previously programmed crossbar held. Restoring is not a re-program
    /// — no RNG draws happen and no writes are counted.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::DimensionMismatch`] when the grid length
    /// differs from `rows * cols`, and [`PhotonicsError::InvalidLevel`]
    /// when a device's level is at or past `params.levels` or does not
    /// fit the compact grid.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        params: OpcmParams,
        devices: Vec<Option<OpcmDevice>>,
        writes: u64,
    ) -> Result<Self, PhotonicsError> {
        if devices.len() != rows * cols {
            return Err(PhotonicsError::DimensionMismatch {
                what: "restored device grid",
                expected: rows * cols,
                got: devices.len(),
            });
        }
        let mut xbar = Self::new(rows, cols, params);
        xbar.writes = writes;
        for (i, d) in devices.iter().enumerate() {
            if let Some(d) = d {
                let level = compact_level(d.level(), &xbar.params)?;
                xbar.store(i, level, d.transmission());
            }
        }
        Ok(xbar)
    }

    fn idx(&self, r: usize, c: usize) -> usize {
        r * self.cols + c
    }

    /// Writes one cell of the grid (`i` row-major) and widens the
    /// programmed-column extent to cover it.
    fn store(&mut self, i: usize, level: u8, transmission: f64) {
        self.levels[i] = level;
        self.transmissions[i] = transmission;
        self.used_cols = self.used_cols.max(i % self.cols + 1);
    }

    /// Programs one device to a binary state.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::OutOfBounds`] outside the array and
    /// [`PhotonicsError::InvalidLevel`] when the device's levels do not
    /// fit the compact grid.
    pub fn program_bit(
        &mut self,
        r: usize,
        c: usize,
        bit: bool,
        rng: &mut impl Rng,
    ) -> Result<(), PhotonicsError> {
        if r >= self.rows || c >= self.cols {
            return Err(PhotonicsError::OutOfBounds {
                row: r,
                col: c,
                rows: self.rows,
                cols: self.cols,
            });
        }
        let d = OpcmDevice::program_bit(bit, &self.params, rng);
        let level = compact_level(d.level(), &self.params)?;
        self.store(self.idx(r, c), level, d.transmission());
        self.writes += 1;
        Ok(())
    }

    /// Programs a bit matrix anchored at the origin.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::OutOfBounds`] if the matrix exceeds the
    /// array.
    pub fn program_matrix(
        &mut self,
        bits: &BitMatrix,
        rng: &mut impl Rng,
    ) -> Result<(), PhotonicsError> {
        if bits.rows() > self.rows || bits.cols() > self.cols {
            return Err(PhotonicsError::OutOfBounds {
                row: bits.rows(),
                col: bits.cols(),
                rows: self.rows,
                cols: self.cols,
            });
        }
        for r in 0..bits.rows() {
            for c in 0..bits.cols() {
                self.program_bit(r, c, bits.get(r, c) == Some(true), rng)?;
            }
        }
        Ok(())
    }

    /// Stored bit of a device (`None` if unprogrammed or out of range).
    pub fn stored_bit(&self, r: usize, c: usize) -> Option<bool> {
        if r >= self.rows || c >= self.cols {
            return None;
        }
        let level = self.levels[self.idx(r, c)];
        (level != UNPROGRAMMED).then_some(level > 0)
    }

    /// One WDM MMM step: all wavelengths of `frame` traverse the crossbar
    /// simultaneously; returns `counts[k][c]` = recovered AND-accumulation
    /// of input `k` against column `c`.
    ///
    /// The readout is offset-calibrated: the controller knows each input's
    /// popcount, so the `t_low` leakage of crystalline devices is
    /// subtracted before rounding (see DESIGN.md).
    ///
    /// Every column power is the sum of `p_r · T_rc` in row order from
    /// `-0.0`, exactly as `Iterator::sum` over the rows would add it, and
    /// the receiver resolves lanes then columns, so counts and noise
    /// draws are bit-identical to a per-cell walk. Columns past the last
    /// programmed one read `t_high` in every row and share one running
    /// sum per lane (and, on a noiseless receiver, one count).
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::DimensionMismatch`] if the frame row count
    /// differs from the crossbar rows.
    pub fn mmm_counts(
        &self,
        frame: &WdmFrame,
        receiver: &Receiver,
        rng: &mut impl Rng,
    ) -> Result<Vec<Vec<u32>>, PhotonicsError> {
        if frame.rows() != self.rows {
            return Err(PhotonicsError::DimensionMismatch {
                what: "WDM frame rows",
                expected: self.rows,
                got: frame.rows(),
            });
        }
        let lanes = frame.powers();
        let used = self.used_cols;
        let t_high = self.params.t_high;
        // Lane-major powers of the programmed columns, plus one shared
        // power per lane for the all-`t_high` columns past them.
        let mut powers = vec![-0.0f64; lanes.len() * used];
        let mut tail = vec![-0.0f64; lanes.len()];
        for r in 0..self.rows {
            let t_row = &self.transmissions[r * self.cols..r * self.cols + used];
            for (k, row_powers) in lanes.iter().enumerate() {
                let p = row_powers[r];
                for (acc, &t) in powers[k * used..(k + 1) * used].iter_mut().zip(t_row) {
                    *acc += p * t;
                }
                tail[k] += p * t_high;
            }
        }
        let p_on = frame.on_power_mw();
        let unit_v = receiver.tia.gain_ohm
            * receiver.detector.responsivity
            * (p_on * 1e-3)
            * (self.params.t_high - self.params.t_low);
        // The known offsets: dark current and the t_low leakage of the
        // input's active rows.
        let v_dark = receiver.tia.gain_ohm * receiver.detector.dark_current_a;
        let mut out = Vec::with_capacity(lanes.len());
        for k in 0..lanes.len() {
            let v_leak = receiver.tia.gain_ohm
                * receiver.detector.responsivity
                * (p_on * 1e-3)
                * self.params.t_low
                * frame.active_rows(k) as f64;
            let mut resolve = |power_mw: f64| {
                let v = receiver.receive_mw(power_mw, rng);
                let count = ((v - v_dark - v_leak) / unit_v).round();
                count.clamp(0.0, self.rows as f64) as u32
            };
            let mut counts: Vec<u32> = powers[k * used..(k + 1) * used]
                .iter()
                .map(|&p| resolve(p))
                .collect();
            if receiver.noiseless {
                counts.resize(self.cols, resolve(tail[k]));
            } else {
                counts.extend((used..self.cols).map(|_| resolve(tail[k])));
            }
            out.push(counts);
        }
        Ok(out)
    }

    /// The per-cell read [`Self::mmm_counts`] replaces, kept verbatim as
    /// its oracle: counts and noise draws must match it bit for bit.
    #[cfg(test)]
    fn mmm_counts_reference(
        &self,
        frame: &WdmFrame,
        receiver: &Receiver,
        rng: &mut impl Rng,
    ) -> Result<Vec<Vec<u32>>, PhotonicsError> {
        if frame.rows() != self.rows {
            return Err(PhotonicsError::DimensionMismatch {
                what: "WDM frame rows",
                expected: self.rows,
                got: frame.rows(),
            });
        }
        let transmission = |r: usize, c: usize| match self.device(r, c) {
            Some(d) => d.transmission(),
            // Pristine GST is amorphous (transparent).
            None => self.params.t_high,
        };
        let p_on = frame.on_power_mw();
        let unit_v = receiver.tia.gain_ohm
            * receiver.detector.responsivity
            * (p_on * 1e-3)
            * (self.params.t_high - self.params.t_low);
        let mut out = Vec::with_capacity(frame.wavelengths());
        for (k, row_powers) in frame.powers().iter().enumerate() {
            let mut counts = Vec::with_capacity(self.cols);
            for c in 0..self.cols {
                let power_mw: f64 = (0..self.rows)
                    .map(|r| row_powers[r] * transmission(r, c))
                    .sum();
                let v = receiver.receive_mw(power_mw, rng);
                // Subtract the known offsets: dark current and the t_low
                // leakage of the input's active rows.
                let v_dark = receiver.tia.gain_ohm * receiver.detector.dark_current_a;
                let v_leak = receiver.tia.gain_ohm
                    * receiver.detector.responsivity
                    * (p_on * 1e-3)
                    * self.params.t_low
                    * frame.active_rows(k) as f64;
                let count = ((v - v_dark - v_leak) / unit_v).round();
                counts.push(count.clamp(0.0, self.rows as f64) as u32);
            }
            out.push(counts);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transmitter::Transmitter;
    use eb_bitnn::{ops, BitVec};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(8)
    }

    #[test]
    fn single_wavelength_vmm_matches_and_accumulate() {
        let mut r = rng();
        let bits = BitMatrix::from_fn(8, 3, |a, b| (a * 3 + b) % 4 != 1);
        let mut xbar = OpticalCrossbar::new(8, 3, OpcmParams::ideal_binary());
        xbar.program_matrix(&bits, &mut r).unwrap();
        let tx = Transmitter::with_capacity(4);
        let v = BitVec::from_bools(&[true, false, true, true, false, false, true, true]);
        let frame = tx.encode(std::slice::from_ref(&v)).unwrap();
        let counts = xbar.mmm_counts(&frame, &Receiver::ideal(), &mut r).unwrap();
        for c in 0..3 {
            assert_eq!(counts[0][c], v.and(&bits.col(c)).popcount(), "col {c}");
        }
    }

    #[test]
    fn wdm_mmm_equals_stacked_vmms() {
        // The core WDM claim (Fig. 5): K vectors in one step produce the
        // same counts as K sequential single-vector steps.
        let mut r = rng();
        let bits = BitMatrix::from_fn(16, 5, |a, b| (a + 7 * b) % 3 == 0);
        let mut xbar = OpticalCrossbar::new(16, 5, OpcmParams::ideal_binary());
        xbar.program_matrix(&bits, &mut r).unwrap();
        let tx = Transmitter::with_capacity(4);
        let vs: Vec<BitVec> = (0..4)
            .map(|k| {
                BitVec::from_bools(&(0..16).map(|i| (i * (k + 2)) % 5 < 2).collect::<Vec<_>>())
            })
            .collect();
        let frame = tx.encode(&vs).unwrap();
        let mmm = xbar.mmm_counts(&frame, &Receiver::ideal(), &mut r).unwrap();
        for (k, v) in vs.iter().enumerate() {
            let single = tx.encode(std::slice::from_ref(v)).unwrap();
            let vmm = xbar
                .mmm_counts(&single, &Receiver::ideal(), &mut r)
                .unwrap();
            assert_eq!(mmm[k], vmm[0], "wavelength {k}");
        }
    }

    #[test]
    fn tacitmap_on_opcm_recovers_xnor_popcount() {
        // Full stack: TacitMap column layout + WDM input = Fig. 5-(b).
        let mut r = rng();
        let w = BitVec::from_bools(&[true, false, false, true, true]);
        let column = w.concat(&w.complement());
        let bits = BitMatrix::from_fn(10, 1, |row, _| column.get(row) == Some(true));
        let mut xbar = OpticalCrossbar::new(10, 1, OpcmParams::ideal_binary());
        xbar.program_matrix(&bits, &mut r).unwrap();
        let tx = Transmitter::with_capacity(8);
        let inputs: Vec<BitVec> = (0..3)
            .map(|k| {
                BitVec::from_bools(&(0..5).map(|i| (i + k) % 2 == 0).collect::<Vec<_>>())
                    .with_complement()
            })
            .collect();
        let frame = tx.encode(&inputs).unwrap();
        let counts = xbar.mmm_counts(&frame, &Receiver::ideal(), &mut r).unwrap();
        for (k, _) in inputs.iter().enumerate() {
            let v = BitVec::from_bools(&(0..5).map(|i| (i + k) % 2 == 0).collect::<Vec<_>>());
            assert_eq!(counts[k][0], ops::xnor_popcount(&v, &w), "input {k}");
        }
    }

    #[test]
    fn full_size_column_reads_exactly() {
        // 256 rows (128-bit chunks + complement) must still read exactly
        // under the high-extinction defaults.
        let mut r = rng();
        let w = BitVec::from_bools(&(0..128).map(|i| i % 3 == 0).collect::<Vec<_>>());
        let column = w.concat(&w.complement());
        let bits = BitMatrix::from_fn(256, 1, |row, _| column.get(row) == Some(true));
        let mut xbar = OpticalCrossbar::new(256, 1, OpcmParams::ideal_binary());
        xbar.program_matrix(&bits, &mut r).unwrap();
        let tx = Transmitter::with_capacity(16);
        let v = BitVec::from_bools(&(0..128).map(|i| i % 2 == 0).collect::<Vec<_>>());
        let frame = tx.encode(&[v.with_complement()]).unwrap();
        let counts = xbar.mmm_counts(&frame, &Receiver::ideal(), &mut r).unwrap();
        assert_eq!(counts[0][0], ops::xnor_popcount(&v, &w));
    }

    #[test]
    fn dimension_and_bounds_errors() {
        let mut r = rng();
        let mut xbar = OpticalCrossbar::new(4, 2, OpcmParams::ideal_binary());
        assert!(xbar.program_bit(4, 0, true, &mut r).is_err());
        let tx = Transmitter::with_capacity(2);
        let frame = tx.encode(&[BitVec::ones(3)]).unwrap();
        assert!(matches!(
            xbar.mmm_counts(&frame, &Receiver::ideal(), &mut r),
            Err(PhotonicsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn noisy_receiver_stays_close() {
        let mut r = rng();
        let bits = BitMatrix::from_fn(32, 1, |a, _| a % 2 == 0);
        let mut xbar = OpticalCrossbar::new(32, 1, OpcmParams::ideal_binary());
        xbar.program_matrix(&bits, &mut r).unwrap();
        let tx = Transmitter::with_capacity(2);
        let frame = tx.encode(&[BitVec::ones(32)]).unwrap();
        let noisy = xbar.mmm_counts(&frame, &Receiver::noisy(), &mut r).unwrap();
        assert!(
            (i64::from(noisy[0][0]) - 16).abs() <= 3,
            "count {}",
            noisy[0][0]
        );
    }

    #[test]
    fn program_bit_rejects_levels_past_the_compact_grid() {
        let mut r = rng();
        let mut wide = OpticalCrossbar::new(1, 2, OpcmParams::with_levels(300, 0.0));
        wide.program_bit(0, 0, false, &mut r).unwrap();
        assert!(matches!(
            wide.program_bit(0, 1, true, &mut r),
            Err(PhotonicsError::InvalidLevel { level: 299, .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The dense-grid kernel against the per-cell oracle: equal
        /// counts and an equal RNG end state (same noise draws, same
        /// order) over partially programmed crossbars, programming
        /// noise on and off, every lane count, both receivers.
        #[test]
        fn mmm_counts_match_reference(
            rows in 1usize..40,
            cols in 1usize..40,
            lanes in 1usize..=16,
            noisy_write in any::<bool>(),
            noisy_read in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut r = StdRng::seed_from_u64(seed);
            let sigma = if noisy_write { 0.05 } else { 0.0 };
            let mut xbar = OpticalCrossbar::new(rows, cols, OpcmParams::with_levels(2, sigma));
            // Program a random sub-rectangle, skipping some cells, so
            // unprogrammed rows, columns and holes all occur.
            let (prog_rows, prog_cols) = (r.gen_range(0..=rows), r.gen_range(0..=cols));
            for row in 0..prog_rows {
                for col in 0..prog_cols {
                    if r.gen_bool(0.8) {
                        let bit = r.gen::<bool>();
                        xbar.program_bit(row, col, bit, &mut r).unwrap();
                    }
                }
            }
            let inputs: Vec<BitVec> = (0..lanes)
                .map(|_| BitVec::from_bools(&(0..rows).map(|_| r.gen::<bool>()).collect::<Vec<_>>()))
                .collect();
            let frame = Transmitter::with_capacity(16).encode(&inputs).unwrap();
            let receiver = if noisy_read { Receiver::noisy() } else { Receiver::ideal() };
            let (mut fast_rng, mut ref_rng) = (r.clone(), r);
            let fast = xbar.mmm_counts(&frame, &receiver, &mut fast_rng).unwrap();
            let reference = xbar.mmm_counts_reference(&frame, &receiver, &mut ref_rng).unwrap();
            prop_assert_eq!(fast, reference);
            prop_assert_eq!(fast_rng.gen::<u64>(), ref_rng.gen::<u64>());
        }
    }
}
