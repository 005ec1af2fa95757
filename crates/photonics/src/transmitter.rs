//! The EinsteinBarrier transmitter (paper Fig. 6): a CW laser pumps a
//! microresonator frequency comb; a DMUX feeds each comb line to a
//! variable optical attenuator (VOA) that amplitude-encodes one input
//! vector element; a MUX recombines all wavelengths onto the crossbar
//! input waveguides.
//!
//! [`Transmitter::encode`] turns up to `K` binary input vectors into a
//! [`WdmFrame`]: per-wavelength, per-row optical powers.

use crate::error::PhotonicsError;
use crate::wavelength::WdmGrid;
use eb_bitnn::BitVec;

/// A continuous-wave pump laser.
#[derive(Debug, Clone, PartialEq)]
pub struct Laser {
    /// Optical output power in milliwatts.
    pub power_mw: f64,
    /// Pump wavelength in nanometres.
    pub wavelength_nm: f64,
}

impl Laser {
    /// A 10 mW C-band pump (paper-class assumption).
    pub fn default_pump() -> Self {
        Self {
            power_mw: 10.0,
            wavelength_nm: 1550.0,
        }
    }
}

/// A microresonator-based Kerr frequency comb exciting `lines` new
/// wavelengths from the pump (paper Fig. 6 component 2).
#[derive(Debug, Clone, PartialEq)]
pub struct MicroresonatorComb {
    /// Number of comb lines generated (≥ the WDM capacity used).
    pub lines: usize,
    /// Pump-to-comb conversion efficiency in `(0, 1]`.
    pub conversion_efficiency: f64,
}

impl MicroresonatorComb {
    /// A comb with `lines` lines at 30% conversion efficiency.
    pub fn new(lines: usize) -> Self {
        Self {
            lines,
            conversion_efficiency: 0.3,
        }
    }

    /// Optical power per comb line for a given pump, in milliwatts.
    pub fn line_power_mw(&self, laser: &Laser) -> f64 {
        laser.power_mw * self.conversion_efficiency / self.lines as f64
    }
}

/// A variable optical attenuator encoding one bit by amplitude
/// (paper Fig. 6 component 4).
#[derive(Debug, Clone, PartialEq)]
pub struct Voa {
    /// Insertion loss when passing (dB).
    pub insertion_loss_db: f64,
    /// Extinction when blocking (dB) — bit 0 leaks `10^(-ext/10)`.
    pub extinction_db: f64,
}

impl Voa {
    /// A high-extinction VOA (40 dB) with 1 dB insertion loss, enough for
    /// exact binary readout on 256-row crossbars.
    pub fn high_extinction() -> Self {
        Self {
            insertion_loss_db: 1.0,
            extinction_db: 40.0,
        }
    }

    /// Output power for an input power and bit.
    pub fn encode_mw(&self, input_mw: f64, bit: bool) -> f64 {
        let pass = input_mw * 10f64.powf(-self.insertion_loss_db / 10.0);
        if bit {
            pass
        } else {
            pass * 10f64.powf(-self.extinction_db / 10.0)
        }
    }
}

/// A (de)multiplexer with per-pass insertion loss (paper Fig. 6
/// component 3). Used twice: DMUX before the VOAs, MUX after.
#[derive(Debug, Clone, PartialEq)]
pub struct MuxDemux {
    /// Insertion loss per traversal (dB).
    pub insertion_loss_db: f64,
}

impl MuxDemux {
    /// A 0.5 dB arrayed-waveguide-grating-class device.
    pub fn awg() -> Self {
        Self {
            insertion_loss_db: 0.5,
        }
    }

    /// Power after one traversal.
    pub fn pass_mw(&self, input_mw: f64) -> f64 {
        input_mw * 10f64.powf(-self.insertion_loss_db / 10.0)
    }
}

/// One WDM-encoded input frame: `power_mw[k][r]` is the optical power of
/// wavelength `k` on crossbar row `r`.
#[derive(Debug, Clone, PartialEq)]
pub struct WdmFrame {
    powers: Vec<Vec<f64>>,
    on_power_mw: f64,
    /// Number of bit-1 rows per wavelength (used for offset-calibrated
    /// readout in the receiver).
    active_rows: Vec<usize>,
}

impl WdmFrame {
    /// Per-wavelength, per-row powers (mW).
    pub fn powers(&self) -> &[Vec<f64>] {
        &self.powers
    }

    /// Number of wavelengths carried.
    pub fn wavelengths(&self) -> usize {
        self.powers.len()
    }

    /// Rows driven per wavelength.
    pub fn rows(&self) -> usize {
        self.powers.first().map_or(0, Vec::len)
    }

    /// Nominal on-state power (mW) after all transmitter losses.
    pub fn on_power_mw(&self) -> f64 {
        self.on_power_mw
    }

    /// Bit-1 row count for wavelength `k`.
    pub fn active_rows(&self, k: usize) -> usize {
        self.active_rows[k]
    }
}

/// The full transmitter chain.
#[derive(Debug, Clone, PartialEq)]
pub struct Transmitter {
    /// Pump laser.
    pub laser: Laser,
    /// Frequency comb.
    pub comb: MicroresonatorComb,
    /// Channel grid (defines the WDM capacity `K`).
    pub grid: WdmGrid,
    /// Demultiplexer feeding the VOAs.
    pub dmux: MuxDemux,
    /// Per-channel encoder.
    pub voa: Voa,
    /// Multiplexer recombining channels.
    pub mux: MuxDemux,
}

impl Transmitter {
    /// A paper-default transmitter with WDM capacity `k`.
    pub fn with_capacity(k: usize) -> Self {
        Self {
            laser: Laser::default_pump(),
            comb: MicroresonatorComb::new(k),
            grid: WdmGrid::c_band(k),
            dmux: MuxDemux::awg(),
            voa: Voa::high_extinction(),
            mux: MuxDemux::awg(),
        }
    }

    /// WDM capacity `K`.
    pub fn capacity(&self) -> usize {
        self.grid.channels
    }

    /// On-state row power after comb, DMUX, VOA and MUX losses (mW).
    pub fn on_power_mw(&self) -> f64 {
        let line = self.comb.line_power_mw(&self.laser);
        self.mux
            .pass_mw(self.voa.encode_mw(self.dmux.pass_mw(line), true))
    }

    /// Encodes up to `K` equal-length binary vectors into a WDM frame.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::WdmOverCapacity`] when more than `K`
    /// vectors are supplied and [`PhotonicsError::DimensionMismatch`] when
    /// the vectors have unequal lengths.
    pub fn encode(&self, vectors: &[BitVec]) -> Result<WdmFrame, PhotonicsError> {
        if vectors.len() > self.capacity() {
            return Err(PhotonicsError::WdmOverCapacity {
                requested: vectors.len(),
                capacity: self.capacity(),
            });
        }
        let rows = vectors.first().map_or(0, BitVec::len);
        let line = self.comb.line_power_mw(&self.laser);
        let [off, on] = [false, true].map(|bit| {
            self.mux
                .pass_mw(self.voa.encode_mw(self.dmux.pass_mw(line), bit))
        });
        let mut powers = Vec::with_capacity(vectors.len());
        let mut active = Vec::with_capacity(vectors.len());
        for v in vectors {
            if v.len() != rows {
                return Err(PhotonicsError::DimensionMismatch {
                    what: "input vector",
                    expected: rows,
                    got: v.len(),
                });
            }
            let row_powers: Vec<f64> = v.iter().map(|bit| if bit { on } else { off }).collect();
            active.push(v.popcount() as usize);
            powers.push(row_powers);
        }
        Ok(WdmFrame {
            powers,
            on_power_mw: on,
            active_rows: active,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voa_extinction_suppresses_zero_bits() {
        let v = Voa::high_extinction();
        let on = v.encode_mw(1.0, true);
        let off = v.encode_mw(1.0, false);
        assert!(on / off > 9000.0, "extinction ratio {}", on / off);
    }

    #[test]
    fn comb_splits_pump_power() {
        let laser = Laser::default_pump();
        let comb = MicroresonatorComb::new(16);
        let line = comb.line_power_mw(&laser);
        assert!((line - 10.0 * 0.3 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn encode_maps_bits_to_powers() {
        let tx = Transmitter::with_capacity(4);
        let v = BitVec::from_bools(&[true, false, true]);
        let frame = tx.encode(std::slice::from_ref(&v)).unwrap();
        assert_eq!(frame.wavelengths(), 1);
        assert_eq!(frame.rows(), 3);
        let p = &frame.powers()[0];
        assert!(p[0] > 1000.0 * p[1]);
        assert!((p[0] - frame.on_power_mw()).abs() < 1e-12);
        assert_eq!(frame.active_rows(0), 2);
    }

    #[test]
    fn encode_rejects_over_capacity() {
        let tx = Transmitter::with_capacity(2);
        let vs = vec![BitVec::ones(4), BitVec::ones(4), BitVec::ones(4)];
        assert!(matches!(
            tx.encode(&vs),
            Err(PhotonicsError::WdmOverCapacity { .. })
        ));
    }

    #[test]
    fn encode_rejects_ragged_vectors() {
        let tx = Transmitter::with_capacity(2);
        let vs = vec![BitVec::ones(4), BitVec::ones(5)];
        assert!(matches!(
            tx.encode(&vs),
            Err(PhotonicsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn losses_compound_through_chain() {
        let tx = Transmitter::with_capacity(8);
        let line = tx.comb.line_power_mw(&tx.laser);
        // 0.5 dB + 1 dB + 0.5 dB = 2 dB total insertion loss.
        let expect = line * 10f64.powf(-2.0 / 10.0);
        assert!((tx.on_power_mw() - expect).abs() < 1e-12);
    }
}
