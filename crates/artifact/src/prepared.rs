//! The prepared-state section: a snapshot of the programmed substrate a
//! backend's `prepare()` produces, so deploy-from-file can skip crossbar
//! programming (and its RNG draws and write-count wear). What depends only
//! on the network and the design — a simulator's instruction stream — is
//! not stored; restore derives it again from the model section.
//!
//! Restoring is *not* a re-program: device conductances, transmission
//! levels, write counters, execution counters, and the post-programming
//! RNG position are all reloaded verbatim, so a restored session's noisy
//! output stream is bit-identical to the in-memory session the snapshot
//! was taken from.
//!
//! The section also records the [`PreparedMeta`] the state was captured
//! under (backend, seed, noise profile, drift, fault profile). Loaders
//! must compare it against the requested session options and reject
//! conflicts — silently serving stale noise configuration is the exact
//! failure mode the runtime's no-silent-fallback rule exists to prevent.

use crate::error::ArtifactError;
use crate::wire::{ByteReader, ByteWriter};
use eb_core::{ChipConfig, Design, DesignKind, MappedVcore, OpticalTacitMapped};
use eb_mapping::TacitMapped;
use eb_photonics::{OpcmDevice, OpcmParams, OpticalCrossbar, Photodetector, Receiver, Tia};
use eb_xbar::{
    CellKind, CrossbarArray, DeviceParams, EpcmDevice, FaultConfig, VmmEngine, XbarConfig,
    XbarEnergies, XbarTimings,
};

const BACKEND_EPCM: u8 = 1;
const BACKEND_PHOTONIC: u8 = 2;
/// The retired simulator layout, which stored the whole compiled network
/// (program, tables, placements) rather than just its programmed vcores.
const BACKEND_SIMULATOR_COMPILED: u8 = 3;
/// The retired simulator layout, which stored the vcores the compiler
/// programmed from one session-seeded RNG plus that RNG's state.
const BACKEND_SIMULATOR_VCORES: u8 = 4;
const BACKEND_SIMULATOR: u8 = 5;

/// Which backend captured a prepared-state section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreparedBackend {
    /// Electronic TacitMap-ePCM crossbars (`BackendKind::Epcm`).
    Epcm,
    /// Optical oPCM crossbars with WDM (`BackendKind::Photonic`).
    Photonic,
    /// The full-chip EinsteinBarrier simulator (`BackendKind::Simulator`).
    Simulator,
}

impl PreparedBackend {
    /// The runtime backend name this state belongs to.
    pub fn name(self) -> &'static str {
        match self {
            Self::Epcm => "epcm",
            Self::Photonic => "photonic",
            Self::Simulator => "simulator",
        }
    }
}

/// The session configuration a prepared-state snapshot was captured
/// under. Loaders must verify it against the requested options.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedMeta {
    /// Capturing backend.
    pub backend: PreparedBackend,
    /// Base noise seed the state was programmed with.
    pub seed: u64,
    /// Whether the noisy device profile was active.
    pub noisy: bool,
    /// Drift read-time ratio applied at capture, if any.
    pub drift_t_ratio: Option<f64>,
    /// Fault profile applied at capture, if any.
    pub fault: Option<FaultConfig>,
}

/// One programmed matrix layer of a crossbar session: its crossbars plus
/// the owning session's RNG position and WDM-lane counter.
#[derive(Debug)]
pub struct PreparedMat {
    /// The programmed crossbars: electronic under
    /// [`PreparedState::Epcm`], optical under [`PreparedState::Photonic`],
    /// and the design's substrate under [`PreparedState::Simulator`].
    pub vcore: MappedVcore,
    /// RNG state for subsequent device/receiver draws.
    pub rng_state: [u64; 4],
    /// WDM lanes carried so far (0 on electronic crossbars, whose
    /// encoding stores no lane count).
    pub lanes: u64,
}

/// The design parameters a simulator snapshot was compiled for — enough
/// to refuse restoring onto a differently-configured simulator without
/// serializing the full cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignFingerprint {
    /// Design kind.
    pub kind: DesignKind,
    /// Chip topology.
    pub chip: ChipConfig,
    /// Crossbar geometry/periphery.
    pub xbar: XbarConfig,
    /// WDM capacity.
    pub wdm_capacity: usize,
}

impl DesignFingerprint {
    /// Captures the restore-relevant parameters of a design.
    pub fn of(design: &Design) -> Self {
        Self {
            kind: design.kind,
            chip: design.chip.clone(),
            xbar: design.xbar.clone(),
            wdm_capacity: design.wdm_capacity,
        }
    }

    /// Whether the design computes on optical crossbars — EinsteinBarrier,
    /// the design kind `eb_core::compile` maps onto WDM lanes — which
    /// decides the substrate of a simulator snapshot's layers.
    fn optical(&self) -> bool {
        self.kind == DesignKind::EinsteinBarrier
    }

    /// Whether a design matches this fingerprint.
    pub fn matches(&self, design: &Design) -> bool {
        self.kind == design.kind
            && self.chip == design.chip
            && self.xbar == design.xbar
            && self.wdm_capacity == design.wdm_capacity
    }
}

/// The backend-specific programmed state.
#[derive(Debug)]
pub enum PreparedState {
    /// One electronic matrix layer per matrix layer of the network.
    Epcm(Vec<PreparedMat>),
    /// One optical matrix layer per matrix layer of the network.
    Photonic(Vec<PreparedMat>),
    /// One matrix layer per matrix layer of the network, on the
    /// simulated design's substrate, plus the design it was programmed
    /// for. The compiled program the simulator charges is derived again
    /// from the artifact's model section on restore.
    Simulator {
        /// Design the layers were programmed for.
        fingerprint: Box<DesignFingerprint>,
        /// One matrix layer per matrix layer of the network.
        mats: Vec<PreparedMat>,
    },
}

impl PreparedState {
    /// The backend this state restores onto.
    pub fn backend(&self) -> PreparedBackend {
        match self {
            Self::Epcm(_) => PreparedBackend::Epcm,
            Self::Photonic(_) => PreparedBackend::Photonic,
            Self::Simulator { .. } => PreparedBackend::Simulator,
        }
    }
}

/// A complete prepared-state snapshot: capture metadata plus state.
#[derive(Debug)]
pub struct Prepared {
    /// Capture-time session configuration.
    pub meta: PreparedMeta,
    /// The programmed state itself.
    pub state: PreparedState,
}

// ---------------------------------------------------------------------
// Leaf codecs
// ---------------------------------------------------------------------

fn put_opt_f64(w: &mut ByteWriter, v: Option<f64>) {
    match v {
        None => w.put_u8(0),
        Some(x) => {
            w.put_u8(1);
            w.put_f64(x);
        }
    }
}

fn get_opt_f64(r: &mut ByteReader<'_>) -> Result<Option<f64>, ArtifactError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.f64()?)),
        tag => Err(ArtifactError::malformed(format!("option tag {tag}"))),
    }
}

fn put_fault(w: &mut ByteWriter, fault: Option<&FaultConfig>) {
    match fault {
        None => w.put_u8(0),
        Some(f) => {
            w.put_u8(1);
            w.put_f64(f.stuck_on);
            w.put_f64(f.stuck_off);
            w.put_f64(f.dead);
            w.put_u64(f.seed);
        }
    }
}

fn get_fault(r: &mut ByteReader<'_>) -> Result<Option<FaultConfig>, ArtifactError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(FaultConfig {
            stuck_on: r.f64()?,
            stuck_off: r.f64()?,
            dead: r.f64()?,
            seed: r.u64()?,
        })),
        tag => Err(ArtifactError::malformed(format!("fault tag {tag}"))),
    }
}

fn put_device_params(w: &mut ByteWriter, p: &DeviceParams) {
    w.put_f64(p.g_on);
    w.put_f64(p.g_off);
    w.put_f64(p.program_sigma);
    w.put_f64(p.read_sigma);
    w.put_f64(p.drift_nu);
}

fn get_device_params(r: &mut ByteReader<'_>) -> Result<DeviceParams, ArtifactError> {
    Ok(DeviceParams {
        g_on: r.f64()?,
        g_off: r.f64()?,
        program_sigma: r.f64()?,
        read_sigma: r.f64()?,
        drift_nu: r.f64()?,
    })
}

pub(crate) fn put_xbar_config(w: &mut ByteWriter, cfg: &XbarConfig) {
    w.put_usize(cfg.rows);
    w.put_usize(cfg.cols);
    w.put_u8(match cfg.cell {
        CellKind::OneT1R => 0,
        CellKind::TwoT2R => 1,
    });
    w.put_f64(cfg.v_read);
    w.put_u8(cfg.adc_bits);
    w.put_usize(cfg.n_adcs);
    put_device_params(w, &cfg.device);
    put_fault(w, cfg.fault.as_ref());
    let t = &cfg.timings;
    for v in [
        t.t_settle_ns,
        t.t_adc_ns,
        t.t_dac_ns,
        t.t_pcsa_cycle_ns,
        t.t_popcount_stage_ns,
        t.t_write_ns,
    ] {
        w.put_f64(v);
    }
    let e = &cfg.energies;
    for v in [
        e.e_adc_pj,
        e.e_dac_pj,
        e.e_cell_read_fj,
        e.e_pcsa_fj,
        e.e_popcount_bit_fj,
        e.e_write_pj,
        e.e_row_drive_fj,
    ] {
        w.put_f64(v);
    }
}

pub(crate) fn get_xbar_config(r: &mut ByteReader<'_>) -> Result<XbarConfig, ArtifactError> {
    let rows = r.usize()?;
    let cols = r.usize()?;
    let cell = match r.u8()? {
        0 => CellKind::OneT1R,
        1 => CellKind::TwoT2R,
        tag => return Err(ArtifactError::malformed(format!("cell kind tag {tag}"))),
    };
    let v_read = r.f64()?;
    let adc_bits = r.u8()?;
    let n_adcs = r.usize()?;
    let device = get_device_params(r)?;
    let fault = get_fault(r)?;
    let timings = XbarTimings {
        t_settle_ns: r.f64()?,
        t_adc_ns: r.f64()?,
        t_dac_ns: r.f64()?,
        t_pcsa_cycle_ns: r.f64()?,
        t_popcount_stage_ns: r.f64()?,
        t_write_ns: r.f64()?,
    };
    let energies = XbarEnergies {
        e_adc_pj: r.f64()?,
        e_dac_pj: r.f64()?,
        e_cell_read_fj: r.f64()?,
        e_pcsa_fj: r.f64()?,
        e_popcount_bit_fj: r.f64()?,
        e_write_pj: r.f64()?,
        e_row_drive_fj: r.f64()?,
    };
    Ok(XbarConfig {
        rows,
        cols,
        cell,
        v_read,
        adc_bits,
        n_adcs,
        device,
        fault,
        timings,
        energies,
    })
}

// Cell grids are the bulk of a prepared section (one entry per device
// across every crossbar), so they use a structure-of-arrays layout: the
// full tag run first, then one value record per programmed cell, in
// row-major tag order. Decoding then needs two bounds checks per array
// rather than two per cell — cold-start decode time is the whole point
// of shipping prepared state.

fn put_array(w: &mut ByteWriter, a: &CrossbarArray) {
    w.put_u32(a.rows() as u32);
    w.put_u32(a.cols() as u32);
    put_device_params(w, a.params());
    w.put_u64(a.write_count());
    w.put_f64(a.drift_t_ratio());
    put_fault(w, a.fault_config());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            w.put_u8(match a.device(r, c) {
                None => 0,
                Some(d) => {
                    if d.stored_bit() {
                        2
                    } else {
                        1
                    }
                }
            });
        }
    }
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            if let Some(d) = a.device(r, c) {
                w.put_f64(d.conductance());
            }
        }
    }
}

fn get_array(r: &mut ByteReader<'_>) -> Result<CrossbarArray, ArtifactError> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let params = get_device_params(r)?;
    let writes = r.u64()?;
    let t_ratio = r.f64()?;
    let fault = get_fault(r)?;
    let cells = (rows as u64).saturating_mul(cols as u64);
    let cells = usize::try_from(cells)
        .ok()
        .filter(|&n| n <= r.remaining())
        .ok_or(ArtifactError::Truncated {
            context: "crossbar cells",
        })?;
    let tags = r.bytes(cells)?;
    let mut programmed = 0usize;
    for &tag in tags {
        match tag {
            0 => {}
            1 | 2 => programmed += 1,
            tag => return Err(ArtifactError::malformed(format!("cell tag {tag}"))),
        }
    }
    let mut values = r.bytes(programmed * 8)?.chunks_exact(8);
    let devices = tags
        .iter()
        .map(|&tag| match tag {
            0 => None,
            _ => {
                let g = f64::from_le_bytes(values.next().expect("counted").try_into().expect("8"));
                Some(EpcmDevice::from_parts(tag == 2, g))
            }
        })
        .collect();
    let mut array = CrossbarArray::from_parts(rows, cols, params, devices, writes)
        .map_err(|e| ArtifactError::malformed(format!("crossbar array: {e}")))?;
    array.set_drift_t_ratio(t_ratio);
    array
        .set_fault_config(fault)
        .map_err(|e| ArtifactError::malformed(format!("crossbar fault config: {e}")))?;
    Ok(array)
}

fn put_tacitmapped(w: &mut ByteWriter, m: &TacitMapped) {
    w.put_usize(m.fan_in());
    w.put_usize(m.out_vectors());
    put_xbar_config(w, m.config());
    w.put_u64(m.steps_taken());
    w.put_f64(m.energy_j());
    let grid = m.engines();
    w.put_u32(grid.len() as u32);
    w.put_u32(grid.first().map_or(0, Vec::len) as u32);
    for row in grid {
        for engine in row {
            put_array(w, engine.array());
        }
    }
}

fn get_tacitmapped(r: &mut ByteReader<'_>) -> Result<TacitMapped, ArtifactError> {
    let m = r.usize()?;
    let n = r.usize()?;
    let cfg = get_xbar_config(r)?;
    let executions = r.u64()?;
    let energy_j = r.f64()?;
    let row_chunks = r.u32()? as usize;
    let col_chunks = r.u32()? as usize;
    let arrays = (row_chunks as u64).saturating_mul(col_chunks as u64);
    // Each serialized array is ≥ 49 bytes of fixed header alone.
    if arrays.saturating_mul(49) > r.remaining() as u64 {
        return Err(ArtifactError::Truncated {
            context: "tacitmap engine grid",
        });
    }
    let mut engines = Vec::with_capacity(row_chunks);
    for _ in 0..row_chunks {
        let mut row = Vec::with_capacity(col_chunks);
        for _ in 0..col_chunks {
            row.push(VmmEngine::with_defaults(get_array(r)?));
        }
        engines.push(row);
    }
    TacitMapped::from_parts(engines, m, n, cfg, executions, energy_j)
        .map_err(|e| ArtifactError::malformed(format!("tacitmap mapping: {e}")))
}

fn put_opcm_params(w: &mut ByteWriter, p: &OpcmParams) {
    w.put_f64(p.t_high);
    w.put_f64(p.t_low);
    w.put_usize(p.levels);
    w.put_f64(p.write_sigma);
}

fn get_opcm_params(r: &mut ByteReader<'_>) -> Result<OpcmParams, ArtifactError> {
    Ok(OpcmParams {
        t_high: r.f64()?,
        t_low: r.f64()?,
        levels: r.usize()?,
        write_sigma: r.f64()?,
    })
}

// Same structure-of-arrays layout as electronic arrays: tags first,
// then a 16-byte `(level u64, transmission f64)` record per programmed
// cell in tag order.

fn put_ocrossbar(w: &mut ByteWriter, x: &OpticalCrossbar) {
    w.put_u32(x.rows() as u32);
    w.put_u32(x.cols() as u32);
    put_opcm_params(w, x.params());
    w.put_u64(x.write_count());
    for r in 0..x.rows() {
        for c in 0..x.cols() {
            w.put_u8(u8::from(x.device(r, c).is_some()));
        }
    }
    for r in 0..x.rows() {
        for c in 0..x.cols() {
            if let Some(d) = x.device(r, c) {
                w.put_usize(d.level());
                w.put_f64(d.transmission());
            }
        }
    }
}

fn get_ocrossbar(r: &mut ByteReader<'_>) -> Result<OpticalCrossbar, ArtifactError> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let params = get_opcm_params(r)?;
    let writes = r.u64()?;
    let cells = (rows as u64).saturating_mul(cols as u64);
    let cells = usize::try_from(cells)
        .ok()
        .filter(|&n| n <= r.remaining())
        .ok_or(ArtifactError::Truncated {
            context: "optical crossbar cells",
        })?;
    let tags = r.bytes(cells)?;
    let mut programmed = 0usize;
    for &tag in tags {
        match tag {
            0 => {}
            1 => programmed += 1,
            tag => return Err(ArtifactError::malformed(format!("opcm cell tag {tag}"))),
        }
    }
    let mut values = r.bytes(programmed * 16)?.chunks_exact(16);
    let devices = tags
        .iter()
        .map(|&tag| match tag {
            0 => Ok(None),
            _ => {
                let rec = values.next().expect("counted");
                let level = u64::from_le_bytes(rec[..8].try_into().expect("8"));
                let level = usize::try_from(level).map_err(|_| {
                    ArtifactError::malformed(format!("opcm level {level} exceeds usize"))
                })?;
                let t = f64::from_le_bytes(rec[8..].try_into().expect("8"));
                Ok(Some(OpcmDevice::from_parts(level, t)))
            }
        })
        .collect::<Result<_, ArtifactError>>()?;
    OpticalCrossbar::from_parts(rows, cols, params, devices, writes)
        .map_err(|e| ArtifactError::malformed(format!("optical crossbar: {e}")))
}

fn put_receiver(w: &mut ByteWriter, rx: &Receiver) {
    w.put_f64(rx.detector.responsivity);
    w.put_f64(rx.detector.dark_current_a);
    w.put_f64(rx.tia.gain_ohm);
    w.put_f64(rx.tia.bandwidth_hz);
    w.put_f64(rx.tia.power_mw);
    w.put_f64(rx.tia.temp_k);
    w.put_f64(rx.tia.rin_db_hz);
    w.put_bool(rx.noiseless);
}

fn get_receiver(r: &mut ByteReader<'_>) -> Result<Receiver, ArtifactError> {
    Ok(Receiver {
        detector: Photodetector {
            responsivity: r.f64()?,
            dark_current_a: r.f64()?,
        },
        tia: Tia {
            gain_ohm: r.f64()?,
            bandwidth_hz: r.f64()?,
            power_mw: r.f64()?,
            temp_k: r.f64()?,
            rin_db_hz: r.f64()?,
        },
        noiseless: r.bool()?,
    })
}

fn put_optical(w: &mut ByteWriter, m: &OpticalTacitMapped) {
    w.put_usize(m.fan_in());
    w.put_usize(m.out_vectors());
    let (rows, cols) = m.xbar_shape();
    w.put_usize(rows);
    w.put_usize(cols);
    w.put_usize(m.capacity());
    w.put_u64(m.steps_taken());
    put_receiver(w, m.receiver());
    let grid = m.xbars();
    w.put_u32(grid.len() as u32);
    w.put_u32(grid.first().map_or(0, Vec::len) as u32);
    for row in grid {
        for xbar in row {
            put_ocrossbar(w, xbar);
        }
    }
}

fn get_optical(r: &mut ByteReader<'_>) -> Result<OpticalTacitMapped, ArtifactError> {
    let m = r.usize()?;
    let n = r.usize()?;
    let rows = r.usize()?;
    let cols = r.usize()?;
    let k = r.usize()?;
    let steps = r.u64()?;
    let receiver = get_receiver(r)?;
    let row_chunks = r.u32()? as usize;
    let col_chunks = r.u32()? as usize;
    let xbar_count = (row_chunks as u64).saturating_mul(col_chunks as u64);
    // Each serialized optical crossbar is ≥ 48 bytes of fixed header.
    if xbar_count.saturating_mul(48) > r.remaining() as u64 {
        return Err(ArtifactError::Truncated {
            context: "optical crossbar grid",
        });
    }
    let mut xbars = Vec::with_capacity(row_chunks);
    for _ in 0..row_chunks {
        let mut row = Vec::with_capacity(col_chunks);
        for _ in 0..col_chunks {
            row.push(get_ocrossbar(r)?);
        }
        xbars.push(row);
    }
    OpticalTacitMapped::from_parts(xbars, k, receiver, m, n, rows, cols, steps)
        .map_err(|e| ArtifactError::malformed(format!("optical mapping: {e}")))
}

// ---------------------------------------------------------------------
// Simulator codecs
// ---------------------------------------------------------------------

fn put_fingerprint(w: &mut ByteWriter, fp: &DesignFingerprint) {
    w.put_u8(match fp.kind {
        DesignKind::BaselineEpcm => 0,
        DesignKind::TacitMapEpcm => 1,
        DesignKind::EinsteinBarrier => 2,
    });
    w.put_usize(fp.chip.nodes);
    w.put_usize(fp.chip.tiles_per_node);
    w.put_usize(fp.chip.ecores_per_tile);
    w.put_usize(fp.chip.vcores_per_ecore);
    put_xbar_config(w, &fp.xbar);
    w.put_usize(fp.wdm_capacity);
}

fn get_fingerprint(r: &mut ByteReader<'_>) -> Result<DesignFingerprint, ArtifactError> {
    let kind = match r.u8()? {
        0 => DesignKind::BaselineEpcm,
        1 => DesignKind::TacitMapEpcm,
        2 => DesignKind::EinsteinBarrier,
        tag => return Err(ArtifactError::malformed(format!("design kind tag {tag}"))),
    };
    let chip = ChipConfig {
        nodes: r.usize()?,
        tiles_per_node: r.usize()?,
        ecores_per_tile: r.usize()?,
        vcores_per_ecore: r.usize()?,
    };
    let xbar = get_xbar_config(r)?;
    let wdm_capacity = r.usize()?;
    Ok(DesignFingerprint {
        kind,
        chip,
        xbar,
        wdm_capacity,
    })
}

/// Writes the matrix layers of a session on electronic (`optical =
/// false`) or optical crossbars: per layer the RNG state, then (optical
/// only) the lane count, then the mapping. A layer on the other substrate
/// has no encoding here.
fn put_mats(w: &mut ByteWriter, mats: &[PreparedMat], optical: bool) -> Result<(), ArtifactError> {
    w.put_u32(mats.len() as u32);
    for mat in mats {
        for v in mat.rng_state {
            w.put_u64(v);
        }
        match (&mat.vcore, optical) {
            (MappedVcore::Electronic(m), false) => put_tacitmapped(w, m),
            (MappedVcore::Optical(m), true) => {
                w.put_u64(mat.lanes);
                put_optical(w, m);
            }
            _ => {
                return Err(ArtifactError::malformed(format!(
                    "prepared state for {} crossbars holds a layer on the other substrate",
                    if optical { "optical" } else { "electronic" }
                )))
            }
        }
    }
    Ok(())
}

/// Reads what [`put_mats`] wrote.
fn get_mats(r: &mut ByteReader<'_>, optical: bool) -> Result<Vec<PreparedMat>, ArtifactError> {
    let count = r.count(if optical { 40 } else { 61 })?;
    let mut mats = Vec::with_capacity(count);
    for _ in 0..count {
        let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        let (lanes, vcore) = if optical {
            (r.u64()?, MappedVcore::Optical(get_optical(r)?))
        } else {
            (0, MappedVcore::Electronic(get_tacitmapped(r)?))
        };
        mats.push(PreparedMat {
            vcore,
            rng_state,
            lanes,
        });
    }
    Ok(mats)
}

// ---------------------------------------------------------------------
// Section codec
// ---------------------------------------------------------------------

/// Serializes a prepared-state snapshot into the section payload.
pub(crate) fn encode_prepared(p: &Prepared) -> Result<Vec<u8>, ArtifactError> {
    if p.meta.backend != p.state.backend() {
        return Err(ArtifactError::malformed(format!(
            "prepared meta says backend '{}' but the state is for '{}'",
            p.meta.backend.name(),
            p.state.backend().name()
        )));
    }
    let mut w = ByteWriter::new();
    w.put_u8(match p.meta.backend {
        PreparedBackend::Epcm => BACKEND_EPCM,
        PreparedBackend::Photonic => BACKEND_PHOTONIC,
        PreparedBackend::Simulator => BACKEND_SIMULATOR,
    });
    w.put_u64(p.meta.seed);
    w.put_bool(p.meta.noisy);
    put_opt_f64(&mut w, p.meta.drift_t_ratio);
    put_fault(&mut w, p.meta.fault.as_ref());
    match &p.state {
        PreparedState::Epcm(mats) => put_mats(&mut w, mats, false)?,
        PreparedState::Photonic(mats) => put_mats(&mut w, mats, true)?,
        PreparedState::Simulator { fingerprint, mats } => {
            put_fingerprint(&mut w, fingerprint);
            put_mats(&mut w, mats, fingerprint.optical())?;
        }
    }
    Ok(w.into_inner())
}

/// Decodes a prepared-state snapshot from its section payload.
pub(crate) fn decode_prepared(payload: &[u8]) -> Result<Prepared, ArtifactError> {
    let mut r = ByteReader::new(payload, "prepared section");
    let backend = match r.u8()? {
        BACKEND_EPCM => PreparedBackend::Epcm,
        BACKEND_PHOTONIC => PreparedBackend::Photonic,
        BACKEND_SIMULATOR => PreparedBackend::Simulator,
        tag @ (BACKEND_SIMULATOR_COMPILED | BACKEND_SIMULATOR_VCORES) => {
            return Err(ArtifactError::malformed(format!(
                "backend tag {tag} is a retired simulator snapshot layout; re-export the artifact"
            )))
        }
        tag => return Err(ArtifactError::malformed(format!("backend tag {tag}"))),
    };
    let meta = PreparedMeta {
        backend,
        seed: r.u64()?,
        noisy: r.bool()?,
        drift_t_ratio: get_opt_f64(&mut r)?,
        fault: get_fault(&mut r)?,
    };
    let state = match backend {
        PreparedBackend::Epcm => PreparedState::Epcm(get_mats(&mut r, false)?),
        PreparedBackend::Photonic => PreparedState::Photonic(get_mats(&mut r, true)?),
        PreparedBackend::Simulator => {
            let fingerprint = Box::new(get_fingerprint(&mut r)?);
            let mats = get_mats(&mut r, fingerprint.optical())?;
            PreparedState::Simulator { fingerprint, mats }
        }
    };
    r.finish()?;
    Ok(Prepared { meta, state })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eb_bitnn::BitMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn weights(rows: usize, cols: usize, seed: u64) -> BitMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        BitMatrix::from_fn(rows, cols, |_, _| rng.gen::<bool>())
    }

    fn roundtrip(p: &Prepared) -> Prepared {
        decode_prepared(&encode_prepared(p).unwrap()).unwrap()
    }

    #[test]
    fn epcm_state_round_trips_with_identical_noisy_stream() {
        let w = weights(10, 20, 1);
        let cfg = XbarConfig::new(16, 16).with_device(DeviceParams::noisy());
        let mut rng = StdRng::seed_from_u64(77);
        let mapped = TacitMapped::program(&w, &cfg, &mut rng).unwrap();
        let p = Prepared {
            meta: PreparedMeta {
                backend: PreparedBackend::Epcm,
                seed: 77,
                noisy: true,
                drift_t_ratio: None,
                fault: None,
            },
            state: PreparedState::Epcm(vec![PreparedMat {
                vcore: MappedVcore::Electronic(mapped),
                rng_state: rng.state(),
                lanes: 0,
            }]),
        };
        let back = roundtrip(&p);
        assert_eq!(back.meta, p.meta);
        let (PreparedState::Epcm(orig), PreparedState::Epcm(rest)) = (&p.state, &back.state) else {
            panic!("state kind changed across round trip");
        };
        // Same drives through both mappings must produce identical counts
        // even on the noisy device model: conductances and the RNG
        // position are restored verbatim, never re-drawn.
        let mut a = orig[0].vcore.clone();
        let mut b = rest[0].vcore.clone();
        let mut ra = StdRng::from_state(orig[0].rng_state);
        let mut rb = StdRng::from_state(rest[0].rng_state);
        let pos: eb_bitnn::BitVec = (0..20).map(|i| i % 3 == 0).collect();
        let neg = pos.complement();
        for _ in 0..3 {
            assert_eq!(
                a.activate_pairs(&[(&pos, &neg)], &mut ra).unwrap(),
                b.activate_pairs(&[(&pos, &neg)], &mut rb).unwrap()
            );
        }
        assert_eq!(ra.state(), rb.state());
    }

    #[test]
    fn photonic_state_round_trips() {
        let w = weights(6, 12, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let mapped = OpticalTacitMapped::program(&w, 16, 16, 4, &mut rng).unwrap();
        let p = Prepared {
            meta: PreparedMeta {
                backend: PreparedBackend::Photonic,
                seed: 5,
                noisy: false,
                drift_t_ratio: None,
                fault: None,
            },
            state: PreparedState::Photonic(vec![PreparedMat {
                vcore: MappedVcore::Optical(mapped),
                rng_state: [1, 2, 3, 4],
                lanes: 9,
            }]),
        };
        let back = roundtrip(&p);
        let PreparedState::Photonic(mats) = &back.state else {
            panic!("state kind changed across round trip");
        };
        assert_eq!(mats[0].rng_state, [1, 2, 3, 4]);
        assert_eq!(mats[0].lanes, 9);
        assert_eq!(mats[0].vcore.fan_in(), 12);
        assert_eq!(mats[0].vcore.out_vectors(), 6);
        assert_eq!(mats[0].vcore.wdm_capacity(), Some(4));
    }

    /// One optical and one electronic programmed layer.
    fn vcores() -> (MappedVcore, MappedVcore) {
        let mut rng = StdRng::seed_from_u64(6);
        let optical = OpticalTacitMapped::program(&weights(6, 12, 3), 16, 16, 4, &mut rng).unwrap();
        let electronic =
            TacitMapped::program(&weights(4, 6, 4), &XbarConfig::new(16, 16), &mut rng).unwrap();
        (
            MappedVcore::Optical(optical),
            MappedVcore::Electronic(electronic),
        )
    }

    /// A simulator snapshot of `design` holding one layer, `vcore`.
    fn simulator_state(design: &Design, vcore: MappedVcore) -> Prepared {
        Prepared {
            meta: PreparedMeta {
                backend: PreparedBackend::Simulator,
                seed: 6,
                noisy: false,
                drift_t_ratio: None,
                fault: None,
            },
            state: PreparedState::Simulator {
                fingerprint: Box::new(DesignFingerprint::of(design)),
                mats: vec![PreparedMat {
                    vcore,
                    rng_state: [5, 6, 7, 8],
                    lanes: 3,
                }],
            },
        }
    }

    #[test]
    fn simulator_state_round_trips_layers_on_the_design_substrate() {
        let (optical, electronic) = vcores();
        for (design, vcore) in [
            (Design::einstein_barrier(), optical),
            (Design::tacitmap_epcm(), electronic),
        ] {
            let back = roundtrip(&simulator_state(&design, vcore));
            let PreparedState::Simulator { fingerprint, mats } = &back.state else {
                panic!("state kind changed across round trip");
            };
            assert!(fingerprint.matches(&design), "{}", design.kind);
            assert_eq!(mats.len(), 1);
            assert_eq!(mats[0].rng_state, [5, 6, 7, 8]);
            if design.kind == DesignKind::EinsteinBarrier {
                assert!(matches!(&mats[0].vcore, MappedVcore::Optical(m) if m.capacity() == 4));
                assert_eq!(mats[0].lanes, 3);
                assert_eq!(mats[0].vcore.out_vectors(), 6);
            } else {
                // Electronic layers carry, and store, no lane count.
                assert!(matches!(&mats[0].vcore, MappedVcore::Electronic(m) if m.fan_in() == 6));
                assert_eq!(mats[0].lanes, 0);
                assert_eq!(mats[0].vcore.out_vectors(), 4);
            }
        }
    }

    #[test]
    fn retired_simulator_tag_asks_for_a_reexport() {
        let state = simulator_state(&Design::einstein_barrier(), vcores().0);
        let mut bytes = encode_prepared(&state).unwrap();
        assert_eq!(bytes[0], BACKEND_SIMULATOR);
        for tag in [BACKEND_SIMULATOR_COMPILED, BACKEND_SIMULATOR_VCORES] {
            bytes[0] = tag;
            let err = decode_prepared(&bytes).unwrap_err();
            assert!(
                matches!(&err, ArtifactError::Malformed { context } if context.contains("re-export")),
                "tag {tag}: {err}"
            );
        }
    }

    #[test]
    fn layer_on_the_wrong_substrate_for_its_tag_is_malformed() {
        let layer = |vcore| {
            vec![PreparedMat {
                vcore,
                rng_state: [1, 2, 3, 4],
                lanes: 0,
            }]
        };
        let meta = |backend| PreparedMeta {
            backend,
            seed: 0,
            noisy: false,
            drift_t_ratio: None,
            fault: None,
        };
        let (optical, electronic) = vcores();
        let (optical_too, electronic_too) = vcores();
        for p in [
            Prepared {
                meta: meta(PreparedBackend::Epcm),
                state: PreparedState::Epcm(layer(optical)),
            },
            Prepared {
                meta: meta(PreparedBackend::Photonic),
                state: PreparedState::Photonic(layer(electronic)),
            },
            simulator_state(&Design::einstein_barrier(), electronic_too),
            simulator_state(&Design::tacitmap_epcm(), optical_too),
        ] {
            assert!(
                matches!(encode_prepared(&p), Err(ArtifactError::Malformed { .. })),
                "{}",
                p.meta.backend.name()
            );
        }
    }

    #[test]
    fn meta_backend_must_match_state() {
        let p = Prepared {
            meta: PreparedMeta {
                backend: PreparedBackend::Photonic,
                seed: 0,
                noisy: false,
                drift_t_ratio: None,
                fault: None,
            },
            state: PreparedState::Epcm(vec![]),
        };
        assert!(matches!(
            encode_prepared(&p),
            Err(ArtifactError::Malformed { .. })
        ));
    }

    #[test]
    fn corrupt_backend_tag_rejected() {
        let p = Prepared {
            meta: PreparedMeta {
                backend: PreparedBackend::Epcm,
                seed: 3,
                noisy: false,
                drift_t_ratio: Some(1.5),
                fault: Some(FaultConfig::dead_cells(0.01, 4)),
            },
            state: PreparedState::Epcm(vec![]),
        };
        let mut bytes = encode_prepared(&p).unwrap();
        bytes[0] = 42;
        assert!(matches!(
            decode_prepared(&bytes),
            Err(ArtifactError::Malformed { .. })
        ));
        // And meta options survive a clean round trip.
        assert_eq!(roundtrip(&p).meta, p.meta);
    }

    /// A hand-built 1×2 optical crossbar record: one programmed cell at
    /// `level` on a `levels`-level device, then one unprogrammed cell.
    fn crafted_ocrossbar(levels: usize, level: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(1);
        w.put_u32(2);
        put_opcm_params(&mut w, &OpcmParams::with_levels(levels, 0.0));
        w.put_u64(1);
        w.put_u8(1);
        w.put_u8(0);
        w.put_u64(level);
        w.put_f64(0.6);
        w.into_inner()
    }

    #[test]
    fn restored_opcm_levels_are_checked_not_cast() {
        let decode = |levels: usize, level: u64| {
            get_ocrossbar(&mut ByteReader::new(
                &crafted_ocrossbar(levels, level),
                "crafted",
            ))
        };
        let x = decode(2, 1).unwrap();
        assert_eq!(x.device(0, 0).map(|d| d.level()), Some(1));
        assert_eq!(x.device(0, 1), None);
        // At or past the device's level count, and past what the compact
        // grid stores even when the device claims that many levels.
        for (levels, level) in [(2, 2), (2, u64::MAX), (1000, 255), (1000, 999)] {
            let err = decode(levels, level).unwrap_err();
            assert!(
                matches!(&err, ArtifactError::Malformed { context } if context.contains("level")),
                "levels {levels}, level {level}: {err}"
            );
        }
    }
}
