//! The analytic latency/energy model that regenerates the paper's Fig. 7
//! and Fig. 8.
//!
//! For every matrix layer of a network, the model derives the mapping
//! geometry from `eb-mapping::plan`, then composes latency from the
//! critical path (steps × step time) and energy from the actual work
//! performed (crossbar activations, conversions, senses, optical power —
//! unused replicas cost nothing). The calibrated outputs are pinned by the
//! expected-value tables in `tests/figures_regression.rs`.

use crate::configs::{Design, DesignKind};
use eb_bitnn::{BenchModel, LayerDims};
use eb_mapping::plan::{plan_custbinary, plan_tacitmap, plan_wdm_tacitmap, Workload};

/// Latency/energy of one layer under one design.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPerf {
    /// Layer name (from the network definition).
    pub name: String,
    /// Crossbar steps on the critical path.
    pub steps: u64,
    /// Critical-path latency in nanoseconds.
    pub latency_ns: f64,
    /// Energy in joules.
    pub energy_j: f64,
    /// Crossbars occupied by one weight copy.
    pub footprint: usize,
    /// Replication factor used.
    pub replicas: usize,
    /// Wavelengths in flight per step (1 for electronic designs).
    pub wavelengths: usize,
}

/// Whole-network result of the analytic model.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Design evaluated.
    pub design: DesignKind,
    /// Network name.
    pub network: String,
    /// Batch size evaluated.
    pub batch: u64,
    /// Per-layer breakdown.
    pub layers: Vec<LayerPerf>,
}

impl PerfReport {
    /// Total latency over all layers (layers execute sequentially), ns.
    pub fn total_latency_ns(&self) -> f64 {
        self.layers.iter().map(|l| l.latency_ns).sum()
    }

    /// Total energy, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.layers.iter().map(|l| l.energy_j).sum()
    }

    /// Latency per inference (total / batch), ns.
    pub fn latency_per_inference_ns(&self) -> f64 {
        self.total_latency_ns() / self.batch.max(1) as f64
    }

    /// Energy per inference, joules.
    pub fn energy_per_inference_j(&self) -> f64 {
        self.total_energy_j() / self.batch.max(1) as f64
    }
}

/// Evaluates a network (by its layer dimensions) on a design.
///
/// `batch` is the number of samples processed together; the paper's MLP
/// results require batched inference for WDM to fill its wavelengths
/// (Fig. 5 discussion).
pub fn evaluate_layers(
    design: &Design,
    network: &str,
    dims: &[LayerDims],
    batch: u64,
) -> PerfReport {
    let layers = dims
        .iter()
        .map(|d| evaluate_layer(design, d, batch))
        .collect();
    PerfReport {
        design: design.kind,
        network: network.to_string(),
        batch,
        layers,
    }
}

/// Evaluates one of the six benchmark networks on a design.
pub fn evaluate_model(design: &Design, model: BenchModel, batch: u64) -> PerfReport {
    evaluate_layers(design, model.name(), &model.dims(), batch)
}

/// Evaluates one layer.
pub fn evaluate_layer(design: &Design, dims: &LayerDims, batch: u64) -> LayerPerf {
    let w = Workload {
        m: dims.fan_in,
        n: dims.out_vectors,
        vectors: dims.input_vectors as u64 * batch,
        input_bits: dims.input_bits,
        weight_bits: dims.weight_bits,
    };
    match design.kind {
        DesignKind::BaselineEpcm => eval_custbinary(design, dims, &w),
        DesignKind::TacitMapEpcm => eval_tacit(design, dims, &w, 1),
        DesignKind::EinsteinBarrier => eval_tacit(design, dims, &w, design.wdm_capacity),
    }
}

fn eval_tacit(design: &Design, dims: &LayerDims, w: &Workload, k: usize) -> LayerPerf {
    let budget = design.crossbar_budget();
    let plan = if k > 1 {
        plan_wdm_tacitmap(w, &design.xbar, budget, k)
    } else {
        plan_tacitmap(w, &design.xbar, budget)
    };
    let xbar = &design.xbar;
    let col_slots = w.n * w.weight_bits as usize;
    let cols_used = col_slots.min(xbar.cols);
    let k_eff = plan.wavelengths_used;

    // Latency: steps × (settle + serialized conversions). Each wavelength's
    // column results need their own conversion.
    let step_ns = xbar.timings.vmm_step_ns(cols_used * k_eff, xbar.n_adcs);
    let latency_ns = plan.steps as f64 * step_ns;

    // Energy: actual activations = groups × footprint × bit-planes.
    let groups = w.vectors.div_ceil(k_eff as u64);
    let activations = groups * plan.footprint as u64 * u64::from(w.input_bits);
    let conversions_per_activation = cols_used * k_eff;
    let energy_per_activation = match design.kind {
        DesignKind::EinsteinBarrier => {
            let optical = design
                .optical
                .as_ref()
                .expect("EinsteinBarrier design carries an optical cost model");
            // Eq. 3 is charged for the rows actually modulated (M =
            // rows_driven): unused comb lines/VOAs of a partially filled
            // crossbar are gated off.
            optical.step_energy_j(k_eff.max(1), plan.rows_driven, cols_used)
                + conversions_per_activation as f64 * xbar.energies.e_adc_pj * 1e-12
        }
        _ => {
            // Electronic VMM: DACs + row drivers + analog cell currents +
            // conversions. About half the addressed cells conduct.
            let active_cells = plan.rows_driven * cols_used / 2;
            xbar.energies.vmm_step_joules(
                plan.rows_driven,
                active_cells,
                conversions_per_activation,
            )
        }
    };

    LayerPerf {
        name: dims.name.clone(),
        steps: plan.steps,
        latency_ns,
        energy_j: activations as f64 * energy_per_activation,
        footprint: plan.footprint,
        replicas: plan.replicas,
        wavelengths: k_eff,
    }
}

fn eval_custbinary(design: &Design, dims: &LayerDims, w: &Workload) -> LayerPerf {
    let budget = design.crossbar_budget();
    let plan = plan_custbinary(w, &design.xbar, budget);
    let xbar = &design.xbar;

    // Latency: sequential PCSA row reads on the critical path, plus one
    // popcount-tree drain per processed vector round (pipelined behind the
    // row scans otherwise).
    let rounds = w.vectors.div_ceil(plan.replicas as u64);
    let drain_ns = xbar.timings.popcount_drain_ns(plan.tree_depth);
    let latency_ns = plan.steps as f64 * xbar.timings.pcsa_step_ns() + rounds as f64 * drain_ns;

    // Energy: every input vector scans all weight-vector row slots
    // (groups included — they burn energy even though they run in
    // parallel), each row read sensing the full fan-in.
    let row_slots = (w.n * w.weight_bits as usize) as u64;
    let row_reads = w.vectors * row_slots * u64::from(w.input_bits);
    let energy_per_read = xbar.energies.pcsa_step_joules(w.m);

    LayerPerf {
        name: dims.name.clone(),
        steps: plan.steps,
        latency_ns,
        energy_j: row_reads as f64 * energy_per_read,
        footprint: plan.footprint,
        replicas: plan.replicas,
        wavelengths: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::Design;
    use eb_bitnn::LayerKind;

    fn hidden(m: usize, n: usize, v: usize) -> LayerDims {
        LayerDims {
            name: format!("bin{m}x{n}"),
            kind: LayerKind::HiddenBinary,
            fan_in: m,
            out_vectors: n,
            input_vectors: v,
            input_bits: 1,
            weight_bits: 1,
        }
    }

    #[test]
    fn tacitmap_beats_baseline_latency_on_wide_layers() {
        let d = hidden(500, 250, 1);
        let base = evaluate_layer(&Design::baseline_epcm(), &d, 128);
        let tacit = evaluate_layer(&Design::tacitmap_epcm(), &d, 128);
        let speedup = base.latency_ns / tacit.latency_ns;
        assert!(
            speedup > 20.0,
            "expected large TacitMap speedup, got {speedup:.1}"
        );
    }

    #[test]
    fn tacitmap_loses_energy_to_baseline() {
        // Fig. 8 observation 1: ADCs are power-hungry, PCSAs are not.
        let d = hidden(500, 250, 1);
        let base = evaluate_layer(&Design::baseline_epcm(), &d, 128);
        let tacit = evaluate_layer(&Design::tacitmap_epcm(), &d, 128);
        let ratio = tacit.energy_j / base.energy_j;
        assert!(
            ratio > 2.0 && ratio < 20.0,
            "TacitMap should cost more energy: ratio {ratio:.2}"
        );
    }

    #[test]
    fn einstein_barrier_beats_tacitmap_latency() {
        let d = hidden(500, 1000, 1);
        let tacit = evaluate_layer(&Design::tacitmap_epcm(), &d, 1024);
        let eb = evaluate_layer(&Design::einstein_barrier(), &d, 1024);
        let gain = tacit.latency_ns / eb.latency_ns;
        assert!(
            gain > 4.0 && gain <= 40.0,
            "WDM gain should be K-class: {gain:.1}"
        );
    }

    #[test]
    fn einstein_barrier_recovers_energy() {
        // Fig. 8 observation 2: EB amortizes activations over K inputs.
        let d = hidden(500, 1000, 1);
        let tacit = evaluate_layer(&Design::tacitmap_epcm(), &d, 1024);
        let eb = evaluate_layer(&Design::einstein_barrier(), &d, 1024);
        let base = evaluate_layer(&Design::baseline_epcm(), &d, 1024);
        assert!(
            eb.energy_j < tacit.energy_j / 4.0,
            "EB {:.3e} vs TM {:.3e}",
            eb.energy_j,
            tacit.energy_j
        );
        assert!(
            eb.energy_j < base.energy_j * 1.5,
            "EB {:.3e} vs base {:.3e}",
            eb.energy_j,
            base.energy_j
        );
    }

    #[test]
    fn whole_network_reports_accumulate() {
        let design = Design::tacitmap_epcm();
        let report = evaluate_model(&design, BenchModel::MlpS, 16);
        assert_eq!(report.layers.len(), 3);
        let sum: f64 = report.layers.iter().map(|l| l.latency_ns).sum();
        assert!((report.total_latency_ns() - sum).abs() < 1e-9);
        assert!(report.total_energy_j() > 0.0);
        assert!(report.latency_per_inference_ns() < report.total_latency_ns());
    }

    #[test]
    fn bit_serial_first_layer_costs_8x_steps() {
        let first = LayerDims {
            name: "first".into(),
            kind: LayerKind::FirstFixed,
            fan_in: 784,
            out_vectors: 500,
            input_vectors: 1,
            input_bits: 8,
            weight_bits: 1,
        };
        let bin = hidden(784, 500, 1);
        let d = Design::tacitmap_epcm();
        let f = evaluate_layer(&d, &first, 64);
        let b = evaluate_layer(&d, &bin, 64);
        assert_eq!(f.steps, 8 * b.steps);
    }

    #[test]
    fn all_models_evaluate_on_all_designs() {
        for model in BenchModel::all() {
            for design in [
                Design::baseline_epcm(),
                Design::tacitmap_epcm(),
                Design::einstein_barrier(),
            ] {
                let r = evaluate_model(&design, model, 8);
                assert!(r.total_latency_ns() > 0.0, "{model} on {}", design.kind);
                assert!(r.total_energy_j() > 0.0, "{model} on {}", design.kind);
            }
        }
    }
}
