//! Mapping geometry and step plans.
//!
//! This module answers, for each mapping, the questions the performance
//! model (`eb_core::perf`) needs: how many crossbars does a
//! layer occupy, how far can it be replicated within a chip budget, and
//! how many crossbar steps does a workload of `v` input vectors take.

use eb_xbar::XbarConfig;

/// One matrix workload: `n` weight vectors of `m` bits applied to
/// `vectors` input vectors (batch × sliding windows), with `input_bits`
/// activation precision (1 for hidden layers, 8 for the first layer —
/// streamed bit-serially).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Workload {
    /// Weight-vector length (fan-in).
    pub m: usize,
    /// Number of weight vectors (outputs).
    pub n: usize,
    /// Total input vectors to process.
    pub vectors: u64,
    /// Activation operand bits (bit-serial streaming multiplies steps).
    pub input_bits: u8,
    /// Weight operand bits (bit-sliced across columns; multiplies the
    /// footprint, e.g. the 8-bit output layer).
    pub weight_bits: u8,
}

impl Workload {
    /// A fully binary workload.
    pub fn binary(m: usize, n: usize, vectors: u64) -> Self {
        Self {
            m,
            n,
            vectors,
            input_bits: 1,
            weight_bits: 1,
        }
    }
}

/// Which mapping produced a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingKind {
    /// The paper's TacitMap (Section III) on an electronic crossbar.
    TacitMap,
    /// The SotA baseline CustBinaryMap (Hirtzlin et al.).
    CustBinaryMap,
    /// TacitMap on an oPCM crossbar with WDM capacity `K` (EinsteinBarrier).
    WdmTacitMap,
}

/// The resource/step plan of one workload under one mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingPlan {
    /// Mapping that produced this plan.
    pub kind: MappingKind,
    /// Crossbars needed to hold the weights once.
    pub footprint: usize,
    /// Copies of the weights placed within the chip budget.
    pub replicas: usize,
    /// Total crossbar steps for the whole workload.
    pub steps: u64,
    /// Crossbar activations (footprint crossbars fire per step per replica
    /// actually used).
    pub activations: u64,
    /// ADC conversions per step across the active footprint (TacitMap
    /// variants; 0 for CustBinaryMap).
    pub conversions_per_step: u64,
    /// PCSA senses per step across the active footprint (CustBinaryMap;
    /// 0 for TacitMap variants).
    pub senses_per_step: u64,
    /// Rows driven per crossbar per step.
    pub rows_driven: usize,
    /// Popcount-tree depth drained once per output vector (CustBinaryMap).
    pub tree_depth: u32,
    /// Wavelengths actually used per step (1 for electronic mappings).
    pub wavelengths_used: usize,
}

impl MappingPlan {
    /// Average input vectors retired per step — the parallelism achieved.
    pub fn vectors_per_step(&self, w: &Workload) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            w.vectors as f64 / self.steps as f64
        }
    }
}

/// Plans a workload under TacitMap (paper Fig. 3-(b)).
///
/// Weight vectors sit vertically: `rows/2` weight bits per column (vector
/// plus complement), `cols` weight vectors per crossbar. One activation
/// computes every stored popcount, so a replica retires one input vector
/// per step (× `input_bits` for bit-serial activations).
///
/// # Panics
///
/// Panics if the workload or budget is degenerate (zero dimensions).
pub fn plan_tacitmap(w: &Workload, xbar: &XbarConfig, budget: usize) -> MappingPlan {
    plan_tacit_common(w, xbar, budget, 1, MappingKind::TacitMap)
}

/// Plans a workload under TacitMap on a WDM-enabled oPCM crossbar with
/// capacity `k` (EinsteinBarrier): up to `k` input vectors ride distinct
/// wavelengths through the same crossbar per step.
///
/// # Panics
///
/// Panics if `k == 0` or the workload/budget is degenerate.
pub fn plan_wdm_tacitmap(w: &Workload, xbar: &XbarConfig, budget: usize, k: usize) -> MappingPlan {
    assert!(k > 0, "WDM capacity must be positive");
    plan_tacit_common(w, xbar, budget, k, MappingKind::WdmTacitMap)
}

fn plan_tacit_common(
    w: &Workload,
    xbar: &XbarConfig,
    budget: usize,
    k: usize,
    kind: MappingKind,
) -> MappingPlan {
    assert!(w.m > 0 && w.n > 0, "degenerate workload");
    assert!(budget > 0, "empty crossbar budget");
    let chunk = xbar.tacitmap_chunk_rows().max(1);
    let row_chunks = w.m.div_ceil(chunk);
    // Multi-bit weights are bit-sliced across column groups.
    let col_slots = w.n * w.weight_bits as usize;
    let col_chunks = col_slots.div_ceil(xbar.cols);
    let footprint = row_chunks * col_chunks;
    let replicas = (budget / footprint).max(1);

    // Input vectors are grouped K per wavelength frame, frames spread over
    // replicas; each group costs `input_bits` bit-serial sub-steps.
    let groups = w.vectors.div_ceil(k as u64);
    let steps = groups.div_ceil(replicas as u64) * u64::from(w.input_bits);
    let active_replicas = (groups.min(replicas as u64)).max(1);
    let activations = steps * footprint as u64 * active_replicas;

    // Every column of every active crossbar is converted once per step per
    // wavelength in flight.
    let k_eff = (w.vectors.min(k as u64)).max(1) as usize;
    let conversions_per_step = (col_slots.min(xbar.cols) as u64 * row_chunks as u64 * k_eff as u64)
        .max(col_slots as u64 * row_chunks as u64);

    MappingPlan {
        kind,
        footprint,
        replicas,
        steps,
        activations,
        conversions_per_step,
        senses_per_step: 0,
        rows_driven: (2 * w.m.min(chunk)).min(xbar.rows),
        tree_depth: 0,
        wavelengths_used: k_eff,
    }
}

/// Plans a workload under CustBinaryMap (paper Fig. 3-(a)).
///
/// Weight vectors sit horizontally on 2T2R rows (`cols/2` weight bits per
/// row), one vector per row; a PCSA step reads **one row**, so a replica
/// needs `min(n·weight_bits, rows)` sequential steps per input vector
/// (weight groups beyond `rows` land on parallel crossbars).
///
/// # Panics
///
/// Panics if the workload or budget is degenerate.
pub fn plan_custbinary(w: &Workload, xbar: &XbarConfig, budget: usize) -> MappingPlan {
    assert!(w.m > 0 && w.n > 0, "degenerate workload");
    assert!(budget > 0, "empty crossbar budget");
    let bits_per_row = xbar.custbinary_chunk_cols().max(1);
    let vec_chunks = w.m.div_ceil(bits_per_row);
    let row_slots = w.n * w.weight_bits as usize;
    let weight_groups = row_slots.div_ceil(xbar.rows);
    let footprint = vec_chunks * weight_groups;
    let replicas = (budget / footprint).max(1);

    let rows_per_group = row_slots.min(xbar.rows) as u64;
    let steps_per_vector = rows_per_group * u64::from(w.input_bits);
    let vector_rounds = w.vectors.div_ceil(replicas as u64);
    let steps = vector_rounds * steps_per_vector;
    let active_replicas = (w.vectors.min(replicas as u64)).max(1);
    // One row per crossbar of the active footprint fires per step.
    let activations = steps * footprint as u64 * active_replicas;

    // Each step senses every stored bit of one weight vector.
    let senses_per_step = w.m as u64;
    let tree_depth = if w.m <= 1 {
        0
    } else {
        usize::BITS - (w.m - 1).leading_zeros()
    };

    MappingPlan {
        kind: MappingKind::CustBinaryMap,
        footprint,
        replicas,
        steps,
        activations,
        conversions_per_step: 0,
        senses_per_step,
        rows_driven: 1,
        tree_depth,
        wavelengths_used: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xbar() -> XbarConfig {
        XbarConfig::new(256, 256)
    }

    #[test]
    fn tacitmap_single_crossbar_layer() {
        // 128-bit vectors, 256 outputs: fits exactly one crossbar.
        let w = Workload::binary(128, 256, 64);
        let p = plan_tacitmap(&w, &xbar(), 128);
        assert_eq!(p.footprint, 1);
        assert_eq!(p.replicas, 128);
        // 64 vectors over 128 replicas: one step.
        assert_eq!(p.steps, 1);
    }

    #[test]
    fn tacitmap_chunks_larger_layers() {
        // m=500 ⇒ 4 row chunks of ≤128; n=1000 ⇒ 4 column chunks.
        let w = Workload::binary(500, 1000, 1);
        let p = plan_tacitmap(&w, &xbar(), 128);
        assert_eq!(p.footprint, 16);
        assert_eq!(p.replicas, 8);
        assert_eq!(p.steps, 1);
    }

    #[test]
    fn custbinary_serializes_weight_vectors() {
        let w = Workload::binary(128, 250, 1);
        let p = plan_custbinary(&w, &xbar(), 128);
        // One vector of 128 bits per 2T2R row (128 = 256/2 bits per row).
        assert_eq!(p.footprint, 1);
        // 250 weight vectors scanned sequentially.
        assert_eq!(p.steps, 250);
        assert_eq!(p.senses_per_step, 128);
        assert_eq!(p.tree_depth, 7);
    }

    #[test]
    fn custbinary_weight_groups_run_parallel() {
        // 512 weight vectors over 256-row crossbars: 2 groups in parallel,
        // still 256 sequential steps.
        let w = Workload::binary(128, 512, 1);
        let p = plan_custbinary(&w, &xbar(), 128);
        assert_eq!(p.footprint, 2);
        assert_eq!(p.steps, 256);
    }

    #[test]
    fn tacitmap_beats_custbinary_in_steps() {
        // The theoretical claim of Section III: up to n× fewer steps.
        for (m, n) in [(128usize, 256usize), (784, 500), (2000, 1500)] {
            let w = Workload::binary(m, n, 100);
            let t = plan_tacitmap(&w, &xbar(), 128);
            let c = plan_custbinary(&w, &xbar(), 128);
            assert!(
                t.steps < c.steps,
                "({m},{n}): tacit {} vs cust {}",
                t.steps,
                c.steps
            );
        }
    }

    #[test]
    fn wdm_divides_steps_by_k() {
        let w = Workload::binary(128, 256, 4096);
        let t = plan_tacitmap(&w, &xbar(), 1);
        let e = plan_wdm_tacitmap(&w, &xbar(), 1, 16);
        assert_eq!(t.steps, 4096);
        assert_eq!(e.steps, 256);
        assert_eq!(e.wavelengths_used, 16);
    }

    #[test]
    fn wdm_gain_erodes_when_replicas_cover_batch() {
        // The paper's observation 3: the achieved gain is below K when the
        // workload cannot fill all wavelengths × replicas.
        let w = Workload::binary(128, 256, 16);
        let t = plan_tacitmap(&w, &xbar(), 128);
        let e = plan_wdm_tacitmap(&w, &xbar(), 128, 16);
        // 16 vectors over 128 replicas: TacitMap already takes 1 step.
        assert_eq!(t.steps, 1);
        assert_eq!(e.steps, 1);
    }

    #[test]
    fn bit_serial_input_multiplies_steps() {
        let mut w = Workload::binary(784, 500, 10);
        w.input_bits = 8;
        let t1 = plan_tacitmap(&Workload::binary(784, 500, 10), &xbar(), 16);
        let t8 = plan_tacitmap(&w, &xbar(), 16);
        assert_eq!(t8.steps, 8 * t1.steps);
    }

    #[test]
    fn weight_bits_expand_footprint() {
        let mut w = Workload::binary(250, 10, 1);
        w.weight_bits = 8;
        let p = plan_tacitmap(&w, &xbar(), 128);
        // 10 outputs × 8 bit-slices = 80 column slots: still one chunk,
        // but compare with a 256-output layer needing one full crossbar.
        assert_eq!(p.footprint, 2); // 250 bits ⇒ 2 row chunks × 1 col chunk
        let mut w2 = Workload::binary(250, 40, 1);
        w2.weight_bits = 8;
        let p2 = plan_tacitmap(&w2, &xbar(), 128);
        assert_eq!(p2.footprint, 4); // 320 col slots ⇒ 2 col chunks
    }

    #[test]
    fn vectors_per_step_reports_parallelism() {
        let w = Workload::binary(128, 256, 4096);
        let e = plan_wdm_tacitmap(&w, &xbar(), 1, 16);
        assert!((e.vectors_per_step(&w) - 16.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_workload_rejected() {
        let _ = plan_tacitmap(&Workload::binary(0, 10, 1), &xbar(), 4);
    }
}
