//! Experiment runners and normalized-figure data for the paper's
//! evaluation (Fig. 7 latency, Fig. 8 energy).

use crate::configs::Design;
use crate::gpu::GpuModel;
use crate::perf::{evaluate_model, PerfReport};
use eb_bitnn::BenchModel;

/// Default batch size used by the evaluation harness. WDM needs batched
/// inference on MLPs to fill its wavelengths (see DESIGN.md).
pub const DEFAULT_BATCH: u64 = 128;

/// One bar group of Fig. 7: latency improvements normalized to
/// Baseline-ePCM (higher is better), plus the GPU reference.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// Network.
    pub network: BenchModel,
    /// Baseline-ePCM latency (ns) — the normalization denominator.
    pub baseline_ns: f64,
    /// TacitMap-ePCM speedup over Baseline-ePCM.
    pub tacitmap_speedup: f64,
    /// EinsteinBarrier speedup over Baseline-ePCM.
    pub einstein_speedup: f64,
    /// Baseline-GPU speedup over Baseline-ePCM (< 1 when the CIM baseline
    /// wins, the paper's observation 4).
    pub gpu_speedup: f64,
}

/// One bar group of Fig. 8: energy normalized to Baseline-ePCM
/// (values > 1 mean *more* energy than the baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Row {
    /// Network.
    pub network: BenchModel,
    /// Baseline-ePCM energy (J) — the normalization denominator.
    pub baseline_j: f64,
    /// TacitMap-ePCM energy / Baseline-ePCM energy (paper: ~5.35× worse).
    pub tacitmap_ratio: f64,
    /// EinsteinBarrier energy / Baseline-ePCM energy (paper: ~1/1.56).
    pub einstein_ratio: f64,
}

/// Full data behind Fig. 7.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7 {
    /// Batch size evaluated.
    pub batch: u64,
    /// One row per network.
    pub rows: Vec<Fig7Row>,
}

/// Full data behind Fig. 8.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8 {
    /// Batch size evaluated.
    pub batch: u64,
    /// One row per network.
    pub rows: Vec<Fig8Row>,
}

/// Geometric mean (the right average for normalized speedups).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (log_sum / f64::from(n)).exp()
}

/// Runs the full Fig. 7 experiment.
pub fn run_fig7(batch: u64) -> Fig7 {
    let base = Design::baseline_epcm();
    let tm = Design::tacitmap_epcm();
    let eb = Design::einstein_barrier();
    let gpu = GpuModel::datacenter_default();
    let rows = BenchModel::all()
        .into_iter()
        .map(|model| {
            let b = evaluate_model(&base, model, batch).total_latency_ns();
            let t = evaluate_model(&tm, model, batch).total_latency_ns();
            let e = evaluate_model(&eb, model, batch).total_latency_ns();
            let g = gpu.model_latency_ns(model, batch);
            Fig7Row {
                network: model,
                baseline_ns: b,
                tacitmap_speedup: b / t,
                einstein_speedup: b / e,
                gpu_speedup: b / g,
            }
        })
        .collect();
    Fig7 { batch, rows }
}

/// Runs the full Fig. 8 experiment.
pub fn run_fig8(batch: u64) -> Fig8 {
    let base = Design::baseline_epcm();
    let tm = Design::tacitmap_epcm();
    let eb = Design::einstein_barrier();
    let rows = BenchModel::all()
        .into_iter()
        .map(|model| {
            let b = evaluate_model(&base, model, batch).total_energy_j();
            let t = evaluate_model(&tm, model, batch).total_energy_j();
            let e = evaluate_model(&eb, model, batch).total_energy_j();
            Fig8Row {
                network: model,
                baseline_j: b,
                tacitmap_ratio: t / b,
                einstein_ratio: e / b,
            }
        })
        .collect();
    Fig8 { batch, rows }
}

impl Fig7 {
    /// Geometric-mean TacitMap-ePCM speedup (paper: ~78×).
    pub fn mean_tacitmap_speedup(&self) -> f64 {
        geomean(self.rows.iter().map(|r| r.tacitmap_speedup))
    }

    /// Geometric-mean EinsteinBarrier speedup (paper: ~1205×).
    pub fn mean_einstein_speedup(&self) -> f64 {
        geomean(self.rows.iter().map(|r| r.einstein_speedup))
    }

    /// Geometric-mean EinsteinBarrier / TacitMap-ePCM gain (paper: ~15×).
    pub fn mean_eb_over_tm(&self) -> f64 {
        geomean(
            self.rows
                .iter()
                .map(|r| r.einstein_speedup / r.tacitmap_speedup),
        )
    }

    /// Renders the figure as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "Fig. 7 — Normalized latency improvement over Baseline-ePCM (batch {})\n",
            self.batch
        ));
        s.push_str(&format!(
            "{:<8} {:>16} {:>16} {:>16} {:>18}\n",
            "Network", "Baseline (ms)", "TacitMap-ePCM ×", "EinsteinBarrier ×", "Baseline-GPU ×"
        ));
        for r in &self.rows {
            s.push_str(&format!(
                "{:<8} {:>16.3} {:>16.1} {:>16.1} {:>18.2}\n",
                r.network.name(),
                r.baseline_ns / 1e6,
                r.tacitmap_speedup,
                r.einstein_speedup,
                r.gpu_speedup,
            ));
        }
        s.push_str(&format!(
            "{:<8} {:>16} {:>16.1} {:>16.1}\n",
            "geomean",
            "",
            self.mean_tacitmap_speedup(),
            self.mean_einstein_speedup()
        ));
        s.push_str(&format!(
            "EinsteinBarrier over TacitMap-ePCM (geomean): {:.1}×\n",
            self.mean_eb_over_tm()
        ));
        s
    }
}

impl Fig8 {
    /// Geometric-mean TacitMap-ePCM energy ratio (paper: ~5.35× worse).
    pub fn mean_tacitmap_ratio(&self) -> f64 {
        geomean(self.rows.iter().map(|r| r.tacitmap_ratio))
    }

    /// Geometric-mean EinsteinBarrier improvement over Baseline-ePCM
    /// (paper: ~1.56×).
    pub fn mean_einstein_improvement(&self) -> f64 {
        1.0 / geomean(self.rows.iter().map(|r| r.einstein_ratio))
    }

    /// Geometric-mean EinsteinBarrier improvement over TacitMap-ePCM
    /// (paper: ~11.94×).
    pub fn mean_eb_over_tm(&self) -> f64 {
        geomean(
            self.rows
                .iter()
                .map(|r| r.tacitmap_ratio / r.einstein_ratio),
        )
    }

    /// Renders the figure as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "Fig. 8 — Normalized energy vs Baseline-ePCM (batch {})\n",
            self.batch
        ));
        s.push_str(&format!(
            "{:<8} {:>16} {:>18} {:>20}\n",
            "Network", "Baseline (µJ)", "TacitMap-ePCM ×", "EinsteinBarrier ×"
        ));
        for r in &self.rows {
            s.push_str(&format!(
                "{:<8} {:>16.3} {:>18.2} {:>20.3}\n",
                r.network.name(),
                r.baseline_j * 1e6,
                r.tacitmap_ratio,
                r.einstein_ratio,
            ));
        }
        s.push_str(&format!(
            "geomean: TacitMap {:.2}× baseline energy; EinsteinBarrier {:.2}× better than baseline, {:.2}× better than TacitMap\n",
            self.mean_tacitmap_ratio(),
            self.mean_einstein_improvement(),
            self.mean_eb_over_tm()
        ));
        s
    }
}

/// Renders a per-layer report as a text table (used by examples).
pub fn report_table(report: &PerfReport) -> String {
    let mut s = format!(
        "{} on {} (batch {}): {:.3} ms, {:.3} µJ\n",
        report.network,
        report.design,
        report.batch,
        report.total_latency_ns() / 1e6,
        report.total_energy_j() * 1e6
    );
    s.push_str(&format!(
        "{:<12} {:>10} {:>14} {:>12} {:>10} {:>9} {:>6}\n",
        "layer", "steps", "latency(µs)", "energy(nJ)", "footprint", "replicas", "λ"
    ));
    for l in &report.layers {
        s.push_str(&format!(
            "{:<12} {:>10} {:>14.3} {:>12.2} {:>10} {:>9} {:>6}\n",
            l.name,
            l.steps,
            l.latency_ns / 1e3,
            l.energy_j * 1e9,
            l.footprint,
            l.replicas,
            l.wavelengths
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([4.0, 9.0]) - 6.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty::<f64>()), 0.0);
        assert!((geomean([7.0]) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn fig7_has_six_networks_and_positive_speedups() {
        let fig = run_fig7(32);
        assert_eq!(fig.rows.len(), 6);
        for r in &fig.rows {
            assert!(
                r.tacitmap_speedup > 1.0,
                "{}: {}",
                r.network,
                r.tacitmap_speedup
            );
            assert!(
                r.einstein_speedup > r.tacitmap_speedup,
                "{}: EB {} vs TM {}",
                r.network,
                r.einstein_speedup,
                r.tacitmap_speedup
            );
        }
    }

    #[test]
    fn fig8_shape_matches_paper() {
        let fig = run_fig8(128);
        for r in &fig.rows {
            // TacitMap-ePCM costs more energy than baseline everywhere
            // (Fig. 8 observation 1) and EinsteinBarrier always recovers
            // energy relative to TacitMap-ePCM (observation 2).
            assert!(r.tacitmap_ratio > 1.0, "{}", r.network);
            assert!(r.einstein_ratio < r.tacitmap_ratio, "{}", r.network);
            // EinsteinBarrier beats the baseline on every network except
            // the tiny LeNet-class CNN, where Eq. 3's transmitter power
            // floor dominates (the CNN-S row of the Fig. 8 table in
            // tests/figures_regression.rs).
            if r.network != BenchModel::CnnS {
                assert!(
                    r.einstein_ratio < 1.0,
                    "{}: {}",
                    r.network,
                    r.einstein_ratio
                );
            }
        }
        // The five larger networks reproduce the paper's ~1.56× headline.
        let big_mean = 1.0
            / geomean(
                fig.rows
                    .iter()
                    .filter(|r| r.network != BenchModel::CnnS)
                    .map(|r| r.einstein_ratio),
            );
        assert!(
            big_mean > 1.2 && big_mean < 2.5,
            "EB improvement over baseline: {big_mean:.2}"
        );
    }

    #[test]
    fn tables_render() {
        let fig7 = run_fig7(16);
        let t = fig7.to_table();
        assert!(t.contains("MLP-L") && t.contains("geomean"));
        let fig8 = run_fig8(16);
        assert!(fig8.to_table().contains("EinsteinBarrier"));
    }
}
