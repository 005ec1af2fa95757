//! Paper Fig. 7 and Fig. 8: the analytic model must reproduce the
//! paper's *shape* — who wins, by roughly what factor, and where the GPU
//! crossover falls. The model's exact values are recorded in the
//! expected-value tables of `tests/figures_regression.rs`.

use eb_bitnn::BenchModel;
use eb_core::report::{geomean, run_fig7, run_fig8, DEFAULT_BATCH};

#[test]
fn fig7_headline_factors_are_paper_shaped() {
    let fig = run_fig7(DEFAULT_BATCH);

    // Paper: TacitMap-ePCM ~78× average, up to ~154×.
    let tm_avg = fig.mean_tacitmap_speedup();
    assert!((30.0..160.0).contains(&tm_avg), "TM average {tm_avg}");
    let tm_max = fig
        .rows
        .iter()
        .map(|r| r.tacitmap_speedup)
        .fold(0.0, f64::max);
    assert!((90.0..260.0).contains(&tm_max), "TM max {tm_max}");

    // Paper: EinsteinBarrier ~1205× average, ~22×–~3113× range.
    let eb_avg = fig.mean_einstein_speedup();
    assert!((500.0..2600.0).contains(&eb_avg), "EB average {eb_avg}");

    // Paper: EB over TM ~15× (below the WDM capacity of 16).
    let eb_tm = fig.mean_eb_over_tm();
    assert!((8.0..16.0).contains(&eb_tm), "EB/TM {eb_tm}");

    // Every network: EB > TM > baseline.
    for r in &fig.rows {
        assert!(r.tacitmap_speedup > 1.0, "{}", r.network);
        assert!(r.einstein_speedup > r.tacitmap_speedup, "{}", r.network);
    }
}

#[test]
fn fig7_gpu_crossover_matches_paper_observation_4() {
    let fig = run_fig7(DEFAULT_BATCH);
    let by_net = |m: BenchModel| {
        fig.rows
            .iter()
            .find(|r| r.network == m)
            .expect("network present")
            .gpu_speedup
    };
    // Baseline-ePCM beats the GPU on the first CNN…
    assert!(
        by_net(BenchModel::CnnS) < 1.0,
        "baseline should beat the GPU on CNN-S (paper: ~4× faster)"
    );
    // …but loses badly on the large MLP (paper: ~27× slower).
    let mlp_l = by_net(BenchModel::MlpL);
    assert!(
        (10.0..60.0).contains(&mlp_l),
        "GPU on MLP-L should win by tens of ×: {mlp_l}"
    );
}

#[test]
fn fig8_headline_factors_are_paper_shaped() {
    let fig = run_fig8(DEFAULT_BATCH);

    // Paper: TacitMap-ePCM ~5.35× the baseline energy.
    let tm = fig.mean_tacitmap_ratio();
    assert!((3.0..10.0).contains(&tm), "TM energy ratio {tm}");

    // Paper: EB ~11.94× better than TM.
    let eb_tm = fig.mean_eb_over_tm();
    assert!((4.0..16.0).contains(&eb_tm), "EB/TM energy {eb_tm}");

    // Paper: EB ~1.56× better than baseline; in our calibration the five
    // larger networks carry that result (CNN-S pays Eq. 3's power floor).
    let big = 1.0
        / geomean(
            fig.rows
                .iter()
                .filter(|r| r.network != BenchModel::CnnS)
                .map(|r| r.einstein_ratio),
        );
    assert!((1.2..2.5).contains(&big), "EB improvement {big}");
}

#[test]
fn larger_networks_get_larger_einstein_gains() {
    // Paper observation 2: improvements grow with network size (more
    // parallel XNOR+popcount work to fill the hardware).
    let fig = run_fig7(DEFAULT_BATCH);
    let by_net = |m: BenchModel| {
        fig.rows
            .iter()
            .find(|r| r.network == m)
            .expect("network present")
            .einstein_speedup
    };
    assert!(by_net(BenchModel::CnnL) > by_net(BenchModel::CnnS));
    assert!(by_net(BenchModel::MlpL) > by_net(BenchModel::MlpS));
}

#[test]
fn batch_size_only_helps_wdm_designs() {
    // With batch 1 an MLP offers a single input vector: WDM has nothing to
    // multiplex, so EB ≈ TM (modulo step-time differences); with batch 128
    // the gain approaches K.
    use eb_core::{evaluate_model, Design};
    let tm = Design::tacitmap_epcm();
    let eb = Design::einstein_barrier();
    let gain = |batch: u64| {
        evaluate_model(&tm, BenchModel::MlpM, batch).total_latency_ns()
            / evaluate_model(&eb, BenchModel::MlpM, batch).total_latency_ns()
    };
    let g1 = gain(1);
    let g128 = gain(128);
    assert!(g128 > 2.0 * g1, "batch should unlock WDM: {g1} -> {g128}");
}
