//! Regression lock on the calibrated Fig. 7 / Fig. 8 values of the
//! analytic model: the `expected` tables below are the record. If a
//! constant change moves any headline number by more than the stated
//! tolerance, these tests fail, and the tables must be regenerated
//! (`cargo run -p eb-bench --release --bin fig7_latency`, `fig8_energy`)
//! and re-validated against the paper.

use eb_core::report::{run_fig7, run_fig8, DEFAULT_BATCH};

fn within(x: f64, expect: f64, rel_tol: f64) -> bool {
    (x - expect).abs() / expect <= rel_tol
}

#[test]
fn fig7_values_match_experiments_md() {
    let fig = run_fig7(DEFAULT_BATCH);
    // (network, baseline ms, tacit ×, einstein ×) at DEFAULT_BATCH.
    let expected = [
        ("CNN-S", 0.453, 8.7, 265.3),
        ("CNN-M", 27.217, 89.8, 1572.6),
        ("CNN-L", 103.408, 131.4, 1906.9),
        ("MLP-S", 0.478, 147.0, 1661.9),
        ("MLP-M", 1.634, 147.4, 1814.3),
        ("MLP-L", 2.771, 147.6, 1993.6),
    ];
    for (row, (name, base_ms, tm, eb)) in fig.rows.iter().zip(expected) {
        assert_eq!(row.network.name(), name);
        assert!(
            within(row.baseline_ns / 1e6, base_ms, 0.02),
            "{name} baseline {} vs {base_ms}",
            row.baseline_ns / 1e6
        );
        assert!(
            within(row.tacitmap_speedup, tm, 0.02),
            "{name} tacit {} vs {tm}",
            row.tacitmap_speedup
        );
        assert!(
            within(row.einstein_speedup, eb, 0.02),
            "{name} einstein {} vs {eb}",
            row.einstein_speedup
        );
    }
    assert!(within(fig.mean_tacitmap_speedup(), 83.0, 0.02));
    assert!(within(fig.mean_einstein_speedup(), 1298.0, 0.02));
    assert!(within(fig.mean_eb_over_tm(), 15.6, 0.02));
}

#[test]
fn fig8_values_match_experiments_md() {
    let fig = run_fig8(DEFAULT_BATCH);
    let expected = [
        ("CNN-S", 2.930, 9.26, 7.934),
        ("CNN-M", 543.931, 5.89, 0.847),
        ("CNN-L", 2057.322, 5.57, 0.594),
        ("MLP-S", 10.510, 6.35, 0.576),
        ("MLP-M", 36.668, 6.27, 0.567),
        ("MLP-L", 56.318, 6.20, 0.560),
    ];
    for (row, (name, base_uj, tm, eb)) in fig.rows.iter().zip(expected) {
        assert_eq!(row.network.name(), name);
        assert!(
            within(row.baseline_j * 1e6, base_uj, 0.02),
            "{name} baseline {} vs {base_uj}",
            row.baseline_j * 1e6
        );
        assert!(within(row.tacitmap_ratio, tm, 0.02), "{name}");
        assert!(within(row.einstein_ratio, eb, 0.02), "{name}");
    }
    assert!(within(fig.mean_tacitmap_ratio(), 6.49, 0.02));
    assert!(within(fig.mean_eb_over_tm(), 6.84, 0.02));
}

#[test]
fn figures_are_deterministic() {
    // The analytic model has no randomness: repeated runs are identical.
    let a = run_fig7(DEFAULT_BATCH);
    let b = run_fig7(DEFAULT_BATCH);
    assert_eq!(a, b);
    assert_eq!(run_fig8(64), run_fig8(64));
}
