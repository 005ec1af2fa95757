//! # eb-bench — experiment harness
//!
//! Binaries regenerating every figure of the paper's evaluation (run with
//! `cargo run -p eb-bench --release --bin <name>`):
//!
//! | Binary            | Paper artifact |
//! |-------------------|----------------|
//! | `fig7_latency`    | Fig. 7 — normalized latency over the 6 BNNs |
//! | `fig8_energy`     | Fig. 8 — normalized energy over the 6 BNNs |
//! | `fig3_steps`      | Fig. 3 — TacitMap vs CustBinaryMap step counts |
//! | `fig5_wdm`        | Fig. 5 — WDM time-steps on oPCM vs ePCM |
//! | `power_model`     | Eq. 2 / Eq. 3 — receiver and transmitter power |
//! | `dse_wdm`         | §VI-C — design-space exploration over K and array size (extension) |
//! | `multilevel_noise`| §II-C/§VI-C — binary vs multi-level oPCM robustness (extension) |
//!
//! `loadgen` is the open-loop HTTP load generator for `eb-serve`. The
//! `conv_gemm` criterion bench (`cargo bench -p eb-bench --bench
//! conv_gemm`) times the packed conv/GEMM kernels against their naive
//! references; served performance is measured by the repository
//! benchmark, `perfbench/`.

use std::fmt::Display;

/// Prints a standard experiment banner.
pub fn banner(title: impl Display, paper_ref: impl Display) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("(paper reference: {paper_ref})");
    println!("{}", "=".repeat(78));
}

/// Formats a speedup factor the way the paper annotates its figures
/// (`~78x`).
pub fn paper_factor(x: f64) -> String {
    if x >= 10.0 {
        format!("~{x:.0}x")
    } else {
        format!("~{x:.1}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_format_like_the_paper() {
        assert_eq!(paper_factor(78.2), "~78x");
        assert_eq!(paper_factor(1205.4), "~1205x");
        assert_eq!(paper_factor(1.56), "~1.6x");
    }
}
