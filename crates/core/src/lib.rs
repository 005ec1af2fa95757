//! # eb-core — The EinsteinBarrier accelerator
//!
//! The paper's primary contribution, reproduced end to end:
//!
//! * [`configs`] — the three evaluated designs (`Baseline-ePCM`,
//!   `TacitMap-ePCM`, `EinsteinBarrier`) and the PUMA-like chip
//!   organization (Nodes → Tiles → ECores → VCores).
//! * [`arch`] — the spatial hierarchy and layer placement.
//! * [`isa`] — the PUMA-extended instruction set with the new `MMM`
//!   (multi-VMM via WDM) instruction.
//! * [`lowering`] — the layer plan: the crossbar lowering's per-layer
//!   constants, derived once for the compiler and the serving sessions.
//! * [`compiler`] — lowers an `eb-bitnn` network to mapped crossbars +
//!   an instruction stream.
//! * [`sim`] — the instruction-level simulator: functionally bit-exact
//!   against the software reference, with latency/energy accounting.
//! * [`optical`] — TacitMap on optical crossbars (the functional
//!   EinsteinBarrier VCore).
//! * [`perf`] — the analytic model behind the paper's Fig. 7/Fig. 8.
//! * [`gpu`] — the analytic Baseline-GPU roofline model.
//! * [`report`] — experiment runners regenerating the figures.
//!
//! ## Regenerating the headline result
//!
//! ```
//! use eb_core::report::run_fig7;
//! let fig7 = run_fig7(16);
//! assert_eq!(fig7.rows.len(), 6); // six benchmark BNNs
//! assert!(fig7.mean_einstein_speedup() > fig7.mean_tacitmap_speedup());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arch;
pub mod area;
pub mod compiler;
pub mod configs;
pub mod gpu;
pub mod isa;
pub mod lowering;
pub mod optical;
pub mod perf;
pub mod report;
pub mod sim;

pub use arch::{ChipLayout, LayerPlacement, VcoreAddr};
pub use area::{chip_area_mm2, crossbar_area, AreaBreakdown, AreaParams};
pub use compiler::{compile, recompile, CompileError, CompiledNetwork, MappedVcore};
pub use configs::{ChipConfig, Design, DesignKind};
pub use gpu::GpuModel;
pub use isa::{AluOp, Instruction, MmmLane, Program};
pub use lowering::{ConvGeometry, LayerPlan, MatrixStep, Step};
pub use optical::{OpticalMapError, OpticalTacitMapped};
pub use perf::{evaluate_layer, evaluate_layers, evaluate_model, LayerPerf, PerfReport};
pub use report::{geomean, report_table, run_fig7, run_fig8, Fig7, Fig7Row, Fig8, Fig8Row};
pub use sim::{Machine, SimError, SimStats};
