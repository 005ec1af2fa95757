//! # eb-mapping — TacitMap and CustBinaryMap
//!
//! The paper's Section III: data mappings that realize the BNN
//! XNOR+Popcount (Eq. 1) on VMM-capable crossbars.
//!
//! * [`TacitMapped`] — the proposed mapping: weight vectors vertical in
//!   1T1R columns with complements below; one crossbar activation reads
//!   *all* popcounts from the ADCs (1 step, column-parallel).
//! * [`CustBinaryMapped`] — the SotA baseline (Hirtzlin et al.): weight
//!   vectors horizontal in 2T2R rows, PCSA single-bit readout, digital
//!   5-bit counters + popcount tree; `n` weight vectors take `n` steps.
//! * [`plan`] — the geometry/step planner used by the accelerator cost
//!   models: footprints, replication within a chip budget, step counts
//!   (including the WDM-enabled MMM variant).
//!
//! Both functional mappers run on the real analog crossbar simulation of
//! `eb-xbar` and are verified bit-exactly against the `eb-bitnn` software
//! kernels in their noiseless configurations.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod custbinary;
mod error;
pub mod plan;
mod tacitmap;

pub use custbinary::CustBinaryMapped;
pub use error::MappingError;
pub use plan::{
    plan_custbinary, plan_tacitmap, plan_wdm_tacitmap, MappingKind, MappingPlan, Workload,
};
pub use tacitmap::TacitMapped;
