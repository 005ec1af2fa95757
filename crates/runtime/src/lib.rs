//! # eb-runtime — the unified serving runtime
//!
//! One compile-once, serve-many API over every substrate in the
//! EinsteinBarrier workspace. A [`Backend`] prepares a trained
//! [`eb_bitnn::Bnn`] — programming crossbars, compiling instruction
//! streams, seeding the RNGs it will own — and returns a [`Session`]
//! whose `infer`/`infer_batch` calls are pure execution. All four
//! built-in backends are selected by configuration through
//! [`Runtime::builder`]:
//!
//! * [`BackendKind::Software`] — the golden word-level XNOR-GEMM kernels
//!   with per-worker scratch reuse and rayon batching.
//! * [`BackendKind::Epcm`] — TacitMap on simulated 1T1R ePCM crossbars
//!   (analog VMM with batched device resolution).
//! * [`BackendKind::Photonic`] — TacitMap on oPCM crossbars behind the
//!   full optical chain, packing drives into WDM MMM lanes.
//! * [`BackendKind::Simulator`] — the compiled accelerator: the
//!   compiler's programmed crossbars served through the same batched
//!   lowering, charged the compiled program's modeled latency/energy.
//!
//! In their noiseless (default) configurations, all four are bit-exact
//! against each other — the paper's "golden model vs. analog substrates"
//! comparison surface, now one `match`-free function call apart.
//!
//! For concurrent request/response traffic, the [`serve`](crate::ServePool)
//! layer shards one network across N replica sessions behind a
//! dynamically micro-batching queue:
//! `Runtime::builder().replicas(4).max_batch(16).serve(&net)` returns a
//! [`ServePool`] whose cloneable [`PoolHandle`]s serve any number of
//! client threads, coalescing their single-inference requests into each
//! backend's batched substrate path. Submission is ticket-based
//! ([`PoolHandle::submit`] → [`Ticket`], with per-[`Request`] deadlines
//! and [`Priority`] classes; the blocking `infer`/`predict`/`infer_many`
//! wrap `submit(..).wait()`), and a multi-model [`Server`] registry
//! serves named networks with hot [`Server::swap`] replacement. The
//! [`net`] module puts a hand-rolled HTTP/1.1 frontend ([`NetServer`])
//! in front of the registry, with overload shedding (`503 +
//! Retry-After` instead of queue blocking) and graceful drain.
//!
//! ```
//! use eb_runtime::{BackendKind, Runtime};
//! use eb_bitnn::{BinLinear, Bnn, FixedLinear, Layer, OutputLinear, Shape, Tensor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(9);
//! let net = Bnn::new(
//!     "serve-me",
//!     Shape::Flat(16),
//!     vec![
//!         Layer::FixedLinear(FixedLinear::random("in", 16, 12, &mut rng)),
//!         Layer::BinLinear(BinLinear::random("h", 12, 8, &mut rng)),
//!         Layer::Output(OutputLinear::random("out", 8, 4, &mut rng)),
//!     ],
//! )?;
//! let mut session = Runtime::builder().backend(BackendKind::Epcm).prepare(&net)?;
//! let x = Tensor::from_fn(&[16], |i| (i as f32 * 0.21).cos());
//! assert_eq!(session.infer(&x)?, net.forward(&x)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analog;
mod artifacts;
mod builder;
mod error;
mod health;
pub mod net;
mod serve;
mod session;
mod simulator;
mod software;

pub use analog::{EpcmBackend, PhotonicBackend};
pub use builder::{BackendKind, Runtime, RuntimeBuilder};
pub use eb_artifact::{Artifact, ArtifactError, ArtifactInfo, Prepared};
pub use eb_telemetry::{Counter, Gauge, Histogram, Registry as MetricsRegistry, Stage, Trace};
pub use error::EbError;
pub use health::{HealthProbe, HealthReport};
pub use net::{NetConfig, NetServer, NetStats};
pub use serve::{
    derived_model_seed, DynamicBatcher, MaintenanceConfig, MaintenanceStats, ModelHandle,
    ModelOpts, PoolConfig, PoolHandle, PoolStats, Priority, Rejected, Request, RequestOpts,
    ServePool, Server, ServerBuilder, StageHistograms, Ticket, TicketStatus,
};
pub use session::{
    predict, Backend, NoiseConfig, NoiseProfile, Session, SessionMemory, SessionOpts, SessionStats,
};
pub use simulator::SimulatorBackend;
pub use software::SoftwareBackend;
