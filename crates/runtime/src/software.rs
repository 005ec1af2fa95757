//! The software golden-reference backend: word-level XNOR-GEMM kernels
//! with per-worker scratch reuse.

use crate::error::EbError;
use crate::session::{Backend, Session, SessionMemory, SessionOpts, SessionStats};
use eb_artifact::Prepared;
use eb_bitnn::{Bnn, ForwardScratch, Tensor};
use eb_core::LayerPlan;
use std::sync::Arc;
use std::time::Instant;

/// Serves inference through the `eb-bitnn` software kernels — the golden
/// model every analog backend is measured against.
///
/// `prepare` validates nothing beyond the network itself (the software
/// path hosts any [`Bnn`] whose layer kinds chain); sessions reuse one [`ForwardScratch`]
/// across single inferences and the rayon batch path (one scratch per
/// worker) for `infer_batch`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftwareBackend;

impl Backend for SoftwareBackend {
    fn name(&self) -> &'static str {
        "software"
    }

    fn prepare_replicas(
        &self,
        net: &Bnn,
        opts: &SessionOpts,
        replicas: usize,
        restore: Option<Prepared>,
    ) -> Result<Vec<Box<dyn Session>>, EbError> {
        if restore.is_some() {
            // Preparing fresh would silently ignore the snapshot.
            return Err(EbError::Config(
                "the software backend has no prepared-state restore path; re-export the \
                 artifact without a prepared section or load it on the backend that captured it"
                    .into(),
            ));
        }
        // The software substrate is stateless beyond scratch buffers, so
        // every replica reads one `Arc`'d copy of the weights. (This
        // path draws no noise, so the per-replica seed rule is vacuous.)
        crate::analog::reject_cell_effects(&opts.noise, self.name())?;
        // A layer stack whose activation kinds do not chain would fail
        // every request; the layer plan's chaining rule rejects it here.
        LayerPlan::new(net)?;
        let shared = Arc::new(net.clone());
        Ok((0..replicas)
            .map(|_| Box::new(SoftwareSession::new(Arc::clone(&shared))) as Box<dyn Session>)
            .collect())
    }
}

/// A prepared software serving session. The network is `Arc`-shared:
/// replicas minted by [`Backend::prepare_replicas`] all read the same
/// weight storage and privately own only scratch and counters.
#[derive(Debug, Clone)]
struct SoftwareSession {
    net: Arc<Bnn>,
    scratch: ForwardScratch,
    inferences: u64,
    /// Accumulated wall-clock serving time (monotone nondecreasing).
    latency_ns: f64,
}

impl SoftwareSession {
    fn new(net: Arc<Bnn>) -> Self {
        Self {
            net,
            scratch: ForwardScratch::new(),
            inferences: 0,
            latency_ns: 0.0,
        }
    }
}

impl Session for SoftwareSession {
    fn backend_name(&self) -> &'static str {
        "software"
    }

    fn infer(&mut self, x: &Tensor) -> Result<Tensor, EbError> {
        let started = Instant::now();
        let logits = self.net.forward_with(x, &mut self.scratch)?;
        self.inferences += 1;
        self.latency_ns += started.elapsed().as_nanos() as f64;
        Ok(logits)
    }

    fn infer_batch(&mut self, xs: &[Tensor]) -> Result<Vec<Tensor>, EbError> {
        // The one parallel batching implementation: rayon fan-out with a
        // per-worker scratch, shared with `Bnn::predict_batch`/`accuracy`.
        let started = Instant::now();
        let out = self.net.forward_batch(xs)?;
        self.inferences += xs.len() as u64;
        self.latency_ns += started.elapsed().as_nanos() as f64;
        Ok(out)
    }

    fn stats(&self) -> SessionStats {
        SessionStats {
            inferences: self.inferences,
            latency_ns: self.latency_ns,
            ..SessionStats::default()
        }
    }

    fn memory(&self) -> SessionMemory {
        // Binary weight storage dominates the shared side; the rind is
        // just this struct and its (lazily grown) scratch.
        let weight_bits: u64 = self
            .net
            .layer_dims()
            .iter()
            .map(|d| d.fan_in as u64 * d.out_vectors as u64 * u64::from(d.weight_bits))
            .sum();
        SessionMemory {
            core_bytes: weight_bits / 8,
            replica_bytes: std::mem::size_of::<Self>() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eb_bitnn::{BinLinear, FixedLinear, Layer, OutputLinear, Shape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net() -> Bnn {
        let mut rng = StdRng::seed_from_u64(3);
        Bnn::new(
            "t",
            Shape::Flat(10),
            vec![
                Layer::FixedLinear(FixedLinear::random("in", 10, 8, &mut rng)),
                Layer::BinLinear(BinLinear::random("h", 8, 8, &mut rng)),
                Layer::Output(OutputLinear::random("out", 8, 4, &mut rng)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn software_session_matches_direct_forward() {
        let net = net();
        let mut session = SoftwareBackend
            .prepare(&net, &SessionOpts::default())
            .unwrap();
        let xs: Vec<Tensor> = (0..5)
            .map(|s| Tensor::from_fn(&[10], |i| ((i + s) as f32 * 0.3).sin()))
            .collect();
        for x in &xs {
            assert_eq!(session.infer(x).unwrap(), net.forward(x).unwrap());
        }
        let batch = session.infer_batch(&xs).unwrap();
        for (x, got) in xs.iter().zip(&batch) {
            assert_eq!(*got, net.forward(x).unwrap());
        }
        assert_eq!(session.stats().inferences, 10);
        assert_eq!(session.stats().crossbar_steps, 0);
    }

    #[test]
    fn restoring_a_snapshot_is_a_typed_config_error() {
        let net = net();
        let opts = SessionOpts::default();
        let prepared = crate::EpcmBackend::default()
            .export_prepared(&net, &opts)
            .unwrap()
            .expect("the epcm backend exports prepared state");
        let err = SoftwareBackend
            .prepare_replicas(&net, &opts, 1, Some(prepared))
            .err()
            .expect("software must reject prepared state");
        assert!(matches!(err, EbError::Config(_)), "{err:?}");
    }
}
