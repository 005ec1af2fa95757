//! The accelerator-simulator backend: a [`Design`] served through the one
//! crossbar backend body ([`Crossbar`]), programmed, restored and
//! exported as the ePCM or photonic backend over the design's crossbars,
//! and charged per inference the design's modeled latency/energy from
//! one dry run of the compiled program on a [`Machine`].

use crate::analog::{reject_cell_effects, AnalogSession, Crossbar};
use crate::error::EbError;
use crate::session::{Backend, Session, SessionOpts};
use eb_artifact::{DesignFingerprint, Prepared, PreparedState};
use eb_bitnn::{Bnn, Tensor};
use eb_core::{recompile, Design, Machine, SimStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Serves inference through the EinsteinBarrier accelerator simulator:
/// `prepare` programs the design's crossbars (optical with WDM on
/// EinsteinBarrier, electronic otherwise) as the photonic or ePCM backend
/// would, but rejects drift and active faults on every design. Sessions
/// serve through the batched lowering, so WDM lanes pack across a batch,
/// and report the compiled program's modeled, batch-1 cost per inference.
#[derive(Debug, Clone)]
pub struct SimulatorBackend {
    design: Design,
}

impl SimulatorBackend {
    /// A backend simulating an explicit design.
    pub fn new(design: Design) -> Self {
        Self { design }
    }

    /// The modeled cost of one inference: the statistics of one zero-input
    /// run of the program `eb_core::recompile` emits over replicas of the
    /// session's layers. `Machine` charges depend only on shapes and lane
    /// counts, and the run draws from a throwaway RNG, never a session's.
    fn ledger(&self, net: &Bnn, session: &AnalogSession) -> Result<SimStats, EbError> {
        let compiled = recompile(&self.design, net, session.vcores())?;
        let mut machine = Machine::new(compiled, &self.design, StdRng::seed_from_u64(0));
        machine.run(&Tensor::zeros(&[net.input_shape().len()]))?;
        Ok(machine.stats().clone())
    }
}

impl Default for SimulatorBackend {
    /// Simulates the full EinsteinBarrier design (TacitMap on oPCM with
    /// WDM `K = 16`).
    fn default() -> Self {
        Self::new(Design::einstein_barrier())
    }
}

impl Backend for SimulatorBackend {
    fn name(&self) -> &'static str {
        "simulator"
    }

    fn prepare_replicas(
        &self,
        net: &Bnn,
        opts: &SessionOpts,
        replicas: usize,
        restore: Option<Prepared>,
    ) -> Result<Vec<Box<dyn Session>>, EbError> {
        reject_cell_effects(&opts.noise, self.name())?;
        let state = restore.as_ref().map(|p| &p.state);
        if let Some(PreparedState::Simulator { fingerprint, .. }) = state {
            if !fingerprint.matches(&self.design) {
                return Err(EbError::Config(
                    "artifact prepared state was captured for a different accelerator design; \
                     instantiate SimulatorBackend over it or re-export the artifact"
                        .into(),
                ));
            }
        }
        let base = Crossbar::simulating(&self.design).session(net, opts, restore)?;
        let ledger = self.ledger(net, &base)?;
        Ok(base.charged(ledger).mint(opts, replicas))
    }

    fn export_prepared(&self, net: &Bnn, opts: &SessionOpts) -> Result<Option<Prepared>, EbError> {
        reject_cell_effects(&opts.noise, self.name())?;
        let fingerprint = Box::new(DesignFingerprint::of(&self.design));
        Crossbar::simulating(&self.design).export(net, opts, |mats| PreparedState::Simulator {
            fingerprint,
            mats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::NoiseProfile;
    use eb_bitnn::{BinLinear, FixedLinear, Layer, OutputLinear, Shape};

    #[test]
    fn simulator_session_matches_reference_and_charges_modeled_cost() {
        let mut rng = StdRng::seed_from_u64(17);
        let net = Bnn::new(
            "sim",
            Shape::Flat(24),
            vec![
                Layer::FixedLinear(FixedLinear::random("in", 24, 12, &mut rng)),
                Layer::BinLinear(BinLinear::random("h", 12, 10, &mut rng)),
                Layer::Output(OutputLinear::random("out", 10, 4, &mut rng)),
            ],
        )
        .unwrap();
        for design in [Design::tacitmap_epcm(), Design::einstein_barrier()] {
            let mut session = SimulatorBackend::new(design)
                .prepare(&net, &SessionOpts::default())
                .unwrap();
            for s in 0..4u64 {
                let x = Tensor::from_fn(&[24], |i| ((i as f32 + s as f32) * 0.29).cos());
                assert_eq!(session.infer(&x).unwrap(), net.forward(&x).unwrap());
            }
            let stats = session.stats();
            assert_eq!(stats.inferences, 4);
            assert!(stats.crossbar_steps > 0);
            assert!(stats.latency_ns > 0.0 && stats.energy_j > 0.0);
        }
    }

    #[test]
    fn noisy_profile_is_honored_and_replays_per_seed() {
        let mut rng = StdRng::seed_from_u64(19);
        let net = Bnn::new(
            "sim-noisy",
            Shape::Flat(24),
            vec![
                Layer::FixedLinear(FixedLinear::random("in", 24, 12, &mut rng)),
                Layer::BinLinear(BinLinear::random("h", 12, 10, &mut rng)),
                Layer::Output(OutputLinear::random("out", 10, 4, &mut rng)),
            ],
        )
        .unwrap();
        let xs: Vec<Tensor> = (0..8u64)
            .map(|s| Tensor::from_fn(&[24], |i| ((i as f32 + s as f32) * 0.29).cos()))
            .collect();
        let design = Design::tacitmap_epcm();
        let serve = |backend: &dyn Backend, seed: u64| {
            let mut opts = SessionOpts::default();
            opts.noise.profile = NoiseProfile::Noisy;
            opts.noise.seed = seed;
            let mut session = backend.prepare(&net, &opts).unwrap();
            xs.iter()
                .map(|x| session.infer(x).unwrap())
                .collect::<Vec<_>>()
        };
        let simulator = SimulatorBackend::new(design.clone());
        let epcm = crate::EpcmBackend::new(design.xbar);
        // Noise flips few logits of a net this small (a handful of the
        // 512 served here), so the sweep spans many seeds.
        let mut diverged = false;
        for seed in 0..64 {
            let logits = serve(&simulator, seed);
            assert_eq!(
                logits,
                serve(&simulator, seed),
                "seed {seed} must replay exactly"
            );
            assert_eq!(
                logits,
                serve(&epcm, seed),
                "seed {seed}: the ePCM backend's noise"
            );
            diverged |= xs
                .iter()
                .zip(&logits)
                .any(|(x, y)| *y != net.forward(x).unwrap());
        }
        assert!(diverged, "the noisy profile must reach the devices");
    }
}
