//! The accelerator-simulator backend: compiles a [`Design`] once, serves
//! the compiled vcores through the batched crossbar lowering
//! ([`AnalogSession`]), and charges each inference the design's modeled
//! latency/energy from one dry run of the compiled program on a
//! [`Machine`].

use crate::analog::{reject_leftover_state, restored_mat, AnalogSession, MappedMat, RestoredDims};
use crate::artifacts::captured_meta;
use crate::error::EbError;
use crate::session::{mint_replicas, Backend, NoiseProfile, Session, SessionOpts};
use eb_artifact::{DesignFingerprint, Prepared, PreparedBackend, PreparedState};
use eb_bitnn::{Bnn, Tensor};
use eb_core::{compile, recompile, CompiledNetwork, Design, Machine, MappedVcore, SimStats};
use eb_mapping::SeededTacitMapped;
use eb_photonics::Receiver;
use eb_xbar::DeviceParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Serves inference through the EinsteinBarrier accelerator simulator:
/// `prepare` runs the compiler exactly once (mapping every layer onto the
/// design's crossbars and emitting the instruction stream). Sessions
/// serve the programmed vcores through the same batched lowering as the
/// analog backends, so WDM lanes pack across a batch, and report the
/// compiled program's modeled, batch-1 cost per inference.
#[derive(Debug, Clone)]
pub struct SimulatorBackend {
    design: Design,
}

impl SimulatorBackend {
    /// A backend simulating an explicit design.
    pub fn new(design: Design) -> Self {
        Self { design }
    }

    /// The design sessions are compiled for.
    pub fn design(&self) -> &Design {
        &self.design
    }
}

impl Default for SimulatorBackend {
    /// Simulates the full EinsteinBarrier design (TacitMap on oPCM with
    /// WDM `K = 16`).
    fn default() -> Self {
        Self::new(Design::einstein_barrier())
    }
}

impl SimulatorBackend {
    /// Rejects the noise knobs the compiled designs cannot host.
    fn validate_opts(&self, opts: &SessionOpts) -> Result<(), EbError> {
        if opts.noise.drift_t_ratio.is_some() {
            return Err(EbError::Config(
                "the simulator backend does not model resistance drift; unset \
                 NoiseConfig::drift_t_ratio or use BackendKind::Epcm"
                    .into(),
            ));
        }
        crate::analog::reject_active_fault(&opts.noise, "simulator")
    }

    /// Compiles `net` from an RNG seeded at the session seed — the shared
    /// body under [`Backend::prepare_replicas`] and
    /// [`Backend::export_prepared`]. The RNG comes back positioned after
    /// compilation's mapping draws. The noisy profile programs electronic
    /// crossbars with noisy devices and gives optical vcores the noisy
    /// receiver, as the analog backends do.
    fn compile_fresh(
        &self,
        net: &Bnn,
        opts: &SessionOpts,
    ) -> Result<(CompiledNetwork, StdRng), EbError> {
        self.validate_opts(opts)?;
        let mut rng = StdRng::seed_from_u64(opts.noise.seed);
        let compiled = match opts.noise.profile {
            NoiseProfile::Ideal => compile(&self.design, net, &mut rng)?,
            NoiseProfile::Noisy => {
                let mut design = self.design.clone();
                design.xbar = design.xbar.with_device(DeviceParams::noisy());
                let mut compiled = compile(&design, net, &mut rng)?;
                for vcore in &mut compiled.vcores {
                    if let MappedVcore::Optical(m) = vcore {
                        m.set_receiver(Receiver::noisy());
                    }
                }
                compiled
            }
        };
        Ok((compiled, rng))
    }

    /// Validates a simulator prepared-state snapshot and recompiles `net`
    /// over its programmed vcores, returning the compiled network and the
    /// RNG resumed at its post-compile position.
    fn restore_compiled(
        &self,
        net: &Bnn,
        opts: &SessionOpts,
        prepared: Prepared,
    ) -> Result<(CompiledNetwork, StdRng), EbError> {
        // Meta↔opts agreement is validated by the caller; the substrate
        // capability checks still apply to crafted artifacts.
        self.validate_opts(opts)?;
        let PreparedState::Simulator {
            fingerprint,
            vcores,
            rng_state,
        } = prepared.state
        else {
            return Err(EbError::Config(format!(
                "artifact prepared state holds {} substrate state, which the simulator backend \
                 cannot restore",
                prepared.state.backend().name()
            )));
        };
        if !fingerprint.matches(&self.design) {
            return Err(EbError::Config(
                "artifact prepared state was compiled for a different accelerator design than \
                 this simulator backend's; instantiate SimulatorBackend over the capturing \
                 design or re-export the artifact"
                    .into(),
            ));
        }
        let compiled = recompile(&self.design, net, vcores).map_err(|e| {
            EbError::Config(format!(
                "artifact prepared state was captured for a different network: {e}"
            ))
        })?;
        Ok((compiled, StdRng::from_state(rng_state)))
    }

    /// Serves `compiled` through the batched lowering. Each matrix
    /// layer's execution RNG is seeded from one draw of `rng`, the RNG
    /// compilation left behind, in network order.
    fn serve_compiled(
        &self,
        net: &Bnn,
        compiled: CompiledNetwork,
        mut rng: StdRng,
    ) -> Result<AnalogSession, EbError> {
        let ledger = self.ledger(&compiled)?;
        let mut vcores = compiled.vcores.into_iter();
        let session = AnalogSession::build(net, |weights, layer| {
            let vcore = restored_mat(&mut vcores, weights, layer, "simulator")?;
            let layer_rng = StdRng::seed_from_u64(rng.gen());
            match vcore {
                MappedVcore::Electronic(m) => Ok(MappedMat::Epcm(SeededTacitMapped::from_parts(
                    m,
                    layer_rng.state(),
                ))),
                MappedVcore::Optical(mapped) => Ok(MappedMat::Photonic {
                    mapped,
                    rng: layer_rng,
                    lanes: 0,
                }),
                _ => Err(EbError::Config(format!(
                    "layer {layer} is compiled onto a vcore the simulator backend cannot serve"
                ))),
            }
        })?;
        reject_leftover_state(vcores.len())?;
        Ok(session.named("simulator").charged(ledger))
    }

    /// The modeled cost of one inference: the statistics of one run of
    /// the compiled program on a zero input. `Machine` charges depend only
    /// on shapes and lane counts, never on data, and the dry run reads a
    /// replica with a throwaway RNG, so no session stream is drawn from.
    fn ledger(&self, compiled: &CompiledNetwork) -> Result<SimStats, EbError> {
        let mut machine =
            Machine::new(compiled.replicate(), &self.design, StdRng::seed_from_u64(0));
        machine.run(&Tensor::zeros(&[compiled.input_shape.len()]))?;
        Ok(machine.stats().clone())
    }
}

impl RestoredDims for MappedVcore {
    fn dims(&self) -> (usize, usize) {
        let fan_in = match self {
            Self::Electronic(m) => m.fan_in(),
            Self::Optical(m) => m.fan_in(),
            // A substrate this runtime does not know fits no layer.
            _ => 0,
        };
        (fan_in, self.out_vectors())
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
        // Compile (or restore) exactly once. Replica 0 seeds its layer
        // RNGs from the RNG as it stands after compilation — a restored
        // one resumes the snapshot's position — and replicas `i ≥ 1`
        // share its programmed vcores, as on the analog backends.
        let (compiled, rng) = match restore {
            Some(prepared) => self.restore_compiled(net, opts, prepared)?,
            None => self.compile_fresh(net, opts)?,
        };
        let base = self.serve_compiled(net, compiled, rng)?;
        Ok(mint_replicas(
            base,
            opts.noise.seed,
            replicas,
            AnalogSession::replicate,
        ))
    }

    fn export_prepared(&self, net: &Bnn, opts: &SessionOpts) -> Result<Option<Prepared>, EbError> {
        let (compiled, rng) = self.compile_fresh(net, opts)?;
        Ok(Some(Prepared {
            meta: captured_meta(PreparedBackend::Simulator, &opts.noise),
            state: PreparedState::Simulator {
                fingerprint: Box::new(DesignFingerprint::of(&self.design)),
                vcores: compiled.vcores,
                // Captured *after* compilation consumed its mapping
                // draws, so a restored session seeds its layer RNGs
                // exactly as a fresh prepare's would.
                rng_state: rng.state(),
            },
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eb_bitnn::{BinLinear, FixedLinear, Layer, OutputLinear, Shape};

    #[test]
    fn simulator_session_compiles_once_and_matches_reference() {
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
        let backend = SimulatorBackend::new(Design::tacitmap_epcm());
        let serve = |seed: u64| {
            let mut opts = SessionOpts::default();
            opts.noise.profile = NoiseProfile::Noisy;
            opts.noise.seed = seed;
            let mut session = backend.prepare(&net, &opts).unwrap();
            xs.iter()
                .map(|x| session.infer(x).unwrap())
                .collect::<Vec<_>>()
        };
        let mut diverged = false;
        for seed in 0..8 {
            let logits = serve(seed);
            assert_eq!(logits, serve(seed), "seed {seed} must replay exactly");
            diverged |= xs
                .iter()
                .zip(&logits)
                .any(|(x, y)| *y != net.forward(x).unwrap());
        }
        assert!(diverged, "the noisy profile must reach the devices");
    }
}
