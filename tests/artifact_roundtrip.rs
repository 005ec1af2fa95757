//! `.ebm` artifact round-trips: save → load must be bit-exact on every
//! backend, prepared-state restore must serve exactly what a fresh
//! prepare would (including noisy streams), and capture/requested
//! option conflicts must be rejected rather than silently dropped.

use einstein_barrier::artifact;
use einstein_barrier::bitnn::{BinLinear, Bnn, FixedLinear, Layer, OutputLinear, Shape, Tensor};
use einstein_barrier::{
    derived_model_seed, BackendKind, EbError, ModelOpts, NoiseProfile, PoolConfig, Runtime, Server,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn mlp(seed: u64) -> Bnn {
    mlp_with_hidden(seed, &[10])
}

/// An 18-input, 4-class MLP: a 12-wide fixed-point input layer, then one
/// binary layer per entry of `hidden`.
fn mlp_with_hidden(seed: u64, hidden: &[usize]) -> Bnn {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut layers = vec![Layer::FixedLinear(FixedLinear::random(
        "in", 18, 12, &mut rng,
    ))];
    let mut width = 12;
    for (i, &next) in hidden.iter().enumerate() {
        let name = format!("h{i}");
        layers.push(Layer::BinLinear(BinLinear::random(
            &name, width, next, &mut rng,
        )));
        width = next;
    }
    layers.push(Layer::Output(OutputLinear::random(
        "out", width, 4, &mut rng,
    )));
    Bnn::new("artifact-mlp", Shape::Flat(18), layers).unwrap()
}

fn xs(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|k| Tensor::from_fn(&[18], |i| ((i + 5 * k) as f32 * 0.37).sin()))
        .collect()
}

/// A unique scratch path per test so the suite's tests can run
/// concurrently in one process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eb-artifact-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn model_round_trip_is_bit_exact_on_every_backend() {
    let net = mlp(3);
    let path = scratch("model-only.ebm");
    let info = artifact::write_model(&path, &net, None).unwrap();
    let loaded = artifact::read_model(&path).unwrap();
    assert_eq!(loaded.info, info);
    assert!(loaded.prepared.is_none());

    let inputs = xs(6);
    for kind in BackendKind::all() {
        let runtime = Runtime::builder().backend(kind).build();
        let mut session = runtime.prepare_from_file(&path).unwrap();
        for x in &inputs {
            assert_eq!(
                session.infer(x).unwrap(),
                net.forward(x).unwrap(),
                "noiseless {kind} serving a loaded artifact must match the reference"
            );
        }
    }
}

/// `save_artifact` on the backends with a prepared-state path must
/// restore to a session byte-for-byte equal to a fresh prepare — in the
/// ideal profile this also means equal to the reference forward pass.
#[test]
fn prepared_state_restores_bit_exact_against_fresh_prepare() {
    let net = mlp(4);
    let inputs = xs(6);
    let cases: [(&str, Runtime); 3] = [
        (
            "epcm",
            Runtime::builder()
                .backend(BackendKind::Epcm)
                .seed(11)
                .build(),
        ),
        (
            "photonic",
            Runtime::builder()
                .backend(BackendKind::Photonic)
                .seed(11)
                .build(),
        ),
        (
            "simulator",
            Runtime::builder()
                .backend(BackendKind::Simulator)
                .seed(11)
                .build(),
        ),
    ];
    for (name, runtime) in &cases {
        let path = scratch(&format!("prepared-{name}.ebm"));
        runtime.save_artifact(&net, &path).unwrap();
        // The prepared section must actually be present for these.
        assert!(
            artifact::read_model(&path).unwrap().prepared.is_some(),
            "{name} must export prepared state"
        );
        let mut fresh = runtime.prepare(&net).unwrap();
        let mut restored = runtime.prepare_from_file(&path).unwrap();
        for x in &inputs {
            let want = fresh.infer(x).unwrap();
            assert_eq!(
                restored.infer(x).unwrap(),
                want,
                "{name} restore must match a fresh prepare"
            );
            assert_eq!(want, net.forward(x).unwrap(), "{name} ideal profile");
        }
    }
}

/// Under device noise the restored RNG must sit exactly where a fresh
/// prepare's would (post-programming), so the *noisy* streams replay
/// identically too.
#[test]
fn noisy_streams_replay_identically_after_reload() {
    let net = mlp(5);
    let inputs = xs(8);
    for kind in [BackendKind::Epcm, BackendKind::Photonic] {
        let runtime = Runtime::builder()
            .backend(kind)
            .noise_profile(NoiseProfile::Noisy)
            .seed(21)
            .build();
        let path = scratch(&format!("noisy-{kind}.ebm"));
        runtime.save_artifact(&net, &path).unwrap();
        let mut fresh = runtime.prepare(&net).unwrap();
        let mut restored = runtime.prepare_from_file(&path).unwrap();
        for x in &inputs {
            assert_eq!(
                restored.infer(x).unwrap(),
                fresh.infer(x).unwrap(),
                "{kind} noisy stream must replay bit-exactly after reload"
            );
        }
    }
}

/// Prepared state survives restore unchanged on every crossbar backend:
/// the restored session serves what a fresh prepare does, and
/// re-encoding the decoded state reproduces the saved file byte for
/// byte.
#[test]
fn crossbar_artifacts_reexport_byte_identically() {
    let net = mlp(8);
    for kind in [
        BackendKind::Epcm,
        BackendKind::Photonic,
        BackendKind::Simulator,
    ] {
        let runtime = Runtime::builder()
            .backend(kind)
            .noise_profile(NoiseProfile::Noisy)
            .seed(4)
            .build();
        let path = scratch(&format!("{kind}-reexport.ebm"));
        runtime.save_artifact(&net, &path).unwrap();
        let mut restored = runtime.prepare_from_file(&path).unwrap();
        let mut fresh = runtime.prepare(&net).unwrap();
        for x in &xs(3) {
            assert_eq!(
                restored.infer(x).unwrap(),
                fresh.infer(x).unwrap(),
                "{kind}"
            );
        }
        let loaded = artifact::read_model(&path).unwrap();
        let again = artifact::encode(&loaded.net, loaded.prepared.as_ref()).unwrap();
        assert_eq!(again, std::fs::read(&path).unwrap(), "{kind}: re-encode");
    }
}

/// FNV-1a over `bytes`: a stable 64-bit digest for pinning file contents.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A fresh noisy export on every crossbar backend writes the same bytes
/// it always has: the model section plus the prepared payload, whose
/// programmed devices, RNG positions and counters these digests pin.
#[test]
fn fresh_noisy_exports_are_pinned() {
    let net = mlp(8);
    for (kind, want_len, want_hash) in [
        (BackendKind::Epcm, 137_789, 0xe2f1_55aa_16fb_6368),
        (BackendKind::Photonic, 142_935, 0xbd1a_78c7_a70a_8f46),
        (BackendKind::Simulator, 143_155, 0xbc34_4bc4_86ae_beef),
    ] {
        let runtime = Runtime::builder()
            .backend(kind)
            .noise_profile(NoiseProfile::Noisy)
            .seed(5)
            .build();
        let path = scratch(&format!("pinned-{kind}.ebm"));
        runtime.save_artifact(&net, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (want_len, want_hash),
            "{kind}: exported bytes moved"
        );
    }
}

/// The software backend has no substrate state to snapshot: its
/// artifacts carry the model section only and load everywhere.
#[test]
fn software_artifacts_have_no_prepared_section() {
    let net = mlp(6);
    let path = scratch("software.ebm");
    let runtime = Runtime::builder().backend(BackendKind::Software).build();
    runtime.save_artifact(&net, &path).unwrap();
    assert!(artifact::read_model(&path).unwrap().prepared.is_none());
    // Loads fine on a *different* backend because there is no prepared
    // section to conflict.
    let mut session = Runtime::builder()
        .backend(BackendKind::Epcm)
        .prepare_from_file(&path)
        .unwrap();
    let x = &xs(1)[0];
    assert_eq!(session.infer(x).unwrap(), net.forward(x).unwrap());
}

/// No-silent-fallback: a prepared section captured under conditions the
/// loading runtime does not match — options or network — is a typed
/// error, never ignored.
#[test]
fn conflicting_prepared_state_is_rejected_not_dropped() {
    let net = mlp(7);
    let path = scratch("conflicts.ebm");
    let capturing = Runtime::builder()
        .backend(BackendKind::Epcm)
        .seed(11)
        .build();
    capturing.save_artifact(&net, &path).unwrap();

    // Same backend, different seed.
    let err = Runtime::builder()
        .backend(BackendKind::Epcm)
        .seed(12)
        .prepare_from_file(&path)
        .err()
        .expect("conflict must be rejected");
    assert!(
        matches!(err, EbError::Config(ref m) if m.contains("seed")),
        "{err}"
    );

    // Different backend entirely.
    let err = Runtime::builder()
        .backend(BackendKind::Photonic)
        .seed(11)
        .prepare_from_file(&path)
        .err()
        .expect("conflict must be rejected");
    assert!(
        matches!(err, EbError::Config(ref m) if m.contains("backend")),
        "{err}"
    );

    // Same backend and seed, different noise profile.
    let err = Runtime::builder()
        .backend(BackendKind::Epcm)
        .seed(11)
        .noise_profile(NoiseProfile::Noisy)
        .prepare_from_file(&path)
        .err()
        .expect("conflict must be rejected");
    assert!(
        matches!(err, EbError::Config(ref m) if m.contains("nois")),
        "{err}"
    );

    // The matching runtime still loads it (the artifact is fine).
    assert!(capturing.prepare_from_file(&path).is_ok());

    // A model section from one network paired with a prepared section
    // captured for another — a different hidden width, one layer more,
    // or one layer fewer — on every backend that restores prepared
    // state: a typed error, never a panic or a served foreign network.
    let others = [
        ("wider", mlp_with_hidden(7, &[14])),
        ("deeper", mlp_with_hidden(7, &[10, 10])),
        ("shallower", mlp_with_hidden(7, &[])),
    ];
    for kind in [
        BackendKind::Epcm,
        BackendKind::Photonic,
        BackendKind::Simulator,
    ] {
        let runtime = Runtime::builder().backend(kind).seed(11).build();
        for (what, other) in &others {
            let captured = scratch(&format!("other-{kind}-{what}.ebm"));
            runtime.save_artifact(other, &captured).unwrap();
            let prepared = artifact::read_model(&captured).unwrap().prepared;
            let path = scratch(&format!("mismatched-{kind}-{what}.ebm"));
            artifact::write_model(&path, &net, prepared.as_ref()).unwrap();
            let err = runtime
                .prepare_from_file(&path)
                .err()
                .expect("a prepared section from another network must be rejected");
            assert!(
                matches!(err, EbError::Config(ref m) if m.contains("different network")),
                "{kind}, {what} net: {err}"
            );
        }
    }
}

/// The seed-centralization regression: a file-loaded deploy and an
/// in-memory deploy of the same network under the same name must serve
/// *identical noisy streams*, because both derive the pool's base seed
/// through [`derived_model_seed`].
#[test]
fn file_and_memory_deploys_serve_identical_noisy_streams() {
    let net = mlp(8);
    let path = scratch("server-deploy.ebm");
    artifact::write_model(&path, &net, None).unwrap();
    let opts = {
        let mut o = ModelOpts {
            backend: BackendKind::Epcm,
            pool: PoolConfig {
                replicas: 1,
                ..PoolConfig::default()
            },
            ..ModelOpts::default()
        };
        o.session.noise.profile = NoiseProfile::Noisy;
        o.session.noise.seed = 7;
        o
    };

    let memory = Server::builder().serve().unwrap();
    memory.deploy_with("m", &net, opts.clone()).unwrap();
    let file = Server::builder().serve().unwrap();
    let info = file.deploy_from_file_with("m", &path, opts).unwrap();

    // Provenance: only the file-loaded deploy reports artifact info.
    assert_eq!(memory.artifact_info("m").unwrap(), None);
    assert_eq!(file.artifact_info("m").unwrap(), Some(info));

    let (mh, fh) = (memory.handle("m").unwrap(), file.handle("m").unwrap());
    for x in &xs(8) {
        assert_eq!(
            mh.infer(x).unwrap(),
            fh.infer(x).unwrap(),
            "identical (net, name, opts) must serve identical noisy streams"
        );
    }
}

/// `swap_from_file` carries the full hot-swap contract plus provenance:
/// the handle switches to the file's network and the registry records
/// the new container's identity (and an in-memory swap clears it).
#[test]
fn swap_from_file_switches_network_and_provenance() {
    let old = mlp(9);
    let new = mlp(10);
    let path = scratch("swap-target.ebm");
    let info = artifact::write_model(&path, &new, None).unwrap();

    let server = Server::builder().model("m", &old).serve().unwrap();
    assert_eq!(server.artifact_info("m").unwrap(), None);
    let handle = server.handle("m").unwrap();
    let x = &xs(1)[0];
    assert_eq!(handle.infer(x).unwrap(), old.forward(x).unwrap());

    server.swap_from_file("m", &path).unwrap();
    assert_eq!(handle.infer(x).unwrap(), new.forward(x).unwrap());
    assert_eq!(server.artifact_info("m").unwrap(), Some(info));

    // An in-memory swap clears the file provenance again.
    server.swap("m", &old).unwrap();
    assert_eq!(server.artifact_info("m").unwrap(), None);
}

/// A registry-prepared artifact deploys through the prepared-state fast
/// path when the capturing runtime used the registry's derived seed.
#[test]
fn registry_prepared_artifact_deploys_with_prepared_state() {
    let net = mlp(12);
    let path = scratch("registry-prepared.ebm");
    let configured = 7u64;
    // Capture with the pool's own base seed for model name "m".
    let capturing = Runtime::builder()
        .backend(BackendKind::Epcm)
        .seed(derived_model_seed("m", configured))
        .build();
    capturing.save_artifact(&net, &path).unwrap();

    let opts = {
        let mut o = ModelOpts {
            backend: BackendKind::Epcm,
            pool: PoolConfig {
                replicas: 2,
                ..PoolConfig::default()
            },
            ..ModelOpts::default()
        };
        o.session.noise.seed = configured;
        o
    };
    let server = Server::builder().serve().unwrap();
    server.deploy_from_file_with("m", &path, opts).unwrap();
    let handle = server.handle("m").unwrap();
    for x in &xs(4) {
        assert_eq!(handle.infer(x).unwrap(), net.forward(x).unwrap());
    }

    // Under a *different* name the derived seed no longer matches the
    // capture — rejected, not silently re-prepared.
    let err = Server::builder()
        .serve()
        .unwrap()
        .deploy_from_file("other", &path)
        .unwrap_err();
    assert!(matches!(err, EbError::Config(_)), "{err}");
}
