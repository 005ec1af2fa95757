//! The direct-call phase of a traced run: times the substrate layers'
//! public functions on drives built from the workload's inputs, and
//! reads the deterministic counts (crossbar steps, instructions, modeled
//! latency and energy) that must repeat exactly for a given seed.

use crate::nets::{edge_inputs, mlp_net, pool_inputs, reference, tiny_net};
use crate::spans::Spans;
use crate::stats::{logits_match, median};
use crate::{RunConfig, Workload};
use einstein_barrier::bitnn::{ops, Activation, BitMatrix, BitVec, Bnn, Layer, Tensor};
use einstein_barrier::core::{compile, Design, Machine, OpticalTacitMapped};
use einstein_barrier::mapping::TacitMapped;
use einstein_barrier::photonics::{Transmitter, PAPER_WDM_CAPACITY};
use einstein_barrier::xbar::XbarConfig;
use einstein_barrier::{Backend, EpcmBackend, PhotonicBackend, SessionOpts, SimulatorBackend};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Geometry the photonic backend programs: 256×256 oPCM crossbars.
const XBAR: usize = 256;

pub struct Direct {
    pub metrics: BTreeMap<&'static str, f64>,
    pub correct: bool,
}

/// Times `f` `reps` times, recording one span per call under `parent`,
/// and returns the median call time in µs with the last result.
fn time<T>(
    spans: &mut Spans,
    parent: usize,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        spans.record(name, t, end, Some(parent), None);
        times.push((end - t).as_secs_f64() * 1e6);
        last = Some(out);
    }
    (median(&times), last.expect("at least one repetition"))
}

/// Times `Backend::prepare` (3 calls), `Session::infer` (`reps.0`
/// calls) and `Session::infer_batch` over 32 inputs (`reps.1` calls) as
/// spans named `names`, checking every output; returns the three median
/// call times in µs.
#[allow(clippy::too_many_arguments)]
fn session_times(
    spans: &mut Spans,
    root: usize,
    names: [&'static str; 3],
    backend: &dyn Backend,
    net: &Bnn,
    xs: &[Tensor],
    reps: (usize, usize),
    correct: &mut bool,
) -> Result<(f64, f64, f64), String> {
    let want = reference(net, xs);
    let opts = SessionOpts::default();
    let (prepare, session) = time(spans, root, names[0], 3, || backend.prepare(net, &opts));
    let mut session = session.map_err(|e| format!("{} prepare: {e}", backend.name()))?;
    let mut i = 0;
    let (infer1, _) = time(spans, root, names[1], reps.0, || {
        let k = i % xs.len();
        *correct &= session
            .infer(&xs[k])
            .is_ok_and(|y| logits_match(y.as_slice(), want[k].as_slice()));
        i += 1;
    });
    let (infer32, _) = time(spans, root, names[2], reps.1, || {
        *correct &= session.infer_batch(&xs[..32]).is_ok_and(|ys| {
            ys.iter()
                .zip(&want)
                .all(|(y, w)| logits_match(y.as_slice(), w.as_slice()))
        });
    });
    Ok((prepare, infer1, infer32))
}

/// Matrix weights of layer `i` (FixedLinear or BinLinear).
fn weights(net: &Bnn, i: usize) -> &BitMatrix {
    match &net.layers()[i] {
        Layer::FixedLinear(l) => l.weights(),
        Layer::BinLinear(l) => l.weights(),
        other => panic!("layer {i} ({}) holds no crossbar matrix", other.name()),
    }
}

/// The bit-serial drives of a first-layer input: for each of the 8 bit
/// planes of `x' = q + 127`, the pairs `(plane, 0)` and `(0, plane)`.
fn bit_serial_planes(x: &Tensor) -> Vec<BitVec> {
    let vals: Vec<i32> = x.quantize(8).iter().map(|&q| i32::from(q) + 127).collect();
    (0..8)
        .map(|b| vals.iter().map(|&v| (v >> b) & 1 == 1).collect())
        .collect()
}

fn plane_pairs<'a>(planes: &'a [BitVec], zero: &'a BitVec) -> Vec<(&'a BitVec, &'a BitVec)> {
    planes.iter().flat_map(|p| [(p, zero), (zero, p)]).collect()
}

/// The binary activation layer 0 hands to layer 1.
fn hidden(net: &Bnn, x: &Tensor) -> BitVec {
    match net.forward_trace(x).expect("reference trace").first() {
        Some(Activation::Binary(bits)) => bits.clone(),
        _ => panic!("layer 0 of the served nets emits a binary vector"),
    }
}

/// Every `(plane, 0)` / `(0, plane)` pair sums to the plane's popcount:
/// each weight bit is stored once in the positive and once (negated) in
/// the negative half.
fn planes_consistent(pairs: &[(&BitVec, &BitVec)], counts: &[Vec<u32>]) -> bool {
    counts
        .chunks_exact(2)
        .zip(pairs.chunks_exact(2))
        .all(|(c, p)| {
            let pop = p[0].0.popcount();
            c[0].iter().zip(&c[1]).all(|(a, b)| a + b == pop)
        })
}

/// Per-inference counts that must repeat exactly for a given seed:
/// photonic crossbar steps, simulator instructions and modeled
/// latency/energy, and modeled ePCM energy.
pub fn deterministic_counts(seed: u64, mlp: &Bnn, samples: usize) -> BTreeMap<&'static str, f64> {
    let opts = SessionOpts::default();
    let xs = pool_inputs(seed, samples);
    let mut photonic = PhotonicBackend::default()
        .prepare(mlp, &opts)
        .expect("photonic prepare");
    for x in &xs {
        photonic.infer(x).expect("photonic infer");
    }
    let steps = photonic.stats().crossbar_steps as f64 / samples as f64;

    let design = Design::einstein_barrier();
    let mut rng = StdRng::seed_from_u64(seed);
    let compiled = compile(&design, mlp, &mut rng).expect("compile");
    let mut machine = Machine::new(compiled, &design, rng);
    for x in &xs {
        machine.run(x).expect("simulate");
    }
    let sim = machine.stats();
    let n = samples as f64;

    let tiny = tiny_net();
    let mut epcm = EpcmBackend::default()
        .prepare(&tiny, &opts)
        .expect("epcm prepare");
    let programmed = epcm.stats().energy_j;
    let edge = edge_inputs(seed, samples);
    for x in &edge {
        epcm.infer(x).expect("epcm infer");
    }
    let energy = epcm.stats().energy_j - programmed;
    [
        ("photonics.steps_per_inf", steps),
        ("sim.instructions_per_inf", sim.instructions as f64 / n),
        ("sim.modeled_latency_ns_per_inf", sim.latency_ns / n),
        ("sim.modeled_energy_nj_per_inf", sim.energy_j * 1e9 / n),
        ("xbar.energy_nj_per_inf", energy * 1e9 / n),
    ]
    .into_iter()
    .collect()
}

pub fn run(cfg: &RunConfig, spans: &mut Spans) -> Result<Direct, String> {
    let started = Instant::now();
    let root = spans.record("direct", started, started, None, None);
    let mut m = BTreeMap::new();
    let mut correct = true;
    let mlp = mlp_net();
    let tiny = tiny_net();

    // Session: the workload's own backend and net.
    let (b, net, xs, reps): (Box<dyn Backend>, _, _, _) = match cfg.workload {
        Workload::EdgeTinyEpcm => (
            Box::<EpcmBackend>::default(),
            &tiny,
            edge_inputs(cfg.seed, 64),
            (64, 16),
        ),
        Workload::PoolMlpPhotonic => (
            Box::<PhotonicBackend>::default(),
            &mlp,
            pool_inputs(cfg.seed, 64),
            (8, 2),
        ),
    };
    let (prepare_us, infer1, infer32) = session_times(
        spans,
        root,
        ["session.prepare", "session.infer1", "session.infer32"],
        b.as_ref(),
        net,
        &xs,
        reps,
        &mut correct,
    )?;
    m.insert("session.prepare_ms", prepare_us / 1e3);
    m.insert("session.infer1_us", infer1);
    m.insert("session.infer32_us_per_inf", infer32 / 32.0);

    // Photonics: the MLP's matrix layers on oPCM crossbars at K = 16.
    let images = pool_inputs(cfg.seed, PAPER_WDM_CAPACITY);
    let mut rng = StdRng::seed_from_u64(1);
    let (w0, w1) = (weights(&mlp, 0), weights(&mlp, 1));
    let mut l0 = OpticalTacitMapped::program(w0, XBAR, XBAR, PAPER_WDM_CAPACITY, &mut rng)
        .map_err(|e| e.to_string())?;
    let mut l1 = OpticalTacitMapped::program(w1, XBAR, XBAR, PAPER_WDM_CAPACITY, &mut rng)
        .map_err(|e| e.to_string())?;
    let planes = bit_serial_planes(&images[0]);
    let zero = BitVec::zeros(w0.cols());
    let pairs = plane_pairs(&planes, &zero);
    let (wdm1, _) = time(spans, root, "photonics.l0.wdm1", 10, || {
        l0.execute_wdm_ref(&pairs[..1], &mut rng).expect("l0 wdm1")
    });
    let (wdm16, counts) = time(spans, root, "photonics.l0.wdm16", 5, || {
        l0.execute_wdm_ref(&pairs, &mut rng).expect("l0 wdm16")
    });
    correct &= planes_consistent(&pairs, &counts);
    let acts: Vec<BitVec> = images.iter().map(|x| hidden(&mlp, x)).collect();
    let comps: Vec<BitVec> = acts.iter().map(BitVec::complement).collect();
    let l1_pairs: Vec<(&BitVec, &BitVec)> = acts.iter().zip(&comps).collect();
    let (l1_wdm16, counts) = time(spans, root, "photonics.l1.wdm16", 20, || {
        l1.execute_wdm_ref(&l1_pairs, &mut rng).expect("l1 wdm16")
    });
    correct &= acts
        .iter()
        .zip(&counts)
        .all(|(a, c)| *c == ops::binary_linear_popcounts(a, w1));
    // One MMM: the first row chunk of layer 0, all 16 lanes.
    let chunk = XBAR / 2;
    let drives: Vec<BitVec> = pairs
        .iter()
        .map(|(pos, neg)| {
            let mut d = BitVec::zeros(XBAR);
            for r in 0..chunk {
                d.set(r, pos.get(r) == Some(true));
                d.set(chunk + r, neg.get(r) == Some(true));
            }
            d
        })
        .collect();
    let frame = Transmitter::with_capacity(PAPER_WDM_CAPACITY)
        .encode(&drives)
        .map_err(|e| e.to_string())?;
    let (mmm, _) = time(spans, root, "photonics.mmm", 10, || {
        l0.xbars()[0][0]
            .mmm_counts(&frame, l0.receiver(), &mut rng)
            .expect("mmm")
    });
    m.insert("photonics.l0.wdm1_us", wdm1);
    m.insert("photonics.l0.wdm16_us", wdm16);
    m.insert("photonics.l1.wdm16_us", l1_wdm16);
    m.insert("photonics.mmm_us", mmm);

    // Mapping: the tiny net's layers on ePCM TacitMap crossbars.
    let cfg_x = XbarConfig::new(XBAR, XBAR);
    let (t0, t1) = (weights(&tiny, 0), weights(&tiny, 1));
    let mut m0 = TacitMapped::program(t0, &cfg_x, &mut rng).map_err(|e| e.to_string())?;
    let mut m1 = TacitMapped::program(t1, &cfg_x, &mut rng).map_err(|e| e.to_string())?;
    let edge = edge_inputs(cfg.seed, 1);
    let tiny_planes = bit_serial_planes(&edge[0]);
    let tiny_zero = BitVec::zeros(t0.cols());
    let tiny_pairs = plane_pairs(&tiny_planes, &tiny_zero);
    let (map0, counts) = time(spans, root, "mapping.l0.exec", 200, || {
        m0.execute_ref_pairs(&tiny_pairs, &mut rng)
            .expect("mapping l0")
    });
    correct &= planes_consistent(&tiny_pairs, &counts);
    let act = hidden(&tiny, &edge[0]);
    let comp = act.complement();
    let (map1, counts) = time(spans, root, "mapping.l1.exec", 200, || {
        m1.execute_ref_pairs(&[(&act, &comp)], &mut rng)
            .expect("mapping l1")
    });
    correct &= counts[0] == ops::binary_linear_popcounts(&act, t1);
    m.insert("mapping.l0.exec_us", map0);
    m.insert("mapping.l1.exec_us", map1);

    // Simulator: compile and replay the MLP on the EinsteinBarrier design.
    let design = Design::einstein_barrier();
    let (compile_us, compiled) = time(spans, root, "sim.compile", 3, || {
        compile(&design, &mlp, &mut StdRng::seed_from_u64(cfg.seed))
    });
    let mut machine = Machine::new(
        compiled.map_err(|e| e.to_string())?,
        &design,
        StdRng::seed_from_u64(cfg.seed),
    );
    let sim_want = reference(&mlp, &images[..4]);
    let mut j = 0;
    let (run_us, _) = time(spans, root, "sim.run", 4, || {
        let ok = machine
            .run(&images[j])
            .is_ok_and(|y| logits_match(y.as_slice(), sim_want[j].as_slice()));
        correct &= ok;
        j += 1;
    });
    m.insert("sim.compile_ms", compile_us / 1e3);
    m.insert("sim.run_us", run_us);
    // The simulator as a serving session: singles vs one batch of 32.
    let (_, sim1, sim32) = session_times(
        spans,
        root,
        [
            "sim.session.prepare",
            "sim.session.infer1",
            "sim.session.infer32",
        ],
        &SimulatorBackend::default(),
        &mlp,
        &pool_inputs(cfg.seed, 32),
        (4, 1),
        &mut correct,
    )?;
    m.insert("sim.session.infer1_us", sim1);
    m.insert("sim.session.infer32_us_per_inf", sim32 / 32.0);

    // Artifact: decode the workload's `.ebm`.
    let ebm = match cfg.workload {
        Workload::EdgeTinyEpcm => cfg.out_dir.join("edge-tiny.ebm"),
        Workload::PoolMlpPhotonic => {
            let path = cfg.out_dir.join("pool-mlp.ebm");
            einstein_barrier::artifact::write_model(&path, &mlp, None)
                .map_err(|e| e.to_string())?;
            path
        }
    };
    let (read_us, artifact) = time(spans, root, "artifact.read", 5, || {
        einstein_barrier::artifact::read_model(&ebm)
    });
    correct &= artifact.is_ok_and(|a| a.net.layers().len() == net.layers().len());
    m.insert("artifact.read_ms", read_us / 1e3);

    m.extend(deterministic_counts(cfg.seed, &mlp, 2));
    spans.close(root, Instant::now());
    Ok(Direct {
        metrics: m,
        correct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_counts_repeat_exactly() {
        let mlp = mlp_net();
        let a = deterministic_counts(5, &mlp, 2);
        let b = deterministic_counts(5, &mlp, 2);
        assert_eq!(a, b);
        assert!(a.values().all(|v| *v > 0.0), "{a:?}");
    }
}
