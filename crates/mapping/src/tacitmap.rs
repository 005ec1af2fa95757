//! Functional TacitMap: programs binary weight matrices onto 1T1R
//! crossbars in the paper's vertical layout and executes XNOR+popcount
//! through real analog VMM simulation.
//!
//! Layout (paper Fig. 2-(b)/Fig. 3-(b)): weight vector `Wⱼ` occupies
//! column `j`; its first `m` rows hold `Wⱼ` and the next `m` rows hold
//! `W̄ⱼ`. The input drive is `[In ; Īn]`. The column's AND-accumulation
//! then equals `popcount(In ⊙ Wⱼ)`, read in **one step** from the ADC.
//!
//! Layers larger than one crossbar are chunked: row chunks produce
//! additive partial popcounts (summed digitally), column chunks extend
//! the output range, and all chunks fire in the same step.

use crate::error::MappingError;
use eb_bitnn::{BitMatrix, BitVec};
use eb_xbar::{CrossbarArray, VmmEngine, XbarConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::ParallelSlice;

/// A binary weight matrix programmed onto crossbars in TacitMap layout.
///
/// # Examples
///
/// ```
/// use eb_mapping::TacitMapped;
/// use eb_bitnn::{ops, BitMatrix, BitVec};
/// use eb_xbar::XbarConfig;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let weights = BitMatrix::from_fn(4, 6, |r, c| (r + c) % 2 == 0);
/// let mut mapped = TacitMapped::program(&weights, &XbarConfig::new(16, 8), &mut rng)?;
/// let input = BitVec::from_bools(&[true, false, true, true, false, true]);
/// let pops = mapped.execute(&input, &mut rng)?;
/// assert_eq!(pops, ops::binary_linear_popcounts(&input, &weights));
/// # Ok::<(), eb_mapping::MappingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TacitMapped {
    /// `engines[row_chunk][col_chunk]`.
    engines: Vec<Vec<VmmEngine>>,
    m: usize,
    n: usize,
    chunk_len: usize,
    cfg: XbarConfig,
    executions: u64,
    energy_j: f64,
}

/// Derives the fault-map seed for the chunk at `(rc, cc)`: each physical
/// array gets its own defect population while the whole map stays a pure
/// function of the profile's base seed.
fn chunk_fault_seed(base: u64, rc: usize, cc: usize) -> u64 {
    base ^ (((rc as u64) << 32) ^ cc as u64 ^ 0x5851_F42D_4C95_7F2D)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl TacitMapped {
    /// Programs `weights` (one weight vector per row, fan-in = columns)
    /// onto as many crossbars as the layout needs.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::EmptyWeights`] for an empty matrix,
    /// [`MappingError::CrossbarTooSmall`] when a crossbar cannot hold even
    /// one weight bit and its complement, or [`MappingError::Xbar`] when
    /// the config carries an invalid [`eb_xbar::FaultConfig`].
    pub fn program(
        weights: &BitMatrix,
        cfg: &XbarConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, MappingError> {
        if weights.rows() == 0 || weights.cols() == 0 {
            return Err(MappingError::EmptyWeights);
        }
        let chunk_len = cfg.tacitmap_chunk_rows();
        if chunk_len == 0 || cfg.cols == 0 {
            return Err(MappingError::CrossbarTooSmall {
                rows: cfg.rows,
                cols: cfg.cols,
            });
        }
        let m = weights.cols();
        let n = weights.rows();
        let row_chunks = m.div_ceil(chunk_len);
        let col_chunks = n.div_ceil(cfg.cols);
        let mut energy_j = 0.0;
        let mut engines = Vec::with_capacity(row_chunks);
        for rc in 0..row_chunks {
            let lo = rc * chunk_len;
            let hi = (lo + chunk_len).min(m);
            let len = hi - lo;
            let mut row = Vec::with_capacity(col_chunks);
            for cc in 0..col_chunks {
                let jlo = cc * cfg.cols;
                let jhi = (jlo + cfg.cols).min(n);
                // Build the [w ; w̄] column block for vectors jlo..jhi.
                let block = BitMatrix::from_fn(2 * len, jhi - jlo, |r, j| {
                    let w = weights.row(jlo + j);
                    if r < len {
                        w.get(lo + r) == Some(true)
                    } else {
                        w.get(lo + r - len) == Some(false)
                    }
                });
                let mut array = CrossbarArray::new(cfg.rows, cfg.cols, cfg.device.clone());
                if let Some(f) = &cfg.fault {
                    array
                        .set_fault_config(Some(f.with_seed(chunk_fault_seed(f.seed, rc, cc))))
                        .map_err(MappingError::Xbar)?;
                }
                array
                    .program_matrix(&block, rng)
                    .map_err(MappingError::Xbar)?;
                energy_j += cfg.energies.program_joules(array.write_count() as usize);
                row.push(VmmEngine::with_defaults(array));
            }
            engines.push(row);
        }
        Ok(Self {
            engines,
            m,
            n,
            chunk_len,
            cfg: cfg.clone(),
            executions: 0,
            energy_j,
        })
    }

    /// Rebuilds a mapping from previously exported state: the programmed
    /// engine grid plus the geometry and telemetry counters a prior
    /// [`TacitMapped::program`] produced. Restoring is not a re-program —
    /// no RNG draws happen and no write energy is charged; drift and fault
    /// state live inside each engine's [`CrossbarArray`] and travel with
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::EmptyWeights`] for zero dimensions,
    /// [`MappingError::CrossbarTooSmall`] when `cfg` cannot hold even one
    /// weight bit and its complement, or
    /// [`MappingError::Xbar`]([`eb_xbar::XbarError::DimensionMismatch`])
    /// when the engine grid does not match the chunk geometry `cfg`
    /// implies for an `n × m` weight matrix.
    pub fn from_parts(
        engines: Vec<Vec<VmmEngine>>,
        m: usize,
        n: usize,
        cfg: XbarConfig,
        executions: u64,
        energy_j: f64,
    ) -> Result<Self, MappingError> {
        if m == 0 || n == 0 {
            return Err(MappingError::EmptyWeights);
        }
        let chunk_len = cfg.tacitmap_chunk_rows();
        if chunk_len == 0 || cfg.cols == 0 {
            return Err(MappingError::CrossbarTooSmall {
                rows: cfg.rows,
                cols: cfg.cols,
            });
        }
        let row_chunks = m.div_ceil(chunk_len);
        let col_chunks = n.div_ceil(cfg.cols);
        let cells = engines.iter().map(Vec::len).sum::<usize>();
        let grid_ok = engines.len() == row_chunks
            && engines.iter().all(|row| row.len() == col_chunks)
            && engines
                .iter()
                .flatten()
                .all(|e| e.array().rows() == cfg.rows && e.array().cols() == cfg.cols);
        if !grid_ok {
            return Err(MappingError::Xbar(eb_xbar::XbarError::DimensionMismatch {
                what: "restored TacitMap engine grid",
                expected: row_chunks * col_chunks,
                got: cells,
            }));
        }
        Ok(Self {
            engines,
            m,
            n,
            chunk_len,
            cfg,
            executions,
            energy_j,
        })
    }

    /// Programmed crossbar engines in chunk-grid order,
    /// `[row_chunk][col_chunk]` — the export surface for snapshotting
    /// prepared state.
    pub fn engines(&self) -> &[Vec<VmmEngine>] {
        &self.engines
    }

    /// Mints a replica that **shares** this mapping's programmed cores:
    /// cloning the engine grid is an `Arc` bump per crossbar (see
    /// [`eb_xbar::CrossbarArray`]'s copy-on-write core), so no device is
    /// re-programmed and no RNG is drawn. Per-replica telemetry
    /// (executions, energy) starts at zero — programming energy stays
    /// charged on the original, once.
    pub fn replicate(&self) -> Self {
        Self {
            engines: self.engines.clone(),
            m: self.m,
            n: self.n,
            chunk_len: self.chunk_len,
            cfg: self.cfg.clone(),
            executions: 0,
            energy_j: 0.0,
        }
    }

    /// `true` when `self` and `other` read from the same programmed
    /// cores on every chunk — the replica weight-sharing invariant.
    pub fn shares_core_with(&self, other: &Self) -> bool {
        self.engines.len() == other.engines.len()
            && self.engines.iter().zip(&other.engines).all(|(a, b)| {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(ea, eb)| ea.array().shares_core_with(eb.array()))
            })
    }

    /// Approximate heap bytes of the shared programmed cores across all
    /// chunks — counted once however many replicas share them.
    pub fn core_bytes(&self) -> usize {
        self.engines
            .iter()
            .flatten()
            .map(|e| e.array().core_bytes())
            .sum()
    }

    /// Approximate heap bytes of this replica's private state (per-array
    /// rinds plus the grid scaffolding).
    pub fn rind_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .engines
                .iter()
                .flatten()
                .map(|e| e.array().rind_bytes())
                .sum::<usize>()
    }

    /// The crossbar configuration this mapping was programmed with.
    pub fn config(&self) -> &XbarConfig {
        &self.cfg
    }

    /// Fan-in rows covered by each row chunk.
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// Fan-in (weight-vector length).
    pub fn fan_in(&self) -> usize {
        self.m
    }

    /// Number of stored weight vectors.
    pub fn out_vectors(&self) -> usize {
        self.n
    }

    /// Crossbars occupied (the footprint).
    pub fn footprint(&self) -> usize {
        self.engines.iter().map(Vec::len).sum()
    }

    /// Crossbar steps taken so far (one per executed input vector — the
    /// paper's single-step XNOR+Popcount).
    pub fn steps_taken(&self) -> u64 {
        self.executions
    }

    /// Modeled energy spent so far in joules, from the config's
    /// [`eb_xbar::XbarEnergies`]: device programming at build time plus
    /// one [`eb_xbar::XbarEnergies::vmm_step_joules`] charge per crossbar
    /// activation (driven rows, conducting cells, ADC conversions).
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Faulty cells across every crossbar this layer occupies (the
    /// serving runtime's fault telemetry).
    pub fn fault_count(&self) -> usize {
        self.engines
            .iter()
            .flatten()
            .map(|e| e.array().fault_count())
            .sum()
    }

    /// Resolves every subsequent read at drift time `t_ratio = t/t₀`,
    /// applied uniformly to all crossbars this layer occupies (values
    /// `≤ 1.0` mean no drift). Whether drift moves any count depends on
    /// the device model: with [`eb_xbar::DeviceParams::drift_nu`] `= 0`
    /// this is a no-op, which is why the serving runtime validates the
    /// device model before accepting a drift configuration.
    pub fn set_drift_t_ratio(&mut self, t_ratio: f64) {
        for row in &mut self.engines {
            for engine in row {
                engine.array_mut().set_drift_t_ratio(t_ratio);
            }
        }
    }

    /// Fan-in range `(lo, len)` covered by row chunk `rc`.
    fn chunk_bounds(&self, rc: usize) -> (usize, usize) {
        let lo = rc * self.chunk_len;
        let hi = (lo + self.chunk_len).min(self.m);
        (lo, hi - lo)
    }

    /// Builds the physical `[pos ; neg]` drive for one row chunk: the
    /// weight half occupies rows `0..len`, the complement half rows
    /// `len..2·len`, zero-padded to the crossbar height. This is the one
    /// place the TacitMap drive layout lives — both chunk walks go
    /// through it.
    fn chunk_drive(&self, pos: &BitVec, neg: &BitVec, lo: usize, len: usize) -> BitVec {
        let mut drive = BitVec::zeros(self.cfg.rows);
        for i in 0..len {
            if pos.get(lo + i) == Some(true) {
                drive.set(i, true);
            }
            if neg.get(lo + i) == Some(true) {
                drive.set(len + i, true);
            }
        }
        drive
    }

    /// Executes one input vector: a single parallel crossbar activation
    /// across all chunks, returning `popcount(input ⊙ Wⱼ)` for every `j`.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::InputLength`] on fan-in mismatch.
    pub fn execute(
        &mut self,
        input: &BitVec,
        rng: &mut impl Rng,
    ) -> Result<Vec<u32>, MappingError> {
        let complement = input.complement();
        self.execute_raw(input, &complement, rng)
    }

    /// Low-level activation with independent drives on the weight half
    /// (`pos`) and the complement half (`neg`) of each column.
    ///
    /// `execute(v)` equals `execute_raw(v, v̄)`. Bit-serial fixed-point
    /// layers instead drive `(plane, 0)` and `(0, plane)` to read
    /// `popcount(plane ∧ w)` and `popcount(plane ∧ w̄)` separately, whose
    /// difference is the signed bit-plane contribution `Σ plane_i·wᵢ`.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::InputLength`] when either half's length
    /// differs from the fan-in.
    pub fn execute_raw(
        &mut self,
        pos: &BitVec,
        neg: &BitVec,
        rng: &mut impl Rng,
    ) -> Result<Vec<u32>, MappingError> {
        Ok(self.execute_ref_pairs(&[(pos, neg)], rng)?.remove(0))
    }

    /// Batched activation over *borrowed* `(pos, neg)` pairs: one
    /// crossbar activation per pair, amortizing the periphery setup and
    /// device resolution across the whole batch
    /// ([`VmmEngine::vmm_counts_cols_batch`]). This is the one execution
    /// entry point — [`TacitMapped::execute`], [`TacitMapped::execute_raw`]
    /// and the `eb-runtime` sessions all bottom out here. A batch of XNOR
    /// inputs drives `(v, v̄)` per input; the bit-serial lowering drives
    /// pairs sharing common halves, e.g. `(plane, 0)` / `(0, plane)`,
    /// without cloning a `BitVec` per half.
    ///
    /// In noiseless configurations a batch is bit-identical to executing
    /// each pair alone (under noise the counts are drawn from the same
    /// distribution, but the chunk-major draw order differs).
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::InputLength`] when either half of any pair
    /// differs from the fan-in.
    pub fn execute_ref_pairs(
        &mut self,
        pairs: &[(&BitVec, &BitVec)],
        rng: &mut impl Rng,
    ) -> Result<Vec<Vec<u32>>, MappingError> {
        self.check_pair_lengths(pairs)?;
        // With a deterministic periphery no call below draws from the
        // RNG, so the chunk walk can fan out across rayon workers and
        // still return bit-identical counts with the caller's RNG in an
        // identical position. Any noise source falls back to the
        // sequential walk, which preserves the draw order exactly.
        if self.footprint() > 1 && self.periphery_is_deterministic() {
            self.execute_pairs_parallel(pairs)
        } else {
            self.execute_pairs_sequential(pairs, rng)
        }
    }

    /// The sequential chunk walk — the RNG-order-defining reference
    /// implementation every other execution path must match. Public so
    /// equivalence tests can pin the parallel walk against it.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::InputLength`] when either half of any pair
    /// differs from the fan-in.
    pub fn execute_ref_pairs_sequential(
        &mut self,
        pairs: &[(&BitVec, &BitVec)],
        rng: &mut impl Rng,
    ) -> Result<Vec<Vec<u32>>, MappingError> {
        self.check_pair_lengths(pairs)?;
        self.execute_pairs_sequential(pairs, rng)
    }

    fn check_pair_lengths(&self, pairs: &[(&BitVec, &BitVec)]) -> Result<(), MappingError> {
        for (pos, neg) in pairs {
            if pos.len() != self.m || neg.len() != self.m {
                return Err(MappingError::InputLength {
                    expected: self.m,
                    got: if pos.len() != self.m {
                        pos.len()
                    } else {
                        neg.len()
                    },
                });
            }
        }
        Ok(())
    }

    /// `true` when no crossbar read or ADC conversion in this layer can
    /// draw from the RNG — the precondition for the parallel chunk walk.
    pub fn periphery_is_deterministic(&self) -> bool {
        self.engines
            .iter()
            .flatten()
            .all(VmmEngine::periphery_is_deterministic)
    }

    fn execute_pairs_sequential(
        &mut self,
        pairs: &[(&BitVec, &BitVec)],
        rng: &mut impl Rng,
    ) -> Result<Vec<Vec<u32>>, MappingError> {
        let mut acc = vec![vec![0u32; self.n]; pairs.len()];
        let mut energy = 0.0;
        for (rc, row) in self.engines.iter().enumerate() {
            let (lo, len) = self.chunk_bounds(rc);
            let drives: Vec<BitVec> = pairs
                .iter()
                .map(|(pos, neg)| self.chunk_drive(pos, neg, lo, len))
                .collect();
            // vmm_step_joules is linear in each argument, so the whole
            // batch's charge collapses into one call on the summed rows.
            let active: usize = drives.iter().map(|d| d.popcount() as usize).sum();
            for (cc, engine) in row.iter().enumerate() {
                let jlo = cc * self.cfg.cols;
                let jhi = (jlo + self.cfg.cols).min(self.n);
                let counts = engine
                    .vmm_counts_cols_batch(&drives, 0, jhi - jlo, rng)
                    .map_err(MappingError::Xbar)?;
                energy += self.cfg.energies.vmm_step_joules(
                    active,
                    active * (jhi - jlo),
                    drives.len() * (jhi - jlo),
                );
                for (k, input_counts) in counts.into_iter().enumerate() {
                    for (j, c) in input_counts.into_iter().enumerate() {
                        acc[k][jlo + j] += c;
                    }
                }
            }
        }
        self.executions += pairs.len() as u64;
        self.energy_j += energy;
        Ok(acc)
    }

    /// Parallel chunk walk: every `(row_chunk, col_chunk)` crossbar fires
    /// on a rayon worker. Only reachable with a deterministic periphery
    /// ([`TacitMapped::periphery_is_deterministic`]), where the engines
    /// read from their memoised conductance snapshots and never touch an
    /// RNG — so the counts are bit-identical to the sequential walk and
    /// the partial-popcount reduction (u32 additions) is order-exact.
    /// The energy reduction runs sequentially in chunk-major order, the
    /// same order the sequential walk sums in.
    fn execute_pairs_parallel(
        &mut self,
        pairs: &[(&BitVec, &BitVec)],
    ) -> Result<Vec<Vec<u32>>, MappingError> {
        let row_chunks = self.engines.len();
        let mut drives_by_rc = Vec::with_capacity(row_chunks);
        for rc in 0..row_chunks {
            let (lo, len) = self.chunk_bounds(rc);
            let drives: Vec<BitVec> = pairs
                .iter()
                .map(|(pos, neg)| self.chunk_drive(pos, neg, lo, len))
                .collect();
            drives_by_rc.push(drives);
        }
        let tasks: Vec<(usize, usize)> = (0..row_chunks)
            .flat_map(|rc| (0..self.engines[rc].len()).map(move |cc| (rc, cc)))
            .collect();
        let chunk_counts: Result<Vec<Vec<Vec<u32>>>, MappingError> = tasks
            .par_iter()
            .map(|&(rc, cc)| {
                let jlo = cc * self.cfg.cols;
                let jhi = (jlo + self.cfg.cols).min(self.n);
                // The deterministic periphery never draws, so a throwaway
                // per-worker RNG satisfies the signature without
                // perturbing the caller's stream.
                let mut scratch = StdRng::seed_from_u64(0);
                self.engines[rc][cc]
                    .vmm_counts_cols_batch(&drives_by_rc[rc], 0, jhi - jlo, &mut scratch)
                    .map_err(MappingError::Xbar)
            })
            .collect();
        let chunk_counts = chunk_counts?;

        let mut acc = vec![vec![0u32; self.n]; pairs.len()];
        let mut energy = 0.0;
        for (&(rc, cc), counts) in tasks.iter().zip(chunk_counts) {
            let jlo = cc * self.cfg.cols;
            let jhi = (jlo + self.cfg.cols).min(self.n);
            let active: usize = drives_by_rc[rc].iter().map(|d| d.popcount() as usize).sum();
            energy += self.cfg.energies.vmm_step_joules(
                active,
                active * (jhi - jlo),
                pairs.len() * (jhi - jlo),
            );
            for (k, input_counts) in counts.into_iter().enumerate() {
                for (j, c) in input_counts.into_iter().enumerate() {
                    acc[k][jlo + j] += c;
                }
            }
        }
        self.executions += pairs.len() as u64;
        self.energy_j += energy;
        Ok(acc)
    }

    /// Programs `weights` with a freshly seeded RNG and returns a mapping
    /// that **owns** that RNG for all subsequent executions — the
    /// convenience constructor the `eb-runtime` sessions are built on.
    /// Two mappings programmed from the same `(weights, cfg, seed)`
    /// produce identical execution sequences, noisy devices included.
    ///
    /// # Errors
    ///
    /// Same as [`TacitMapped::program`].
    pub fn program_seeded(
        weights: &BitMatrix,
        cfg: &XbarConfig,
        seed: u64,
    ) -> Result<SeededTacitMapped, MappingError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let inner = Self::program(weights, cfg, &mut rng)?;
        Ok(SeededTacitMapped { inner, rng })
    }
}

/// A [`TacitMapped`] layer that owns its RNG: programmed and executed from
/// one seeded [`StdRng`], so callers never thread `&mut impl Rng` through
/// the serving path. Built via [`TacitMapped::program_seeded`].
///
/// Determinism contract: two instances created from identical
/// `(weights, cfg, seed)` and driven with identical call sequences return
/// identical counts — including under programming/read/ADC noise.
#[derive(Debug, Clone)]
pub struct SeededTacitMapped {
    inner: TacitMapped,
    rng: StdRng,
}

impl SeededTacitMapped {
    /// Executes one input vector (see [`TacitMapped::execute`]).
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::InputLength`] on fan-in mismatch.
    pub fn execute(&mut self, input: &BitVec) -> Result<Vec<u32>, MappingError> {
        self.inner.execute(input, &mut self.rng)
    }

    /// Low-level activation with independent half drives (see
    /// [`TacitMapped::execute_raw`]).
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::InputLength`] on fan-in mismatch.
    pub fn execute_raw(&mut self, pos: &BitVec, neg: &BitVec) -> Result<Vec<u32>, MappingError> {
        self.inner.execute_raw(pos, neg, &mut self.rng)
    }

    /// Batched activation over borrowed half-drive pairs (see
    /// [`TacitMapped::execute_ref_pairs`]).
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::InputLength`] on any fan-in mismatch.
    pub fn execute_ref_pairs(
        &mut self,
        pairs: &[(&BitVec, &BitVec)],
    ) -> Result<Vec<Vec<u32>>, MappingError> {
        self.inner.execute_ref_pairs(pairs, &mut self.rng)
    }

    /// Rebuilds a seeded mapping from previously exported state: the
    /// restored inner mapping plus the RNG snapshot
    /// ([`SeededTacitMapped::rng_state`]) taken at export time, so the
    /// next noisy draw continues exactly where the exported instance left
    /// off.
    pub fn from_parts(inner: TacitMapped, rng_state: [u64; 4]) -> Self {
        Self {
            inner,
            rng: StdRng::from_state(rng_state),
        }
    }

    /// Snapshot of the owned RNG's position in its stream, for
    /// serializing the mapping mid-stream (see
    /// [`SeededTacitMapped::from_parts`]).
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Mints a replica sharing this mapping's programmed cores (see
    /// [`TacitMapped::replicate`]) with a fresh execution RNG seeded at
    /// `seed`. The replica reads the *same* programmed conductances but
    /// draws its own noise stream — the shared-weight replica contract.
    pub fn replicate(&self, seed: u64) -> Self {
        Self {
            inner: self.inner.replicate(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// `true` when both mappings read from the same programmed cores
    /// (see [`TacitMapped::shares_core_with`]).
    pub fn shares_core_with(&self, other: &Self) -> bool {
        self.inner.shares_core_with(&other.inner)
    }

    /// Approximate heap bytes of the shared programmed cores (see
    /// [`TacitMapped::core_bytes`]).
    pub fn core_bytes(&self) -> usize {
        self.inner.core_bytes()
    }

    /// Approximate heap bytes of this replica's private state (see
    /// [`TacitMapped::rind_bytes`]).
    pub fn rind_bytes(&self) -> usize {
        self.inner.rind_bytes()
    }

    /// The underlying mapping (fan-in, footprint, step counters...).
    pub fn inner(&self) -> &TacitMapped {
        &self.inner
    }

    /// Resolves every subsequent read at drift time `t_ratio = t/t₀` (see
    /// [`TacitMapped::set_drift_t_ratio`]).
    pub fn set_drift_t_ratio(&mut self, t_ratio: f64) {
        self.inner.set_drift_t_ratio(t_ratio);
    }

    /// Crossbar steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.inner.steps_taken()
    }

    /// Modeled energy spent so far in joules (see
    /// [`TacitMapped::energy_j`]).
    pub fn energy_j(&self) -> f64 {
        self.inner.energy_j()
    }

    /// Faulty cells across every occupied crossbar (see
    /// [`TacitMapped::fault_count`]).
    pub fn fault_count(&self) -> usize {
        self.inner.fault_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eb_bitnn::ops;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(21)
    }

    fn random_bits(rows: usize, cols: usize, seed: u64) -> BitMatrix {
        BitMatrix::from_fn(rows, cols, |r, c| {
            seed.wrapping_mul((r * cols + c) as u64 + 11)
                .is_multiple_of(3)
        })
    }

    #[test]
    fn single_crossbar_exact() {
        let mut r = rng();
        let w = random_bits(8, 16, 5);
        let mut mapped = TacitMapped::program(&w, &XbarConfig::new(64, 16), &mut r).unwrap();
        assert_eq!(mapped.footprint(), 1);
        for seed in 0..5u64 {
            let input = BitVec::from_bools(
                &(0..16)
                    .map(|i| (i as u64 * seed) % 4 < 2)
                    .collect::<Vec<_>>(),
            );
            let got = mapped.execute(&input, &mut r).unwrap();
            assert_eq!(got, ops::binary_linear_popcounts(&input, &w));
        }
        assert_eq!(mapped.steps_taken(), 5);
    }

    #[test]
    fn row_chunked_layer_exact() {
        // fan-in 100 on a 64-row crossbar (chunk 32): 4 row chunks.
        let mut r = rng();
        let w = random_bits(10, 100, 9);
        let cfg = XbarConfig::new(64, 16);
        let mut mapped = TacitMapped::program(&w, &cfg, &mut r).unwrap();
        assert_eq!(mapped.footprint(), 4);
        let input = BitVec::from_bools(&(0..100).map(|i| i % 3 != 1).collect::<Vec<_>>());
        let got = mapped.execute(&input, &mut r).unwrap();
        assert_eq!(got, ops::binary_linear_popcounts(&input, &w));
    }

    #[test]
    fn col_chunked_layer_exact() {
        // 40 outputs on 16-column crossbars: 3 column chunks.
        let mut r = rng();
        let w = random_bits(40, 20, 13);
        let cfg = XbarConfig::new(64, 16);
        let mut mapped = TacitMapped::program(&w, &cfg, &mut r).unwrap();
        assert_eq!(mapped.footprint(), 3);
        let input = BitVec::from_bools(&(0..20).map(|i| i % 2 == 0).collect::<Vec<_>>());
        let got = mapped.execute(&input, &mut r).unwrap();
        assert_eq!(got, ops::binary_linear_popcounts(&input, &w));
    }

    #[test]
    fn both_dimensions_chunked_exact() {
        let mut r = rng();
        let w = random_bits(37, 75, 17);
        let cfg = XbarConfig::new(32, 16); // chunk 16 rows, 16 cols
        let mut mapped = TacitMapped::program(&w, &cfg, &mut r).unwrap();
        assert_eq!(mapped.footprint(), 5 * 3);
        let input = BitVec::from_bools(&(0..75).map(|i| (i * 7) % 5 < 3).collect::<Vec<_>>());
        let got = mapped.execute(&input, &mut r).unwrap();
        assert_eq!(got, ops::binary_linear_popcounts(&input, &w));
    }

    #[test]
    fn execute_raw_splits_pos_neg() {
        // popcount(p ∧ w) via (p, 0) and popcount(p ∧ w̄) via (0, p): the
        // difference is the signed binary-weighted sum Σ pᵢ·wᵢ (w ∈ ±1).
        let mut r = rng();
        let w = random_bits(5, 40, 23);
        let cfg = XbarConfig::new(32, 8);
        let mut mapped = TacitMapped::program(&w, &cfg, &mut r).unwrap();
        let p = BitVec::from_bools(&(0..40).map(|i| i % 4 == 0).collect::<Vec<_>>());
        let zero = BitVec::zeros(40);
        let plus = mapped.execute_raw(&p, &zero, &mut r).unwrap();
        let minus = mapped.execute_raw(&zero, &p, &mut r).unwrap();
        for j in 0..5 {
            let expect: i32 = (0..40)
                .map(|i| {
                    if p.get(i) == Some(true) {
                        if w.get(j, i) == Some(true) {
                            1
                        } else {
                            -1
                        }
                    } else {
                        0
                    }
                })
                .sum();
            assert_eq!(plus[j] as i32 - minus[j] as i32, expect, "output {j}");
        }
    }

    #[test]
    fn xnor_batch_matches_per_input_execution() {
        let mut r = rng();
        // Chunked in both dimensions so the batch path crosses chunk
        // boundaries.
        let w = random_bits(37, 75, 17);
        let cfg = XbarConfig::new(32, 16);
        let mut mapped = TacitMapped::program(&w, &cfg, &mut r).unwrap();
        let inputs: Vec<BitVec> = (0..6)
            .map(|k| BitVec::from_bools(&(0..75).map(|i| (i * 7 + k) % 5 < 3).collect::<Vec<_>>()))
            .collect();
        let complements: Vec<BitVec> = inputs.iter().map(BitVec::complement).collect();
        let lanes: Vec<(&BitVec, &BitVec)> = inputs.iter().zip(&complements).collect();
        let batch = mapped.execute_ref_pairs(&lanes, &mut r).unwrap();
        for (k, input) in inputs.iter().enumerate() {
            assert_eq!(
                batch[k],
                ops::binary_linear_popcounts(input, &w),
                "input {k}"
            );
        }
        assert_eq!(mapped.steps_taken(), 6);
        let short = BitVec::zeros(9);
        assert!(matches!(
            mapped.execute_ref_pairs(&[(&short, &short.complement())], &mut r),
            Err(MappingError::InputLength { .. })
        ));
    }

    #[test]
    fn raw_pair_batch_matches_sequential_raw() {
        let mut r = rng();
        let w = random_bits(11, 45, 29);
        let cfg = XbarConfig::new(32, 8);
        let mut mapped = TacitMapped::program(&w, &cfg, &mut r).unwrap();
        let zero = BitVec::zeros(45);
        let pairs: Vec<(BitVec, BitVec)> = (0..4)
            .map(|k| {
                let p =
                    BitVec::from_bools(&(0..45).map(|i| (i * 3 + k) % 4 == 0).collect::<Vec<_>>());
                if k % 2 == 0 {
                    (p, zero.clone())
                } else {
                    (zero.clone(), p)
                }
            })
            .collect();
        let refs: Vec<(&BitVec, &BitVec)> = pairs.iter().map(|(p, n)| (p, n)).collect();
        let batch = mapped.execute_ref_pairs(&refs, &mut r).unwrap();
        for (k, (p, n)) in pairs.iter().enumerate() {
            assert_eq!(
                batch[k],
                mapped.execute_raw(p, n, &mut r).unwrap(),
                "pair {k}"
            );
        }
        assert!(matches!(
            mapped.execute_ref_pairs(&[(&BitVec::zeros(3), &zero)], &mut r),
            Err(MappingError::InputLength { .. })
        ));
    }

    #[test]
    fn seeded_mapping_is_deterministic_under_noise() {
        use eb_xbar::DeviceParams;
        let w = random_bits(16, 48, 31);
        let cfg = XbarConfig::new(64, 16).with_device(DeviceParams {
            program_sigma: 0.25,
            read_sigma: 0.08,
            ..DeviceParams::ideal()
        });
        let input = BitVec::from_bools(&(0..48).map(|i| i % 3 != 0).collect::<Vec<_>>());
        let complement = input.complement();
        let run = |seed: u64| {
            let mut mapped = TacitMapped::program_seeded(&w, &cfg, seed).unwrap();
            let mut outs = Vec::new();
            for _ in 0..4 {
                outs.push(mapped.execute(&input).unwrap());
            }
            outs.push(
                mapped
                    .execute_ref_pairs(&[(&input, &complement), (&complement, &input)])
                    .unwrap()
                    .remove(0),
            );
            outs
        };
        // Same seed => identical noisy counts; different seed => diverges.
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        let seeded = TacitMapped::program_seeded(&w, &cfg, 7).unwrap();
        assert_eq!(seeded.inner().fan_in(), 48);
    }

    #[test]
    fn drift_propagates_to_every_chunk() {
        use eb_xbar::DeviceParams;
        // Low on/off ratio: off-current is ~0.4 LSB per cell, so drifting
        // the amorphous state visibly changes the accumulated counts.
        let cfg = XbarConfig::new(32, 8).with_device(DeviceParams {
            g_on: 100e-6,
            g_off: 40e-6,
            drift_nu: 0.3,
            ..DeviceParams::ideal()
        });
        let w = random_bits(11, 45, 29); // chunked in rows and cols
        let input = BitVec::from_bools(&(0..45).map(|i| i % 3 != 1).collect::<Vec<_>>());
        let mut fresh = TacitMapped::program_seeded(&w, &cfg, 4).unwrap();
        let mut drifted = TacitMapped::program_seeded(&w, &cfg, 4).unwrap();
        drifted.set_drift_t_ratio(1e6);
        assert_ne!(
            fresh.execute(&input).unwrap(),
            drifted.execute(&input).unwrap()
        );
        // At the paper's binary operating point (1000x on/off ratio) the
        // same drift is benign: counts stay exact despite t/t₀ = 10⁶.
        let robust = XbarConfig::new(32, 8).with_device(DeviceParams {
            drift_nu: 0.3,
            ..DeviceParams::ideal()
        });
        let mut mapped = TacitMapped::program_seeded(&w, &robust, 4).unwrap();
        mapped.set_drift_t_ratio(1e6);
        assert_eq!(
            mapped.execute(&input).unwrap(),
            ops::binary_linear_popcounts(&input, &w)
        );
    }

    #[test]
    fn parallel_walk_matches_sequential_walk_and_leaves_rng_alone() {
        // Chunked in both dimensions so the parallel path genuinely fans
        // out over multiple crossbars.
        let w = random_bits(37, 75, 17);
        let cfg = XbarConfig::new(32, 16);
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        let mut par = TacitMapped::program(&w, &cfg, &mut r1).unwrap();
        let mut seq = TacitMapped::program(&w, &cfg, &mut r2).unwrap();
        assert!(par.periphery_is_deterministic());
        let inputs: Vec<BitVec> = (0..5)
            .map(|k| BitVec::from_bools(&(0..75).map(|i| (i * 3 + k) % 4 != 0).collect::<Vec<_>>()))
            .collect();
        let complements: Vec<BitVec> = inputs.iter().map(BitVec::complement).collect();
        let refs: Vec<(&BitVec, &BitVec)> = inputs.iter().zip(&complements).collect();
        let got_par = par.execute_ref_pairs(&refs, &mut r1).unwrap();
        let got_seq = seq.execute_ref_pairs_sequential(&refs, &mut r2).unwrap();
        assert_eq!(got_par, got_seq);
        assert_eq!(par.energy_j(), seq.energy_j(), "energy must be order-exact");
        assert_eq!(par.steps_taken(), seq.steps_taken());
        // Neither walk drew from the RNG: both streams sit identically.
        assert_eq!(r1.state(), r2.state());
    }

    #[test]
    fn replicas_share_cores_and_own_their_noise_streams() {
        use eb_xbar::DeviceParams;
        let w = random_bits(16, 48, 31);
        let noisy = XbarConfig::new(64, 16).with_device(DeviceParams {
            program_sigma: 0.25,
            read_sigma: 0.08,
            ..DeviceParams::ideal()
        });
        let input = BitVec::from_bools(&(0..48).map(|i| i % 3 != 0).collect::<Vec<_>>());
        let base = TacitMapped::program_seeded(&w, &noisy, 7).unwrap();
        let mut a = base.replicate(100);
        let mut b = base.replicate(100);
        let mut c = base.replicate(101);
        assert!(base.shares_core_with(&a) && a.shares_core_with(&b) && b.shares_core_with(&c));
        assert_eq!(a.steps_taken(), 0, "replica telemetry starts fresh");
        assert_eq!(
            a.energy_j(),
            0.0,
            "programming energy stays on the original"
        );
        // Same replica seed => identical noisy stream; different => not.
        let out_a: Vec<_> = (0..3).map(|_| a.execute(&input).unwrap()).collect();
        let out_b: Vec<_> = (0..3).map(|_| b.execute(&input).unwrap()).collect();
        let out_c: Vec<_> = (0..3).map(|_| c.execute(&input).unwrap()).collect();
        assert_eq!(out_a, out_b);
        assert_ne!(out_a, out_c);
        // In the ideal profile a replica reads the very same programmed
        // bits: outputs equal the software reference, like the original.
        let ideal = TacitMapped::program_seeded(&w, &XbarConfig::new(64, 16), 7).unwrap();
        let mut rep = ideal.replicate(42);
        assert_eq!(
            rep.execute(&input).unwrap(),
            ops::binary_linear_popcounts(&input, &w)
        );
        // Shared cores dominate the footprint; rinds stay small.
        assert_eq!(ideal.core_bytes(), rep.core_bytes());
        assert!(rep.rind_bytes() < rep.core_bytes());
    }

    #[test]
    fn input_length_checked() {
        let mut r = rng();
        let w = random_bits(4, 8, 1);
        let mut mapped = TacitMapped::program(&w, &XbarConfig::new(32, 8), &mut r).unwrap();
        assert!(matches!(
            mapped.execute(&BitVec::zeros(9), &mut r),
            Err(MappingError::InputLength { .. })
        ));
    }

    #[test]
    fn empty_weights_rejected() {
        let mut r = rng();
        assert!(matches!(
            TacitMapped::program(&BitMatrix::zeros(0, 0), &XbarConfig::default(), &mut r),
            Err(MappingError::EmptyWeights)
        ));
    }

    #[test]
    fn energy_accrues_with_programming_and_execution() {
        let mut r = rng();
        let w = random_bits(10, 40, 3);
        let mut mapped = TacitMapped::program(&w, &XbarConfig::new(32, 16), &mut r).unwrap();
        let programmed = mapped.energy_j();
        assert!(programmed > 0.0, "programming must cost energy");
        let input = BitVec::from_bools(&(0..40).map(|i| i % 2 == 0).collect::<Vec<_>>());
        mapped.execute(&input, &mut r).unwrap();
        let one = mapped.energy_j();
        assert!(one > programmed);
        // The batched path charges the same energy as per-input execution.
        let mut batched = TacitMapped::program(&w, &XbarConfig::new(32, 16), &mut r).unwrap();
        let complement = input.complement();
        batched
            .execute_ref_pairs(&[(&input, &complement), (&input, &complement)], &mut r)
            .unwrap();
        let mut single = TacitMapped::program(&w, &XbarConfig::new(32, 16), &mut r).unwrap();
        single.execute(&input, &mut r).unwrap();
        single.execute(&input, &mut r).unwrap();
        assert!((batched.energy_j() - single.energy_j()).abs() < 1e-18);
    }

    #[test]
    fn vacuous_fault_profile_is_bit_exact_and_free() {
        use eb_xbar::FaultConfig;
        let w = random_bits(17, 50, 19);
        let plain = XbarConfig::new(32, 8);
        let faulted = plain.clone().with_fault(FaultConfig::none().with_seed(99));
        let input = BitVec::from_bools(&(0..50).map(|i| i % 3 != 1).collect::<Vec<_>>());
        let mut a = TacitMapped::program_seeded(&w, &plain, 5).unwrap();
        let mut b = TacitMapped::program_seeded(&w, &faulted, 5).unwrap();
        assert_eq!(a.execute(&input).unwrap(), b.execute(&input).unwrap());
        assert_eq!(b.inner().fault_count(), 0);
    }

    #[test]
    fn dead_cells_degrade_counts_deterministically() {
        use eb_xbar::FaultConfig;
        let w = random_bits(17, 50, 19);
        let cfg = XbarConfig::new(32, 8).with_fault(FaultConfig::dead_cells(0.4, 7));
        let input = BitVec::from_bools(&(0..50).map(|i| i % 3 != 1).collect::<Vec<_>>());
        let run = |seed: u64| {
            let mut m = TacitMapped::program_seeded(&w, &cfg, seed).unwrap();
            (m.execute(&input).unwrap(), m.inner().fault_count())
        };
        let (counts, faults) = run(5);
        assert!(faults > 0, "40% dead cells must hit some of 32×8×15 chunks");
        assert_ne!(
            counts,
            ops::binary_linear_popcounts(&input, &w),
            "heavy dead-cell population must move the popcounts"
        );
        // Same programming seed + same fault profile replays exactly.
        assert_eq!(run(5), run(5));
        // A different fault seed moves different cells.
        let other = XbarConfig::new(32, 8).with_fault(FaultConfig::dead_cells(0.4, 8));
        let mut m = TacitMapped::program_seeded(&w, &other, 5).unwrap();
        assert_ne!(m.execute(&input).unwrap(), counts);
    }

    #[test]
    fn chunks_receive_distinct_fault_maps() {
        use eb_xbar::FaultConfig;
        // One fault profile over a 4-chunk layer: if every chunk shared the
        // seed, all chunks would kill identical (r, c) offsets. Distinct
        // derived seeds make that vanishingly unlikely.
        let w = random_bits(10, 100, 9);
        let cfg = XbarConfig::new(64, 16).with_fault(FaultConfig::dead_cells(0.1, 42));
        let mapped = TacitMapped::program_seeded(&w, &cfg, 1).unwrap();
        let maps: Vec<Vec<(usize, usize)>> = mapped
            .inner()
            .engines
            .iter()
            .flatten()
            .map(|e| {
                let a = e.array();
                (0..a.rows())
                    .flat_map(|r| (0..a.cols()).map(move |c| (r, c)))
                    .filter(|&(r, c)| a.cell_fault(r, c).is_some())
                    .collect()
            })
            .collect();
        assert_eq!(maps.len(), 4);
        assert!(
            maps.windows(2).any(|w| w[0] != w[1]),
            "chunk fault maps must differ"
        );
    }

    #[test]
    fn invalid_fault_profile_rejected_at_program() {
        use eb_xbar::FaultConfig;
        let mut r = rng();
        let w = random_bits(4, 8, 1);
        let cfg = XbarConfig::new(32, 8).with_fault(FaultConfig::dead_cells(1.5, 0));
        assert!(matches!(
            TacitMapped::program(&w, &cfg, &mut r),
            Err(MappingError::Xbar(_))
        ));
    }
}
