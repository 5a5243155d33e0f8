//! The Alternating-Update Non-negative Tensor Factorization driver.
//!
//! This is the paper's `AUNTF_GPU` class (§4): the outer AO loop of
//! Algorithm 1, device-resident, dispatching per-mode to a pluggable update
//! scheme (ADMM / cuADMM, MU, HALS) and a pluggable MTTKRP engine (COO,
//! CSF, ALTO, BLCO, dense). Every phase — GRAM, MTTKRP, UPDATE, NORMALIZE —
//! is metered on the device so the breakdown figures (Figs. 1, 3) and the
//! end-to-end comparisons (Figs. 5–10) fall directly out of the profiler.
//!
//! There is one loop ([`Auntf::ao_loop`]) and it runs over a
//! [`Placement`]: either one device, whose engine is in core or tiled, or
//! the alive members of a device group ([`crate::sharded`]). The loop owns
//! validation, checkpoint restore and save, the mode loop, the ADMM
//! fault/Cholesky/degrade ladder, MU/HALS dispatch, the fit and the
//! convergence log; a placement supplies only its phase ops and the loss
//! epoch tick.

use std::sync::Arc;

use cstf_device::{Device, DeviceFault, FaultKind, KernelClass, KernelCost, Phase};
use cstf_formats::MttkrpWorkspace;
use cstf_linalg::{gram, normalize_columns_scratch, LinalgError, Mat, NormKind, PartialBuffers};
use cstf_telemetry::{ConvergenceLog, HeapRegion, Span};
use cstf_tensor::{read_tns_tiles_file, DenseTensor, Ktensor, SparseTensor, TnsError};

use crate::admm::{admm_update, AdmmConfig, AdmmStats, AdmmWorkspace};
use crate::checkpoint::{self, BatchView, CheckpointConfig};
use crate::hals::{hals_update, HalsConfig};
use crate::mu::{mu_update, MuConfig};
use crate::recovery::{
    AdmmError, ElasticityReport, FactorizeError, RecoveryPolicy, RecoveryReport,
};
use crate::tiled::{copy_rows, Blocks, Kernel, TilingReport};

/// Which compressed format backs the MTTKRP phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TensorFormat {
    /// Plain coordinates, privatized parallel accumulation (naive baseline).
    Coo,
    /// SPLATT's CSF, one tree per mode (the CPU state of the art, §5.3).
    Csf,
    /// SPLATT's ONEMODE configuration: a single CSF tree serves every
    /// target mode (1/N the memory, scatter conflicts on non-root modes).
    CsfOne,
    /// HiCOO blocked coordinates (Li et al., SC '18 lineage).
    HiCoo,
    /// ALTO linearized format (the modified-PLANC CPU path, §4).
    Alto,
    /// BLCO blocked linearized format (the GPU state of the art, §2.3).
    Blco,
}

/// The per-mode update scheme (Algorithm 1, line 10).
#[derive(Debug, Clone, Copy)]
pub enum UpdateMethod {
    /// AO-ADMM (generic or cuADMM depending on the config's OF/PI flags).
    Admm(AdmmConfig),
    /// Multiplicative updates.
    Mu(MuConfig),
    /// Hierarchical ALS.
    Hals(HalsConfig),
}

impl UpdateMethod {
    /// Short label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            UpdateMethod::Admm(c) => c.variant_name(),
            UpdateMethod::Mu(_) => "MU",
            UpdateMethod::Hals(_) => "HALS",
        }
    }
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct AuntfConfig {
    /// Factorization rank `R`.
    pub rank: usize,
    /// Outer AO iterations.
    pub max_iters: usize,
    /// Stop when the fit improves by less than this between outer
    /// iterations (`0.0` disables early stopping; requires `compute_fit`).
    pub fit_tol: f64,
    /// Update scheme.
    pub update: UpdateMethod,
    /// Column norm used by the NORMALIZE phase.
    pub norm: NormKind,
    /// Seed for the random factor initialization.
    pub seed: u64,
    /// Track the CP fit each outer iteration (adds an `Other`-phase cost).
    pub compute_fit: bool,
    /// MTTKRP engine format.
    pub format: TensorFormat,
    /// How the driver responds to device faults and numerical breakdowns.
    pub recovery: RecoveryPolicy,
    /// Out-of-core tile count `K`. `1` (the default) runs the ordinary
    /// in-core path; `K > 1` streams the tensor through device memory in
    /// `K` nnz-balanced tiles per mode, double-buffering each tile's
    /// host→device copy against the previous tile's compute. The factors
    /// are bitwise-identical at every `K` (ignored for dense tensors and
    /// rejected by the sharded multi-device driver).
    pub tiles: usize,
}

impl Default for AuntfConfig {
    fn default() -> Self {
        Self {
            rank: 16,
            max_iters: 10,
            fit_tol: 0.0,
            update: UpdateMethod::Admm(AdmmConfig::cuadmm()),
            norm: NormKind::Two,
            seed: 0,
            compute_fit: true,
            format: TensorFormat::Blco,
            recovery: RecoveryPolicy::default(),
            tiles: 1,
        }
    }
}

/// Result of a factorization run.
#[derive(Debug, Clone)]
pub struct FactorizeOutput {
    /// The fitted CP model.
    pub model: Ktensor,
    /// Outer iterations executed.
    pub iters: usize,
    /// Fit after each outer iteration (empty if `compute_fit` was off).
    pub fits: Vec<f64>,
    /// True when the fit-tolerance stop fired before `max_iters`.
    pub converged: bool,
    /// Per-iteration convergence telemetry: fit, relative error, and the
    /// ADMM inner-iteration counts / residuals / rho of every mode visit.
    pub convergence: ConvergenceLog,
    /// What the recovery machinery did (all-zero for a fault-free run).
    pub recovery: RecoveryReport,
    /// What the elastic sharded driver observed and did (default — clean —
    /// for single-device runs and healthy groups).
    pub elasticity: ElasticityReport,
    /// What the out-of-core tiled streaming did (default — `tiles = 1`,
    /// nothing streamed — for in-core runs).
    pub tiling: TilingReport,
}

/// Scan-time facts about a tensor that was streamed tile-by-tile and
/// never materialized in full (the `fit` computation needs `norm_sq`).
pub(crate) struct StreamedMeta {
    pub shape: Vec<usize>,
    pub nnz: usize,
    pub norm_sq: f64,
}

pub(crate) enum Source {
    /// Shared with the in-core COO kernel, which reads it directly.
    Sparse(Arc<SparseTensor>),
    Dense(DenseTensor),
    /// The tensor exists only as the tiles inside `Engine::Tiled`; this
    /// carries the scan-time global facts.
    Streamed(StreamedMeta),
}

enum Engine {
    /// In core: one kernel serving every mode, or one per mode (CSF
    /// keeps a tree rooted at each mode).
    Sparse(Vec<Kernel>),
    /// Use the dense tensor in `Source` directly.
    Dense,
    /// Out of core: `K` compiled tiles per mode, streamed per sweep.
    Tiled(Blocks),
}

/// The alternating-update driver, holding the tensor and its compiled
/// MTTKRP engine.
pub struct Auntf {
    pub(crate) source: Source,
    engine: Engine,
    pub(crate) cfg: AuntfConfig,
}

/// The loop state a checkpoint or an elastic commit captures.
#[derive(Clone)]
pub(crate) struct State {
    pub factors: Vec<Mat>,
    pub lambda: Vec<f64>,
    pub fits: Vec<f64>,
    pub duals: Vec<Mat>,
    pub convergence: ConvergenceLog,
    /// Outer iterations completed.
    pub completed: usize,
    /// True once the fit-tolerance stop fired.
    pub converged: bool,
}

impl State {
    /// Overwrites `self` with `from`, field by field.
    pub(crate) fn assign(&mut self, from: &State) {
        self.factors.clone_from(&from.factors);
        self.lambda.clone_from(&from.lambda);
        self.fits.clone_from(&from.fits);
        self.duals.clone_from(&from.duals);
        self.convergence.clone_from(&from.convergence);
        self.completed = from.completed;
        self.converged = from.converged;
    }

    pub(crate) fn into_output(
        self,
        recovery: RecoveryReport,
        elasticity: ElasticityReport,
        tiling: TilingReport,
    ) -> FactorizeOutput {
        FactorizeOutput {
            model: Ktensor::new(self.factors, self.lambda),
            iters: self.completed,
            fits: self.fits,
            converged: self.converged,
            convergence: self.convergence,
            recovery,
            elasticity,
            tiling,
        }
    }
}

/// Recovery state that outlives an elastic attempt.
#[derive(Default)]
pub(crate) struct Ladder {
    pub report: RecoveryReport,
    /// Sticky fused-kernel degradation (graceful fallback to the
    /// bitwise-identical multi-kernel path when the fused sweep keeps
    /// faulting).
    degraded: bool,
    fused_faults_in_a_row: u32,
    /// Loss epochs ticked: one per started outer iteration, so a replayed
    /// iteration does not tick again.
    epochs: u64,
}

/// Where the AO loop runs. A placement supplies the phase ops;
/// [`Auntf::ao_loop`] owns everything else.
pub(crate) trait Placement {
    /// The device the fit and the MU/HALS updates run on.
    fn lead(&self) -> &Device;
    /// Calls `f` on every alive device.
    fn each(&self, f: impl FnMut(&Device));
    /// Advances the loss epoch on every device, dead ones included —
    /// retirement does not pause a corpse's clock.
    fn tick(&self);
    /// Copies the tensor and the factors to the devices.
    fn upload(&mut self, factors: &[Mat], rep: &mut RecoveryReport) -> Result<(), FactorizeError>;
    /// Copies the factors back to the host.
    fn download(&mut self, factors: &[Mat], rep: &mut RecoveryReport)
        -> Result<(), FactorizeError>;
    /// `out = hᵀh`.
    fn gram(
        &mut self,
        h: &Mat,
        out: &mut Mat,
        outer: usize,
        rep: &mut RecoveryReport,
    ) -> Result<(), FactorizeError>;
    /// `out` = the Hadamard product of every Gram but `grams[mode]`.
    fn hadamard(
        &mut self,
        grams: &[Mat],
        mode: usize,
        out: &mut Mat,
        rep: &mut RecoveryReport,
    ) -> Result<(), FactorizeError>;
    /// The mode-`mode` MTTKRP, whole, into `out`.
    fn mttkrp(
        &mut self,
        factors: &[Mat],
        mode: usize,
        out: &mut Mat,
        outer: usize,
        rep: &mut RecoveryReport,
    ) -> Result<(), FactorizeError>;
    /// One ADMM update of mode `mode`. On failure `h` and `u` are
    /// unchanged, so a retry replays from clean state.
    fn admm(
        &mut self,
        cfg: &AdmmConfig,
        mode: usize,
        m: &Mat,
        s: &Mat,
        h: &mut Mat,
        u: &mut Mat,
    ) -> Result<AdmmStats, AdmmError>;
    /// Makes the updated factor of mode `mode` whole on every device.
    fn gather(&mut self, mode: usize, h: &mut Mat);
    /// Normalizes the columns of `h` into `lambda`.
    fn normalize(&mut self, h: &mut Mat, lambda: &mut [f64]);
}

impl Auntf {
    /// Builds a driver for a sparse tensor, compiling the configured
    /// format (into `cfg.tiles` out-of-core tiles per mode when the
    /// config asks for tiling).
    pub fn new(x: SparseTensor, cfg: AuntfConfig) -> Self {
        let _region = HeapRegion::enter("construction");
        let x = Arc::new(x);
        let engine = if cfg.tiles > 1 {
            Engine::Tiled(Blocks::compile(&x, cfg.tiles, cfg.format))
        } else {
            let roots = if cfg.format == TensorFormat::Csf { x.nmodes() } else { 1 };
            Engine::Sparse((0..roots).map(|m| Kernel::compile(&x, m, cfg.format)).collect())
        };
        Self { source: Source::Sparse(x), engine, cfg }
    }

    /// Builds a driver by streaming a `.tns` file tile-by-tile: the full
    /// COO is never materialized. The file is scanned once for shape,
    /// nnz-per-row histograms and `||X||²`, then re-read per (mode, tile)
    /// with only one tile's sub-tensor live at a time — peak construction
    /// heap is bounded by the largest tile, not the tensor.
    ///
    /// With `cfg.tiles <= 1` this falls back to the ordinary in-core
    /// parse + [`Auntf::new`] (same bytes, same engine, same numerics).
    ///
    /// # Errors
    /// Any [`TnsError`] from the scan or a tile pass, including a file
    /// that changes between the two passes.
    pub fn from_tns_file_tiled(
        path: impl AsRef<std::path::Path>,
        cfg: AuntfConfig,
    ) -> Result<Self, TnsError> {
        if cfg.tiles <= 1 {
            let x = cstf_tensor::read_tns_file(path)?;
            return Ok(Self::new(x, cfg));
        }
        let _region = HeapRegion::enter("construction");
        let mut blocks = Blocks::empty();
        let format = cfg.format;
        let scan = read_tns_tiles_file(path, cfg.tiles, |mode, _tile, rows, coo| {
            blocks.push(mode, rows.clone(), coo, format);
            Ok(())
        })?;
        let meta = StreamedMeta { shape: scan.shape.clone(), nnz: scan.nnz, norm_sq: scan.norm_sq };
        Ok(Self { source: Source::Streamed(meta), engine: Engine::Tiled(blocks), cfg })
    }

    /// Builds a driver for a dense tensor (the Fig. 1 DenseTF study).
    pub fn new_dense(x: DenseTensor, cfg: AuntfConfig) -> Self {
        Self { source: Source::Dense(x), engine: Engine::Dense, cfg }
    }

    /// Tensor shape.
    pub fn shape(&self) -> Vec<usize> {
        match &self.source {
            Source::Sparse(x) => x.shape().to_vec(),
            Source::Dense(x) => x.shape().to_vec(),
            Source::Streamed(meta) => meta.shape.clone(),
        }
    }

    /// Stored nonzeros (cell count for dense tensors).
    pub fn nnz(&self) -> usize {
        match &self.source {
            Source::Sparse(x) => x.nnz(),
            Source::Dense(x) => x.len(),
            Source::Streamed(meta) => meta.nnz,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AuntfConfig {
        &self.cfg
    }

    /// The in-core (non-tiled) MTTKRP into `out`.
    fn mttkrp_into(
        &self,
        dev: &Device,
        factors: &[Mat],
        mode: usize,
        out: &mut Mat,
        ws: &mut MttkrpWorkspace,
    ) -> Result<(), DeviceFault> {
        match (&self.engine, &self.source) {
            (Engine::Sparse(kernels), Source::Sparse(x)) => kernels[mode.min(kernels.len() - 1)]
                .launch(dev, "mttkrp", x.shape(), factors, mode, out, ws),
            (Engine::Dense, Source::Dense(x)) => {
                let rank = self.cfg.rank;
                let cells: f64 = x.shape().iter().map(|&d| d as f64).product();
                let n = x.nmodes() as f64;
                let cost = KernelCost {
                    flops: cells * (n + 1.0) * rank as f64,
                    bytes_read: cells * 8.0,
                    bytes_written: (x.shape()[mode] * rank) as f64 * 8.0,
                    gather_traffic: 0.0, // dense walks factors with full reuse
                    parallel_work: cells,
                    serial_steps: 1.0,
                    working_set: x
                        .shape()
                        .iter()
                        .enumerate()
                        .filter(|&(m, _)| m != mode)
                        .map(|(_, &d)| (d * rank * 8) as f64)
                        .sum(),
                };
                // Dense MTTKRP streams with full reuse.
                dev.launch_into(
                    "mttkrp",
                    Phase::Mttkrp,
                    KernelClass::Gemm,
                    cost,
                    out,
                    Mat::as_mut_slice,
                    |out| *out = x.mttkrp(factors, mode),
                )
            }
            _ => unreachable!("engine/source mismatch"),
        }
    }

    /// CP fit `1 - ||X - model|| / ||X||` for the current factors, using
    /// the already-available Grams for the model norm.
    ///
    /// `m` is the MTTKRP output of the most recently updated mode
    /// `last_mode`, computed against the *current* other factors. It
    /// enables SPLATT's fit shortcut
    /// `<X, model> = sum_{i,r} lambda_r * H[i,r] * M[i,r]` — an `O(I R)`
    /// reduction instead of an `O(nnz R)` sparse traversal. Valid because
    /// the other modes' factors have not changed since `m` was computed,
    /// and mode `last_mode`'s factor was normalized afterwards with the
    /// scale moved into lambda — the triple product recovers <X, model>.
    pub(crate) fn fit(
        &self,
        dev: &Device,
        factors: &[Mat],
        lambda: &[f64],
        grams: &[Mat],
        (m, last_mode): (&Mat, usize),
        had: &mut Mat,
    ) -> f64 {
        let rank = self.cfg.rank;
        // ||model||^2 = lambda^T (hadamard of all Grams) lambda, built in
        // the caller-owned scratch matrix.
        had.as_mut_slice().fill(1.0);
        for g in grams {
            gram::hadamard_in_place(had, g);
        }
        let mut model_sq = 0.0;
        for i in 0..rank {
            for j in 0..rank {
                model_sq += lambda[i] * had[(i, j)] * lambda[j];
            }
        }

        let x_sq = match &self.source {
            Source::Sparse(x) => x.norm_sq(),
            // From the scan, summed in file order — the same order the
            // in-core serial reduction uses.
            Source::Streamed(meta) => meta.norm_sq,
            Source::Dense(x) => {
                // Direct residual over all cells (small tensors only).
                let model = Ktensor::new(factors.to_vec(), lambda.to_vec());
                let mut res = 0.0;
                let shape = x.shape().to_vec();
                let mut coord = vec![0usize; shape.len()];
                let c32: &mut Vec<u32> = &mut vec![0u32; shape.len()];
                for _ in 0..x.len() {
                    for (a, &b) in c32.iter_mut().zip(&coord) {
                        *a = b as u32;
                    }
                    let d = x.get(&coord) - model.value_at(c32);
                    res += d * d;
                    for m in (0..shape.len()).rev() {
                        coord[m] += 1;
                        if coord[m] < shape[m] {
                            break;
                        }
                        coord[m] = 0;
                    }
                }
                let x_sq = x.norm_sq();
                return if x_sq > 0.0 { 1.0 - (res / x_sq).sqrt() } else { 1.0 };
            }
        };
        let inner = self.fit_inner_from_mttkrp(dev, factors, lambda, m, last_mode);
        let res = (x_sq - 2.0 * inner + model_sq).max(0.0);
        if x_sq > 0.0 {
            1.0 - (res / x_sq).sqrt()
        } else {
            1.0
        }
    }

    /// `<X, model> = sum_{i,r} lambda_r * H[i,r] * M[i,r]` from the last
    /// MTTKRP panel `m` of mode `last_mode` — SPLATT's `O(I R)` fit
    /// shortcut, metered as a `Reduce`-class kernel.
    fn fit_inner_from_mttkrp(
        &self,
        dev: &Device,
        factors: &[Mat],
        lambda: &[f64],
        m: &Mat,
        last_mode: usize,
    ) -> f64 {
        let rank = self.cfg.rank;
        let h = &factors[last_mode];
        let elems = (h.rows() * rank) as f64;
        dev.launch(
            "fit_inner_from_mttkrp",
            Phase::Other,
            KernelClass::Reduce,
            KernelCost {
                flops: 3.0 * elems,
                bytes_read: 2.0 * elems * 8.0,
                bytes_written: 8.0,
                gather_traffic: 0.0,
                parallel_work: elems,
                serial_steps: 1.0,
                working_set: 2.0 * elems * 8.0,
            },
            || {
                let mut acc = 0.0;
                for i in 0..h.rows() {
                    let (hr, mr) = (h.row(i), m.row(i));
                    for r in 0..rank {
                        acc += lambda[r] * hr[r] * mr[r];
                    }
                }
                acc
            },
        )
    }

    /// A stable description of everything that determines the iteration
    /// trajectory, recorded in checkpoints so a resume with a different
    /// tensor/rank/seed/scheme is rejected instead of silently corrupting
    /// results. Deliberately excludes `max_iters`, so a resumed run may
    /// extend the iteration budget.
    pub(crate) fn fingerprint(&self) -> String {
        let dims: Vec<String> = self.shape().iter().map(|d| d.to_string()).collect();
        format!(
            "shape={} nnz={} rank={} seed={} update={} format={:?}",
            dims.join("x"),
            self.nnz(),
            self.cfg.rank,
            self.cfg.seed,
            self.cfg.update.name(),
            self.cfg.format
        )
    }

    /// Runs the factorization on a device.
    ///
    /// Performs the one-time host-to-device transfers (tensor + factors),
    /// then iterates Algorithm 1 until `max_iters` or the fit tolerance.
    /// Device faults and numerical breakdowns are healed according to
    /// [`AuntfConfig::recovery`]; because every retry replays the same
    /// deterministic computation from restored state, a recovered run
    /// produces **bitwise-identical** factors to a fault-free one (only a
    /// genuine non-positive-definite Gram, which boosts rho, changes the
    /// numerics).
    ///
    /// # Errors
    /// [`FactorizeError::InvalidConfig`] for zero rank / empty tensors;
    /// the other variants when the recovery budget is exhausted.
    pub fn factorize(&self, dev: &Device) -> Result<FactorizeOutput, FactorizeError> {
        self.run(dev, None)
    }

    /// Like [`factorize`](Self::factorize), but snapshots the loop state
    /// into `ckpt.dir` every `ckpt.every` outer iterations. With `resume`,
    /// restarts from the newest valid snapshot (corrupt snapshots fall
    /// back to older ones); the resumed trajectory is bitwise-identical to
    /// an uninterrupted run.
    ///
    /// # Errors
    /// As [`factorize`](Self::factorize), plus
    /// [`FactorizeError::Checkpoint`] for snapshot I/O failures or a
    /// fingerprint mismatch on resume.
    pub fn factorize_checkpointed(
        &self,
        dev: &Device,
        ckpt: &CheckpointConfig,
        resume: bool,
    ) -> Result<FactorizeOutput, FactorizeError> {
        self.run(dev, Some((ckpt, resume)))
    }

    fn run(
        &self,
        dev: &Device,
        ckpt: Option<(&CheckpointConfig, bool)>,
    ) -> Result<FactorizeOutput, FactorizeError> {
        let _region = HeapRegion::enter("factorize");
        let mut st = self.start(false, ckpt)?;
        let mut lad = Ladder::default();
        let mut p = OneDevice::new(self, dev);
        self.ao_loop(&mut p, &mut st, &mut lad, ckpt.map(|(cc, _)| cc), |_| {})?;
        Ok(st.into_output(lad.report, ElasticityReport::default(), p.tiling))
    }

    /// Validates the run and restores the newest valid snapshot, if asked
    /// to, or seeds fresh factors. A sharded run also rejects what the
    /// group placement cannot run.
    pub(crate) fn start(
        &self,
        sharded: bool,
        ckpt: Option<(&CheckpointConfig, bool)>,
    ) -> Result<State, FactorizeError> {
        let invalid = |msg: &str| Err(FactorizeError::InvalidConfig(msg.into()));
        let shape = self.shape();
        let rank = self.cfg.rank;
        if rank == 0 {
            return invalid("rank must be at least 1");
        }
        if shape.is_empty() {
            return invalid("tensor must have at least one mode");
        }
        if self.nnz() == 0 {
            return invalid("tensor has no stored values (empty tensor)");
        }
        if sharded {
            if self.cfg.tiles > 1 {
                return invalid(
                    "tiled out-of-core execution is single-device; use --gpus 1 with --tiles",
                );
            }
            if !matches!(self.source, Source::Sparse(_)) {
                return invalid("sharded factorization requires an in-core sparse tensor");
            }
            match &self.cfg.update {
                UpdateMethod::Admm(c) if c.tol == 0.0 => {}
                UpdateMethod::Admm(_) => {
                    return invalid(
                        "sharded factorization requires fixed ADMM inner iterations (tol = 0); \
                         residual-based early exit would need a global all-reduce per inner \
                         iteration",
                    )
                }
                _ => return invalid("sharded factorization supports only the ADMM update scheme"),
            }
        }

        let restored = match ckpt {
            Some((cc, true)) => checkpoint::load_latest_batch(&cc.dir, &self.fingerprint())
                .map_err(|e| FactorizeError::Checkpoint(e.to_string()))?,
            _ => None,
        };
        let convergence = ConvergenceLog::with_capacity(self.cfg.max_iters, shape.len());
        Ok(match restored {
            Some(st) => {
                if st.factors.len() != shape.len() || st.lambda.len() != rank {
                    return Err(FactorizeError::Checkpoint(format!(
                        "snapshot shape mismatch: {} factor(s), lambda of {}",
                        st.factors.len(),
                        st.lambda.len()
                    )));
                }
                State {
                    factors: st.factors,
                    lambda: st.lambda,
                    fits: st.fits,
                    duals: st.duals,
                    convergence,
                    completed: st.completed_iters,
                    converged: false,
                }
            }
            None => State {
                factors: seeded_factors(&shape, rank, self.cfg.seed),
                lambda: vec![1.0f64; rank],
                fits: Vec::with_capacity(self.cfg.max_iters),
                duals: shape.iter().map(|&d| Mat::zeros(d, rank)).collect(),
                convergence,
                completed: 0,
                converged: false,
            },
        })
    }

    /// The AO loop (Algorithm 1) on placement `p`: runs outer iterations
    /// `st.completed..max_iters`, calling `commit` after each one and
    /// snapshotting into `ckpt` on its schedule.
    ///
    /// Everything the outer loop touches is allocated before it (or grown
    /// during the first warm-up iteration), so steady-state iterations on
    /// one device perform zero heap allocation.
    pub(crate) fn ao_loop<P: Placement>(
        &self,
        p: &mut P,
        st: &mut State,
        lad: &mut Ladder,
        ckpt: Option<&CheckpointConfig>,
        mut commit: impl FnMut(&State),
    ) -> Result<(), FactorizeError> {
        let rank = self.cfg.rank;
        let nmodes = st.factors.len();
        // One-time transfers: the paper's framework is fully GPU-resident,
        // paying these once instead of per-iteration.
        p.upload(&st.factors, &mut lad.report)?;
        let mut grams: Vec<Mat> = vec![Mat::zeros(rank, rank); nmodes];
        for (g, h) in grams.iter_mut().zip(&st.factors) {
            p.gram(h, g, 0, &mut lad.report)?;
        }
        // Per-mode MTTKRP outputs, kept so the fit shortcut can reuse the
        // last one without moving or reallocating it.
        let mut m_bufs: Vec<Mat> = st.factors.iter().map(|f| Mat::zeros(f.rows(), rank)).collect();
        let mut s = Mat::zeros(rank, rank);
        let mut had = Mat::zeros(rank, rank);

        for outer in st.completed..self.cfg.max_iters {
            let _iter_span = Span::enter("outer_iteration");
            while lad.epochs < outer as u64 {
                p.tick();
                lad.epochs += 1;
            }
            for mode in 0..nmodes {
                let _mode_span = Span::enter_mode("mode_update", mode);
                // Key every launch in this body under the mode being
                // updated — the (phase, kernel, mode) attribution the
                // roofline table and perf baselines are indexed by.
                p.each(|d| d.set_mode(Some(mode)));
                p.hadamard(&grams, mode, &mut s, &mut lad.report)?;
                p.mttkrp(&st.factors, mode, &mut m_bufs[mode], outer, &mut lad.report)?;
                let (m, h) = (&m_bufs[mode], &mut st.factors[mode]);
                let log = &mut st.convergence;
                match &self.cfg.update {
                    UpdateMethod::Admm(cfg) => {
                        let (u, policy) = (&mut st.duals[mode], &self.cfg.recovery);
                        let at = (mode, outer);
                        let stats = admm_ladder(p, lad, policy, cfg, at, &grams, &mut s, m, h, u)?;
                        log.log_mode(
                            mode,
                            stats.iters,
                            Some(stats.primal_residual),
                            Some(stats.dual_residual),
                            Some(stats.rho),
                        );
                    }
                    UpdateMethod::Mu(cfg) => {
                        mu_update(p.lead(), cfg, m, &s, h);
                        log.log_mode(mode, cfg.inner_iters, None, None, None);
                    }
                    UpdateMethod::Hals(cfg) => {
                        hals_update(p.lead(), cfg, m, &s, h);
                        log.log_mode(mode, cfg.inner_iters, None, None, None);
                    }
                }
                p.gather(mode, h);
                p.normalize(h, &mut st.lambda);
                p.gram(h, &mut grams[mode], outer, &mut lad.report)?;
            }
            // Fit checks and convergence bookkeeping are outside any mode.
            p.each(|d| d.set_mode(None));

            let mut iter_fit = None;
            if self.cfg.compute_fit {
                let last = (&m_bufs[nmodes - 1], nmodes - 1);
                let fit = self.fit(p.lead(), &st.factors, &st.lambda, &grams, last, &mut had);
                iter_fit = Some(fit);
                let improved = st.fits.last().map_or(f64::INFINITY, |&prev| fit - prev);
                st.fits.push(fit);
                st.converged = self.cfg.fit_tol > 0.0 && improved.abs() < self.cfg.fit_tol;
            }
            st.convergence.end_iteration(iter_fit);
            p.each(|d| d.mark("outer_iteration"));
            st.completed = outer + 1;
            commit(st);

            if let Some(cc) = ckpt {
                if st.completed.is_multiple_of(cc.every)
                    || st.converged
                    || st.completed == self.cfg.max_iters
                {
                    let _ckpt_region = HeapRegion::enter("checkpoint");
                    checkpoint::save_batch(
                        &cc.dir,
                        &BatchView {
                            fingerprint: &self.fingerprint(),
                            completed_iters: st.completed,
                            lambda: &st.lambda,
                            fits: &st.fits,
                            factors: &st.factors,
                            duals: &st.duals,
                        },
                    )
                    .map_err(|e| FactorizeError::Checkpoint(e.to_string()))?;
                }
            }
            if st.converged {
                break;
            }
        }
        // Result back to the host.
        p.download(&st.factors, &mut lad.report)
    }
}

/// Runs one ADMM mode update under the recovery ladder: transient faults
/// retry with modeled backoff (after repeated faults of the fused sweep,
/// degrading for good to the bitwise-identical unfused path), a
/// NaN-corrupted `S` is recomputed, a genuinely indefinite `S + rho*I`
/// boosts rho, and device loss fails at once for the elastic ladder.
#[allow(clippy::too_many_arguments)]
fn admm_ladder<P: Placement>(
    p: &mut P,
    lad: &mut Ladder,
    policy: &RecoveryPolicy,
    cfg: &AdmmConfig,
    (mode, outer): (usize, usize),
    grams: &[Mat],
    s: &mut Mat,
    m: &Mat,
    h: &mut Mat,
    u: &mut Mat,
) -> Result<AdmmStats, FactorizeError> {
    let mut cfg_now = *cfg;
    cfg_now.single_sweep &= !lad.degraded;
    let (mut attempts, mut rescales) = (0u32, 0u32);
    loop {
        match p.admm(&cfg_now, mode, m, s, h, u) {
            Ok(stats) => {
                lad.fused_faults_in_a_row = 0;
                return Ok(stats);
            }
            Err(AdmmError::Fault(fault)) => {
                attempts += 1;
                if fault.kind == FaultKind::DeviceLoss {
                    return Err(FactorizeError::Fault { fault, attempts });
                }
                if cfg_now.single_sweep && fault.kernel == "fused_inner_sweep" {
                    lad.fused_faults_in_a_row += 1;
                    if lad.fused_faults_in_a_row >= policy.fused_fault_threshold {
                        lad.degraded = true;
                        cfg_now.single_sweep = false;
                        lad.report.degraded_to_unfused = true;
                    }
                }
                if attempts > policy.max_retries {
                    return Err(FactorizeError::Fault { fault, attempts });
                }
                lad.report.transient_retries += 1;
                lad.report.total_backoff_s += backoff_s(policy, attempts);
            }
            Err(AdmmError::Cholesky(error)) => {
                rescales += 1;
                lad.report.cholesky_retries += 1;
                if rescales > policy.max_rho_rescales {
                    return Err(FactorizeError::Cholesky { error, mode, rescales: rescales - 1 });
                }
                match error.source {
                    // Corrupted S: recompute it from the (guarded, finite)
                    // Grams. Deterministic, so no numerical drift.
                    LinalgError::NonFinite => {
                        lad.report.nan_events += 1;
                        p.hadamard(grams, mode, s, &mut lad.report)?;
                    }
                    // Genuinely indefinite S: boost rho and refactor.
                    LinalgError::NotPositiveDefinite { .. } => {
                        cfg_now.rho_scale *= policy.rho_rescale;
                    }
                }
            }
            // The inputs were finite (guards) and injected corruption is
            // caught above, so this is a genuine numerical breakdown — not
            // recoverable by replay.
            Err(AdmmError::NonFinite { .. }) => {
                return Err(FactorizeError::NonFinite {
                    stage: "admm_update",
                    mode,
                    outer_iter: outer,
                });
            }
        }
    }
}

/// One device; its engine is in core or tiled.
struct OneDevice<'a> {
    auntf: &'a Auntf,
    dev: &'a Device,
    shape: Vec<usize>,
    partials: PartialBuffers,
    ws: MttkrpWorkspace,
    admm_ws: Vec<AdmmWorkspace>,
    /// Pre-update copies of each mode's `(H, U)`, restored when an ADMM
    /// update fails. Allocated only when a fault plan is attached — a
    /// fault-free run pays nothing.
    snaps: Option<Vec<(Mat, Mat)>>,
    norm_scratch: Vec<f64>,
    /// Tiled runs stage each tile's kernel output apart from the
    /// committed panel (format kernels zero their whole buffer, which
    /// would clobber previously committed tiles). Empty in core.
    stages: Vec<Mat>,
    tiling: TilingReport,
}

impl<'a> OneDevice<'a> {
    fn new(auntf: &'a Auntf, dev: &'a Device) -> Self {
        let shape = auntf.shape();
        let rank = auntf.cfg.rank;
        let panels = || shape.iter().map(|&d| Mat::zeros(d, rank)).collect::<Vec<_>>();
        let tiled = matches!(auntf.engine, Engine::Tiled(_));
        Self {
            auntf,
            dev,
            partials: PartialBuffers::new(),
            ws: MttkrpWorkspace::new(),
            admm_ws: shape.iter().map(|&d| AdmmWorkspace::new(d, rank)).collect(),
            snaps: dev.fault_plan().map(|_| panels().into_iter().zip(panels()).collect()),
            norm_scratch: Vec::new(),
            stages: if tiled { panels() } else { Vec::new() },
            tiling: TilingReport {
                tiles: if tiled { auntf.cfg.tiles } else { 1 },
                ..TilingReport::default()
            },
            shape,
        }
    }
}

impl Placement for OneDevice<'_> {
    fn lead(&self) -> &Device {
        self.dev
    }

    fn each(&self, mut f: impl FnMut(&Device)) {
        f(self.dev);
    }

    fn tick(&self) {
        self.dev.advance_epoch();
    }

    fn upload(&mut self, factors: &[Mat], rep: &mut RecoveryReport) -> Result<(), FactorizeError> {
        let policy = &self.auntf.cfg.recovery;
        // A tiled run has no up-front tensor copy: tiles stream per sweep.
        let tensor_bytes = match (&self.auntf.engine, &self.auntf.source) {
            (Engine::Sparse(kernels), _) => Some(kernels.iter().map(Kernel::bytes).sum()),
            (Engine::Dense, Source::Dense(x)) => Some((x.len() * 8) as f64),
            _ => None,
        };
        if let Some(bytes) = tensor_bytes {
            transfer(self.dev, "h2d_tensor", bytes, policy, rep)?;
        }
        transfer(self.dev, "h2d_factors", mat_bytes(factors), policy, rep)
    }

    fn download(
        &mut self,
        factors: &[Mat],
        rep: &mut RecoveryReport,
    ) -> Result<(), FactorizeError> {
        transfer(self.dev, "d2h_factors", mat_bytes(factors), &self.auntf.cfg.recovery, rep)
    }

    fn gram(
        &mut self,
        h: &Mat,
        out: &mut Mat,
        outer: usize,
        rep: &mut RecoveryReport,
    ) -> Result<(), FactorizeError> {
        let (dev, policy, partials) = (self.dev, &self.auntf.cfg.recovery, &mut self.partials);
        let (rows, rank) = (h.rows(), h.cols());
        let cost = KernelCost {
            flops: (rows * rank * rank) as f64,
            bytes_read: (rows * rank) as f64 * 8.0,
            bytes_written: (rank * rank) as f64 * 8.0,
            gather_traffic: 0.0,
            parallel_work: (rows * rank) as f64,
            serial_steps: 1.0,
            working_set: (rows * rank) as f64 * 8.0,
        };
        guarded(policy, rep, ("gram_syrk", 0, outer), || {
            dev.launch_into(
                "gram_syrk",
                Phase::Gram,
                KernelClass::Gemm,
                cost,
                out,
                Mat::as_mut_slice,
                |out| gram::gram_into(h, out, partials),
            )?;
            Ok(finite(policy, out))
        })
    }

    fn hadamard(
        &mut self,
        grams: &[Mat],
        mode: usize,
        out: &mut Mat,
        rep: &mut RecoveryReport,
    ) -> Result<(), FactorizeError> {
        // Corruption of S is deliberately not checked here: it flows into
        // the Cholesky factorization, whose typed error drives the
        // recompute arm of the ADMM ladder.
        let cost = hadamard_cost(grams.len(), out.cols());
        guarded(&self.auntf.cfg.recovery, rep, ("hadamard_of_grams", mode, 0), || {
            self.dev.launch_into(
                "hadamard_of_grams",
                Phase::Gram,
                KernelClass::Stream,
                cost,
                out,
                Mat::as_mut_slice,
                |out| gram::hadamard_of_grams_into(grams, mode, out),
            )?;
            Ok(Some(()))
        })
    }

    fn mttkrp(
        &mut self,
        factors: &[Mat],
        mode: usize,
        out: &mut Mat,
        outer: usize,
        rep: &mut RecoveryReport,
    ) -> Result<(), FactorizeError> {
        let (auntf, dev, ws) = (self.auntf, self.dev, &mut self.ws);
        let policy = &auntf.cfg.recovery;
        let Engine::Tiled(blocks) = &auntf.engine else {
            return guarded(policy, rep, ("mttkrp", mode, outer), || {
                auntf.mttkrp_into(dev, factors, mode, out, ws)?;
                Ok(finite(policy, out))
            });
        };
        // One tiled sweep: for each tile, stream its bytes (double-buffered
        // against the previous tile's compute), launch its kernel into the
        // staging panel, and commit the tile's owned rows. The commits —
        // over disjoint, covering ranges — rebuild the in-core panel
        // exactly (see `crate::tiled`).
        out.as_mut_slice().fill(0.0);
        let stage = &mut self.stages[mode];
        let tiling = &mut self.tiling;
        // Compute seconds of the previous tile's kernel, available to hide
        // the next tile's copy behind. The first copy of a sweep has nothing
        // to overlap with — it is fully exposed, like the sharded h2d.
        let mut prev_compute_s = 0.0f64;
        for (rows, kernel) in blocks.ranges[mode].iter().zip(&blocks.kernels[mode]) {
            if matches!(kernel, Kernel::Empty) {
                // Nothing to move or run, and no kernel to hide the next
                // tile's copy behind.
                prev_compute_s = 0.0;
                continue;
            }
            let _tile_span = Span::enter("tile_stream");
            let bytes = kernel.bytes();
            let xfer = guarded(policy, rep, ("h2d_tile", mode, outer), || {
                dev.try_transfer_overlapped("h2d_tile", bytes, prev_compute_s).map(Some)
            })?;
            tiling.tile_transfers += 1;
            tiling.streamed_bytes += bytes;
            tiling.transfer_raw_s += xfer.raw_s;
            tiling.transfer_exposed_s += xfer.exposed_s;

            guarded(policy, rep, ("mttkrp", mode, outer), || {
                kernel.launch(dev, "mttkrp_tile", &self.shape, factors, mode, stage, ws)?;
                Ok(finite(policy, stage))
            })?;
            let cost = kernel.cost(&self.shape, mode, out.cols());
            prev_compute_s = dev.modeled_kernel_seconds(KernelClass::SparseGather, &cost);
            copy_rows(out, stage, rows);
        }
        Ok(())
    }

    fn admm(
        &mut self,
        cfg: &AdmmConfig,
        mode: usize,
        m: &Mat,
        s: &Mat,
        h: &mut Mat,
        u: &mut Mat,
    ) -> Result<AdmmStats, AdmmError> {
        if let Some((snap_h, snap_u)) = self.snaps.as_mut().map(|v| &mut v[mode]) {
            snap_h.copy_from(h);
            snap_u.copy_from(u);
        }
        let res = admm_update(self.dev, cfg, m, s, h, u, &mut self.admm_ws[mode]);
        if let (Err(_), Some((snap_h, snap_u))) = (&res, self.snaps.as_ref().map(|v| &v[mode])) {
            h.copy_from(snap_h);
            u.copy_from(snap_u);
        }
        res
    }

    fn gather(&mut self, _mode: usize, _h: &mut Mat) {}

    fn normalize(&mut self, h: &mut Mat, lambda: &mut [f64]) {
        let (norm, scratch) = (self.auntf.cfg.norm, &mut self.norm_scratch);
        let cost = normalize_cost(h);
        self.dev.launch("normalize_columns", Phase::Normalize, KernelClass::Stream, cost, || {
            lambda.fill(1.0);
            normalize_columns_scratch(h, lambda, norm, scratch);
        })
    }
}

/// Runs a fallible device op under the recovery policy — the one retry
/// loop every phase shares. `op` returns `Ok(None)` when its output came
/// back non-finite: that is recomputed (the kernels are deterministic, so
/// the recompute is exact) and, once the budget is spent, reported as
/// [`FactorizeError::NonFinite`] at `(stage, mode, outer)`. Transient
/// launch and link faults retry with modeled backoff; device loss is
/// persistent and fails at once, for the elastic ladder to handle.
pub(crate) fn guarded<T>(
    policy: &RecoveryPolicy,
    rep: &mut RecoveryReport,
    (stage, mode, outer_iter): (&'static str, usize, usize),
    mut op: impl FnMut() -> Result<Option<T>, DeviceFault>,
) -> Result<T, FactorizeError> {
    let mut attempts = 0u32;
    loop {
        let res = op();
        attempts += 1;
        match res {
            Ok(Some(out)) => return Ok(out),
            Ok(None) => {
                rep.nan_events += 1;
                if attempts > policy.max_retries {
                    return Err(FactorizeError::NonFinite { stage, mode, outer_iter });
                }
            }
            Err(fault) => {
                if fault.kind == FaultKind::DeviceLoss || attempts > policy.max_retries {
                    return Err(FactorizeError::Fault { fault, attempts });
                }
                if fault.kind == FaultKind::TransferFailure {
                    rep.transfer_retries += 1;
                } else {
                    rep.transient_retries += 1;
                }
                rep.total_backoff_s += backoff_s(policy, attempts);
            }
        }
    }
}

/// `Some(())` unless the NaN guard is on and `out` holds a non-finite
/// value — the verdict a [`guarded`] op returns.
pub(crate) fn finite(policy: &RecoveryPolicy, out: &Mat) -> Option<()> {
    (!policy.nan_guard || out.all_finite()).then_some(())
}

/// A [`guarded`] host↔device copy of `bytes`.
pub(crate) fn transfer(
    dev: &Device,
    name: &'static str,
    bytes: f64,
    policy: &RecoveryPolicy,
    rep: &mut RecoveryReport,
) -> Result<(), FactorizeError> {
    guarded(policy, rep, (name, 0, 0), || dev.try_transfer(name, bytes).map(Some))
}

/// Bytes of a set of `f64` matrices.
pub(crate) fn mat_bytes(mats: &[Mat]) -> f64 {
    mats.iter().map(|f| f.len() as f64 * 8.0).sum()
}

/// Cost of the Hadamard product of `n - 1` of `n` `rank x rank` Grams.
pub(crate) fn hadamard_cost(n: usize, rank: usize) -> KernelCost {
    let (n, rr) = (n as f64, (rank * rank) as f64);
    KernelCost {
        flops: (n - 1.0) * rr,
        bytes_read: n * rr * 8.0,
        bytes_written: rr * 8.0,
        gather_traffic: 0.0,
        parallel_work: rr,
        serial_steps: 1.0,
        working_set: n * rr * 8.0,
    }
}

/// Cost of normalizing the columns of `h`.
pub(crate) fn normalize_cost(h: &Mat) -> KernelCost {
    let elems = (h.rows() * h.cols()) as f64;
    KernelCost {
        flops: 3.0 * elems,
        bytes_read: 2.0 * elems * 8.0,
        bytes_written: elems * 8.0,
        gather_traffic: 0.0,
        parallel_work: elems,
        serial_steps: 1.0,
        working_set: elems * 8.0,
    }
}

/// Modeled exponential backoff for the `attempt`-th retry (1-based).
/// Simulated time only — never slept.
pub(crate) fn backoff_s(policy: &RecoveryPolicy, attempt: u32) -> f64 {
    policy.backoff_base_s * f64::powi(2.0, attempt.min(20) as i32 - 1)
}

/// Deterministic strictly-positive random factors.
pub fn seeded_factors(shape: &[usize], rank: usize, seed: u64) -> Vec<Mat> {
    let mut rng = cstf_base::rng::Rng::new(seed.wrapping_add(0x9E3779B97F4A7C15));
    shape.iter().map(|&d| Mat::from_fn(d, rank, |_, _| 0.05 + 0.95 * rng.unit())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cstf_device::DeviceSpec;

    /// A fully-observed planted non-negative tensor: every cell of the
    /// rank-`rank` model is stored, so an exact fit of ~1.0 is achievable —
    /// the strongest correctness check for the driver.
    fn planted_full(shape: &[usize], rank: usize, seed: u64) -> SparseTensor {
        let truth = seeded_factors(shape, rank, seed ^ 0xABCD);
        let model = Ktensor::from_factors(truth);
        let mut idx = vec![Vec::new(); shape.len()];
        let mut vals = Vec::new();
        let mut coord = vec![0u32; shape.len()];
        let cells: usize = shape.iter().product();
        for _ in 0..cells {
            vals.push(model.value_at(&coord).max(1e-9));
            for (m, &c) in coord.iter().enumerate() {
                idx[m].push(c);
            }
            for m in (0..shape.len()).rev() {
                coord[m] += 1;
                if (coord[m] as usize) < shape[m] {
                    break;
                }
                coord[m] = 0;
            }
        }
        SparseTensor::new(shape.to_vec(), idx, vals)
    }

    /// A sparsely-observed planted tensor (realistic STF input; the exact
    /// model is not recoverable, but the fit must still improve).
    fn planted(shape: &[usize], nnz: usize, rank: usize, seed: u64) -> SparseTensor {
        let truth = seeded_factors(shape, rank, seed ^ 0xABCD);
        let model = Ktensor::from_factors(truth);
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut seen = std::collections::HashSet::new();
        let mut idx = vec![Vec::new(); shape.len()];
        let mut vals = Vec::new();
        while vals.len() < nnz {
            let c: Vec<u32> = shape.iter().map(|&d| next() % d as u32).collect();
            if !seen.insert(c.clone()) {
                continue;
            }
            vals.push(model.value_at(&c).max(1e-6));
            for (m, &ci) in c.iter().enumerate() {
                idx[m].push(ci);
            }
        }
        SparseTensor::new(shape.to_vec(), idx, vals)
    }

    fn base_cfg() -> AuntfConfig {
        AuntfConfig { rank: 4, max_iters: 15, seed: 3, ..Default::default() }
    }

    #[test]
    fn fit_improves_over_iterations_admm() {
        let x = planted(&[20, 18, 16], 1200, 4, 1);
        let auntf = Auntf::new(x, base_cfg());
        let dev = Device::new(DeviceSpec::h100());
        let out = auntf.factorize(&dev).unwrap();
        assert_eq!(out.iters, 15);
        assert!(out.recovery.is_clean(), "fault-free run took recovery actions");
        let first = out.fits[0];
        let last = *out.fits.last().unwrap();
        assert!(last > first, "fit did not improve: {first} -> {last}");
    }

    #[test]
    fn admm_recovers_fully_observed_planted_model() {
        let x = planted_full(&[12, 10, 8], 3, 21);
        let cfg = AuntfConfig { rank: 3, max_iters: 60, seed: 5, ..Default::default() };
        let out = Auntf::new(x, cfg).factorize(&Device::new(DeviceSpec::h100())).unwrap();
        let last = *out.fits.last().unwrap();
        assert!(last > 0.95, "fully-observed planted model should fit ~1, got {last}");
    }

    #[test]
    fn factors_are_nonnegative_with_admm() {
        let x = planted(&[15, 12, 10], 600, 3, 2);
        let auntf = Auntf::new(x, AuntfConfig { rank: 3, ..base_cfg() });
        let out = auntf.factorize(&Device::new(DeviceSpec::a100())).unwrap();
        for f in &out.model.factors {
            assert!(f.is_nonnegative(1e-12));
        }
        assert!(out.model.lambda.iter().all(|&l| l >= 0.0));
    }

    #[test]
    fn all_formats_give_equivalent_fits() {
        let x = planted(&[18, 14, 12], 900, 4, 3);
        let mut fits = Vec::new();
        for format in [
            TensorFormat::Coo,
            TensorFormat::Csf,
            TensorFormat::CsfOne,
            TensorFormat::HiCoo,
            TensorFormat::Alto,
            TensorFormat::Blco,
        ] {
            let cfg = AuntfConfig { format, max_iters: 8, ..base_cfg() };
            let out =
                Auntf::new(x.clone(), cfg).factorize(&Device::new(DeviceSpec::h100())).unwrap();
            fits.push((format, *out.fits.last().unwrap()));
        }
        let reference = fits[0].1;
        for (format, fit) in &fits[1..] {
            assert!(
                (fit - reference).abs() < 1e-6,
                "{format:?} fit {fit} differs from COO fit {reference}"
            );
        }
    }

    #[test]
    fn mu_and_hals_also_improve_fit() {
        let x = planted_full(&[10, 9, 8], 3, 4);
        for update in
            [UpdateMethod::Mu(MuConfig::default()), UpdateMethod::Hals(HalsConfig::default())]
        {
            let cfg = AuntfConfig { rank: 3, update, max_iters: 40, ..base_cfg() };
            let out =
                Auntf::new(x.clone(), cfg).factorize(&Device::new(DeviceSpec::a100())).unwrap();
            let first = out.fits[0];
            let last = *out.fits.last().unwrap();
            assert!(last >= first - 1e-9, "{} regressed: {first} -> {last}", out.iters);
            assert!(last > 0.8, "fit too low: {last}");
            for f in &out.model.factors {
                assert!(f.is_nonnegative(0.0));
            }
        }
    }

    #[test]
    fn phases_are_all_metered() {
        let x = planted(&[12, 10, 8], 300, 3, 5);
        let auntf = Auntf::new(x, AuntfConfig { rank: 3, max_iters: 2, ..base_cfg() });
        let dev = Device::new(DeviceSpec::h100());
        auntf.factorize(&dev).unwrap();
        for phase in [Phase::Gram, Phase::Mttkrp, Phase::Update, Phase::Normalize, Phase::Transfer]
        {
            assert!(dev.phase_totals(phase).launches > 0, "phase {phase:?} was never exercised");
        }
    }

    #[test]
    fn fast_fit_shortcut_matches_exact_fit() {
        // The driver computes fit via the MTTKRP-reuse shortcut; the
        // Ktensor computes it directly in O(nnz R). They must agree.
        let x = planted(&[18, 15, 12], 700, 4, 31);
        let out =
            Auntf::new(x.clone(), base_cfg()).factorize(&Device::new(DeviceSpec::h100())).unwrap();
        let exact = out.model.fit(&x);
        let reported = *out.fits.last().unwrap();
        assert!((exact - reported).abs() < 1e-9, "shortcut fit {reported} != exact fit {exact}");
    }

    #[test]
    fn fit_tolerance_stops_early() {
        let x = planted(&[14, 12, 10], 500, 3, 6);
        let cfg = AuntfConfig { rank: 3, max_iters: 200, fit_tol: 1e-7, ..base_cfg() };
        let out = Auntf::new(x, cfg).factorize(&Device::new(DeviceSpec::a100())).unwrap();
        assert!(out.converged);
        assert!(out.iters < 200);
    }

    #[test]
    fn deterministic_given_seed() {
        let x = planted(&[10, 10, 10], 300, 3, 7);
        let cfg = AuntfConfig { rank: 3, max_iters: 5, format: TensorFormat::Csf, ..base_cfg() };
        let a =
            Auntf::new(x.clone(), cfg.clone()).factorize(&Device::new(DeviceSpec::h100())).unwrap();
        let b = Auntf::new(x, cfg).factorize(&Device::new(DeviceSpec::h100())).unwrap();
        assert_eq!(a.fits, b.fits);
    }

    #[test]
    fn convergence_log_matches_solver() {
        let x = planted(&[14, 12, 10], 500, 3, 9);
        let cfg = AuntfConfig { rank: 3, max_iters: 6, ..base_cfg() };
        let out = Auntf::new(x, cfg).factorize(&Device::new(DeviceSpec::h100())).unwrap();
        let records = out.convergence.records();
        assert_eq!(records.len(), out.iters);
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.iter as usize, i);
            assert_eq!(rec.fit, Some(out.fits[i]), "iteration {i} fit mismatch");
            assert_eq!(rec.rel_error, Some(1.0 - out.fits[i]));
            assert_eq!(rec.modes.len(), 3, "one mode row per mode visit");
            for (m, row) in rec.modes.iter().enumerate() {
                assert_eq!(row.mode as usize, m);
                assert!(row.inner_iters >= 1, "ADMM ran at least one inner iteration");
                assert!(row.primal_residual.unwrap() >= 0.0);
                assert!(row.dual_residual.unwrap() >= 0.0);
                assert!(row.rho.unwrap() > 0.0);
            }
        }
    }

    #[test]
    fn convergence_log_mu_reports_configured_inner_iters() {
        let x = planted_full(&[10, 9, 8], 3, 10);
        let update = UpdateMethod::Mu(MuConfig { inner_iters: 4, ..Default::default() });
        let cfg = AuntfConfig { rank: 3, update, max_iters: 3, ..base_cfg() };
        let out = Auntf::new(x, cfg).factorize(&Device::new(DeviceSpec::a100())).unwrap();
        for rec in out.convergence.records() {
            for row in &rec.modes {
                assert_eq!(row.inner_iters, 4);
                assert_eq!(row.primal_residual, None, "MU has no ADMM residuals");
                assert_eq!(row.dual_residual, None);
            }
        }
    }

    #[test]
    fn convergence_log_without_fit_still_records_iterations() {
        let x = planted(&[10, 10, 10], 300, 3, 11);
        let cfg = AuntfConfig { rank: 3, max_iters: 4, compute_fit: false, ..base_cfg() };
        let out = Auntf::new(x, cfg).factorize(&Device::new(DeviceSpec::h100())).unwrap();
        let records = out.convergence.records();
        assert_eq!(records.len(), 4);
        assert!(records.iter().all(|r| r.fit.is_none() && r.rel_error.is_none()));
    }

    #[test]
    fn dense_driver_runs_and_improves() {
        let shape = vec![8, 6, 5, 4];
        let truth = Ktensor::from_factors(seeded_factors(&shape, 2, 99));
        let x = DenseTensor::from_fn(shape.clone(), |c| {
            let c32: Vec<u32> = c.iter().map(|&v| v as u32).collect();
            truth.value_at(&c32)
        });
        let cfg = AuntfConfig { rank: 2, max_iters: 10, ..base_cfg() };
        let auntf = Auntf::new_dense(x, cfg);
        let out = auntf.factorize(&Device::new(DeviceSpec::icelake_xeon())).unwrap();
        let last = *out.fits.last().unwrap();
        assert!(last > 0.8, "dense fit too low: {last}");
    }

    #[test]
    fn seeded_factors_match_the_original_splitmix_stream() {
        // The private SplitMix64 the shared generator replaced, verbatim.
        fn original(shape: &[usize], rank: usize, seed: u64) -> Vec<Mat> {
            let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
            let mut next = move || {
                state = state.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z = z ^ (z >> 31);
                (z >> 11) as f64 / (1u64 << 53) as f64
            };
            shape.iter().map(|&d| Mat::from_fn(d, rank, |_, _| 0.05 + 0.95 * next())).collect()
        }
        for seed in [0, 1, 7, 0xABCD, u64::MAX] {
            let (a, b) = (seeded_factors(&[9, 4, 6], 5, seed), original(&[9, 4, 6], 5, seed));
            for (fa, fb) in a.iter().zip(&b) {
                for (x, y) in fa.as_slice().iter().zip(fb.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "seed {seed}");
                }
            }
        }
    }

    fn lost_device_error(spec: &str) -> FactorizeError {
        let x = planted(&[12, 10, 8], 300, 3, 5);
        let auntf = Auntf::new(x, AuntfConfig { rank: 3, max_iters: 3, ..base_cfg() });
        let plan = cstf_device::FaultPlan::parse(spec).unwrap();
        let dev = Device::new(DeviceSpec::h100()).with_fault_plan(plan);
        auntf.factorize(&dev).unwrap_err()
    }

    #[test]
    fn single_device_lost_at_an_iteration_fails_like_a_lost_group() {
        // The loss epoch ticks on one device as it does on a group, so the
        // run cannot finish on a dead device.
        let err = lost_device_error("device-loss:0@it1");
        assert!(
            matches!(err, FactorizeError::Fault { fault, attempts: 1 }
                if fault.kind == FaultKind::DeviceLoss),
            "{err:?}"
        );
    }

    #[test]
    fn single_device_loss_fails_after_one_attempt() {
        // Device loss is persistent: retrying the op cannot help.
        let err = lost_device_error("device-loss:0@op5");
        assert!(
            matches!(err, FactorizeError::Fault { fault, attempts: 1 }
                if fault.kind == FaultKind::DeviceLoss && fault.seq == 5),
            "{err:?}"
        );
    }

    #[test]
    fn unconstrained_beats_or_matches_constrained_fit() {
        // Removing the constraint can only widen the feasible set.
        let x = planted(&[15, 12, 10], 600, 4, 8);
        let nn =
            Auntf::new(x.clone(), base_cfg()).factorize(&Device::new(DeviceSpec::h100())).unwrap();
        let mut ucfg = base_cfg();
        ucfg.update = UpdateMethod::Admm(AdmmConfig {
            constraint: crate::prox::Constraint::Unconstrained,
            ..AdmmConfig::cuadmm()
        });
        let un = Auntf::new(x, ucfg).factorize(&Device::new(DeviceSpec::h100())).unwrap();
        let f_nn = *nn.fits.last().unwrap();
        let f_un = *un.fits.last().unwrap();
        assert!(f_un > f_nn - 0.05, "unconstrained fit {f_un} far below constrained {f_nn}");
    }
}
