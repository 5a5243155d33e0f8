//! Executed multi-device sharded factorization.
//!
//! The group placement of the one AO-ADMM loop ([`Auntf::ao_loop`]): the
//! tensor is cut per output mode into nnz-balanced row blocks (one shard
//! per alive device, compiled with the same [`Kernel`] recipe as a tile),
//! each device executes the MTTKRP for its own rows, the partitioned ADMM
//! update runs one partition per device, and the factor all-gather plus
//! Gram all-reduce stitch the modes back together through the group's
//! modeled ring collectives.
//!
//! **Exactness.** The sharded run is bitwise-identical to the
//! single-device [`Auntf::factorize`]:
//!
//! * MTTKRP — device `d` owns every nonzero whose output-mode index falls
//!   in its row block, so its output rows accumulate exactly the global
//!   contributions; the formats' traversal orders restrict cleanly to row
//!   subsets (content-based orders for CSF root modes and key-partitioned
//!   ALTO; serial kernel regimes for the rest — see DESIGN.md §11).
//! * ADMM — rows are independent given the shared `M` rows and `S`
//!   (fixed-iteration mode), so the stage-and-commit partitioned update
//!   equals the unpartitioned one at any partition sizes.
//! * Gram — every device computes the *same* global chunk partials the
//!   single-device kernel would, and [`DeviceGroup::all_reduce_mat`]
//!   reduces them with the same pairwise halving tree.
//! * Normalize / Hadamard — replicated `R x R`-scale compute, executed
//!   once and charged to every device.
//!
//! The sharded fault surface is transfers, MTTKRP, and ADMM (the Gram
//! partial and replicated launches use the infallible path); recovery is
//! the loop's one ladder, with the partitioned update's staging standing
//! in for snapshots — a faulted mode update leaves `H`/`U` untouched, so
//! the retry replays from clean state.
//!
//! **Elasticity** (DESIGN.md §15). Group-scoped faults add whole-device
//! loss: while a shrink is possible (more than one member alive), every
//! completed outer iteration *commits* its state, and a
//! [`FaultKind::DeviceLoss`] failure restores that commit and retries
//! under the group [`HealthPolicy`](cstf_device::HealthPolicy); once the
//! retry budget is spent the lost members are declared dead and the run
//! *shrinks to the survivors* — re-sharding every format across the
//! remaining devices and resuming from the same committed state. Because
//! each phase above is bitwise member-count-invariant, the recovered run
//! is bitwise-identical to a clean run on the surviving group resumed
//! from that state (and, transitively, to the uninterrupted single-device
//! run). Stragglers and degraded links never enter this ladder: they
//! stretch modeled time only, tripping the
//! [`GroupHealth`](cstf_device::GroupHealth) deadline monitor while the
//! numerics stay bit-exact. Everything observed lands in the
//! [`ElasticityReport`].

use cstf_base::par;
use cstf_device::{Device, DeviceGroup, FaultKind, KernelClass, KernelCost, Phase};
use cstf_formats::MttkrpWorkspace;
use cstf_linalg::{
    gram_accumulate_range, gram_chunk_count, gram_mirror, hadamard_of_grams_into,
    normalize_columns_scratch, Mat,
};
use cstf_telemetry::HeapRegion;

use crate::admm::{AdmmConfig, AdmmStats};
use crate::auntf::{
    finite, guarded, hadamard_cost, mat_bytes, normalize_cost, transfer, Auntf, FactorizeOutput,
    Ladder, Placement, Source,
};
use crate::checkpoint::CheckpointConfig;
use crate::multi_gpu::{partitioned_admm_update_on, row_partitions};
use crate::recovery::{AdmmError, ElasticityReport, FactorizeError, RecoveryReport, RetiredDevice};
use crate::tiled::{copy_rows, Blocks, TilingReport};

/// The alive members of a device group, each owning one row block of
/// every mode.
struct Sharded<'a> {
    auntf: &'a Auntf,
    group: &'a DeviceGroup,
    alive: &'a [usize],
    devs: Vec<&'a Device>,
    shape: Vec<usize>,
    /// `blocks.kernels[m][i]` is alive member `i`'s shard of mode `m`.
    blocks: Blocks,
    chunk_bufs: Vec<Vec<f64>>,
    ws: Vec<MttkrpWorkspace>,
    /// `m_dev[m][i]`: member `i`'s MTTKRP panel of mode `m`.
    m_dev: Vec<Vec<Mat>>,
    /// All-gather targets, one per mode.
    gathered: Vec<Mat>,
    norm_scratch: Vec<f64>,
}

impl<'a> Sharded<'a> {
    /// Shards every mode across the `alive` members: nnz-balanced row
    /// blocks, one compiled shard per (mode, member). Shard compilation is
    /// this placement's format construction, so it carries the
    /// "construction" heap region.
    fn new(auntf: &'a Auntf, group: &'a DeviceGroup, alive: &'a [usize]) -> Self {
        let Source::Sparse(x) = &auntf.source else { unreachable!("validated as sparse") };
        let (shape, rank) = (auntf.shape(), auntf.cfg.rank);
        let blocks = {
            let _build_region = HeapRegion::enter("construction");
            Blocks::compile(x, alive.len(), auntf.cfg.format)
        };
        let panels = |d: usize| (0..alive.len()).map(|_| Mat::zeros(d, rank)).collect();
        Self {
            auntf,
            group,
            alive,
            devs: alive.iter().map(|&d| group.device(d)).collect(),
            blocks,
            chunk_bufs: Vec::new(),
            ws: (0..alive.len()).map(|_| MttkrpWorkspace::new()).collect(),
            m_dev: shape.iter().map(|&d| panels(d)).collect(),
            gathered: shape.iter().map(|&d| Mat::zeros(d, rank)).collect(),
            norm_scratch: Vec::new(),
            shape,
        }
    }
}

impl Placement for Sharded<'_> {
    fn lead(&self) -> &Device {
        self.devs[0]
    }

    fn each(&self, f: impl FnMut(&Device)) {
        self.devs.iter().copied().for_each(f);
    }

    fn tick(&self) {
        self.group.devices().iter().for_each(Device::advance_epoch);
    }

    /// Per survivor: its shards plus a full replica of the factors (a
    /// reshard really re-stages the data).
    fn upload(&mut self, factors: &[Mat], rep: &mut RecoveryReport) -> Result<(), FactorizeError> {
        let policy = &self.auntf.cfg.recovery;
        for (i, dev) in self.devs.iter().enumerate() {
            let shards: f64 = self.blocks.kernels.iter().map(|per_mode| per_mode[i].bytes()).sum();
            transfer(dev, "h2d_tensor", shards, policy, rep)?;
            transfer(dev, "h2d_factors", mat_bytes(factors), policy, rep)?;
        }
        Ok(())
    }

    /// Each survivor returns its own rows.
    fn download(&mut self, _: &[Mat], rep: &mut RecoveryReport) -> Result<(), FactorizeError> {
        let rank = self.auntf.cfg.rank;
        for (i, dev) in self.devs.iter().enumerate() {
            let rows: usize = self.blocks.ranges.iter().map(|per_dev| per_dev[i].len()).sum();
            transfer(dev, "d2h_factors", (rows * rank * 8) as f64, &self.auntf.cfg.recovery, rep)?;
        }
        Ok(())
    }

    fn gram(
        &mut self,
        h: &Mat,
        out: &mut Mat,
        _: usize,
        _: &mut RecoveryReport,
    ) -> Result<(), FactorizeError> {
        sharded_gram_into(self.group, self.alive, h, out, &mut self.chunk_bufs);
        Ok(())
    }

    /// Replicated compute, executed once and charged to every member.
    fn hadamard(
        &mut self,
        grams: &[Mat],
        mode: usize,
        out: &mut Mat,
        _: &mut RecoveryReport,
    ) -> Result<(), FactorizeError> {
        let cost = hadamard_cost(grams.len(), out.cols());
        self.group.replicated_on(
            "hadamard_of_grams",
            self.alive,
            Phase::Gram,
            KernelClass::Stream,
            cost,
            || hadamard_of_grams_into(grams, mode, out),
        );
        Ok(())
    }

    /// Per-member shard MTTKRPs, concurrent across survivors, each under
    /// the guard with a local recovery tally merged afterwards.
    fn mttkrp(
        &mut self,
        factors: &[Mat],
        mode: usize,
        out: &mut Mat,
        outer: usize,
        rep: &mut RecoveryReport,
    ) -> Result<(), FactorizeError> {
        let (shape, policy) = (&self.shape, &self.auntf.cfg.recovery);
        let per_device = (
            (self.devs.as_slice(), self.blocks.kernels[mode].as_slice()),
            (self.m_dev[mode].as_mut_slice(), self.ws.as_mut_slice()),
        );
        let results = par::map_collect(per_device, |((dev, kernel), (panel, ws))| {
            let mut local = RecoveryReport::default();
            guarded(policy, &mut local, ("mttkrp", mode, outer), || {
                kernel.launch(dev, "mttkrp_shard", shape, factors, mode, panel, ws)?;
                Ok(finite(policy, panel))
            })
            .map(|()| local)
        });
        let mut first_err = None;
        for res in results {
            match res {
                Ok(local) => {
                    rep.transient_retries += local.transient_retries;
                    rep.nan_events += local.nan_events;
                    rep.total_backoff_s += local.total_backoff_s;
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }

        // Each member's rows are local to it (its ADMM partition is exactly
        // its shard rows — M-locality), so assembly is free except for the
        // last mode when the fit needs the whole panel on the lead: that
        // gather is charged as a real collective.
        let ranges = &self.blocks.ranges[mode];
        let panels = &self.m_dev[mode];
        if self.auntf.cfg.compute_fit && mode == factors.len() - 1 {
            let rank = out.cols();
            let blocks: Vec<&[f64]> = ranges
                .iter()
                .zip(panels)
                .map(|(rng, m)| &m.as_slice()[rng.start * rank..rng.end * rank])
                .collect();
            let offsets: Vec<usize> = ranges.iter().map(|rng| rng.start * rank).collect();
            let out = out.as_mut_slice();
            self.group.all_gather_rows_on("mttkrp_allgather", self.alive, &blocks, &offsets, out);
        } else {
            for (rows, panel) in ranges.iter().zip(panels) {
                copy_rows(out, panel, rows);
            }
        }
        Ok(())
    }

    /// Partitioned ADMM, one partition per survivor. Staging means any
    /// failure leaves `h`/`u` untouched. Partition 0's stats stand in for
    /// the mode (residuals are per-partition; factors and fits stay exact
    /// regardless).
    fn admm(
        &mut self,
        cfg: &AdmmConfig,
        mode: usize,
        m: &Mat,
        s: &Mat,
        h: &mut Mat,
        u: &mut Mat,
    ) -> Result<AdmmStats, AdmmError> {
        let ranges = &self.blocks.ranges[mode];
        partitioned_admm_update_on(&self.devs, cfg, ranges, m, s, h, u)
            .map(|mut stats| stats.swap_remove(0))
    }

    /// All-gathers the committed factor row blocks (each member produced
    /// only its partition's rows): really moves every block into the
    /// scratch copy, which then becomes the factor.
    fn gather(&mut self, mode: usize, h: &mut Mat) {
        let rank = h.cols();
        let scratch = &mut self.gathered[mode];
        {
            let ranges = &self.blocks.ranges[mode];
            let src = h.as_slice();
            let blocks: Vec<&[f64]> =
                ranges.iter().map(|rng| &src[rng.start * rank..rng.end * rank]).collect();
            let offsets: Vec<usize> = ranges.iter().map(|rng| rng.start * rank).collect();
            let dst = scratch.as_mut_slice();
            self.group.all_gather_rows_on("allgather_factor", self.alive, &blocks, &offsets, dst);
        }
        std::mem::swap(h, scratch);
    }

    /// Replicated compute, executed once and charged to every member.
    fn normalize(&mut self, h: &mut Mat, lambda: &mut [f64]) {
        let (norm, scratch) = (self.auntf.cfg.norm, &mut self.norm_scratch);
        let cost = normalize_cost(h);
        self.group.replicated_on(
            "normalize_columns",
            self.alive,
            Phase::Normalize,
            KernelClass::Stream,
            cost,
            || {
                lambda.fill(1.0);
                normalize_columns_scratch(h, lambda, norm, scratch);
            },
        );
    }
}

/// Sharded Gram: the single-device chunk layout is replicated over the
/// full (gathered) factor, contiguous chunk runs are assigned to the
/// surviving `members`, each member computes its chunks' partials, and the
/// group all-reduces the chunk buffers with the exact association of
/// `PartialBuffers::reduce_into` — bitwise-identical to `gram_into` for
/// any member count (the chunk layout depends only on the factor, so
/// shrinking the group re-assigns chunks without touching the sum's
/// association).
fn sharded_gram_into(
    group: &DeviceGroup,
    members: &[usize],
    h: &Mat,
    out: &mut Mat,
    chunk_bufs: &mut Vec<Vec<f64>>,
) {
    let (rows, r) = (h.rows(), h.cols());
    out.as_mut_slice().fill(0.0);
    if r == 0 {
        return;
    }
    let nchunks = gram_chunk_count(rows, r);
    let chunk = rows.div_ceil(nchunks).max(1);
    if chunk_bufs.len() < nchunks {
        chunk_bufs.resize(nchunks, Vec::new());
    }
    for buf in chunk_bufs.iter_mut().take(nchunks) {
        buf.clear();
        buf.resize(r * r, 0.0);
    }

    let devs: Vec<&Device> = members.iter().map(|&d| group.device(d)).collect();
    let assign = row_partitions(nchunks, devs.len());
    let mut pieces: Vec<&mut [Vec<f64>]> = Vec::with_capacity(devs.len());
    let mut rest = &mut chunk_bufs[..nchunks];
    for rng in &assign {
        let (piece, tail) = rest.split_at_mut(rng.len());
        pieces.push(piece);
        rest = tail;
    }
    par::for_each(
        ((devs.as_slice(), assign.as_slice()), pieces.as_mut_slice()),
        |((dev, rng), piece)| {
            let rows_d: usize =
                rng.clone().map(|c| ((c + 1) * chunk).min(rows).saturating_sub(c * chunk)).sum();
            if rows_d == 0 {
                return;
            }
            dev.launch(
                "gram_syrk_partial",
                Phase::Gram,
                KernelClass::Gemm,
                KernelCost {
                    flops: (rows_d * r * r) as f64,
                    bytes_read: (rows_d * r) as f64 * 8.0,
                    bytes_written: (rng.len() * r * r) as f64 * 8.0,
                    gather_traffic: 0.0,
                    parallel_work: (rows_d * r) as f64,
                    serial_steps: 1.0,
                    working_set: (rows_d * r) as f64 * 8.0,
                },
                || {
                    for (buf, c) in piece.iter_mut().zip(rng.clone()) {
                        let start = c * chunk;
                        let end = ((c + 1) * chunk).min(rows);
                        if start < end {
                            gram_accumulate_range(h, start..end, buf);
                        }
                    }
                },
            );
        },
    );
    group.all_reduce_mat_on(
        "allreduce_gram",
        members,
        &mut chunk_bufs[..nchunks],
        r * r,
        out.as_mut_slice(),
    );
    gram_mirror(out);
}

impl Auntf {
    /// Runs the factorization sharded across a device group, bitwise-
    /// identical to the single-device [`factorize`](Self::factorize) (see
    /// the module docs for the exactness argument and format caveats).
    ///
    /// # Errors
    /// [`FactorizeError::InvalidConfig`] for the single-device rejections
    /// plus dense tensors, non-ADMM update schemes, and residual-based
    /// early exit (`tol != 0` — a global all-reduce per inner iteration
    /// would be required); the other variants when the recovery budget is
    /// exhausted.
    pub fn factorize_sharded(
        &self,
        group: &DeviceGroup,
    ) -> Result<FactorizeOutput, FactorizeError> {
        self.run_sharded(group, None)
    }

    /// Like [`factorize_sharded`](Self::factorize_sharded) with the
    /// checkpoint/resume behavior of
    /// [`factorize_checkpointed`](Self::factorize_checkpointed). The
    /// snapshot fingerprint is device-count independent, so sharded and
    /// single-device runs resume each other's snapshots interchangeably.
    ///
    /// # Errors
    /// As [`factorize_sharded`](Self::factorize_sharded), plus
    /// [`FactorizeError::Checkpoint`] for snapshot I/O failures or a
    /// fingerprint mismatch on resume.
    pub fn factorize_sharded_checkpointed(
        &self,
        group: &DeviceGroup,
        ckpt: &CheckpointConfig,
        resume: bool,
    ) -> Result<FactorizeOutput, FactorizeError> {
        self.run_sharded(group, Some((ckpt, resume)))
    }

    /// The elastic ladder around the AO loop. While a shrink is possible
    /// the driver keeps the last *committed* state (every completed outer
    /// iteration commits) and runs attempts over the current survivor set.
    /// A DeviceLoss-kind failure restores committed state and retries
    /// under the group health policy; once the retry budget is spent the
    /// lost members are declared dead, the run shrinks to the survivors,
    /// and the attempt resumes from the same committed state. Every phase
    /// is member-count-invariant bit for bit, so the recovered run equals
    /// a clean run on the surviving group resumed from that committed
    /// state.
    fn run_sharded(
        &self,
        group: &DeviceGroup,
        ckpt: Option<(&CheckpointConfig, bool)>,
    ) -> Result<FactorizeOutput, FactorizeError> {
        let _region = HeapRegion::enter("factorize");
        let mut st = self.start(true, ckpt)?;
        let mut lad = Ladder::default();
        let mut alive: Vec<usize> = (0..group.len()).collect();
        let mut committed = (alive.len() > 1).then(|| st.clone());
        let mut elastic = ElasticityReport::default();
        let mut suspect_retries = 0u32;

        loop {
            let mut p = Sharded::new(self, group, &alive);
            let attempt = self.ao_loop(&mut p, &mut st, &mut lad, ckpt.map(|(cc, _)| cc), |st| {
                if let Some(c) = committed.as_mut() {
                    c.assign(st);
                }
            });
            let e = match attempt {
                Ok(()) => {
                    elastic.deadline_trips = group.health().deadline_trips();
                    return Ok(st.into_output(lad.report, elastic, TilingReport::default()));
                }
                Err(e) => e,
            };
            let lost = matches!(&e, FactorizeError::Fault { fault, .. }
                if fault.kind == FaultKind::DeviceLoss);
            let Some(restart) = committed.as_ref().filter(|_| lost) else { return Err(e) };
            elastic.loss_detections += 1;
            let dead: Vec<usize> =
                group.lost_members().into_iter().filter(|d| alive.contains(d)).collect();
            if dead.is_empty() {
                // A loss-kind fault without a group-identified corpse (a
                // hand-built per-device plan): nothing to shrink away from.
                return Err(e);
            }
            st.assign(restart);
            let health = group.health().policy();
            if suspect_retries < health.retries {
                // Suspected loss: charge modeled backoff and replay from
                // committed state — on real hardware the device may come
                // back.
                suspect_retries += 1;
                elastic.loss_retries += 1;
                elastic.backoff_s +=
                    health.backoff_base_s * f64::powi(2.0, suspect_retries.min(20) as i32 - 1);
                continue;
            }
            // The retry budget is spent: declare the corpses dead and
            // shrink to the survivors.
            for &d in &dead {
                elastic.retired.push(RetiredDevice { device: d, iteration: st.completed });
                group.device(d).mark("device_retired");
            }
            alive.retain(|d| !dead.contains(d));
            if alive.is_empty() {
                return Err(e);
            }
            elastic.reshards += 1;
            suspect_retries = 0;
            for &d in &alive {
                group.device(d).mark("reshard");
            }
            if alive.len() == 1 {
                committed = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auntf::{seeded_factors, AuntfConfig, TensorFormat, UpdateMethod};
    use crate::mu::MuConfig;
    use cstf_device::{DeviceSpec, FaultPlan};
    use cstf_tensor::{DenseTensor, Ktensor, SparseTensor};

    fn planted(shape: &[usize], nnz: usize, rank: usize, seed: u64) -> SparseTensor {
        let truth = Ktensor::from_factors(seeded_factors(shape, rank, seed ^ 0xABCD));
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
            vals.push(truth.value_at(&c).max(1e-6));
            for (m, &ci) in c.iter().enumerate() {
                idx[m].push(ci);
            }
        }
        SparseTensor::new(shape.to_vec(), idx, vals)
    }

    fn cfg(format: TensorFormat) -> AuntfConfig {
        AuntfConfig { rank: 3, max_iters: 4, seed: 11, format, ..Default::default() }
    }

    fn assert_bitwise_eq(a: &FactorizeOutput, b: &FactorizeOutput) {
        assert_eq!(a.fits.len(), b.fits.len());
        for (x, y) in a.fits.iter().zip(&b.fits) {
            assert_eq!(x.to_bits(), y.to_bits(), "fit differs: {x} vs {y}");
        }
        assert_eq!(a.model.lambda.len(), b.model.lambda.len());
        for (x, y) in a.model.lambda.iter().zip(&b.model.lambda) {
            assert_eq!(x.to_bits(), y.to_bits(), "lambda differs: {x} vs {y}");
        }
        for (fa, fb) in a.model.factors.iter().zip(&b.model.factors) {
            assert_eq!(fa.rows(), fb.rows());
            for (x, y) in fa.as_slice().iter().zip(fb.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "factor entry differs: {x} vs {y}");
            }
        }
    }

    #[test]
    fn sharded_matches_single_device_bitwise_across_group_sizes() {
        let x = planted(&[17, 13, 9], 400, 3, 1);
        let auntf = Auntf::new(x, cfg(TensorFormat::Csf));
        let single = auntf.factorize(&Device::new(DeviceSpec::h100())).unwrap();
        for gsize in [1usize, 2, 3, 4, 7] {
            let group = DeviceGroup::homogeneous(&DeviceSpec::h100(), gsize);
            let sharded = auntf.factorize_sharded(&group).unwrap();
            assert_bitwise_eq(&single, &sharded);
            assert!(sharded.recovery.is_clean());
        }
    }

    #[test]
    fn all_formats_shard_bitwise_exactly() {
        let x = planted(&[14, 11, 8], 300, 3, 2);
        for format in [
            TensorFormat::Coo,
            TensorFormat::Csf,
            TensorFormat::CsfOne,
            TensorFormat::HiCoo,
            TensorFormat::Alto,
            TensorFormat::Blco,
        ] {
            let auntf = Auntf::new(x.clone(), cfg(format));
            let single = auntf.factorize(&Device::new(DeviceSpec::h100())).unwrap();
            let group = DeviceGroup::homogeneous(&DeviceSpec::h100(), 3);
            let sharded = auntf.factorize_sharded(&group).unwrap();
            assert_bitwise_eq(&single, &sharded);
        }
    }

    #[test]
    fn more_devices_than_rows_still_exact() {
        // Mode 2 has 4 rows < 7 devices: trailing shards are empty.
        let x = planted(&[9, 6, 4], 120, 2, 3);
        let auntf =
            Auntf::new(x, AuntfConfig { rank: 2, max_iters: 3, seed: 5, ..Default::default() });
        let single = auntf.factorize(&Device::new(DeviceSpec::h100())).unwrap();
        let group = DeviceGroup::homogeneous(&DeviceSpec::h100(), 7);
        let sharded = auntf.factorize_sharded(&group).unwrap();
        assert_bitwise_eq(&single, &sharded);
    }

    #[test]
    fn per_device_profilers_record_partitioned_work_and_collectives() {
        let x = planted(&[24, 18, 12], 900, 3, 4);
        let auntf = Auntf::new(x.clone(), cfg(TensorFormat::Csf));
        let single_dev = Device::new(DeviceSpec::h100());
        auntf.factorize(&single_dev).unwrap();
        let single_mttkrp = single_dev.phase_totals(Phase::Mttkrp);

        let group = DeviceGroup::homogeneous(&DeviceSpec::h100(), 4);
        auntf.factorize_sharded(&group).unwrap();
        for dev in group.devices() {
            let mttkrp = dev.phase_totals(Phase::Mttkrp);
            assert!(mttkrp.flops > 0.0, "every device ran shard MTTKRPs");
            assert!(
                mttkrp.flops < single_mttkrp.flops,
                "per-device MTTKRP work must be a partition of the total"
            );
            let transfer = dev.phase_totals(Phase::Transfer);
            assert!(transfer.bytes > 0.0, "collective traffic must be metered");
            assert!(dev.phase_totals(Phase::Update).launches > 0);
            assert!(dev.phase_totals(Phase::Gram).launches > 0);
        }
    }

    #[test]
    fn faulted_device_recovers_bitwise_exactly() {
        let x = planted(&[15, 12, 9], 350, 3, 6);
        let auntf = Auntf::new(x, cfg(TensorFormat::Blco));
        let single = auntf.factorize(&Device::new(DeviceSpec::h100())).unwrap();

        let plan = FaultPlan { launch_fault_rate: 1.0, max_faults: 1, ..FaultPlan::quiet(13) };
        let devices: Vec<Device> = (0..3)
            .map(|d| {
                let dev = Device::new(DeviceSpec::h100());
                if d == 2 {
                    dev.with_fault_plan(plan.clone())
                } else {
                    dev
                }
            })
            .collect();
        let group = DeviceGroup::new(devices, cstf_device::LinkModel::nvlink());
        let sharded = auntf.factorize_sharded(&group).unwrap();
        assert!(
            sharded.recovery.transient_retries >= 1,
            "the injected fault must surface as a retry"
        );
        assert_bitwise_eq(&single, &sharded);
    }

    #[test]
    fn device_loss_shrinks_to_survivors_bitwise_exactly() {
        let x = planted(&[15, 12, 9], 350, 3, 6);
        for format in [
            TensorFormat::Coo,
            TensorFormat::Csf,
            TensorFormat::CsfOne,
            TensorFormat::HiCoo,
            TensorFormat::Alto,
            TensorFormat::Blco,
        ] {
            let auntf = Auntf::new(x.clone(), cfg(format));
            let single = auntf.factorize(&Device::new(DeviceSpec::h100())).unwrap();

            let plan = FaultPlan::parse("device-loss:2@it2").unwrap();
            let group =
                DeviceGroup::homogeneous_with_records(&DeviceSpec::h100(), 3).with_faults(&plan);
            let out = auntf.factorize_sharded(&group).unwrap();
            assert_bitwise_eq(&single, &out);

            let e = &out.elasticity;
            assert!(!e.is_clean());
            assert!(e.loss_detections >= 1, "{format:?}: loss must be detected");
            assert_eq!(
                e.retired,
                vec![crate::recovery::RetiredDevice { device: 2, iteration: 2 }],
                "{format:?}: device 2 retires at the iteration it died"
            );
            assert_eq!(e.reshards, 1, "{format:?}");
            assert_eq!(
                e.loss_retries,
                group.health().policy().retries,
                "{format:?}: the full retry budget is spent before declaring death"
            );
            assert!(e.backoff_s > 0.0, "{format:?}: retries charge modeled backoff");
            // Retirement and reshard leave trace marks.
            assert!(group.device(2).marks().iter().any(|m| m.label == "device_retired"));
            assert!(group.device(0).marks().iter().any(|m| m.label == "reshard"));
        }
    }

    #[test]
    fn op_point_loss_mid_iteration_restores_committed_state() {
        let x = planted(&[15, 12, 9], 350, 3, 6);
        let auntf = Auntf::new(x, cfg(TensorFormat::Csf));
        let single = auntf.factorize(&Device::new(DeviceSpec::h100())).unwrap();

        // Kill device 1 at its 20th fallible op — mid-iteration, so the
        // ladder must restore the last committed state before resharding.
        let plan = FaultPlan::parse("device-loss:1@op20").unwrap();
        let group = DeviceGroup::homogeneous(&DeviceSpec::h100(), 3).with_faults(&plan);
        let out = auntf.factorize_sharded(&group).unwrap();
        assert_bitwise_eq(&single, &out);
        assert_eq!(out.elasticity.retired.len(), 1);
        assert_eq!(out.elasticity.retired[0].device, 1);
        assert_eq!(out.elasticity.reshards, 1);
    }

    #[test]
    fn losing_every_device_is_a_terminal_fault() {
        let x = planted(&[10, 8, 6], 150, 2, 4);
        let auntf =
            Auntf::new(x, AuntfConfig { rank: 2, max_iters: 3, seed: 5, ..Default::default() });
        let plan = FaultPlan::parse("device-loss:0@it1,device-loss:1@it1").unwrap();
        let group = DeviceGroup::homogeneous(&DeviceSpec::h100(), 2).with_faults(&plan);
        let err = auntf.factorize_sharded(&group).unwrap_err();
        assert!(
            matches!(err, FactorizeError::Fault { fault, .. }
                if fault.kind == FaultKind::DeviceLoss),
            "{err:?}"
        );
    }

    #[test]
    fn stragglers_and_degraded_links_stay_bitwise_and_trip_deadlines() {
        let x = planted(&[15, 12, 9], 350, 3, 6);
        let auntf = Auntf::new(x, cfg(TensorFormat::Alto));
        let single = auntf.factorize(&Device::new(DeviceSpec::h100())).unwrap();

        let plan = FaultPlan::parse("straggler:1x8,link-degrade:0-2x9").unwrap();
        let group = DeviceGroup::homogeneous(&DeviceSpec::h100(), 3).with_faults(&plan);
        let out = auntf.factorize_sharded(&group).unwrap();
        // Only modeled time changes: bits match the fault-free run and no
        // recovery action fires.
        assert_bitwise_eq(&single, &out);
        assert!(out.recovery.is_clean());
        assert!(out.elasticity.retired.is_empty());
        assert_eq!(out.elasticity.reshards, 0);
        // 8x and 9x both exceed the default 4x deadline budget.
        let trips = &out.elasticity.deadline_trips;
        assert!(trips[1] > 0, "straggler must trip: {trips:?}");
        assert!(trips[0] > 0 && trips[2] > 0, "degraded-link endpoints must trip: {trips:?}");
        assert!(!out.elasticity.is_clean());
    }

    #[test]
    fn deadline_budget_is_configurable() {
        let x = planted(&[12, 10, 8], 250, 3, 7);
        let auntf = Auntf::new(x, cfg(TensorFormat::Csf));
        let plan = FaultPlan::parse("straggler:1x2").unwrap();

        // 2x stays under the default 4x budget...
        let lax = DeviceGroup::homogeneous(&DeviceSpec::h100(), 3).with_faults(&plan);
        let out = auntf.factorize_sharded(&lax).unwrap();
        assert_eq!(out.elasticity.total_deadline_trips(), 0);
        assert!(out.elasticity.is_clean());

        // ...but trips a 1.5x budget on every collective.
        let strict =
            DeviceGroup::homogeneous(&DeviceSpec::h100(), 3).with_faults(&plan).with_health_policy(
                cstf_device::HealthPolicy { deadline_factor: 1.5, ..Default::default() },
            );
        let out = auntf.factorize_sharded(&strict).unwrap();
        assert!(out.elasticity.deadline_trips[1] > 0);
        assert_eq!(out.elasticity.deadline_trips[0], 0);
    }

    #[test]
    fn clean_groups_report_clean_elasticity() {
        let x = planted(&[12, 10, 8], 250, 3, 7);
        let auntf = Auntf::new(x, cfg(TensorFormat::Blco));
        let group = DeviceGroup::homogeneous(&DeviceSpec::h100(), 3);
        let out = auntf.factorize_sharded(&group).unwrap();
        assert!(out.elasticity.is_clean());
        assert_eq!(out.elasticity.deadline_trips, vec![0, 0, 0]);
    }

    #[test]
    fn sharded_resumes_single_device_snapshots_interchangeably() {
        let dir =
            std::env::temp_dir().join(format!("cstf-sharded-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let x = planted(&[12, 10, 8], 250, 3, 7);
        let auntf =
            Auntf::new(x, AuntfConfig { rank: 3, max_iters: 6, seed: 9, ..Default::default() });
        let uninterrupted = auntf.factorize(&Device::new(DeviceSpec::h100())).unwrap();

        // First leg on a single device, stopping at iteration 3.
        let short = Auntf::new(
            match &auntf.source {
                Source::Sparse(x) => SparseTensor::clone(x),
                _ => unreachable!(),
            },
            AuntfConfig { max_iters: 3, ..auntf.cfg.clone() },
        );
        let ck = CheckpointConfig::new(&dir, 3);
        short.factorize_checkpointed(&Device::new(DeviceSpec::h100()), &ck, false).unwrap();

        // Resume the remaining iterations sharded across 3 devices.
        let group = DeviceGroup::homogeneous(&DeviceSpec::h100(), 3);
        let resumed = auntf.factorize_sharded_checkpointed(&group, &ck, true).unwrap();
        assert_bitwise_eq(&uninterrupted, &resumed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let group = DeviceGroup::homogeneous(&DeviceSpec::h100(), 2);

        let dense = DenseTensor::from_fn(vec![3, 3], |_| 1.0);
        let err =
            Auntf::new_dense(dense, AuntfConfig::default()).factorize_sharded(&group).unwrap_err();
        assert!(matches!(err, FactorizeError::InvalidConfig(ref m) if m.contains("sparse")));

        let x = planted(&[8, 7, 6], 100, 2, 8);
        let mu =
            AuntfConfig { update: UpdateMethod::Mu(MuConfig::default()), ..AuntfConfig::default() };
        let err = Auntf::new(x.clone(), mu).factorize_sharded(&group).unwrap_err();
        assert!(matches!(err, FactorizeError::InvalidConfig(ref m) if m.contains("ADMM")));

        let early_exit = AuntfConfig {
            update: UpdateMethod::Admm(AdmmConfig { tol: 1e-4, ..AdmmConfig::cuadmm() }),
            ..AuntfConfig::default()
        };
        let err = Auntf::new(x, early_exit).factorize_sharded(&group).unwrap_err();
        assert!(matches!(err, FactorizeError::InvalidConfig(ref m) if m.contains("tol")));
    }
}
