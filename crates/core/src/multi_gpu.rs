//! Multi-GPU extension — the paper's second stated future-work item (§7):
//! *"extend our framework to support multi-GPU and distributed-memory
//! computation"*.
//!
//! Two pieces:
//!
//! 1. **Exactness** — [`partitioned_admm_update`] runs the ADMM update on
//!    row partitions of the factor matrix (one partition per GPU) and
//!    stitches the results. Because every ADMM kernel is row-independent
//!    given `M` and `S` (the `R x R` subproblem matrix is shared), the
//!    partitioned update is *bitwise identical* to the single-device one —
//!    the property that makes data-parallel multi-GPU cSTF correct. Only
//!    the scalar convergence residuals need a cross-device reduction.
//! 2. **Performance model** — [`multi_gpu_iteration_time`] predicts
//!    per-iteration time on `g` GPUs: compute scales with the largest row
//!    partition, while each mode update ends with an all-gather of the
//!    updated factor over NVLink, plus an all-reduce of the `R x R` Gram.
//!    Strong-scaling efficiency degrades exactly where real multi-GPU CP
//!    codes report it: small tensors become launch/communication-bound.

use cstf_base::par;

use cstf_device::{Device, DeviceSpec};
use cstf_linalg::Mat;

use crate::admm::{admm_update, AdmmConfig, AdmmStats, AdmmWorkspace};
use crate::hybrid::{predict_phases, WorkloadShape};

/// Multi-GPU system description.
#[derive(Debug, Clone)]
pub struct MultiGpuConfig {
    /// Number of identical GPUs.
    pub n_gpus: usize,
    /// Effective per-direction NVLink bandwidth between peers, GB/s.
    pub nvlink_gbs: f64,
    /// Per-collective latency (all-gather / all-reduce software overhead),
    /// microseconds.
    pub collective_latency_us: f64,
}

impl MultiGpuConfig {
    /// A DGX-style node with `n` GPUs (NVLink 3, ~300 GB/s effective).
    pub fn dgx(n_gpus: usize) -> Self {
        Self { n_gpus, nvlink_gbs: 300.0, collective_latency_us: 10.0 }
    }
}

/// Predicted multi-GPU timing for one outer iteration.
#[derive(Debug, Clone, Copy)]
pub struct MultiGpuEstimate {
    /// Per-iteration compute seconds (largest partition).
    pub compute_s: f64,
    /// Per-iteration communication seconds (all-gathers + all-reduces).
    pub comm_s: f64,
    /// Total.
    pub total_s: f64,
    /// Speedup over the single-GPU prediction.
    pub speedup: f64,
    /// Strong-scaling efficiency (`speedup / n_gpus`).
    pub efficiency: f64,
}

/// Splits row count `rows` into exactly `parts` contiguous partitions whose
/// sizes differ by at most one (the remainder is spread over the leading
/// partitions; trailing partitions may be empty when `parts > rows`), so
/// `devices.iter().zip(&partitions)` never silently idles a device and the
/// largest partition is a tight `ceil(rows / parts)`.
pub fn row_partitions(rows: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1);
    let base = rows / parts;
    let extra = rows % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for j in 0..parts {
        let len = base + usize::from(j < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Runs the ADMM update partitioned across `devices` (one row block each),
/// writing into `h`/`u` in place. Returns per-partition stats.
///
/// Exactness: with identical `AdmmConfig`, the result equals the
/// single-device [`admm_update`] bit for bit (the residual-based early exit
/// must be disabled — `tol = 0` — since per-partition residuals differ from
/// the global one; the paper-style fixed-iteration configuration satisfies
/// this).
///
/// # Errors
/// Propagates the lowest-partition-index
/// [`AdmmError`](crate::recovery::AdmmError); `h` and `u` are then left
/// entirely unmodified (all partitions are staged into private blocks and
/// committed only after every partition succeeds), so a recovery retry
/// re-enters with pristine state and replays bit for bit.
pub fn partitioned_admm_update(
    devices: &[Device],
    cfg: &AdmmConfig,
    m: &Mat,
    s: &Mat,
    h: &mut Mat,
    u: &mut Mat,
) -> Result<Vec<AdmmStats>, crate::recovery::AdmmError> {
    let parts = row_partitions(m.rows(), devices.len());
    let refs: Vec<&Device> = devices.iter().collect();
    partitioned_admm_update_on(&refs, cfg, &parts, m, s, h, u)
}

/// [`partitioned_admm_update`] over caller-chosen row `ranges` (one per
/// device; must be disjoint and in-bounds) on borrowed devices — the form
/// the elastic sharded driver needs, since a survivor subset of a
/// [`DeviceGroup`](cstf_device::DeviceGroup) is not contiguous in the
/// group's device vector. Partitions run concurrently on the worker pool,
/// each metered on its own device; outputs are staged and committed only
/// after all partitions succeed.
///
/// # Errors
/// Returns the lowest-partition-index error with `h`/`u` untouched.
///
/// # Panics
/// Panics if `devices` is empty, `ranges.len() != devices.len()`, or
/// `cfg.tol != 0.0`.
pub fn partitioned_admm_update_on(
    devices: &[&Device],
    cfg: &AdmmConfig,
    ranges: &[std::ops::Range<usize>],
    m: &Mat,
    s: &Mat,
    h: &mut Mat,
    u: &mut Mat,
) -> Result<Vec<AdmmStats>, crate::recovery::AdmmError> {
    assert!(!devices.is_empty(), "at least one device required");
    assert_eq!(devices.len(), ranges.len(), "one row range per device");
    assert!(
        cfg.tol == 0.0,
        "partitioned ADMM requires fixed iterations (tol = 0); residual-based \
         early exit would need a global all-reduce per inner iteration"
    );
    let rank = m.cols();

    let staged: Vec<Result<(AdmmStats, Mat, Mat), crate::recovery::AdmmError>> =
        par::map_collect((devices, ranges), |(dev, range)| {
            let take = |src: &Mat| {
                let mut block = Mat::zeros(range.len(), rank);
                for (bi, i) in range.clone().enumerate() {
                    block.row_mut(bi).copy_from_slice(src.row(i));
                }
                block
            };
            let m_blk = take(m);
            let mut h_blk = take(h);
            let mut u_blk = take(u);
            let mut ws = AdmmWorkspace::new(range.len(), rank);
            let stats = admm_update(dev, cfg, &m_blk, s, &mut h_blk, &mut u_blk, &mut ws)?;
            Ok((stats, h_blk, u_blk))
        });

    let mut stats = Vec::with_capacity(staged.len());
    let mut blocks = Vec::with_capacity(staged.len());
    for result in staged {
        let (st, h_blk, u_blk) = result?;
        stats.push(st);
        blocks.push((h_blk, u_blk));
    }
    for (range, (h_blk, u_blk)) in ranges.iter().zip(&blocks) {
        for (bi, i) in range.clone().enumerate() {
            h.row_mut(i).copy_from_slice(h_blk.row(bi));
            u.row_mut(i).copy_from_slice(u_blk.row(bi));
        }
    }
    Ok(stats)
}

/// Predicts one outer iteration's time on `mg.n_gpus` GPUs of type `spec`.
pub fn multi_gpu_iteration_time(
    w: &WorkloadShape,
    spec: &DeviceSpec,
    mg: &MultiGpuConfig,
) -> MultiGpuEstimate {
    let g = mg.n_gpus.max(1) as f64;
    let single = predict_phases(w, spec).total();

    // Compute: rows (update/normalize/gram) and nonzeros (MTTKRP) are
    // partitioned; the largest partition is ceil(1/g) of the work, but
    // per-kernel launch latency is NOT divided — model by predicting the
    // phases of a 1/g-sized workload on the same spec.
    let shrunk = WorkloadShape {
        shape: w.shape.iter().map(|&d| d.div_ceil(mg.n_gpus.max(1)).max(1)).collect(),
        nnz: w.nnz.div_ceil(mg.n_gpus.max(1)),
        ..w.clone()
    };
    let compute_s = predict_phases(&shrunk, spec).total();

    // Communication per mode: all-gather of the updated factor block
    // (each GPU sends its I_n/g x R block to g-1 peers; ring all-gather
    // moves (g-1)/g of the full factor per GPU), plus a ring all-reduce of
    // the R^2 Gram, which moves 2(g-1)/g of the buffer per GPU
    // (reduce-scatter + all-gather phases).
    let rank = w.rank as f64;
    let comm_s: f64 = if mg.n_gpus <= 1 {
        0.0
    } else {
        w.shape
            .iter()
            .map(|&i_n| {
                let factor_bytes = i_n as f64 * rank * 8.0;
                let allgather = (g - 1.0) / g * factor_bytes / (mg.nvlink_gbs * 1e9);
                let allreduce = 2.0 * (g - 1.0) / g * (rank * rank * 8.0) / (mg.nvlink_gbs * 1e9);
                2.0 * mg.collective_latency_us * 1e-6 + allgather + allreduce
            })
            .sum()
    };

    let total_s = compute_s + comm_s;
    let speedup = single / total_s;
    MultiGpuEstimate { compute_s, comm_s, total_s, speedup, efficiency: speedup / g }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auntf::{seeded_factors, TensorFormat};
    use cstf_linalg::gram;

    fn problem(rows: usize, rank: usize) -> (Mat, Mat, Mat) {
        let f = seeded_factors(&[rows, 40, 30], rank, 5);
        let mut s = gram::gram(&f[1]);
        cstf_linalg::hadamard_in_place(&mut s, &gram::gram(&f[2]));
        let m = cstf_linalg::matmul(&f[0], &s);
        (m, s, f.into_iter().next().unwrap())
    }

    #[test]
    fn row_partitions_spread_the_remainder() {
        // Regression: the old ceil-chunking gave 4/4/2 for (10, 3); balanced
        // partitioning gives 4/3/3.
        assert_eq!(row_partitions(10, 3), vec![0..4, 4..7, 7..10]);
        for (rows, parts) in [(10, 3), (100, 7), (1000, 13), (7, 7), (63, 8)] {
            let p = row_partitions(rows, parts);
            let min = p.iter().map(|r| r.len()).min().unwrap();
            let max = p.iter().map(|r| r.len()).max().unwrap();
            assert!(max - min <= 1, "rows {rows} parts {parts}: sizes {min}..{max}");
        }
    }

    #[test]
    fn row_partitions_always_return_exactly_parts_ranges() {
        // Regression: the old code returned only 5 ranges for (5, 8),
        // silently idling devices zipped against the partition list.
        let p = row_partitions(5, 8);
        assert_eq!(p.len(), 8);
        assert_eq!(&p[..5], &[0..1, 1..2, 2..3, 3..4, 4..5]);
        assert!(p[5..].iter().all(|r| r.is_empty()), "{p:?}");
        for (rows, parts) in [(5, 8), (0, 4), (1, 3), (10, 3), (64, 1)] {
            assert_eq!(row_partitions(rows, parts).len(), parts, "rows {rows} parts {parts}");
        }
    }

    #[test]
    fn row_partitions_cover_exactly() {
        for (rows, parts) in [(10, 3), (100, 7), (5, 8), (0, 4), (64, 1)] {
            let p = row_partitions(rows, parts);
            let total: usize = p.iter().map(|r| r.len()).sum();
            assert_eq!(total, rows, "rows {rows} parts {parts}");
            for w in p.windows(2) {
                assert_eq!(w[0].end, w[1].start, "partitions must be contiguous");
            }
        }
    }

    #[test]
    fn partitioned_admm_is_bitwise_identical_to_single_device() {
        let (m, s, h0) = problem(500, 8);
        let cfg = AdmmConfig { tol: 0.0, inner_iters: 10, ..AdmmConfig::cuadmm() };

        // Single device.
        let dev = Device::new(DeviceSpec::h100());
        let mut h_single = h0.clone();
        let mut u_single = Mat::zeros(500, 8);
        let mut ws = AdmmWorkspace::new(500, 8);
        admm_update(&dev, &cfg, &m, &s, &mut h_single, &mut u_single, &mut ws).unwrap();

        // Four simulated GPUs.
        let devices: Vec<Device> = (0..4).map(|_| Device::new(DeviceSpec::h100())).collect();
        let mut h_multi = h0.clone();
        let mut u_multi = Mat::zeros(500, 8);
        let stats =
            partitioned_admm_update(&devices, &cfg, &m, &s, &mut h_multi, &mut u_multi).unwrap();

        assert_eq!(stats.len(), 4);
        assert_eq!(h_single, h_multi, "partitioned primal must be bitwise identical");
        assert_eq!(u_single, u_multi, "partitioned dual must be bitwise identical");
        // Every device did real metered work.
        for d in &devices {
            assert!(d.total_seconds() > 0.0);
        }
    }

    #[test]
    fn faulted_partition_leaves_state_untouched_and_retry_is_bitwise_exact() {
        use cstf_device::FaultPlan;

        let (m, s, h0) = problem(120, 6);
        let cfg = AdmmConfig { tol: 0.0, inner_iters: 8, ..AdmmConfig::cuadmm() };

        // Fault-free single-device reference.
        let dev = Device::new(DeviceSpec::h100());
        let mut h_ref = h0.clone();
        let mut u_ref = Mat::zeros(120, 6);
        let mut ws = AdmmWorkspace::new(120, 6);
        admm_update(&dev, &cfg, &m, &s, &mut h_ref, &mut u_ref, &mut ws).unwrap();

        // Four devices; device 2's first fallible launch faults, then its
        // budget is exhausted and every later draw is clean.
        let plan = FaultPlan { launch_fault_rate: 1.0, max_faults: 1, ..FaultPlan::quiet(7) };
        let devices: Vec<Device> = (0..4)
            .map(|d| {
                let dev = Device::new(DeviceSpec::h100());
                if d == 2 {
                    dev.with_fault_plan(plan.clone())
                } else {
                    dev
                }
            })
            .collect();

        let mut h = h0.clone();
        let mut u = Mat::zeros(120, 6);
        let err = partitioned_admm_update(&devices, &cfg, &m, &s, &mut h, &mut u)
            .expect_err("partition 2 must fault");
        assert!(matches!(err, crate::recovery::AdmmError::Fault(_)), "{err:?}");
        // Regression: the pre-fix commit-as-you-go wrote partitions 0 and 1
        // into h/u before partition 2 failed, poisoning the retry.
        assert_eq!(h, h0, "h must be untouched after a partition fault");
        assert_eq!(u, Mat::zeros(120, 6), "u must be untouched after a partition fault");

        // Retry on the same (now fault-exhausted) devices replays the
        // fault-free result bit for bit.
        let stats = partitioned_admm_update(&devices, &cfg, &m, &s, &mut h, &mut u).unwrap();
        assert_eq!(stats.len(), 4);
        assert_eq!(h, h_ref, "retry after partition failure must be bitwise exact");
        assert_eq!(u, u_ref);
    }

    #[test]
    #[should_panic(expected = "fixed iterations")]
    fn early_exit_config_is_rejected() {
        let (m, s, h0) = problem(50, 4);
        let devices = vec![Device::new(DeviceSpec::a100())];
        let mut h = h0.clone();
        let mut u = Mat::zeros(50, 4);
        let cfg = AdmmConfig { tol: 1e-4, ..AdmmConfig::cuadmm() };
        let _ = partitioned_admm_update(&devices, &cfg, &m, &s, &mut h, &mut u);
    }

    fn big_workload() -> WorkloadShape {
        WorkloadShape {
            shape: vec![3_000_000, 2_000_000, 25_000_000],
            nnz: 143_000_000,
            rank: 32,
            inner_iters: 10,
            format: TensorFormat::Blco,
        }
    }

    #[test]
    fn multi_gpu_speedup_grows_then_saturates() {
        let w = big_workload();
        let spec = DeviceSpec::h100();
        let mut prev_speedup = 0.0;
        let mut efficiencies = Vec::new();
        for g in [1usize, 2, 4, 8] {
            let est = multi_gpu_iteration_time(&w, &spec, &MultiGpuConfig::dgx(g));
            assert!(est.speedup >= prev_speedup * 0.999, "speedup regressed at g={g}");
            prev_speedup = est.speedup;
            efficiencies.push(est.efficiency);
        }
        // Strong-scaling efficiency is (near-)monotonically non-increasing;
        // mild super-linearity from cache effects at small g is real and
        // tolerated.
        assert!(efficiencies.windows(2).all(|w| w[1] <= w[0] + 1e-2), "{efficiencies:?}");
        // NELL1-scale factorization should scale well to 4 GPUs.
        assert!(efficiencies[2] > 0.5, "4-GPU efficiency too low: {efficiencies:?}");
    }

    #[test]
    fn ring_allreduce_term_scales_with_group_size() {
        // Regression: the pre-fix model charged a flat 2*R^2*8 bytes for the
        // Gram all-reduce regardless of g; a ring all-reduce moves
        // 2(g-1)/g of the buffer per device.
        let w = big_workload();
        let spec = DeviceSpec::h100();
        for g in [2usize, 4, 8] {
            let mg = MultiGpuConfig::dgx(g);
            let est = multi_gpu_iteration_time(&w, &spec, &mg);
            let gf = g as f64;
            let rank = w.rank as f64;
            let want: f64 = w
                .shape
                .iter()
                .map(|&i_n| {
                    let bw = mg.nvlink_gbs * 1e9;
                    let allgather = (gf - 1.0) / gf * (i_n as f64 * rank * 8.0) / bw;
                    let allreduce = 2.0 * (gf - 1.0) / gf * (rank * rank * 8.0) / bw;
                    2.0 * mg.collective_latency_us * 1e-6 + allgather + allreduce
                })
                .sum();
            assert!(
                (est.comm_s - want).abs() <= 1e-12 * want.max(1.0),
                "g={g}: comm {} != ring closed form {}",
                est.comm_s,
                want
            );
        }
    }

    #[test]
    fn estimate_is_monotone_in_nvlink_bandwidth() {
        let w = big_workload();
        let spec = DeviceSpec::h100();
        let mut prev = f64::INFINITY;
        for gbs in [50.0, 150.0, 300.0, 600.0, 1200.0] {
            let mg = MultiGpuConfig { n_gpus: 4, nvlink_gbs: gbs, collective_latency_us: 10.0 };
            let est = multi_gpu_iteration_time(&w, &spec, &mg);
            assert!(est.total_s < prev, "total_s must decrease as nvlink_gbs grows ({gbs} GB/s)");
            prev = est.total_s;
        }
    }

    #[test]
    fn estimate_approaches_compute_bound_as_comm_vanishes() {
        // With rank 1, zero collective latency, and fat links, g * R^2 -> 0
        // makes the collective terms negligible against MTTKRP compute.
        let w = WorkloadShape {
            shape: vec![4_000, 3_000, 2_000],
            nnz: 80_000_000,
            rank: 1,
            inner_iters: 10,
            format: TensorFormat::Blco,
        };
        let mg = MultiGpuConfig { n_gpus: 2, nvlink_gbs: 900.0, collective_latency_us: 0.0 };
        let est = multi_gpu_iteration_time(&w, &DeviceSpec::h100(), &mg);
        assert!(est.comm_s > 0.0, "two GPUs still communicate");
        assert!(
            est.comm_s / est.total_s < 1e-3,
            "comm fraction {} should vanish as g * R^2 -> 0",
            est.comm_s / est.total_s
        );
        assert!((est.total_s - est.compute_s) / est.total_s < 1e-3);
    }

    #[test]
    fn single_gpu_has_no_communication() {
        let est =
            multi_gpu_iteration_time(&big_workload(), &DeviceSpec::a100(), &MultiGpuConfig::dgx(1));
        assert_eq!(est.comm_s, 0.0);
        assert!((est.speedup - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_workload_scales_poorly() {
        let w = WorkloadShape {
            shape: vec![500, 400, 300],
            nnz: 20_000,
            rank: 16,
            inner_iters: 10,
            format: TensorFormat::Blco,
        };
        let est8 = multi_gpu_iteration_time(&w, &DeviceSpec::h100(), &MultiGpuConfig::dgx(8));
        assert!(
            est8.efficiency < 0.5,
            "a tiny tensor should not scale to 8 GPUs (eff {})",
            est8.efficiency
        );
    }
}
