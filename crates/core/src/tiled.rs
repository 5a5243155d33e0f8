//! Row blocks: the one MTTKRP kernel recipe behind tiles and shards.
//!
//! A row block of mode `m` holds every nonzero whose mode-`m` index falls
//! in a contiguous, nnz-balanced row range, compiled into the configured
//! format: CSF rooted at the target mode, ONEMODE rooted at mode 0, the
//! linearized formats over the block's nonzeros with the *global* shape.
//! Every format kernel on such a block writes exactly the global MTTKRP
//! rows the block owns (the owner-computes argument of DESIGN.md §11), so
//! committing each block's owned rows reassembles the in-core panel
//! **bitwise**. The same [`Kernel`] also serves the in-core engine, where
//! one block spans every row.
//!
//! Two placements use blocks. Out of core, one device streams `K` tiles
//! per mode through its memory — "sharding in time", planned by
//! [`cstf_formats::TilePlan`] — double-buffering the host→device copy of
//! tile `t + 1` against tile `t`'s compute: the device meters only the
//! *exposed* remainder `max(0, raw - compute)`
//! ([`Device::transfer_overlapped`]), while the [`TilingReport`] keeps
//! both sides so the roofline observatory can attribute hidden versus
//! exposed streaming time. Sharded, each device of a group owns one block
//! per mode ([`crate::sharded`]).

use std::ops::Range;
use std::sync::Arc;

use cstf_device::{Device, DeviceFault, KernelClass, KernelCost, Phase};
use cstf_formats::{
    extract_mode_rows, nnz_balanced_ranges, Alto, Blco, Csf, HiCoo, MttkrpWorkspace,
};
use cstf_linalg::Mat;
use cstf_tensor::SparseTensor;

use crate::auntf::TensorFormat;

/// One compiled MTTKRP kernel over a set of nonzeros.
pub(crate) enum Kernel {
    /// No nonzeros: the owned output rows are exactly the (all-zero)
    /// global MTTKRP rows, and nothing is launched.
    Empty,
    Coo(Arc<SparseTensor>),
    Csf(Csf),
    CsfOne(Csf),
    HiCoo(HiCoo),
    Alto(Alto),
    Blco(Blco),
}

impl Kernel {
    /// Compiles `coo` into `format` for MTTKRPs into `mode` (only CSF
    /// depends on the mode: its tree is rooted there).
    pub(crate) fn compile(coo: &Arc<SparseTensor>, mode: usize, format: TensorFormat) -> Self {
        if coo.nnz() == 0 {
            return Kernel::Empty;
        }
        match format {
            TensorFormat::Coo => Kernel::Coo(Arc::clone(coo)),
            TensorFormat::Csf => Kernel::Csf(Csf::from_coo(coo, mode)),
            TensorFormat::CsfOne => Kernel::CsfOne(Csf::from_coo(coo, 0)),
            TensorFormat::HiCoo => Kernel::HiCoo(HiCoo::from_coo(coo)),
            TensorFormat::Alto => Kernel::Alto(Alto::from_coo(coo)),
            TensorFormat::Blco => Kernel::Blco(Blco::from_coo(coo)),
        }
    }

    /// Device-memory bytes of the compiled kernel (drives its h2d copy).
    pub(crate) fn bytes(&self) -> f64 {
        match self {
            Kernel::Empty => 0.0,
            Kernel::Coo(x) => (x.nnz() * (x.nmodes() * 4 + 8)) as f64,
            Kernel::Csf(t) | Kernel::CsfOne(t) => t.storage_bytes() as f64,
            Kernel::HiCoo(h) => h.storage_bytes() as f64,
            Kernel::Alto(a) => a.storage_bytes() as f64,
            Kernel::Blco(b) => b.storage_bytes() as f64,
        }
    }

    /// Modeled cost of one MTTKRP into `mode` over a tensor of `shape`.
    pub(crate) fn cost(&self, shape: &[usize], mode: usize, rank: usize) -> KernelCost {
        let t = match self {
            Kernel::Empty => return KernelCost::default(),
            Kernel::Coo(x) => cstf_formats::coordinate_mttkrp_traffic(
                x.nnz(),
                shape,
                mode,
                rank,
                (shape.len() * 4) as f64,
            ),
            Kernel::Csf(t) => t.mttkrp_traffic(rank),
            Kernel::CsfOne(t) => t.mttkrp_any_traffic(mode, rank),
            Kernel::HiCoo(h) => h.mttkrp_traffic(mode, rank),
            Kernel::Alto(a) => a.mttkrp_traffic(mode, rank),
            Kernel::Blco(b) => b.mttkrp_traffic(mode, rank),
        };
        KernelCost {
            flops: t.flops,
            bytes_read: t.bytes_read,
            bytes_written: t.bytes_written,
            gather_traffic: t.gather_bytes,
            parallel_work: t.parallel_work,
            serial_steps: 1.0,
            working_set: t.working_set,
        }
    }

    /// Launches the MTTKRP into `mode` as kernel `name`, writing `out`
    /// (exposed to NaN-corruption faults). An empty kernel launches
    /// nothing and leaves `out` as it is.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn launch(
        &self,
        dev: &Device,
        name: &'static str,
        shape: &[usize],
        factors: &[Mat],
        mode: usize,
        out: &mut Mat,
        ws: &mut MttkrpWorkspace,
    ) -> Result<(), DeviceFault> {
        if matches!(self, Kernel::Empty) {
            return Ok(());
        }
        let cost = self.cost(shape, mode, out.cols());
        dev.launch_into(
            name,
            Phase::Mttkrp,
            KernelClass::SparseGather,
            cost,
            out,
            Mat::as_mut_slice,
            |out| match self {
                Kernel::Empty => {}
                Kernel::Coo(x) => cstf_formats::mttkrp_coo_parallel_into(x, factors, mode, out, ws),
                Kernel::Csf(t) => t.mttkrp_into(factors, out, ws),
                Kernel::CsfOne(t) => t.mttkrp_any_into(factors, mode, out, ws),
                Kernel::HiCoo(h) => h.mttkrp_into(factors, mode, out, ws),
                Kernel::Alto(a) => a.mttkrp_into(factors, mode, out, ws),
                Kernel::Blco(b) => b.mttkrp_into(factors, mode, out, ws),
            },
        )
    }
}

/// Every mode's row blocks and their compiled kernels.
pub(crate) struct Blocks {
    /// `ranges[m][b]`: the mode-`m` output rows block `b` owns.
    pub ranges: Vec<Vec<Range<usize>>>,
    /// `kernels[m][b]`: block `b`'s kernel for the mode-`m` MTTKRP.
    pub kernels: Vec<Vec<Kernel>>,
}

impl Blocks {
    /// Cuts every mode of an in-core tensor into `parts` nnz-balanced
    /// row blocks and compiles each.
    pub(crate) fn compile(x: &SparseTensor, parts: usize, format: TensorFormat) -> Self {
        let mut blocks = Self::empty();
        let ranges: Vec<_> = (0..x.nmodes()).map(|m| nnz_balanced_ranges(x, m, parts)).collect();
        for (mode, ranges) in ranges.into_iter().enumerate() {
            for rows in ranges {
                let coo = extract_mode_rows(x, mode, &rows);
                blocks.push(mode, rows, coo, format);
            }
        }
        blocks
    }

    /// No modes yet; blocks arrive through [`Blocks::push`].
    pub(crate) fn empty() -> Self {
        Self { ranges: Vec::new(), kernels: Vec::new() }
    }

    /// Appends the next block of `mode` (blocks arrive mode-major, in row
    /// order, as `read_tns_tiles` visits them): the row-restricted
    /// sub-tensor `coo` owning `rows`.
    pub(crate) fn push(
        &mut self,
        mode: usize,
        rows: Range<usize>,
        coo: SparseTensor,
        format: TensorFormat,
    ) {
        while self.ranges.len() <= mode {
            self.ranges.push(Vec::new());
            self.kernels.push(Vec::new());
        }
        self.ranges[mode].push(rows);
        self.kernels[mode].push(Kernel::compile(&Arc::new(coo), mode, format));
    }
}

/// Copies the rows `rows` of `src` into `dst` (host-side panel assembly,
/// unmetered).
pub(crate) fn copy_rows(dst: &mut Mat, src: &Mat, rows: &Range<usize>) {
    let rank = dst.cols();
    dst.as_mut_slice()[rows.start * rank..rows.end * rank]
        .copy_from_slice(&src.as_slice()[rows.start * rank..rows.end * rank]);
}

/// What the tiled driver streamed and how much of it the double-buffer
/// hid, reported per run and exported as `cstf_tile_*` telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TilingReport {
    /// Tile count `K` the run executed with (1 = in-core, untiled).
    pub tiles: usize,
    /// Host→device tile copies performed (empty tiles move nothing).
    pub tile_transfers: u64,
    /// Bytes streamed across all tile copies.
    pub streamed_bytes: f64,
    /// Un-overlapped modeled seconds of all tile copies.
    pub transfer_raw_s: f64,
    /// Seconds that actually extended the timeline after double-buffering
    /// against the previous tile's compute.
    pub transfer_exposed_s: f64,
}

impl Default for TilingReport {
    fn default() -> Self {
        Self {
            tiles: 1,
            tile_transfers: 0,
            streamed_bytes: 0.0,
            transfer_raw_s: 0.0,
            transfer_exposed_s: 0.0,
        }
    }
}

impl TilingReport {
    /// Streaming seconds the double-buffer hid behind compute.
    pub fn hidden_s(&self) -> f64 {
        (self.transfer_raw_s - self.transfer_exposed_s).max(0.0)
    }

    /// True when the run actually tiled (`K > 1`).
    pub fn is_tiled(&self) -> bool {
        self.tiles > 1
    }
}

#[cfg(test)]
mod tests {
    use cstf_device::{Device, DeviceSpec, Phase};
    use cstf_tensor::{write_tns, SparseTensor};

    use crate::auntf::{seeded_factors, Auntf, AuntfConfig, TensorFormat};

    fn planted(shape: &[usize], nnz: usize, seed: u64) -> SparseTensor {
        let truth = cstf_tensor::Ktensor::from_factors(seeded_factors(shape, 3, seed ^ 0xABCD));
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

    fn cfg(format: TensorFormat, tiles: usize) -> AuntfConfig {
        AuntfConfig { rank: 3, max_iters: 4, seed: 5, format, tiles, ..Default::default() }
    }

    #[test]
    fn tiled_factors_are_bitwise_identical_to_in_core() {
        let x = planted(&[17, 12, 9], 420, 3);
        for format in [
            TensorFormat::Coo,
            TensorFormat::Csf,
            TensorFormat::CsfOne,
            TensorFormat::HiCoo,
            TensorFormat::Alto,
            TensorFormat::Blco,
        ] {
            let base = Auntf::new(x.clone(), cfg(format, 1))
                .factorize(&Device::new(DeviceSpec::h100()))
                .unwrap();
            for tiles in [2usize, 3, 5] {
                let out = Auntf::new(x.clone(), cfg(format, tiles))
                    .factorize(&Device::new(DeviceSpec::h100()))
                    .unwrap();
                assert_eq!(out.fits, base.fits, "{format:?} K={tiles} fit trajectory");
                assert_eq!(out.model.lambda, base.model.lambda);
                for (a, b) in out.model.factors.iter().zip(&base.model.factors) {
                    for (&u, &v) in a.as_slice().iter().zip(b.as_slice()) {
                        assert_eq!(u.to_bits(), v.to_bits(), "{format:?} K={tiles}");
                    }
                }
                assert_eq!(out.tiling.tiles, tiles);
                assert!(out.tiling.tile_transfers > 0);
            }
        }
    }

    #[test]
    fn streamed_construction_matches_in_core_tiled_run() {
        // nnz < 64 Ki, so the scan's file-order ||X||² is bit-equal to the
        // in-core serial reduction and the whole run must match bitwise.
        let x = planted(&[15, 11, 8], 350, 9);
        let dir = std::env::temp_dir().join(format!("cstf-tiled-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.tns");
        write_tns(&x, std::fs::File::create(&path).unwrap()).unwrap();

        let c = cfg(TensorFormat::Blco, 3);
        let in_core = Auntf::new(x, c.clone()).factorize(&Device::new(DeviceSpec::h100())).unwrap();
        let streamed = Auntf::from_tns_file_tiled(&path, c)
            .unwrap()
            .factorize(&Device::new(DeviceSpec::h100()))
            .unwrap();
        assert_eq!(streamed.fits, in_core.fits);
        for (a, b) in streamed.model.factors.iter().zip(&in_core.model.factors) {
            assert_eq!(
                a.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiled_run_streams_tiles_instead_of_upfront_tensor_copy() {
        let x = planted(&[14, 10, 8], 300, 7);
        let dev = Device::new(DeviceSpec::h100());
        let out = Auntf::new(x, cfg(TensorFormat::Csf, 3)).factorize(&dev).unwrap();
        // Every non-empty tile of every mode sweep moved once per outer
        // iteration, and the double-buffer never hid more than raw time.
        assert!(out.tiling.streamed_bytes > 0.0);
        assert!(out.tiling.transfer_raw_s >= out.tiling.transfer_exposed_s);
        assert!(out.tiling.hidden_s() >= 0.0);
        assert!(dev.phase_totals(Phase::Transfer).launches >= out.tiling.tile_transfers as usize);
    }

    #[test]
    fn sharded_run_rejects_tiling() {
        use cstf_device::DeviceGroup;
        let x = planted(&[12, 10, 8], 200, 11);
        let group = DeviceGroup::homogeneous(&DeviceSpec::h100(), 2);
        let err = Auntf::new(x, cfg(TensorFormat::Blco, 2)).factorize_sharded(&group).unwrap_err();
        assert!(matches!(err, crate::recovery::FactorizeError::InvalidConfig(_)));
    }
}
