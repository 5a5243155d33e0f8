//! Enforces the telemetry overhead budget (DESIGN.md §Observability):
//! running the solver with span recording **enabled** must cost less than
//! 2% wall-clock over the disabled default.
//!
//! Method: interleaved ABBA blocks (off, on, on, off) on an identical
//! factorization. Each block yields one on/off ratio, and the test bounds
//! the median ratio over the blocks. Interleaving cancels slow drift in
//! host speed (frequency scaling, noisy neighbours) that sequential arms
//! would attribute to one side, and the median discards the blocks a
//! burst of noise hit. Convergence logging and the profiler are active in
//! both arms — they are always on — so the comparison isolates exactly the
//! span layer, which is the only part with a per-event hot-path cost.

use cstf_core::{Auntf, AuntfConfig};
use cstf_device::{Device, DeviceSpec};
use cstf_telemetry::{set_spans_enabled, spans};
use cstf_tensor::SparseTensor;

/// ABBA blocks measured.
const BLOCKS: usize = 12;

fn workload() -> SparseTensor {
    cstf_data::by_name("Uber").unwrap().generate_scaled(30_000, 7)
}

/// One timed factorization with span recording `on` or off.
fn run_once(x: &SparseTensor, on: bool) -> f64 {
    set_spans_enabled(on);
    spans::clear(); // keep buffers from growing unboundedly across reps
    let cfg = AuntfConfig { rank: 8, max_iters: 4, seed: 1, ..Default::default() };
    let auntf = Auntf::new(x.clone(), cfg);
    let dev = Device::new(DeviceSpec::h100());
    let t0 = std::time::Instant::now();
    auntf.factorize(&dev).unwrap();
    t0.elapsed().as_secs_f64()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[test]
fn span_recording_stays_within_two_percent_overhead() {
    let x = workload();
    run_once(&x, false); // warm-up: worker pool, lazy statics, allocator arenas

    let (mut ratios, mut bases) = (Vec::new(), Vec::new());
    for _ in 0..BLOCKS {
        let off = run_once(&x, false);
        let on = run_once(&x, true) + run_once(&x, true);
        let off = off + run_once(&x, false);
        ratios.push(on / off);
        bases.push(off / 2.0);
    }
    set_spans_enabled(false);
    spans::clear();

    // 2% relative budget plus 2ms absolute slack for timer jitter on runs
    // this short, expressed as a ratio over the median disabled run.
    let base = median(bases);
    let ratio = median(ratios.clone());
    let budget = 1.02 + 0.002 / base;
    assert!(
        ratio <= budget,
        "span overhead over budget: median on/off ratio {ratio:.4} over {BLOCKS} ABBA blocks \
         (disabled run {base:.4}s, budget {budget:.4}); per-block ratios {ratios:.4?}"
    );
}
