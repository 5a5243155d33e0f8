//! # cstf-device
//!
//! The simulated accelerator substrate for cSTF-rs.
//!
//! The ICPP '24 paper evaluates on NVIDIA A100/H100 GPUs, which this
//! environment does not have. Per the reproduction's substitution rule
//! (DESIGN.md §1), this crate replaces CUDA with a *metered execution*
//! model: kernels run for real (parallel on the worker pool, exact numerics) through
//! [`Device::launch`], which tallies exact flop/byte counts and converts
//! them to modeled time with a roofline cost model parameterized by the
//! paper's Table 1 hardware ([`DeviceSpec::a100`], [`DeviceSpec::h100`],
//! [`DeviceSpec::icelake_xeon`]).
//!
//! The model captures the four effects the paper's evaluation hinges on:
//! bandwidth-boundedness of low-intensity kernels (§3.3), GPU occupancy
//! ramp on small factor matrices (§5.3), cache residency explaining
//! H100 > A100 at equal HBM bandwidth (§5.3), and triangular-solve
//! serialization that pre-inversion removes (§4.3.2).
//!
//! ```
//! use cstf_device::{Device, DeviceSpec, Phase, KernelClass, KernelCost};
//!
//! let dev = Device::new(DeviceSpec::h100());
//! let n = 1_000_000.0;
//! let sum = dev.launch(
//!     "vector_add",
//!     Phase::Update,
//!     KernelClass::Stream,
//!     KernelCost {
//!         flops: n,
//!         bytes_read: 16.0 * n,
//!         bytes_written: 8.0 * n,
//!         gather_traffic: 0.0,
//!         parallel_work: n,
//!         serial_steps: 1.0,
//!         working_set: 24.0 * n,
//!     },
//!     || (0..1000).sum::<u64>(), // the real work
//! );
//! assert_eq!(sum, 499500);
//! assert!(dev.total_seconds() > 0.0); // modeled time was recorded
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cost;
pub mod dag;
#[allow(clippy::module_inception)]
pub mod device;
pub mod export;
pub mod fault;
pub mod group;
pub mod memstat;
pub mod profiler;
pub mod roofline;
pub mod spec;
pub mod trace;

pub use baseline::{
    compare_baselines, compare_measured_band, BaselineDelta, DeltaKind, KernelBaseline,
    PerfBaseline,
};
pub use cost::{kernel_time, transfer_time, KernelClass, KernelCost};
pub use dag::{
    analyze, apply_what_ifs, ops_from_records, parse_what_ifs, read_ops_jsonl, write_ops_jsonl,
    DagAnalysis, DeviceAttribution, LinkOverlap, OpSpec, ScheduledOp, WhatIf,
};
pub use device::{Device, OverlappedTransfer};
pub use export::{phase_summaries, registry_from_capture, registry_from_captures};
pub use fault::{DeviceFault, FaultKind, FaultPlan, GroupFault, LossPoint};
pub use group::{DeviceGroup, GroupHealth, HealthPolicy, LinkModel};
pub use memstat::{
    device_capacity_bytes, plan_device_fit, plan_fit, suggested_tile_count, DeviceFit,
};
pub use profiler::{
    FaultRecord, KernelKey, KernelRecord, KernelTotals, MarkRecord, Phase, PhaseTotals, Profiler,
    RunCapture,
};
pub use roofline::{attribute, classify, BoundKind, RooflineRow};
pub use spec::{DeviceKind, DeviceSpec};
pub use trace::{write_full_trace, write_trace, DeviceTrace};
