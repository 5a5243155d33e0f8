//! The `cstf` subcommands.

use std::io::Write;

use cstf_core::admm::AdmmConfig;
use cstf_core::auntf::TensorFormat;
use cstf_core::hybrid::{recommend_placement, Placement, WorkloadShape};
use cstf_core::{
    Auntf, AuntfConfig, CheckpointConfig, Constraint, FactorizeOutput, HalsConfig, MuConfig,
    UpdateMethod,
};
use cstf_device::{
    compare_baselines, compare_measured_band, Device, DeviceGroup, DeviceSpec, DeviceTrace,
    FaultPlan, KernelBaseline, KernelClass, KernelCost, LinkModel, PerfBaseline, Phase, RunCapture,
};
use cstf_telemetry::json;
use cstf_telemetry::{
    convergence, spans, Footprint, HeapSummary, MemoryFootprint, PhaseSummary, Registry,
    RunSummary, SpanRecord,
};
use cstf_tensor::SparseTensor;

use crate::args::{ArgError, ParsedArgs};

/// Top-level CLI error.
#[derive(Debug)]
pub enum CliError {
    /// Argument problem.
    Args(ArgError),
    /// I/O or parse problem with an input tensor.
    Input(String),
    /// The factorization itself failed (exhausted fault retries, numerical
    /// breakdown, checkpoint problem).
    Factorize(cstf_core::FactorizeError),
    /// `perf compare` found counter drift against the recorded baseline.
    /// Distinct so the binary can exit with a dedicated code (3) that CI
    /// distinguishes from argument (2) and runtime (1) failures.
    Drift(String),
    /// `memstat` found a configuration that does not fit its memory budget.
    /// Dedicated exit code (4) so CI fit gates can distinguish "does not
    /// fit" from runtime failures; the deficit has already been written to
    /// the report when this is returned.
    Unfit(String),
}

impl CliError {
    /// Process exit code for this error: `3` for perf-gate drift, `4` for a
    /// memstat fit failure, `1` for everything else reaching `dispatch`
    /// (argument errors caught before dispatch exit `2` in `main`).
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Drift(_) => 3,
            CliError::Unfit(_) => 4,
            _ => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Input(m) => write!(f, "{m}"),
            CliError::Factorize(e) => write!(f, "factorization failed: {e}"),
            CliError::Drift(m) => write!(f, "perf gate failed: {m}"),
            CliError::Unfit(m) => write!(f, "memory fit failed: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Input(e.to_string())
    }
}

impl From<cstf_core::FactorizeError> for CliError {
    fn from(e: cstf_core::FactorizeError) -> Self {
        CliError::Factorize(e)
    }
}

/// Dispatches a parsed command, writing human output to `out`.
pub fn dispatch(p: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    match p.command.as_str() {
        "factorize" => cmd_factorize(p, out),
        "analyze" => cmd_analyze(p, out),
        "perf" => cmd_perf(p, out),
        "report" => cmd_report(p, out),
        "critical-path" => cmd_critical_path(p, out),
        "memstat" => cmd_memstat(p, out),
        "info" => cmd_info(p, out),
        "datasets" => cmd_datasets(out),
        "devices" => cmd_devices(out),
        "placement" => cmd_placement(p, out),
        "help" => {
            let _ = write!(out, "{}", help_text());
            Ok(())
        }
        other => Err(ArgError::UnknownCommand(other.to_string()).into()),
    }
}

/// Usage text.
pub fn help_text() -> String {
    "cstf — constrained sparse tensor factorization (cSTF-rs)\n\
     \n\
     USAGE: cstf <command> [options]\n\
     \n\
     COMMANDS:\n\
       factorize   run a constrained CP factorization\n\
       analyze     per-kernel roofline attribution table from measured\n\
                   counters, checked against the paper's Eqs. 3-5\n\
       perf        record|compare a counter-exact performance baseline\n\
                   (compare exits 3 on drift; see --baseline-dir)\n\
       report      render the artifacts of a --telemetry run (DIR positional)\n\
       critical-path  causal op-DAG analysis of a --telemetry run: modeled\n\
                   critical path, per-device busy/stall/idle, link overlap\n\
                   and what-if projections (DIR positional)\n\
       memstat     byte-exact footprint + device-occupancy fit plan for a\n\
                   tensor (FILE positional or --input/--dataset)\n\
       info        inspect a tensor (shape, nnz, density, format storage)\n\
       datasets    list the Table 2 catalog\n\
       devices     list the simulated device specs (Table 1)\n\
       placement   recommend CPU/GPU placement for a workload\n\
       help        this text\n\
     \n\
     COMMON OPTIONS:\n\
       --input FILE         FROSTT .tns file\n\
       --dataset NAME       Table 2 analogue (e.g. NELL2); with --nnz N budget\n\
       --rank R             factorization rank        (default 16)\n\
       --iters N            outer iterations          (default 20)\n\
       --update METHOD      cuadmm|cuadmm-fused|admm|mu|hals (default cuadmm)\n\
       --constraint C       nonneg|none|simplex|l1:MU|ridge:MU|box:LO:HI (default nonneg)\n\
       --format F           coo|csf|csf1|hicoo|alto|blco (default blco)\n\
       --device D           cpu|a100|h100             (default h100)\n\
       --seed N             RNG seed                  (default 0)\n\
       --json               emit a JSON report instead of text\n\
       --trace FILE         write the Perfetto / chrome://tracing timeline\n\
                            (the same document as --telemetry's trace.json)\n\
       --telemetry DIR      write run.json, events.jsonl, ops.jsonl,\n\
                            trace.json and metrics.prom (+ devices.json\n\
                            with --gpus N) into DIR (then: cstf report DIR)\n\
     \n\
     MULTI-GPU (factorize):\n\
       --gpus N             shard across N simulated devices   (default 1)\n\
       --nvlink GBS         interconnect bandwidth in GB/s     (default 300)\n\
                            factors are bitwise-identical to --gpus 1\n\
     \n\
     OUT-OF-CORE (factorize, single device):\n\
       --tiles K            stream the tensor through the device in K\n\
                            nnz-balanced tiles per mode (default 1 = in-core);\n\
                            factors are bitwise-identical to --tiles 1; with\n\
                            --input the .tns is read tile-by-tile so the host\n\
                            never materialises the full tensor\n\
       --memory-budget B    pick the smallest K whose streaming run fits in\n\
                            B bytes (two tile buffers + resident factors);\n\
                            exits 4 if even tiling cannot fit\n\
     \n\
     PERF OBSERVATORY (analyze / perf):\n\
       analyze [factorize options] [--ai-tol F]\n\
                            run the config, print per-(phase,kernel,mode)\n\
                            launches/flops/bytes/AI/bound; with --update admm\n\
                            also the per-mode Eq. 3-5 deviation check\n\
                            (flagged beyond --ai-tol, default 0.05)\n\
       perf record [opts]   snapshot per-key counters into\n\
                            --baseline-dir (default results/baselines)\n\
       perf compare [opts]  re-run and diff against the recorded baseline;\n\
                            counters must match exactly — exit 3 on drift\n\
       --measured-band F    also fail compare when the aggregate\n\
                            measured/modeled time ratio grew by more than\n\
                            fraction F vs the baseline (default 0 = off)\n\
     \n\
     MEMORY OBSERVATORY (memstat):\n\
       memstat [FILE] [--format F --rank R --gpus N --device D --json]\n\
                            byte-exact heap footprint per format (all five\n\
                            when --format is omitted), occupancy fraction\n\
                            against the device's DRAM, and a fit verdict\n\
       --memory-budget B    check against B bytes instead of device DRAM;\n\
                            a config over budget exits 4 with the exact\n\
                            deficit and the smallest --tiles K that fits\n\
                            (suggested_tiles in --json); with --gpus N the\n\
                            fit is the max over every mode's sharding\n\
     \n\
     CRITICAL-PATH OBSERVATORY (critical-path):\n\
       critical-path DIR [--json]\n\
                            rebuild the causal op DAG from DIR/ops.jsonl\n\
                            (written by --telemetry) and print the modeled\n\
                            critical path, per-device busy/stall/idle\n\
                            attribution, per-link overlap efficiency and\n\
                            the three standard what-if projections; output\n\
                            is byte-deterministic across runs\n\
       --what-if LIST       also project a custom combination, e.g.\n\
                            nvlink=inf,pcie=0 (tokens: nvlink=inf pcie=0\n\
                            overlap=perfect)\n\
     \n\
     FAULT TOLERANCE (factorize):\n\
       --faults SPEC        inject seeded device faults, e.g.\n\
                            seed=1,launch=0.05,nan=0.02,transfer=0.1,oom=12,max=7\n\
                            group-scoped kinds (with --gpus N) shard-target\n\
                            named members and make the run elastic:\n\
                              device-loss:D@itN   member D dies at outer iter N\n\
                              device-loss:D@opN   ... at its Nth kernel launch\n\
                              straggler:DxF       member D runs F times slower\n\
                              link-degrade:A-BxF  edge A-B carries F x latency\n\
                            a lost member is retried, then retired: the run\n\
                            reshards to the survivors and finishes bitwise-\n\
                            identical to a clean run (ElasticityReport in the\n\
                            output; cstf_group_* metrics under --telemetry)\n\
       --checkpoint DIR     write checksummed snapshots into DIR\n\
       --checkpoint-every K snapshot every K outer iterations (default 5)\n\
       --resume             restart from the newest valid snapshot in\n\
                            --checkpoint DIR (bitwise-identical replay)\n"
        .to_string()
}

/// The error for option `--key` whose `value` is not a valid `expected`.
fn bad_value(key: &str, value: &str, expected: &'static str) -> CliError {
    CliError::Args(ArgError::BadValue { key: key.into(), value: value.into(), expected })
}

fn load_tensor(p: &ParsedArgs) -> Result<SparseTensor, CliError> {
    if let Some(path) = p.options.get("input") {
        cstf_tensor::read_tns_file(path)
            .map_err(|e| CliError::Input(format!("failed to read {path}: {e}")))
    } else if let Some(name) = p.options.get("dataset") {
        let entry = cstf_data::by_name(name)
            .ok_or_else(|| CliError::Input(format!("unknown dataset {name:?}")))?;
        let nnz = p.parse_or("nnz", 50_000usize, "integer")?;
        Ok(entry.generate_scaled(nnz, p.parse_or("seed", 0u64, "integer")?))
    } else {
        Err(ArgError::MissingOption("input (or --dataset)").into())
    }
}

fn parse_constraint(text: &str) -> Result<Constraint, CliError> {
    let mut parts = text.split(':');
    let head = parts.next().unwrap_or("");
    let bad = |expected: &'static str| bad_value("constraint", text, expected);
    match head {
        "nonneg" => Ok(Constraint::NonNegative),
        "simplex" => Ok(Constraint::Simplex),
        "none" => Ok(Constraint::Unconstrained),
        "l1" => {
            let mu = parts.next().ok_or_else(|| bad("l1:MU"))?;
            Ok(Constraint::SparseL1 { mu: mu.parse().map_err(|_| bad("l1:MU"))? })
        }
        "ridge" => {
            let mu = parts.next().ok_or_else(|| bad("ridge:MU"))?;
            Ok(Constraint::Ridge { mu: mu.parse().map_err(|_| bad("ridge:MU"))? })
        }
        "box" => {
            let lo = parts.next().ok_or_else(|| bad("box:LO:HI"))?;
            let hi = parts.next().ok_or_else(|| bad("box:LO:HI"))?;
            Ok(Constraint::Box {
                lo: lo.parse().map_err(|_| bad("box:LO:HI"))?,
                hi: hi.parse().map_err(|_| bad("box:LO:HI"))?,
            })
        }
        _ => Err(bad("nonneg|none|simplex|l1:MU|ridge:MU|box:LO:HI")),
    }
}

fn parse_device(text: &str) -> Result<DeviceSpec, CliError> {
    match text {
        "cpu" | "xeon" => Ok(DeviceSpec::icelake_xeon()),
        "a100" => Ok(DeviceSpec::a100()),
        "h100" => Ok(DeviceSpec::h100()),
        _ => Err(bad_value("device", text, "cpu|a100|h100")),
    }
}

fn parse_format(text: &str) -> Result<TensorFormat, CliError> {
    match text {
        "coo" => Ok(TensorFormat::Coo),
        "csf" => Ok(TensorFormat::Csf),
        "csf1" | "csfone" => Ok(TensorFormat::CsfOne),
        "hicoo" => Ok(TensorFormat::HiCoo),
        "alto" => Ok(TensorFormat::Alto),
        "blco" => Ok(TensorFormat::Blco),
        _ => Err(bad_value("format", text, "coo|csf|csf1|hicoo|alto|blco")),
    }
}

/// The run configuration shared by `factorize`, `analyze` and `perf`:
/// everything needed to execute the decomposition plus the names the perf
/// artifacts are keyed by.
struct RunSetup {
    cfg: AuntfConfig,
    spec: DeviceSpec,
    gpus: usize,
    nvlink_gbs: f64,
    rank: usize,
    update_name: String,
    format_name: String,
}

/// Builds the shared run configuration from the common factorize options.
fn build_setup(p: &ParsedArgs) -> Result<RunSetup, CliError> {
    let rank = p.parse_or("rank", 16usize, "integer")?;
    let iters = p.parse_or("iters", 20usize, "integer")?;
    let constraint = parse_constraint(p.get_or("constraint", "nonneg"))?;
    let update_name = p.get_or("update", "cuadmm").to_string();
    let update = match update_name.as_str() {
        "cuadmm" => UpdateMethod::Admm(AdmmConfig { constraint, ..AdmmConfig::cuadmm() }),
        "cuadmm-fused" => {
            UpdateMethod::Admm(AdmmConfig { constraint, ..AdmmConfig::cuadmm_fused() })
        }
        "admm" => UpdateMethod::Admm(AdmmConfig { constraint, ..AdmmConfig::generic() }),
        "mu" => UpdateMethod::Mu(MuConfig::default()),
        "hals" => UpdateMethod::Hals(HalsConfig::default()),
        other => return Err(bad_value("update", other, "cuadmm|cuadmm-fused|admm|mu|hals")),
    };
    let format_name = p.get_or("format", "blco").to_string();
    let cfg = AuntfConfig {
        rank,
        max_iters: iters,
        fit_tol: p.parse_or("fit-tol", 0.0f64, "number")?,
        update,
        seed: p.parse_or("seed", 0u64, "integer")?,
        format: parse_format(&format_name)?,
        tiles: p.parse_or("tiles", 1usize, "integer")?,
        ..Default::default()
    };
    let spec = parse_device(p.get_or("device", "h100"))?;
    let gpus = p.parse_or("gpus", 1usize, "integer")?.max(1);
    let nvlink_gbs = p.parse_or("nvlink", 300.0f64, "number")?;
    Ok(RunSetup { cfg, spec, gpus, nvlink_gbs, rank, update_name, format_name })
}

/// Dataset label for perf artifacts: the catalog name (lowercased), the
/// input file stem, or `"synthetic"`.
fn dataset_label(p: &ParsedArgs) -> String {
    if let Some(name) = p.options.get("dataset") {
        name.to_lowercase()
    } else if let Some(path) = p.options.get("input") {
        std::path::Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().to_lowercase())
            .unwrap_or_else(|| "synthetic".to_string())
    } else {
        "synthetic".to_string()
    }
}

fn cmd_factorize(p: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let setup = build_setup(p)?;
    let budget = parse_memory_budget(p)?;
    let trace_path = p.options.get("trace");
    let telemetry_dir = p.options.get("telemetry");
    let fault_plan = p.options.get("faults").map(|spec| FaultPlan::parse(spec)).transpose();
    let fault_plan = fault_plan.map_err(|e| CliError::Input(format!("bad --faults spec: {e}")))?;
    let ckpt_every = p.parse_or("checkpoint-every", 5usize, "integer")?;
    let ckpt_cfg = p.options.get("checkpoint").map(|dir| CheckpointConfig::new(dir, ckpt_every));
    let resume = p.has_flag("resume");
    if resume && ckpt_cfg.is_none() {
        return Err(ArgError::MissingOption("checkpoint (required by --resume)").into());
    }
    if setup.gpus > 1 && (budget.is_some() || setup.cfg.tiles > 1) {
        return Err(CliError::Input(
            "--memory-budget/--tiles stream tiles through a single device; \
             combine them with --gpus 1"
                .into(),
        ));
    }
    if telemetry_dir.is_some() {
        spans::clear();
        cstf_telemetry::set_spans_enabled(true);
    }

    // Build the driver. `--memory-budget` sizes the compiled format in
    // core and resolves the smallest admissible tile count; an explicit
    // `--tiles K > 1` with `--input` streams construction tile-by-tile
    // instead (the full COO is never materialized).
    let t0 = std::time::Instant::now();
    let mut cfg = setup.cfg.clone();
    let auntf = if let Some(b) = budget {
        let x = load_tensor(p)?;
        cfg.tiles = cfg.tiles.max(resolve_budget_tiles(&x, &setup.format_name, setup.rank, b)?);
        Auntf::new(x, cfg)
    } else if cfg.tiles > 1 && p.options.contains_key("input") {
        let path = p.options.get("input").unwrap();
        Auntf::from_tns_file_tiled(path, cfg)
            .map_err(|e| CliError::Input(format!("failed to stream {path}: {e}")))?
    } else {
        Auntf::new(load_tensor(p)?, cfg)
    };
    // Retain per-kernel records only when an artifact consumer needs them.
    let devices = build_devices(&setup, trace_path.is_some() || telemetry_dir.is_some());
    let ckpt = ckpt_cfg.as_ref().map(|cc| (cc, resume));
    let (result, captures) = solve(&auntf, &setup, devices, fault_plan.as_ref(), ckpt)?;
    let wall = t0.elapsed().as_secs_f64();
    let span_records = if telemetry_dir.is_some() {
        cstf_telemetry::set_spans_enabled(false);
        spans::drain()
    } else {
        Vec::new()
    };
    let run = RunReport::new(&setup, &auntf, result, captures, wall);

    if let Some(path) = trace_path {
        let file = std::fs::File::create(path)
            .map_err(|e| CliError::Input(format!("cannot create trace file {path}: {e}")))?;
        run.write_trace(&span_records, std::io::BufWriter::new(file))
            .map_err(|e| CliError::Input(format!("trace write failed: {e}")))?;
        eprintln!("[chrome trace written to {path}; open in chrome://tracing or Perfetto]");
    }
    if p.has_flag("json") {
        writeln!(out, "{}", run.json().pretty())?;
    } else {
        run.write_text(out)?;
    }
    if let Some(dir) = telemetry_dir {
        run.write_artifacts(dir, &span_records)?;
        eprintln!("[telemetry artifacts written to {dir}; render with `cstf report {dir}`]");
    }
    Ok(())
}

/// The `--gpus` devices of a run, built the same way by every command that
/// solves (`factorize`, `analyze`, `perf`). `record` retains per-kernel
/// records for the trace and the op DAG.
fn build_devices(setup: &RunSetup, record: bool) -> Vec<Device> {
    let make = if record { Device::with_records } else { Device::new };
    (0..setup.gpus).map(|_| make(setup.spec.clone())).collect()
}

/// Runs the factorization on `devices` and returns its output with one
/// capture per device (index = gpu). One device runs the single-device
/// driver, which keeps its own kernel names; a group runs the elastic
/// sharded driver over an NVLink-modeled interconnect. Fault injection
/// follows the placement: one device takes the whole plan, a group
/// distributes it (stochastic kinds on device 0, group-scoped kinds such
/// as `device-loss:D@itN`, `straggler:DxF` and `link-degrade:A-BxF` on
/// their named targets).
fn solve(
    auntf: &Auntf,
    setup: &RunSetup,
    mut devices: Vec<Device>,
    faults: Option<&FaultPlan>,
    ckpt: Option<(&CheckpointConfig, bool)>,
) -> Result<(FactorizeOutput, Vec<RunCapture>), CliError> {
    if devices.len() == 1 {
        let mut dev = devices.remove(0);
        if let Some(plan) = faults {
            dev = dev.with_fault_plan(plan.clone());
        }
        let result = match ckpt {
            Some((cc, resume)) => auntf.factorize_checkpointed(&dev, cc, resume)?,
            None => auntf.factorize(&dev)?,
        };
        return Ok((result, vec![dev.take_run()]));
    }
    let link = LinkModel { bandwidth_gbs: setup.nvlink_gbs, latency_us: 10.0 };
    let mut group = DeviceGroup::new(devices, link);
    if let Some(plan) = faults {
        group = group.with_faults(plan);
    }
    let result = match ckpt {
        Some((cc, resume)) => auntf.factorize_sharded_checkpointed(&group, cc, resume)?,
        None => auntf.factorize_sharded(&group)?,
    };
    Ok((result, group.devices().iter().map(Device::take_run).collect()))
}

/// One finished `factorize` run, read the same way for every group size.
/// Each figure has one formula: the members run concurrently, so the
/// slowest device sets the modeled time and its phase rows (which sum to
/// that time) are the run's; measured host time sums over devices. The
/// `--json` and text reports, `--trace`, `run.json` and the telemetry
/// directory all render from it; group-only output
/// (`elasticity`, `nvlink_gbs`, per-device rows, `devices.json`) appears
/// exactly when `gpus > 1`.
struct RunReport<'a> {
    setup: &'a RunSetup,
    shape: Vec<usize>,
    nnz: usize,
    result: FactorizeOutput,
    captures: Vec<RunCapture>,
    wall: f64,
    modeled: f64,
    measured: f64,
    transfer: f64,
    phases: Vec<PhaseSummary>,
    /// The causal op DAG of the retained records (empty without records).
    ops: Vec<cstf_device::OpSpec>,
    dag: cstf_device::DagAnalysis,
}

impl<'a> RunReport<'a> {
    fn new(
        setup: &'a RunSetup,
        auntf: &Auntf,
        result: FactorizeOutput,
        captures: Vec<RunCapture>,
        wall: f64,
    ) -> Self {
        // The first device of the largest modeled total (device 0 on ties).
        let by_total =
            |a: &&RunCapture, b: &&RunCapture| a.total_seconds().total_cmp(&b.total_seconds());
        let slowest = captures.iter().rev().max_by(by_total).expect("at least one device");
        let ops: Vec<cstf_device::OpSpec> = captures
            .iter()
            .enumerate()
            .flat_map(|(d, c)| cstf_device::ops_from_records(d, &c.records))
            .collect();
        RunReport {
            setup,
            shape: auntf.shape(),
            nnz: auntf.nnz(),
            modeled: slowest.total_seconds(),
            measured: captures.iter().map(RunCapture::total_measured_seconds).sum(),
            transfer: slowest.phase(Phase::Transfer).seconds,
            phases: cstf_device::phase_summaries(slowest),
            dag: cstf_device::analyze(&ops),
            ops,
            result,
            captures,
            wall,
        }
    }

    fn group(&self) -> bool {
        self.setup.gpus > 1
    }

    /// One row per device; `phase_row` renders each of its phases.
    fn device_rows(&self, phase_row: impl Fn(&PhaseSummary) -> json::Value) -> Vec<json::Value> {
        self.captures
            .iter()
            .enumerate()
            .map(|(gpu, c)| {
                let phases = cstf_device::phase_summaries(c);
                json!({
                    "gpu": gpu,
                    "modeled_seconds": c.total_seconds(),
                    "collective_bytes": c.phase(Phase::Transfer).bytes,
                    "phases": phases.iter().map(&phase_row).collect::<Vec<_>>(),
                })
            })
            .collect()
    }

    /// The stdout `--json` report.
    fn json(&self) -> json::Value {
        let (r, rec, t) = (&self.result, &self.result.recovery, &self.result.tiling);
        let mut report = json!({
            "recovery": {
                "clean": rec.is_clean(),
                "transient_retries": rec.transient_retries,
                "nan_events": rec.nan_events,
                "cholesky_retries": rec.cholesky_retries,
                "transfer_retries": rec.transfer_retries,
                "degraded_to_unfused": rec.degraded_to_unfused,
            },
            "shape": self.shape.clone(),
            "nnz": self.nnz,
            "rank": self.setup.rank,
            "iterations": r.iters,
            "converged": r.converged,
            "fits": r.fits,
            "final_fit": r.fits.last(),
            "lambda": r.model.lambda.clone(),
            "factor_checksum": factor_checksum(&r.model),
            "gpus": self.setup.gpus,
            "tiles": t.tiles,
            "tiling": {
                "tiles": t.tiles,
                "tile_transfers": t.tile_transfers,
                "streamed_bytes": t.streamed_bytes,
                "transfer_raw_seconds": t.transfer_raw_s,
                "transfer_exposed_seconds": t.transfer_exposed_s,
                "transfer_hidden_seconds": t.hidden_s(),
            },
            "wall_seconds": self.wall,
            "modeled_seconds": self.modeled,
            "measured_seconds": self.measured,
            "device": self.setup.spec.name,
            "phases": self.phases.iter().map(|ph| {
                json!({"phase": ph.phase, "seconds": ph.modeled_s, "measured_seconds": ph.measured_s, "launches": ph.launches})
            }).collect::<Vec<_>>(),
        });
        if self.group() {
            let ela = &r.elasticity;
            report["elasticity"] = json!({
                "clean": ela.is_clean(),
                "loss_detections": ela.loss_detections,
                "loss_retries": ela.loss_retries,
                "reshards": ela.reshards,
                "backoff_seconds": ela.backoff_s,
                "deadline_trips": ela.deadline_trips.clone(),
                "retired": ela.retired.iter().map(|r| {
                    json!({ "device": r.device, "iteration": r.iteration })
                }).collect::<Vec<_>>(),
            });
            report["nvlink_gbs"] = json!(self.setup.nvlink_gbs);
            report["devices"] = json::Value::Array(self.device_rows(
                |ph| json!({"phase": ph.phase, "seconds": ph.modeled_s, "launches": ph.launches}),
            ));
        }
        report
    }

    /// The human-readable report.
    fn write_text(&self, out: &mut dyn Write) -> std::io::Result<()> {
        let (r, rec, ela, spec) =
            (&self.result, &self.result.recovery, &self.result.elasticity, &self.setup.spec);
        writeln!(out, "tensor {:?}, nnz {}", self.shape, self.nnz)?;
        if self.group() {
            writeln!(
                out,
                "sharded across {} simulated {} devices (link {} GB/s)",
                self.setup.gpus, spec.name, self.setup.nvlink_gbs
            )?;
        }
        writeln!(
            out,
            "rank {}, {} iterations, converged: {}",
            self.setup.rank, r.iters, r.converged
        )?;
        if r.tiling.is_tiled() {
            writeln!(
                out,
                "out-of-core: {} tiles/mode, {} tile copies, {:.3e} B streamed \
                 ({:.3e}s hidden behind compute, {:.3e}s exposed)",
                r.tiling.tiles,
                r.tiling.tile_transfers,
                r.tiling.streamed_bytes,
                r.tiling.hidden_s(),
                r.tiling.transfer_exposed_s
            )?;
        }
        if !rec.is_clean() {
            writeln!(
                out,
                "recovery: {} launch retries, {} transfer retries, {} NaN events, \
                 {} Cholesky retries{}",
                rec.transient_retries,
                rec.transfer_retries,
                rec.nan_events,
                rec.cholesky_retries,
                if rec.degraded_to_unfused { ", degraded to unfused ADMM" } else { "" }
            )?;
        }
        if !ela.is_clean() {
            let retired: Vec<String> =
                ela.retired.iter().map(|r| format!("gpu{}@it{}", r.device, r.iteration)).collect();
            let retired = if retired.is_empty() { "none".to_string() } else { retired.join(", ") };
            writeln!(
                out,
                "elasticity: {} loss detections, {} retries ({:.3e}s backoff), \
                 {} reshards; retired: {retired}; deadline trips {:?}",
                ela.loss_detections,
                ela.loss_retries,
                ela.backoff_s,
                ela.reshards,
                ela.deadline_trips
            )?;
        }
        if let Some(fit) = r.fits.last() {
            writeln!(out, "final fit: {fit:.6}")?;
        }
        let placement = if self.group() { "group" } else { spec.name };
        writeln!(
            out,
            "wall time: {:.3}s, modeled {placement} time: {:.3e}s",
            self.wall, self.modeled
        )?;
        for ph in &self.phases {
            writeln!(
                out,
                "  {:<10} {:>10.3e}s ({} launches)",
                ph.phase, ph.modeled_s, ph.launches
            )?;
        }
        if self.group() {
            for (d, c) in self.captures.iter().enumerate() {
                let (mttkrp, coll) = (c.phase(Phase::Mttkrp), c.phase(Phase::Transfer));
                writeln!(
                    out,
                    "  gpu{d}: total {:>10.3e}s  MTTKRP {:>10.3e}s ({} launches)  collectives {:.2e} B",
                    c.total_seconds(),
                    mttkrp.seconds,
                    mttkrp.launches,
                    coll.bytes
                )?;
            }
        }
        Ok(())
    }

    /// The Perfetto timeline: one process per device, the critical path,
    /// then the host spans. `--trace FILE` and the telemetry `trace.json`
    /// are this one document.
    fn write_trace(&self, spans: &[SpanRecord], w: impl Write) -> std::io::Result<()> {
        let devices: Vec<DeviceTrace> = self.captures.iter().map(DeviceTrace::from).collect();
        cstf_device::write_trace(&devices, spans, &self.dag.chain_refs(), w)
    }

    /// The `run.json` summary.
    fn summary(&self) -> RunSummary {
        let (r, ela) = (&self.result, &self.result.elasticity);
        let gpus = self.setup.gpus;
        RunSummary {
            schema_version: cstf_telemetry::summary::SCHEMA_VERSION,
            system: if self.group() { format!("cstf-cli x{gpus}") } else { "cstf-cli".into() },
            device: self.setup.spec.name.to_string(),
            shape: self.shape.clone(),
            nnz: self.nnz as u64,
            rank: self.setup.rank as u32,
            iterations: r.iters as u32,
            converged: r.converged,
            fits: r.fits.clone(),
            final_fit: r.fits.last().copied(),
            wall_s: self.wall,
            modeled_s: self.modeled,
            measured_s: self.measured,
            transfer_s: self.transfer,
            phases: self.phases.clone(),
            heap: Some(HeapSummary::capture()),
            tiling: tiling_summary(&r.tiling),
            elasticity: self.group().then(|| cstf_telemetry::ElasticitySummary {
                gpus: gpus as u64,
                loss_detections: u64::from(ela.loss_detections),
                loss_retries: u64::from(ela.loss_retries),
                reshards: u64::from(ela.reshards),
                backoff_s: ela.backoff_s,
                retired: ela
                    .retired
                    .iter()
                    .map(|r| cstf_telemetry::RetiredDevice {
                        device: r.device as u64,
                        iteration: r.iteration as u64,
                    })
                    .collect(),
            }),
        }
    }

    /// Writes the telemetry directory (created if absent): `run.json`,
    /// `events.jsonl` (per-iteration convergence records), `ops.jsonl` (the
    /// op DAG), `trace.json` (as `--trace`), `metrics.prom` (Prometheus
    /// text exposition) and, for a group, `devices.json`.
    fn write_artifacts(&self, dir: &str, spans: &[SpanRecord]) -> Result<(), CliError> {
        let root = std::path::Path::new(dir);
        std::fs::create_dir_all(root)
            .map_err(|e| CliError::Input(format!("cannot create telemetry dir {dir}: {e}")))?;
        let artifact = |name: &str, body: &dyn Fn(&mut dyn Write) -> std::io::Result<()>| {
            std::fs::File::create(root.join(name))
                .and_then(|f| {
                    let mut w = std::io::BufWriter::new(f);
                    body(&mut w)?;
                    w.flush()
                })
                .map_err(|e| CliError::Input(format!("telemetry artifact {name}: {e}")))
        };
        artifact("run.json", &|w| write!(w, "{}", self.summary().to_json_pretty()))?;
        let iterations = self.result.convergence.records();
        artifact("events.jsonl", &|w| convergence::write_jsonl(&iterations, w))?;
        artifact("ops.jsonl", &|w| cstf_device::write_ops_jsonl(&self.ops, w))?;
        artifact("trace.json", &|w| self.write_trace(spans, w))?;
        let refs: Vec<&RunCapture> = self.captures.iter().collect();
        let registry = cstf_device::registry_from_captures(&refs, &self.setup.spec);
        add_tiling_metrics(&registry, &self.result.tiling);
        add_group_metrics(&registry, &self.result.elasticity);
        add_critical_path_metrics(&registry, &self.dag);
        artifact("metrics.prom", &|w| write!(w, "{}", registry.to_prometheus()))?;
        if self.group() {
            let rows = self.device_rows(|ph| {
                json!({
                    "phase": ph.phase,
                    "modeled_s": ph.modeled_s,
                    "launches": ph.launches,
                    "flops": ph.flops,
                    "bytes": ph.bytes,
                })
            });
            let doc = json!({ "gpus": self.setup.gpus, "devices": rows });
            artifact("devices.json", &|w| write!(w, "{}", doc.pretty()))?;
        }
        Ok(())
    }
}

/// FNV-1a over the factor and weight bit patterns — two runs produce the
/// same checksum iff their models are bitwise-identical. The CI smoke
/// check compares this field between `--gpus 1` and `--gpus 4` runs.
fn factor_checksum(model: &cstf_tensor::Ktensor) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    let feed = |h: &mut u64, bits: u64| {
        for b in bits.to_le_bytes() {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x100000001b3);
        }
    };
    for f in &model.factors {
        for &v in f.as_slice() {
            feed(&mut h, v.to_bits());
        }
    }
    for &v in &model.lambda {
        feed(&mut h, v.to_bits());
    }
    format!("{h:016x}")
}

/// Appends the `cstf_group_*` metric family — what the elastic sharded
/// driver observed and did — to a run's registry. Counters are emitted
/// only when nonzero so a healthy group's scrape stays identical to the
/// pre-elastic shape; per-device series carry a `device` label keyed by
/// the member's *original* group id (stable across reshards).
fn add_group_metrics(registry: &Registry, ela: &cstf_core::ElasticityReport) {
    if ela.loss_detections > 0 {
        registry.counter_add(
            "cstf_group_loss_detections_total",
            "Device-loss faults detected by the sharded driver",
            f64::from(ela.loss_detections),
        );
    }
    if ela.loss_retries > 0 {
        registry.counter_add(
            "cstf_group_loss_retries_total",
            "Outer-iteration replays before a device death was declared",
            f64::from(ela.loss_retries),
        );
        registry.gauge_set(
            "cstf_group_backoff_seconds",
            "Modeled backoff charged between loss retries",
            ela.backoff_s,
        );
    }
    if ela.reshards > 0 {
        registry.counter_add(
            "cstf_group_reshards_total",
            "Shrink-to-survivors reshards performed",
            f64::from(ela.reshards),
        );
    }
    for r in &ela.retired {
        let device = r.device.to_string();
        registry.counter_add_labeled(
            "cstf_group_devices_retired_total",
            "Group members declared dead and excised",
            &[("device", &device)],
            1.0,
        );
        registry.gauge_set_labeled(
            "cstf_group_retire_iteration",
            "Outer iteration at which the member was declared dead",
            &[("device", &device)],
            r.iteration as f64,
        );
    }
    for (device, &trips) in ela.deadline_trips.iter().enumerate() {
        if trips > 0 {
            let device = device.to_string();
            registry.counter_add_labeled(
                "cstf_group_deadline_trips_total",
                "Collective deadline-budget trips per group member",
                &[("device", &device)],
                trips as f64,
            );
        }
    }
}

/// Runs the configured decomposition purely for its counters and returns
/// one capture per device (index = gpu). Per-kernel aggregation is always
/// on in the profiler, so no record retention is needed.
///
/// With the `CSTF_PERF_INJECT_LAUNCH` test hook set, one synthetic launch
/// is added to device 0 before the solve — CI uses this to prove the perf
/// gate actually fails on counter drift.
fn run_counters(setup: &RunSetup, x: SparseTensor) -> Result<Vec<RunCapture>, CliError> {
    let devices = build_devices(setup, false);
    if std::env::var_os("CSTF_PERF_INJECT_LAUNCH").is_some() {
        inject_synthetic_launch(&devices[0]);
    }
    let auntf = Auntf::new(x, setup.cfg.clone());
    Ok(solve(&auntf, setup, devices, None, None)?.1)
}

/// One tiny extra launch — enough to flip exactly one `(phase, kernel,
/// mode)` key in the baseline diff.
fn inject_synthetic_launch(dev: &Device) {
    dev.launch(
        "perf_inject_launch",
        Phase::Other,
        KernelClass::Stream,
        KernelCost {
            flops: 1.0,
            bytes_read: 8.0,
            parallel_work: 1.0,
            serial_steps: 1.0,
            ..Default::default()
        },
        || (),
    );
}

/// Flattens per-device captures into a schema-versioned [`PerfBaseline`].
fn baseline_from_captures(
    setup: &RunSetup,
    dataset: &str,
    captures: &[RunCapture],
) -> PerfBaseline {
    let mut kernels = Vec::new();
    for (gpu, capture) in captures.iter().enumerate() {
        for (key, totals) in &capture.kernels {
            kernels.push(KernelBaseline::from_totals(gpu, key, totals));
        }
    }
    PerfBaseline {
        schema_version: cstf_device::baseline::BASELINE_SCHEMA_VERSION,
        dataset: dataset.to_string(),
        format: setup.format_name.clone(),
        rank: setup.rank as u64,
        update: setup.update_name.clone(),
        gpus: setup.gpus as u64,
        device: setup.spec.name.to_string(),
        kernels,
    }
}

/// `cstf analyze`: runs the config and renders the §3.3-style roofline
/// attribution table from exact measured counters — per `(phase, kernel,
/// mode)` key, per device in the sharded case — then, for the unfused ADMM
/// path, checks each mode's measured arithmetic intensity against the
/// closed-form Eq. 5 and flags deviations beyond `--ai-tol`.
fn cmd_analyze(p: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let setup = build_setup(p)?;
    let x = load_tensor(p)?;
    let shape = x.shape().to_vec();
    let ai_tol = p.parse_or("ai-tol", 0.05f64, "number")?;
    let captures = run_counters(&setup, x)?;

    // Per-mode Eq. 3–5 check: only meaningful on the unfused generic ADMM
    // path, whose kernel ledger is calibrated to the paper's constants.
    struct ModeAi {
        mode: usize,
        i_dim: usize,
        measured: f64,
        expected: f64,
        deviation: f64,
        flagged: bool,
        bound: &'static str,
    }
    let admm_ai: Vec<ModeAi> = if setup.update_name == "admm" {
        (0..shape.len())
            .map(|m| {
                let (mut flops, mut bytes) = (0.0, 0.0);
                for capture in &captures {
                    for ((phase, _, mode), t) in &capture.kernels {
                        if *phase == Phase::Update && *mode == Some(m as u32) {
                            flops += t.flops;
                            bytes += t.bytes;
                        }
                    }
                }
                let measured = if bytes > 0.0 { flops / bytes } else { f64::INFINITY };
                let expected = cstf_device::roofline::eq5_intensity(shape[m], setup.rank);
                let deviation = cstf_device::roofline::relative_deviation(measured, expected);
                ModeAi {
                    mode: m,
                    i_dim: shape[m],
                    measured,
                    expected,
                    deviation,
                    flagged: deviation > ai_tol,
                    bound: if measured < setup.spec.ridge_intensity() {
                        "bandwidth"
                    } else {
                        "compute"
                    },
                }
            })
            .collect()
    } else {
        Vec::new()
    };

    if p.has_flag("json") {
        let devices_json = captures
            .iter()
            .enumerate()
            .map(|(gpu, capture)| {
                let rows = cstf_device::attribute(&capture.kernels, &setup.spec);
                let kernels = rows
                    .iter()
                    .map(|r| {
                        json!({
                            "phase": r.key.0.label(),
                            "kernel": r.key.1,
                            "mode": r.key.2,
                            "launches": r.totals.launches,
                            "flops": r.totals.flops,
                            "bytes": r.totals.bytes,
                            "modeled_s": r.totals.modeled_s,
                            "intensity": if r.intensity.is_finite() { r.intensity } else { -1.0 },
                            "bound": r.bound.label(),
                        })
                    })
                    .collect::<Vec<_>>();
                json!({ "gpu": gpu, "kernels": kernels })
            })
            .collect::<Vec<_>>();
        let ai_json = admm_ai
            .iter()
            .map(|a| {
                json!({
                    "mode": a.mode,
                    "i_dim": a.i_dim,
                    "measured_ai": a.measured,
                    "eq5_ai": a.expected,
                    "deviation": a.deviation,
                    "flagged": a.flagged,
                    "bound": a.bound,
                })
            })
            .collect::<Vec<_>>();
        let report = json!({
            "device": setup.spec.name,
            "ridge_intensity": setup.spec.ridge_intensity(),
            "gpus": setup.gpus,
            "rank": setup.rank,
            "update": setup.update_name,
            "format": setup.format_name,
            "ai_tol": ai_tol,
            "devices": devices_json,
            "admm_ai": ai_json,
        });
        writeln!(out, "{}", report.pretty())?;
        return Ok(());
    }

    writeln!(
        out,
        "ROOFLINE ATTRIBUTION — {} (ridge {:.2} flop/byte), update {}, rank {}",
        setup.spec.name,
        setup.spec.ridge_intensity(),
        setup.update_name,
        setup.rank
    )?;
    for (gpu, capture) in captures.iter().enumerate() {
        if captures.len() > 1 {
            writeln!(out, "gpu{gpu}:")?;
        }
        writeln!(
            out,
            "  {:<10} {:<26} {:>4} {:>9} {:>11} {:>11} {:>7}  BOUND",
            "PHASE", "KERNEL", "MODE", "LAUNCHES", "FLOPS", "BYTES", "AI"
        )?;
        for r in cstf_device::attribute(&capture.kernels, &setup.spec) {
            let mode = r.key.2.map_or_else(|| "-".to_string(), |m| m.to_string());
            let ai = if r.intensity.is_finite() {
                format!("{:7.3}", r.intensity)
            } else {
                format!("{:>7}", "inf")
            };
            writeln!(
                out,
                "  {:<10} {:<26} {:>4} {:>9} {:>11.3e} {:>11.3e} {}  {}",
                r.key.0.label(),
                r.key.1,
                mode,
                r.totals.launches,
                r.totals.flops,
                r.totals.bytes,
                ai,
                r.bound.label()
            )?;
        }
    }
    if !admm_ai.is_empty() {
        writeln!(
            out,
            "EQ. 3-5 CHECK (unfused ADMM per-mode UPDATE intensity, tol {:.0}%):",
            ai_tol * 100.0
        )?;
        for a in &admm_ai {
            writeln!(
                out,
                "  mode {} (I={}): measured AI {:.3}, eq5 {:.3}, deviation {:.1}% [{}] — {}-bound",
                a.mode,
                a.i_dim,
                a.measured,
                a.expected,
                a.deviation * 100.0,
                if a.flagged { "DRIFT" } else { "ok" },
                a.bound
            )?;
        }
    }
    Ok(())
}

/// `cstf perf record|compare`: the counter-exact baseline store.
///
/// `record` snapshots the per-key aggregates of one configuration into
/// `--baseline-dir/<dataset>-<format>-r<rank>-<update>-g<gpus>.json`;
/// `compare` re-runs the same configuration and diffs against the stored
/// artifact — counters must match exactly, and any drift returns
/// [`CliError::Drift`] (process exit 3) naming the offending keys.
fn cmd_perf(p: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let action = p
        .positionals
        .first()
        .map(String::as_str)
        .ok_or(ArgError::MissingOption("record|compare (positional)"))?;
    if action != "record" && action != "compare" {
        return Err(bad_value("perf", action, "record|compare"));
    }
    let setup = build_setup(p)?;
    let dataset = dataset_label(p);
    let x = load_tensor(p)?;
    let captures = run_counters(&setup, x)?;
    let current = baseline_from_captures(&setup, &dataset, &captures);
    let dir = p.get_or("baseline-dir", "results/baselines");
    let path = std::path::Path::new(dir).join(format!("{}.json", current.file_stem()));

    if action == "record" {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Input(format!("cannot create baseline dir {dir}: {e}")))?;
        std::fs::write(&path, current.to_json_pretty())
            .map_err(|e| CliError::Input(format!("cannot write {}: {e}", path.display())))?;
        writeln!(
            out,
            "baseline recorded: {} ({} kernel keys)",
            path.display(),
            current.kernels.len()
        )?;
        return Ok(());
    }

    let text = std::fs::read_to_string(&path).map_err(|e| {
        CliError::Input(format!(
            "no baseline at {} (run `cstf perf record` first): {e}",
            path.display()
        ))
    })?;
    let baseline = PerfBaseline::from_json(&text).map_err(CliError::Input)?;
    let mut deltas = compare_baselines(&baseline, &current).map_err(CliError::Input)?;
    // Measured-band ratchet: fail when the aggregate measured/modeled
    // ratio grew past the band (0 disables; counters alone can't see a
    // kernel getting slower without doing more work).
    let band = p.parse_or("measured-band", 0.0f64, "number")?;
    if band > 0.0 {
        if let Some(d) = compare_measured_band(&baseline, &current, band) {
            deltas.push(d);
        }
    }

    if p.has_flag("json") {
        let rows = deltas
            .iter()
            .map(|d| {
                json!({
                    "key": d.key,
                    "field": d.field,
                    "baseline": d.baseline,
                    "current": d.current,
                    "kind": d.kind.label(),
                })
            })
            .collect::<Vec<_>>();
        let report = json!({
            "baseline": path.display().to_string(),
            "kernel_keys": current.kernels.len(),
            "drift": deltas.iter().filter(|d| d.is_drift()).count(),
            "deltas": rows,
        });
        writeln!(out, "{}", report.pretty())?;
    } else {
        for d in &deltas {
            writeln!(
                out,
                "  {:<12} {} {}: {} -> {}",
                d.kind.label(),
                d.key,
                d.field,
                d.baseline,
                d.current
            )?;
        }
    }
    let drifting: Vec<&cstf_device::BaselineDelta> =
        deltas.iter().filter(|d| d.is_drift()).collect();
    if drifting.is_empty() {
        if !p.has_flag("json") {
            writeln!(
                out,
                "perf gate OK: {} kernel keys match {} exactly",
                current.kernels.len(),
                path.display()
            )?;
        }
        Ok(())
    } else {
        let mut keys: Vec<&str> = drifting.iter().map(|d| d.key.as_str()).collect();
        keys.dedup();
        Err(CliError::Drift(format!(
            "{} counter delta(s) vs {} in: {}",
            drifting.len(),
            path.display(),
            keys.join(", ")
        )))
    }
}

/// Converts the tiled engine's report into its `run.json` mirror; `None`
/// for in-core runs so their artifacts keep the pre-tiling shape.
fn tiling_summary(t: &cstf_core::TilingReport) -> Option<cstf_telemetry::TilingSummary> {
    if !t.is_tiled() {
        return None;
    }
    Some(cstf_telemetry::TilingSummary {
        tiles: t.tiles as u64,
        tile_transfers: t.tile_transfers,
        streamed_bytes: t.streamed_bytes,
        transfer_raw_s: t.transfer_raw_s,
        transfer_exposed_s: t.transfer_exposed_s,
    })
}

/// Appends the `cstf_critical_path_*` / `cstf_device_*` gauge families —
/// the DAG-derived schedule attribution — to a run's registry.
fn add_critical_path_metrics(registry: &Registry, dag: &cstf_device::DagAnalysis) {
    registry.gauge_set(
        "cstf_critical_path_seconds",
        "Modeled critical path of the op DAG (iteration lower bound)",
        dag.critical_path_s,
    );
    registry.gauge_set(
        "cstf_critical_path_ops",
        "Ops on the modeled critical path",
        dag.critical_path.len() as f64,
    );
    registry.gauge_set(
        "cstf_critical_path_total_modeled_seconds",
        "Serial sum of all modeled op durations (the one-device bound)",
        dag.total_modeled_s,
    );
    for d in &dag.devices {
        let device = d.device.to_string();
        registry.gauge_set_labeled(
            "cstf_device_busy_seconds",
            "Modeled seconds the device spent executing ops",
            &[("device", &device)],
            d.busy_s,
        );
        registry.gauge_set_labeled(
            "cstf_device_stall_seconds",
            "Modeled seconds the device sat blocked at collective rendezvous",
            &[("device", &device)],
            d.stall_s,
        );
        registry.gauge_set_labeled(
            "cstf_device_idle_seconds",
            "Modeled seconds after the device's stream ended (trailing idle)",
            &[("device", &device)],
            d.idle_s,
        );
        registry.gauge_set_labeled(
            "cstf_device_idle_fraction",
            "Trailing idle as a fraction of the schedule span",
            &[("device", &device)],
            d.idle_fraction(dag.critical_path_s),
        );
    }
}

/// Appends the `cstf_tile_*` metric family — what the out-of-core tiled
/// driver streamed and how much of it the double-buffer hid. Emitted only
/// for actually-tiled runs (`K > 1`), so an in-core run's scrape stays
/// identical to the pre-tiling shape.
fn add_tiling_metrics(registry: &Registry, t: &cstf_core::TilingReport) {
    if !t.is_tiled() {
        return;
    }
    registry.gauge_set(
        "cstf_tile_count",
        "Out-of-core tile count K per mode sweep",
        t.tiles as f64,
    );
    registry.counter_add(
        "cstf_tile_transfers_total",
        "Host-to-device tile copies performed",
        t.tile_transfers as f64,
    );
    registry.counter_add(
        "cstf_tile_streamed_bytes_total",
        "Bytes streamed across all tile copies",
        t.streamed_bytes,
    );
    registry.counter_add(
        "cstf_tile_transfer_raw_seconds_total",
        "Un-overlapped modeled seconds of all tile copies",
        t.transfer_raw_s,
    );
    registry.counter_add(
        "cstf_tile_transfer_exposed_seconds_total",
        "Tile-copy seconds that extended the timeline after double-buffering",
        t.transfer_exposed_s,
    );
    registry.counter_add(
        "cstf_tile_transfer_hidden_seconds_total",
        "Tile-copy seconds hidden behind the previous tile's compute",
        t.hidden_s(),
    );
}

/// The artifact directory `report` and `critical-path` read: the DIR
/// positional, or `--dir`.
fn dir_arg(p: &ParsedArgs) -> Result<&str, CliError> {
    let dir = p.positionals.first().or_else(|| p.options.get("dir"));
    Ok(dir.ok_or(ArgError::MissingOption("dir (or a DIR positional)"))?)
}

/// `cstf report DIR`: renders the artifacts a `--telemetry` run wrote.
fn cmd_report(p: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let dir = dir_arg(p)?;
    let root = std::path::Path::new(dir);
    if !root.is_dir() {
        let what = if root.exists() { "not a directory" } else { "no such directory" };
        let hint = "expected the DIR of a --telemetry run";
        return Err(CliError::Input(format!("{dir}: {what} ({hint})")));
    }

    let run_text = std::fs::read_to_string(root.join("run.json"))
        .map_err(|e| CliError::Input(format!("{dir}/run.json: {e}")))?;
    let summary = RunSummary::from_json(&run_text).map_err(CliError::Input)?;

    // events.jsonl is optional — a run without convergence tracking still
    // gets the phase table.
    let iterations = match std::fs::read_to_string(root.join("events.jsonl")) {
        Ok(text) => convergence::read_jsonl(&text)
            .map_err(|e| CliError::Input(format!("{dir}/events.jsonl: {e}")))?,
        Err(_) => Vec::new(),
    };

    if p.has_flag("json") {
        writeln!(out, "{}", summary.report_json_line())?;
        return Ok(());
    }
    write!(out, "{}", summary.render_report(&iterations))?;

    // devices.json is written by sharded (--gpus N) runs only; when present,
    // append the per-device breakdown table.
    if let Ok(text) = std::fs::read_to_string(root.join("devices.json")) {
        let doc: json::Value =
            json::parse(&text).map_err(|e| CliError::Input(format!("{dir}/devices.json: {e}")))?;
        let devices = doc
            .get("devices")
            .and_then(|d| d.as_array())
            .ok_or_else(|| CliError::Input(format!("{dir}/devices.json: missing devices")))?;
        writeln!(out)?;
        writeln!(out, "PER-DEVICE BREAKDOWN")?;
        writeln!(
            out,
            "  {:<6} {:>13} {:>17} {:>13}  TOP PHASE",
            "GPU", "MODELED_S", "COLLECTIVE_BYTES", "LAUNCHES"
        )?;
        for d in devices {
            let gpu = d.get("gpu").and_then(|v| v.as_u64()).unwrap_or(0);
            let modeled = d.get("modeled_seconds").and_then(|v| v.as_f64()).unwrap_or(0.0);
            let coll = d.get("collective_bytes").and_then(|v| v.as_f64()).unwrap_or(0.0);
            let phases = d.get("phases").and_then(|v| v.as_array());
            let launches: u64 = phases
                .map(|ps| ps.iter().filter_map(|p| p.get("launches")?.as_u64()).sum())
                .unwrap_or(0);
            let top = phases
                .and_then(|ps| {
                    ps.iter()
                        .max_by(|a, b| {
                            let sa = a.get("modeled_s").and_then(|v| v.as_f64()).unwrap_or(0.0);
                            let sb = b.get("modeled_s").and_then(|v| v.as_f64()).unwrap_or(0.0);
                            sa.total_cmp(&sb)
                        })
                        .and_then(|p| Some(p.get("phase")?.as_str()?.to_string()))
                })
                .unwrap_or_else(|| "-".to_string());
            writeln!(
                out,
                "  gpu{:<3} {:>13.3e} {:>17.3e} {:>13}  {}",
                gpu, modeled, coll, launches, top
            )?;
        }
    }
    Ok(())
}

/// `cstf critical-path DIR`: rebuilds the causal op DAG from the
/// `ops.jsonl` artifact a `--telemetry` run wrote and reports where the
/// modeled time goes — critical path, per-device busy/stall/idle, link
/// overlap efficiency, and what-if projections. Every number derives from
/// the artifact alone (no wall clock), so output is byte-deterministic.
fn cmd_critical_path(p: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let dir = dir_arg(p)?;
    let root = std::path::Path::new(dir);
    let ops_text = std::fs::read_to_string(root.join("ops.jsonl")).map_err(|e| {
        CliError::Input(format!(
            "{dir}/ops.jsonl: {e} (the op DAG is written by `factorize --telemetry {dir}`; \
             re-run it with this version)"
        ))
    })?;
    let ops = cstf_device::read_ops_jsonl(&ops_text)
        .map_err(|e| CliError::Input(format!("{dir}/{e}")))?;
    let dag = cstf_device::analyze(&ops);

    let requested = match p.options.get("what-if") {
        Some(spec) => {
            let what_ifs = cstf_device::parse_what_ifs(spec)
                .map_err(|e| CliError::Input(format!("bad --what-if spec: {e}")))?;
            let projected = cstf_device::analyze(&cstf_device::apply_what_ifs(&ops, &what_ifs));
            Some((spec.clone(), projected.critical_path_s))
        }
        None => None,
    };
    let standard: Vec<(&'static str, f64)> = cstf_device::WhatIf::all()
        .into_iter()
        .map(|w| {
            let projected = cstf_device::analyze(&cstf_device::apply_what_ifs(&ops, &[w]));
            (w.label(), projected.critical_path_s)
        })
        .collect();
    let speedup =
        if dag.critical_path_s > 0.0 { dag.total_modeled_s / dag.critical_path_s } else { 1.0 };

    if p.has_flag("json") {
        let devices = dag
            .devices
            .iter()
            .map(|d| {
                json!({
                    "device": d.device,
                    "ops": d.ops,
                    "busy_s": d.busy_s,
                    "stall_s": d.stall_s,
                    "idle_s": d.idle_s,
                    "idle_fraction": d.idle_fraction(dag.critical_path_s),
                })
            })
            .collect::<Vec<_>>();
        let links = dag
            .links
            .iter()
            .map(|l| {
                json!({
                    "name": l.name.clone(),
                    "transfers": l.transfers,
                    "raw_s": l.raw_s,
                    "exposed_s": l.exposed_s,
                    "hidden_s": l.hidden_s(),
                    "overlap_efficiency": l.overlap_efficiency(),
                })
            })
            .collect::<Vec<_>>();
        let phases: std::collections::BTreeMap<String, f64> = dag
            .critical_path_phases()
            .into_iter()
            .map(|(ph, s)| (ph.label().to_lowercase(), s))
            .collect();
        let what_if: std::collections::BTreeMap<String, f64> =
            standard.iter().map(|&(label, s)| (label.to_string(), s)).collect();
        let mut doc = json!({
            "schema_version": 1,
            "ops": dag.ops.len(),
            "critical_path_s": dag.critical_path_s,
            "critical_path_ops": dag.critical_path.len(),
            "total_modeled_s": dag.total_modeled_s,
            "parallel_speedup": speedup,
            "devices": devices,
            "links": links,
            "critical_path_phases": phases,
            "what_if": what_if,
        });
        if let Some((spec, s)) = &requested {
            doc["requested_what_if"] = json!({ "spec": spec.clone(), "critical_path_s": s });
        }
        writeln!(out, "{doc}")?;
        return Ok(());
    }

    writeln!(
        out,
        "critical path: {:.6e}s across {} of {} ops \
         (serial total {:.6e}s, parallel speedup {:.2}x)",
        dag.critical_path_s,
        dag.critical_path.len(),
        dag.ops.len(),
        dag.total_modeled_s,
        speedup
    )?;
    let on_path = dag
        .critical_path_phases()
        .iter()
        .map(|(ph, s)| format!("{} {:.3e}s", ph.label(), s))
        .collect::<Vec<_>>()
        .join(", ");
    writeln!(out, "on the path:   {on_path}")?;
    let pct = |s: f64| {
        if dag.critical_path_s > 0.0 {
            100.0 * s / dag.critical_path_s
        } else {
            0.0
        }
    };
    writeln!(out, "per-device attribution (of the schedule span):")?;
    for d in &dag.devices {
        writeln!(
            out,
            "  gpu{:<3} busy {:>10.3e}s ({:>5.1}%)  stall {:>10.3e}s ({:>5.1}%)  \
             idle {:>10.3e}s ({:>5.1}%)",
            d.device,
            d.busy_s,
            pct(d.busy_s),
            d.stall_s,
            pct(d.stall_s),
            d.idle_s,
            pct(d.idle_s)
        )?;
    }
    if !dag.links.is_empty() {
        writeln!(out, "link overlap:")?;
        for l in &dag.links {
            writeln!(
                out,
                "  {:<18} {:>6} transfers  raw {:>10.3e}s  exposed {:>10.3e}s  {:>5.1}% hidden",
                l.name,
                l.transfers,
                l.raw_s,
                l.exposed_s,
                100.0 * l.overlap_efficiency()
            )?;
        }
    }
    writeln!(out, "what-if projections (modeled critical path):")?;
    writeln!(out, "  {:<18} {:>12.6e}s", "baseline", dag.critical_path_s)?;
    let delta = |s: f64| pct(s - dag.critical_path_s);
    for (label, s) in &standard {
        writeln!(out, "  {:<18} {:>12.6e}s  ({:+.1}%)", label, s, delta(*s))?;
    }
    if let Some((spec, s)) = &requested {
        writeln!(out, "  {:<18} {:>12.6e}s  ({:+.1}%)  [requested]", spec, s, delta(*s))?;
    }
    Ok(())
}

fn cmd_info(p: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let x = load_tensor(p)?;
    writeln!(out, "shape:    {:?}", x.shape())?;
    writeln!(out, "modes:    {}", x.nmodes())?;
    writeln!(out, "nnz:      {}", x.nnz())?;
    writeln!(out, "density:  {:.3e}", x.density())?;
    writeln!(out, "norm:     {:.6e}", x.norm_sq().sqrt())?;
    let coo = x.nnz() * (x.nmodes() * 4 + 8);
    let csf = cstf_formats::Csf::from_coo(&x, 0).storage_bytes();
    let hicoo = cstf_formats::HiCoo::from_coo(&x).storage_bytes();
    let alto = cstf_formats::Alto::from_coo(&x).storage_bytes();
    let blco = cstf_formats::Blco::from_coo(&x).storage_bytes();
    writeln!(
        out,
        "storage:  COO {coo} B, CSF {csf} B, HiCOO {hicoo} B, ALTO {alto} B, BLCO {blco} B"
    )?;
    Ok(())
}

/// Merges `inner`'s components into `fp` without a prefix — repeated names
/// accumulate, which is how the per-mode trees of an all-mode CSF fold
/// into one breakdown.
fn merge_components(fp: &mut Footprint, inner: &Footprint) {
    for (name, bytes) in inner.components() {
        fp.add(name, *bytes);
    }
}

/// Compiles `x` into the named format and returns its deep heap footprint
/// — the bytes the factorize engine would actually keep resident. "csf"
/// is the all-mode compilation (one tree per mode), matching the engine.
fn memstat_footprint(x: &SparseTensor, format: &str) -> Result<Footprint, CliError> {
    let mut fp = Footprint::new();
    match format {
        "coo" => merge_components(&mut fp, &x.footprint()),
        "csf" => {
            for m in 0..x.nmodes() {
                merge_components(&mut fp, &cstf_formats::Csf::from_coo(x, m).footprint());
            }
        }
        "csf1" | "csfone" => {
            merge_components(&mut fp, &cstf_formats::Csf::from_coo(x, 0).footprint())
        }
        "hicoo" => merge_components(&mut fp, &cstf_formats::HiCoo::from_coo(x).footprint()),
        "alto" => merge_components(&mut fp, &cstf_formats::Alto::from_coo(x).footprint()),
        "blco" => merge_components(&mut fp, &cstf_formats::Blco::from_coo(x).footprint()),
        _ => return Err(bad_value("format", format, "coo|csf|csf1|hicoo|alto|blco")),
    }
    Ok(fp)
}

/// Like [`memstat_footprint`], but for one *shard* of the mode-`mode`
/// sweep: the sharded driver compiles a single CSF tree rooted at the
/// shard's own mode (not the all-mode forest), so sizing a shard with the
/// all-mode recipe would overstate CSF by ~`nmodes`×.
fn memstat_shard_footprint(
    s: &SparseTensor,
    format: &str,
    mode: usize,
) -> Result<Footprint, CliError> {
    if format == "csf" {
        let mut fp = Footprint::new();
        merge_components(&mut fp, &cstf_formats::Csf::from_coo(s, mode).footprint());
        return Ok(fp);
    }
    memstat_footprint(s, format)
}

/// Parses `--memory-budget BYTES` (shared by `factorize` and `memstat`).
fn parse_memory_budget(p: &ParsedArgs) -> Result<Option<u64>, CliError> {
    match p.options.get("memory-budget") {
        None => Ok(None),
        Some(text) => text
            .parse::<u64>()
            .map(Some)
            .map_err(|_| bad_value("memory-budget", text, "bytes (integer)")),
    }
}

/// Byte-exact bytes of the rank-`rank` factor panels for `shape` (they
/// stay device-resident for the whole run; only the tensor is tiled).
fn factor_panel_bytes(shape: &[usize], rank: usize) -> u64 {
    shape.iter().map(|&d| MemoryFootprint::heap_bytes(&cstf_linalg::Mat::zeros(d, rank))).sum()
}

/// Resolves `--memory-budget` into the smallest admissible tile count for
/// this (tensor, format, rank): the compiled format streams in `K` tiles
/// (two resident under double-buffering) while the factor panels stay
/// device-resident — the residency model of
/// [`cstf_device::suggested_tile_count`].
fn resolve_budget_tiles(
    x: &SparseTensor,
    format_name: &str,
    rank: usize,
    budget: u64,
) -> Result<usize, CliError> {
    let tensor_bytes = memstat_footprint(x, format_name)?.total();
    let fixed_bytes = factor_panel_bytes(x.shape(), rank);
    match cstf_device::suggested_tile_count(tensor_bytes, fixed_bytes, budget) {
        Some(k) => Ok(k as usize),
        None => Err(CliError::Unfit(format!(
            "no tile count fits --memory-budget {budget}: the rank-{rank} factor panels \
             need {fixed_bytes} bytes resident, leaving no room for two tile buffers \
             of the {tensor_bytes}-byte {format_name} tensor"
        ))),
    }
}

/// One planned (format → fit) row of the memstat report.
struct MemstatRow {
    format: String,
    footprint: Footprint,
    per_device: Vec<u64>,
    binding_mode: usize,
    fit: cstf_device::DeviceFit,
    suggested_tiles: Option<u64>,
}

/// `cstf memstat`: byte-exact footprint accounting plus device-occupancy
/// fit planning (DESIGN.md §14). Required bytes per device = the compiled
/// format structure plus a full factor replica (every device holds all
/// factor matrices). With `--gpus N > 1` the sharded driver re-partitions
/// per mode sweep, so the binding figure is the *max over all modes* of the
/// heaviest nnz-balanced shard — sizing only the mode-0 sweep under-counts
/// skewed tensors. A config over its budget exits 4 after writing the exact
/// deficit plus the smallest tile count `K` whose out-of-core streaming run
/// (`--memory-budget`/`--tiles`, DESIGN.md §16) would fit.
fn cmd_memstat(p: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    // The FILE positional is shorthand for --input, mirroring `report DIR`.
    let x = if let Some(path) = p.positionals.first() {
        let file = std::path::Path::new(path);
        if !file.exists() {
            return Err(CliError::Input(format!("{path}: no such file (expected a .tns tensor)")));
        }
        if file.is_dir() {
            return Err(CliError::Input(format!("{path}: is a directory, expected a .tns file")));
        }
        cstf_tensor::read_tns_file(path)
            .map_err(|e| CliError::Input(format!("failed to read {path}: {e}")))?
    } else {
        load_tensor(p)?
    };
    let rank = p.parse_or("rank", 16usize, "integer")?;
    let gpus = p.parse_or("gpus", 1usize, "integer")?.max(1);
    let spec = parse_device(p.get_or("device", "h100"))?;
    let budget = parse_memory_budget(p)?;
    let formats: Vec<String> = match p.options.get("format") {
        Some(f) => vec![f.clone()],
        None => ["coo", "csf", "hicoo", "alto", "blco"].iter().map(|s| s.to_string()).collect(),
    };

    // Every device holds a full factor replica (the sharded driver
    // all-gathers rows back into each device's copy). Mat::zeros allocates
    // exactly rows*cols doubles, so this is byte-exact, not an estimate.
    let factor_bytes = factor_panel_bytes(x.shape(), rank);

    // The sharded driver re-shards per mode sweep (mode m's MTTKRP runs on
    // mode-m nnz-balanced shards), so plan against EVERY mode's sharding and
    // bind on the worst one — a mode-1-skewed tensor can have a mode-1 shard
    // far heavier than any mode-0 shard.
    let mode_shards: Vec<Vec<SparseTensor>> = if gpus > 1 {
        (0..x.nmodes())
            .map(|m| {
                cstf_formats::nnz_balanced_ranges(&x, m, gpus)
                    .iter()
                    .map(|r| cstf_formats::extract_mode_rows(&x, m, r))
                    .collect()
            })
            .collect()
    } else {
        Vec::new()
    };

    let mut rows: Vec<MemstatRow> = Vec::new();
    for name in &formats {
        let (footprint, per_device, binding_mode) = if gpus > 1 {
            let mut best: Option<(usize, Vec<Footprint>, Vec<u64>, u64)> = None;
            for (m, shards) in mode_shards.iter().enumerate() {
                let fps: Vec<Footprint> = shards
                    .iter()
                    .map(|s| memstat_shard_footprint(s, name, m))
                    .collect::<Result<_, _>>()?;
                let per: Vec<u64> = fps.iter().map(Footprint::total).collect();
                let heaviest = per.iter().copied().max().unwrap_or(0);
                if best.as_ref().is_none_or(|(_, _, _, h)| heaviest > *h) {
                    best = Some((m, fps, per, heaviest));
                }
            }
            let (m, fps, per, _) = best.expect("nmodes >= 1");
            let idx = per.iter().enumerate().max_by_key(|(_, b)| **b).map(|(i, _)| i).unwrap_or(0);
            (fps.into_iter().nth(idx).unwrap(), per, m)
        } else {
            let fp = memstat_footprint(&x, name)?;
            let total = fp.total();
            (fp, vec![total], 0)
        };
        let tensor_bytes = per_device.iter().copied().max().unwrap_or(0);
        let fit = cstf_device::plan_device_fit(tensor_bytes + factor_bytes, &spec, budget);
        // The out-of-core remedy is single-device, so only offer a tile
        // count when the plan is too (the sharded driver rejects --tiles).
        let suggested_tiles = if gpus == 1 {
            cstf_device::suggested_tile_count(tensor_bytes, factor_bytes, fit.capacity_bytes)
        } else {
            None
        };
        rows.push(MemstatRow {
            format: name.clone(),
            footprint,
            per_device,
            binding_mode,
            fit,
            suggested_tiles,
        });
    }
    let fits_all = rows.iter().all(|r| r.fit.fits);
    let capacity = rows.first().map_or(0, |r| r.fit.capacity_bytes);

    if p.has_flag("json") {
        let occupancy_json = |o: f64| {
            if o.is_finite() {
                format!("{o:.6}")
            } else {
                "null".to_string()
            }
        };
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"shape\": {:?},\n", x.shape()));
        s.push_str(&format!("  \"nnz\": {},\n", x.nnz()));
        s.push_str(&format!("  \"rank\": {rank},\n"));
        s.push_str(&format!("  \"gpus\": {gpus},\n"));
        s.push_str(&format!("  \"device\": {:?},\n", spec.name));
        s.push_str(&format!("  \"capacity_bytes\": {capacity},\n"));
        s.push_str(&format!("  \"factor_bytes\": {factor_bytes},\n"));
        s.push_str("  \"formats\": [\n");
        for (i, r) in rows.iter().enumerate() {
            let tensor_bytes = r.per_device.iter().copied().max().unwrap_or(0);
            s.push_str("    {\n");
            s.push_str(&format!("      \"format\": {:?},\n", r.format));
            s.push_str(&format!("      \"tensor_bytes\": {tensor_bytes},\n"));
            let per: Vec<String> = r.per_device.iter().map(u64::to_string).collect();
            s.push_str(&format!("      \"per_device_tensor_bytes\": [{}],\n", per.join(", ")));
            s.push_str(&format!("      \"required_bytes\": {},\n", r.fit.required_bytes));
            s.push_str(&format!("      \"occupancy\": {},\n", occupancy_json(r.fit.occupancy)));
            s.push_str(&format!("      \"fits\": {},\n", r.fit.fits));
            s.push_str(&format!("      \"deficit_bytes\": {},\n", r.fit.deficit_bytes));
            s.push_str(&format!("      \"headroom_bytes\": {},\n", r.fit.headroom_bytes));
            s.push_str(&format!("      \"binding_mode\": {},\n", r.binding_mode));
            let tiles_json = r.suggested_tiles.map_or("null".to_string(), |k| k.to_string());
            s.push_str(&format!("      \"suggested_tiles\": {tiles_json},\n"));
            let comps: Vec<String> =
                r.footprint.as_map().iter().map(|(n, b)| format!("{n:?}: {b}")).collect();
            s.push_str(&format!("      \"components\": {{{}}}\n", comps.join(", ")));
            s.push_str(if i + 1 < rows.len() { "    },\n" } else { "    }\n" });
        }
        s.push_str("  ],\n");
        s.push_str(&format!("  \"fits_all\": {fits_all}\n"));
        s.push_str("}\n");
        write!(out, "{s}")?;
    } else {
        writeln!(out, "tensor:  shape {:?}, nnz {}", x.shape(), x.nnz())?;
        let budget_note = if budget.is_some() { " (--memory-budget)" } else { " DRAM" };
        writeln!(
            out,
            "plan:    rank {rank}, gpus {gpus}, device {}, budget {capacity} B{budget_note}",
            spec.name
        )?;
        writeln!(out, "factors: {factor_bytes} B replicated per device")?;
        writeln!(
            out,
            "  {:<7} {:>14} {:>14} {:>11}  FIT",
            "FORMAT", "TENSOR_B", "REQUIRED_B", "OCCUPANCY"
        )?;
        for r in &rows {
            let tensor_bytes = r.per_device.iter().copied().max().unwrap_or(0);
            writeln!(
                out,
                "  {:<7} {:>14} {:>14} {:>11.3e}  {}",
                r.format,
                tensor_bytes,
                r.fit.required_bytes,
                r.fit.occupancy,
                if r.fit.fits {
                    "yes".to_string()
                } else {
                    format!("NO (deficit {} B)", r.fit.deficit_bytes)
                }
            )?;
            for (name, bytes) in r.footprint.as_map() {
                writeln!(out, "    {name:<24} {bytes:>12} B")?;
            }
            if gpus > 1 {
                writeln!(
                    out,
                    "    per-device tensor bytes (binding mode {}): {:?}",
                    r.binding_mode, r.per_device
                )?;
            }
            if !r.fit.fits {
                match r.suggested_tiles {
                    Some(k) => writeln!(
                        out,
                        "    remedy: --memory-budget {} --tiles {k} streams {} in {k} tiles",
                        r.fit.capacity_bytes, r.format
                    )?,
                    None if gpus == 1 => writeln!(
                        out,
                        "    remedy: none — the factor panels alone exceed the budget"
                    )?,
                    None => {}
                }
            }
        }
    }

    if !fits_all {
        let worst =
            rows.iter().filter(|r| !r.fit.fits).max_by_key(|r| r.fit.deficit_bytes).unwrap();
        let remedy = match worst.suggested_tiles {
            Some(k) => format!(
                "; smallest fitting tile count is {k} — rerun with \
                 `cstf factorize --memory-budget {} --tiles {k} --format {}`",
                worst.fit.capacity_bytes, worst.format
            ),
            None if gpus == 1 => {
                "; no tile count fits — the factor panels alone exceed the budget".to_string()
            }
            None => String::new(),
        };
        return Err(CliError::Unfit(format!(
            "{} needs {} bytes against a budget of {} bytes (deficit {} bytes to stream){remedy}",
            worst.format,
            worst.fit.required_bytes,
            worst.fit.capacity_bytes,
            worst.fit.deficit_bytes
        )));
    }
    Ok(())
}

fn cmd_datasets(out: &mut dyn Write) -> Result<(), CliError> {
    for e in cstf_data::table2() {
        writeln!(
            out,
            "{:<11} dims {:?}, nnz {}, density {:.1e}",
            e.name,
            e.paper_dims,
            e.paper_nnz,
            e.paper_density()
        )?;
    }
    Ok(())
}

fn cmd_devices(out: &mut dyn Write) -> Result<(), CliError> {
    for d in DeviceSpec::table1() {
        writeln!(
            out,
            "{:<28} {:<16} {:>8.0} GFLOP/s {:>7.0} GB/s  LLC {:>6.1} MiB",
            d.name, d.uarch, d.peak_gflops_f64, d.mem_bw_gbs, d.llc_mib
        )?;
    }
    Ok(())
}

fn cmd_placement(p: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let x = load_tensor(p)?;
    let w = WorkloadShape {
        shape: x.shape().to_vec(),
        nnz: x.nnz(),
        rank: p.parse_or("rank", 16usize, "integer")?,
        inner_iters: 10,
        format: parse_format(p.get_or("format", "blco"))?,
    };
    let gpu = parse_device(p.get_or("device", "h100"))?;
    let plan = recommend_placement(&w, &DeviceSpec::icelake_xeon(), &gpu);
    let place = |pl: Placement| match pl {
        Placement::Cpu => "CPU",
        Placement::Gpu => "GPU",
    };
    writeln!(
        out,
        "recommended: MTTKRP on {}, UPDATE pipeline on {} (predicted {:.3e}s/iter; all-CPU {:.3e}s, all-GPU {:.3e}s)",
        place(plan.mttkrp),
        place(plan.update),
        plan.predicted_s,
        plan.all_cpu_s,
        plan.all_gpu_s
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the `perf` command tests: one of them sets the
    /// process-wide `CSTF_PERF_INJECT_LAUNCH` hook that the others read.
    fn perf_env() -> std::sync::MutexGuard<'static, ()> {
        static PERF_ENV: std::sync::Mutex<()> = std::sync::Mutex::new(());
        PERF_ENV.lock().unwrap_or_else(|e| e.into_inner())
    }
    use crate::args::parse;

    fn run(args: &[&str]) -> Result<String, CliError> {
        let parsed = parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())?;
        let mut buf = Vec::new();
        dispatch(&parsed, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    #[test]
    fn datasets_lists_all_ten() {
        let out = run(&["datasets"]).unwrap();
        for name in ["NIPS", "Amazon", "Flickr"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
        assert_eq!(out.lines().count(), 10);
    }

    #[test]
    fn devices_lists_table1() {
        let out = run(&["devices"]).unwrap();
        assert!(out.contains("A100") && out.contains("H100") && out.contains("Xeon"));
    }

    #[test]
    fn factorize_catalog_dataset_text_report() {
        let out = run(&[
            "factorize",
            "--dataset",
            "Chicago",
            "--nnz",
            "4000",
            "--rank",
            "4",
            "--iters",
            "3",
        ])
        .unwrap();
        assert!(out.contains("final fit:"), "{out}");
        assert!(out.contains("MTTKRP"));
        assert!(out.contains("UPDATE"));
    }

    #[test]
    fn factorize_json_report_is_valid_json() {
        let out = run(&[
            "factorize",
            "--dataset",
            "NIPS",
            "--nnz",
            "3000",
            "--rank",
            "3",
            "--iters",
            "2",
            "--json",
        ])
        .unwrap();
        let v: json::Value = json::parse(&out).expect("valid JSON");
        assert_eq!(v["rank"], 3);
        assert_eq!(v["iterations"], 2);
        assert!(v["final_fit"].as_f64().unwrap().is_finite());
    }

    #[test]
    fn info_reports_storage_for_all_formats() {
        let out = run(&["info", "--dataset", "Uber", "--nnz", "3000"]).unwrap();
        assert!(out.contains("COO") && out.contains("CSF") && out.contains("BLCO"));
        assert!(out.contains("density:"));
    }

    /// Like `run` but keeps whatever was written to `out` even when the
    /// command errors — memstat writes its report (with the exact deficit)
    /// before returning the unfit error.
    fn run_capture(args: &[&str]) -> (Result<(), CliError>, String) {
        let parsed = parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap();
        let mut buf = Vec::new();
        let r = dispatch(&parsed, &mut buf);
        (r, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn memstat_json_covers_all_five_formats() {
        let out = run(&["memstat", "--dataset", "Uber", "--nnz", "3000", "--json"]).unwrap();
        let v: json::Value = json::parse(&out).expect("valid JSON");
        let formats = v["formats"].as_array().unwrap();
        assert_eq!(formats.len(), 5, "{out}");
        assert_eq!(v["capacity_bytes"].as_u64().unwrap(), 80_000_000_000, "default h100");
        assert!(v["fits_all"].as_bool().unwrap());
        let factor_bytes = v["factor_bytes"].as_u64().unwrap();
        assert!(factor_bytes > 0);
        for f in formats {
            let tensor = f["tensor_bytes"].as_u64().unwrap();
            let required = f["required_bytes"].as_u64().unwrap();
            assert!(tensor > 0, "{out}");
            assert_eq!(required, tensor + factor_bytes, "required = tensor + factor replica");
            assert!(f["fits"].as_bool().unwrap());
            assert_eq!(f["deficit_bytes"].as_u64().unwrap(), 0);
        }
    }

    #[test]
    fn memstat_is_byte_deterministic_across_runs() {
        let args = ["memstat", "--dataset", "NIPS", "--nnz", "2500", "--json"];
        let a = run(&args).unwrap();
        let b = run(&args).unwrap();
        assert_eq!(a, b, "two runs must produce byte-identical reports");
    }

    #[test]
    fn memstat_tiny_budget_exits_unfit_with_exact_deficit() {
        let (res, out) = run_capture(&[
            "memstat",
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--format",
            "coo",
            "--memory-budget",
            "1024",
            "--json",
        ]);
        let err = res.unwrap_err();
        assert!(matches!(err, CliError::Unfit(_)), "{err}");
        assert_eq!(err.exit_code(), 4);
        let v: json::Value = json::parse(&out).expect("report written before error");
        assert_eq!(v["fits_all"].as_bool(), Some(false));
        let f = &v["formats"].as_array().unwrap()[0];
        let required = f["required_bytes"].as_u64().unwrap();
        assert!(required > 1024);
        assert_eq!(f["deficit_bytes"].as_u64().unwrap(), required - 1024, "exact deficit");
        assert_eq!(f["fits"].as_bool(), Some(false));
    }

    #[test]
    fn memstat_shards_report_per_device_bytes() {
        let out = run(&[
            "memstat",
            "--dataset",
            "NIPS",
            "--nnz",
            "2000",
            "--format",
            "blco",
            "--gpus",
            "2",
            "--json",
        ])
        .unwrap();
        let v: json::Value = json::parse(&out).unwrap();
        let f = &v["formats"].as_array().unwrap()[0];
        let per = f["per_device_tensor_bytes"].as_array().unwrap();
        assert_eq!(per.len(), 2);
        let max = per.iter().map(|b| b.as_u64().unwrap()).max().unwrap();
        assert_eq!(f["tensor_bytes"].as_u64(), Some(max), "fit plans the heaviest device");
    }

    #[test]
    fn memstat_gpus_binds_on_the_heaviest_mode_not_mode_zero() {
        // Deliberately mode-1-skewed: mode-0 indices spread evenly, but 90%
        // of nonzeros share mode-1 index 0. Contiguous nnz-balancing cannot
        // split a single index, so the heaviest mode-1 shard carries ~90% of
        // the tensor while mode-0 shards stay balanced. The old planner
        // sized only the mode-0 sweep and under-reported this.
        let mut idx = vec![Vec::new(), Vec::new(), Vec::new()];
        let mut vals = Vec::new();
        for t in 0..200u32 {
            idx[0].push(t % 64);
            idx[1].push(if t < 180 { 0 } else { 1 + t % 3 });
            idx[2].push(t % 8);
            vals.push(1.0 + f64::from(t));
        }
        let x = SparseTensor::new(vec![64, 4, 8], idx, vals);
        let dir = std::env::temp_dir().join("cstf_cli_memstat_skew");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("skew.tns");
        cstf_tensor::write_tns_file(&x, &path).unwrap();
        let out =
            run(&["memstat", path.to_str().unwrap(), "--format", "coo", "--gpus", "2", "--json"])
                .unwrap();
        let v: json::Value = json::parse(&out).unwrap();
        let f = &v["formats"].as_array().unwrap()[0];
        assert_eq!(f["binding_mode"].as_u64(), Some(1), "{out}");
        let per: Vec<u64> = f["per_device_tensor_bytes"]
            .as_array()
            .unwrap()
            .iter()
            .map(|b| b.as_u64().unwrap())
            .collect();
        let heaviest = *per.iter().max().unwrap();
        assert_eq!(f["tensor_bytes"].as_u64(), Some(heaviest));
        // The binding mode-1 shard holds ~90% of the nnz while its sibling
        // gets ~10%; a balanced mode-0 split would make the two devices
        // near-equal. COO bytes scale with nnz, so the reported split must
        // be lopsided, not balanced.
        let lightest = *per.iter().min().unwrap();
        assert!(
            heaviest > 3 * lightest,
            "binding shard must reflect the mode-1 skew: {per:?}\n{out}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memstat_over_budget_suggests_smallest_fitting_tile_count() {
        let probe = run(&[
            "memstat",
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "4",
            "--format",
            "coo",
            "--json",
        ])
        .unwrap();
        let pv: json::Value = json::parse(&probe).unwrap();
        let f0 = &pv["formats"].as_array().unwrap()[0];
        let tensor = f0["tensor_bytes"].as_u64().unwrap();
        let factors = pv["factor_bytes"].as_u64().unwrap();
        // One byte short of in-core: the remedy must be tiling, and the
        // suggested K must satisfy the double-buffered residency bound.
        let budget = (tensor + factors - 1).to_string();
        let (res, out) = run_capture(&[
            "memstat",
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "4",
            "--format",
            "coo",
            "--memory-budget",
            &budget,
            "--json",
        ]);
        let err = res.unwrap_err();
        assert!(matches!(err, CliError::Unfit(_)), "{err}");
        let msg = err.to_string();
        let v: json::Value = json::parse(&out).unwrap();
        let f = &v["formats"].as_array().unwrap()[0];
        let k = f["suggested_tiles"].as_u64().expect("a tile count must be suggested");
        assert!(k >= 2, "one byte short of in-core needs real tiling: {out}");
        let b: u64 = budget.parse().unwrap();
        assert!(2 * tensor.div_ceil(k) + factors <= b, "suggested K must actually fit");
        assert!(
            2 * tensor.div_ceil(k - 1) + factors > b || k - 1 == 1,
            "suggested K must be minimal"
        );
        assert!(msg.contains(&format!("--tiles {k}")), "remedy missing from error: {msg}");
        assert!(msg.contains("--memory-budget"), "{msg}");
        // Text mode carries the same remedy line.
        let (tres, tout) = run_capture(&[
            "memstat",
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "4",
            "--format",
            "coo",
            "--memory-budget",
            &budget,
        ]);
        assert!(tres.is_err());
        assert!(tout.contains("remedy:") && tout.contains("--tiles"), "{tout}");
    }

    #[test]
    fn memstat_budget_below_factor_panels_suggests_nothing() {
        let (res, out) = run_capture(&[
            "memstat",
            "--dataset",
            "Uber",
            "--nnz",
            "1000",
            "--format",
            "coo",
            "--memory-budget",
            "64",
            "--json",
        ]);
        assert!(res.is_err());
        let v: json::Value = json::parse(&out).unwrap();
        let f = &v["formats"].as_array().unwrap()[0];
        assert!(f["suggested_tiles"].is_null(), "panels alone exceed 64 B: {out}");
    }

    #[test]
    fn tiles_flag_produces_bitwise_identical_factors() {
        let base = [
            "factorize",
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "3",
            "--iters",
            "2",
            "--json",
        ];
        let mut one: Vec<&str> = base.to_vec();
        one.extend(["--tiles", "1"]);
        let mut three: Vec<&str> = base.to_vec();
        three.extend(["--tiles", "3"]);
        let v1: json::Value = json::parse(&run(&one).unwrap()).unwrap();
        let v3: json::Value = json::parse(&run(&three).unwrap()).unwrap();
        assert_eq!(v1["fits"], v3["fits"], "fit history must match bitwise");
        assert_eq!(
            v1["factor_checksum"], v3["factor_checksum"],
            "factor bits must be identical across tile counts"
        );
        assert_eq!(v3["tiles"], 3);
        assert_eq!(v1["tiles"], 1);
        assert!(v3["tiling"]["tile_transfers"].as_u64().unwrap() > 0);
        assert!(v3["tiling"]["streamed_bytes"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn memory_budget_forces_tiling_and_matches_in_core() {
        // Size the blco tensor + rank-3 panels, then offer one byte less
        // than in-core residency: factorize must pick K >= 2 on its own and
        // still reproduce the unbudgeted factors bit-for-bit.
        let probe = run(&[
            "memstat",
            "--dataset",
            "Uber",
            "--nnz",
            "1500",
            "--rank",
            "3",
            "--format",
            "blco",
            "--json",
        ])
        .unwrap();
        let pv: json::Value = json::parse(&probe).unwrap();
        let required = pv["formats"][0]["required_bytes"].as_u64().unwrap();
        let budget = (required - 1).to_string();
        let base = [
            "factorize",
            "--dataset",
            "Uber",
            "--nnz",
            "1500",
            "--rank",
            "3",
            "--iters",
            "2",
            "--json",
        ];
        let mut budgeted: Vec<&str> = base.to_vec();
        budgeted.extend(["--memory-budget", &budget]);
        let vb: json::Value = json::parse(&run(&budgeted).unwrap()).unwrap();
        let v0: json::Value = json::parse(&run(&base).unwrap()).unwrap();
        assert!(vb["tiles"].as_u64().unwrap() >= 2, "budget must force tiling: {vb}");
        assert_eq!(v0["factor_checksum"], vb["factor_checksum"]);
        assert_eq!(v0["fits"], vb["fits"]);
    }

    #[test]
    fn tiles_with_gpus_is_rejected() {
        let err = run(&[
            "factorize",
            "--dataset",
            "Uber",
            "--nnz",
            "1000",
            "--iters",
            "1",
            "--gpus",
            "2",
            "--tiles",
            "2",
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Input(_)), "{err}");
        assert!(err.to_string().contains("--gpus 1"), "{err}");
    }

    #[test]
    fn tiled_factorize_streams_tns_input() {
        // --tiles with --input goes through the streaming reader; the
        // result must match the in-core run on the same file bit-for-bit.
        let dir = std::env::temp_dir().join("cstf_cli_tiled_stream");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.tns");
        let mut idx = vec![Vec::new(), Vec::new(), Vec::new()];
        let mut vals = Vec::new();
        for t in 0..400u32 {
            idx[0].push(t % 13);
            idx[1].push((t * 7) % 11);
            idx[2].push((t * 3) % 9);
            vals.push(0.25 + f64::from(t % 17));
        }
        let x = SparseTensor::new(vec![13, 11, 9], idx, vals);
        cstf_tensor::write_tns_file(&x, &path).unwrap();
        let base = [
            "factorize",
            "--input",
            path.to_str().unwrap(),
            "--rank",
            "3",
            "--iters",
            "2",
            "--json",
        ];
        let mut tiled: Vec<&str> = base.to_vec();
        tiled.extend(["--tiles", "3"]);
        let v0: json::Value = json::parse(&run(&base).unwrap()).unwrap();
        let v3: json::Value = json::parse(&run(&tiled).unwrap()).unwrap();
        assert_eq!(v0["factor_checksum"], v3["factor_checksum"], "streamed == in-core");
        assert_eq!(v3["tiles"], 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memstat_text_lists_components() {
        let out =
            run(&["memstat", "--dataset", "Uber", "--nnz", "1500", "--format", "coo"]).unwrap();
        assert!(out.contains("FORMAT"), "{out}");
        assert!(out.contains("values"), "component breakdown expected:\n{out}");
        assert!(out.contains("yes"), "{out}");
    }

    #[test]
    fn memstat_rejects_unknown_format() {
        let err =
            run(&["memstat", "--dataset", "Uber", "--nnz", "1000", "--format", "sf3"]).unwrap_err();
        assert!(matches!(err, CliError::Args(_)), "{err}");
    }

    #[test]
    fn memstat_sizes_csf1_as_single_tree() {
        // csf1 compiles one tree rooted at mode 0, so it must cost strictly
        // less than the all-modes CSF forest.
        let one = run(&["memstat", "--dataset", "Uber", "--nnz", "1000", "--format", "csf1"]);
        assert!(one.is_ok(), "{one:?}");
        let grab = |txt: &str| {
            txt.lines()
                .find(|l| l.trim_start().starts_with("csf"))
                .and_then(|l| l.split_whitespace().nth(1).map(str::to_string))
                .unwrap()
                .parse::<u64>()
                .unwrap()
        };
        let forest =
            run(&["memstat", "--dataset", "Uber", "--nnz", "1000", "--format", "csf"]).unwrap();
        assert!(grab(&one.unwrap()) < grab(&forest));
    }

    #[test]
    fn placement_recommends_something() {
        let out = run(&["placement", "--dataset", "NELL2", "--nnz", "5000"]).unwrap();
        assert!(out.contains("recommended: MTTKRP on"), "{out}");
    }

    #[test]
    fn l1_constraint_parses_and_runs() {
        let out = run(&[
            "factorize",
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "3",
            "--iters",
            "2",
            "--constraint",
            "l1:0.5",
        ])
        .unwrap();
        assert!(out.contains("final fit:"));
    }

    #[test]
    fn bad_constraint_is_rejected() {
        let err = run(&["factorize", "--dataset", "Uber", "--constraint", "magic"]).unwrap_err();
        assert!(matches!(err, CliError::Args(ArgError::BadValue { .. })));
    }

    #[test]
    fn unknown_command_is_rejected() {
        assert!(matches!(
            run(&["frobnicate"]).unwrap_err(),
            CliError::Args(ArgError::UnknownCommand(_))
        ));
    }

    #[test]
    fn missing_input_is_rejected() {
        assert!(matches!(run(&["info"]).unwrap_err(), CliError::Args(ArgError::MissingOption(_))));
    }

    #[test]
    fn trace_flag_writes_valid_chrome_trace() {
        let dir = std::env::temp_dir().join("cstf_cli_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        run(&[
            "factorize",
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "3",
            "--iters",
            "2",
            "--trace",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let v: json::Value = json::parse(&text).expect("valid trace JSON");
        let events = v.as_array().unwrap();
        assert!(events.len() > 20, "expected many kernel events, got {}", events.len());
        assert!(events.iter().any(|e| e["name"] == "mttkrp"));
        assert!(events.iter().any(|e| e["cat"] == "UPDATE"));
        // The one-device file is the full trace: counter tracks, instants
        // and flow arrows, like the telemetry trace.json.
        for ph in ["C", "i", "s", "f"] {
            assert!(events.iter().any(|e| e["ph"] == ph), "missing {ph} events");
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn telemetry_dir_then_report_round_trip() {
        let dir = std::env::temp_dir().join("cstf_cli_telemetry");
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_str().unwrap().to_string();
        run(&[
            "factorize",
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "3",
            "--iters",
            "2",
            "--telemetry",
            &d,
        ])
        .unwrap();
        for name in ["run.json", "events.jsonl", "trace.json", "metrics.prom"] {
            assert!(dir.join(name).exists(), "missing artifact {name}");
        }

        let text = run(&["report", &d]).unwrap();
        assert!(text.contains("final fit"), "{text}");
        assert!(text.contains("MTTKRP"), "{text}");

        let line = run(&["report", &d, "--json"]).unwrap();
        assert_eq!(line.trim().lines().count(), 1);
        let v: json::Value = json::parse(&line).unwrap();
        assert_eq!(v["iterations"], 2);
        assert_eq!(v["rank"], 3);
        assert!(v["phases"]["mttkrp"].as_f64().unwrap() > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_without_dir_is_rejected() {
        assert!(matches!(
            run(&["report"]).unwrap_err(),
            CliError::Args(ArgError::MissingOption(_))
        ));
    }

    #[test]
    fn faulted_run_recovers_and_reports() {
        let out = run(&[
            "factorize",
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "3",
            "--iters",
            "2",
            "--faults",
            "seed=1,launch=1.0,max=2",
            "--json",
        ])
        .unwrap();
        let v: json::Value = json::parse(&out).expect("valid JSON");
        assert!(v["final_fit"].as_f64().unwrap().is_finite());
        assert!(v["recovery"]["transient_retries"].as_f64().unwrap() >= 1.0);
        assert_eq!(v["recovery"]["clean"], json::Value::Bool(false));
    }

    #[test]
    fn bad_fault_spec_is_rejected() {
        let err =
            run(&["factorize", "--dataset", "Uber", "--nnz", "2000", "--faults", "launch=banana"])
                .unwrap_err();
        assert!(matches!(err, CliError::Input(m) if m.contains("--faults")));
    }

    #[test]
    fn resume_without_checkpoint_dir_is_rejected() {
        let err =
            run(&["factorize", "--dataset", "Uber", "--nnz", "2000", "--resume"]).unwrap_err();
        assert!(matches!(err, CliError::Args(ArgError::MissingOption(_))));
    }

    #[test]
    fn zero_rank_is_a_clean_error() {
        let err =
            run(&["factorize", "--dataset", "Uber", "--nnz", "2000", "--rank", "0"]).unwrap_err();
        assert!(matches!(err, CliError::Factorize(_)), "{err:?}");
        assert!(format!("{err}").contains("rank"), "{err}");
    }

    #[test]
    fn checkpoint_resume_smoke_through_cli() {
        let dir = std::env::temp_dir().join("cstf_cli_ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_str().unwrap().to_string();
        let base = [
            "factorize",
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "3",
            "--checkpoint",
            &d,
            "--checkpoint-every",
            "2",
            "--json",
        ];
        // First leg: 3 iterations, snapshots land in the checkpoint dir.
        let mut first: Vec<&str> = base.to_vec();
        first.extend(["--iters", "3"]);
        run(&first).unwrap();
        assert!(std::fs::read_dir(&dir).unwrap().count() > 0, "no snapshots written");
        // Second leg: resume and extend to 6 iterations.
        let mut second: Vec<&str> = base.to_vec();
        second.extend(["--iters", "6", "--resume"]);
        let resumed = run(&second).unwrap();
        let rv: json::Value = json::parse(&resumed).unwrap();
        assert_eq!(rv["iterations"], 6);
        // Reference: uninterrupted 6-iteration run must match bitwise
        // (identical fit history).
        let mut reference: Vec<&str> = [
            "factorize",
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "3",
            "--iters",
            "6",
            "--json",
        ]
        .to_vec();
        let _ = &mut reference; // same shape as the other legs for clarity
        let uninterrupted = run(&reference).unwrap();
        let uv: json::Value = json::parse(&uninterrupted).unwrap();
        assert_eq!(rv["fits"], uv["fits"], "resumed run must replay identically");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gpus_flag_produces_bitwise_identical_factors() {
        let base = [
            "factorize",
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "3",
            "--iters",
            "2",
            "--json",
        ];
        let mut one: Vec<&str> = base.to_vec();
        one.extend(["--gpus", "1"]);
        let mut four: Vec<&str> = base.to_vec();
        four.extend(["--gpus", "4"]);
        let v1: json::Value = json::parse(&run(&one).unwrap()).unwrap();
        let v4: json::Value = json::parse(&run(&four).unwrap()).unwrap();
        assert_eq!(v1["fits"], v4["fits"], "fit history must match bitwise");
        assert_eq!(
            v1["factor_checksum"], v4["factor_checksum"],
            "factor bits must be identical across group sizes"
        );
        assert_eq!(v4["gpus"], 4);
        assert_eq!(v4["devices"].as_array().unwrap().len(), 4);
        for dev in v4["devices"].as_array().unwrap() {
            assert!(dev["collective_bytes"].as_f64().unwrap() > 0.0);
        }
        // `--gpus 0` runs on one device, as `--gpus 1` does.
        let mut zero: Vec<&str> = base.to_vec();
        zero.extend(["--gpus", "0"]);
        let v0: json::Value = json::parse(&run(&zero).unwrap()).unwrap();
        assert_eq!(v0["gpus"], 1);
        assert_eq!(v0["factor_checksum"], v1["factor_checksum"]);
        assert!(v0.get("devices").is_none(), "one device has no per-device rows");
    }

    #[test]
    fn sharded_text_report_lists_every_device() {
        let out = run(&[
            "factorize",
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "3",
            "--iters",
            "2",
            "--gpus",
            "2",
            "--nvlink",
            "600",
        ])
        .unwrap();
        assert!(out.contains("sharded across 2"), "{out}");
        assert!(out.contains("gpu0:") && out.contains("gpu1:"), "{out}");
        assert!(out.contains("final fit:"), "{out}");
    }

    #[test]
    fn sharded_trace_gives_each_device_its_own_pid() {
        let dir = std::env::temp_dir().join("cstf_cli_mgpu_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        run(&[
            "factorize",
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "3",
            "--iters",
            "2",
            "--gpus",
            "3",
            "--trace",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let v: json::Value = json::parse(&text).expect("valid trace JSON");
        let events = v.as_array().unwrap();
        for pid in [1u64, 2, 3] {
            assert!(
                events.iter().any(|e| e["pid"] == pid && e["name"] == "mttkrp_shard"),
                "no shard MTTKRP events for pid {pid}"
            );
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn frostt_file_roundtrip_through_cli() {
        let dir = std::env::temp_dir().join("cstf_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.tns");
        std::fs::write(&path, "1 1 1 2.0\n2 2 2 3.0\n3 1 2 1.5\n").unwrap();
        let out = run(&["info", "--input", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("nnz:      3"), "{out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn analyze_renders_roofline_table_and_eq5_check() {
        let out = run(&[
            "analyze",
            "--dataset",
            "NELL2",
            "--nnz",
            "3000",
            "--rank",
            "16",
            "--iters",
            "2",
            "--update",
            "admm",
            "--format",
            "coo",
            "--device",
            "a100",
        ])
        .unwrap();
        assert!(out.contains("ROOFLINE ATTRIBUTION"), "{out}");
        assert!(out.contains("mttkrp"), "{out}");
        assert!(out.contains("EQ. 3-5 CHECK"), "{out}");
        // Recalibrated unfused-ADMM ledger agrees with Eq. 5, so no drift.
        assert!(out.contains("[ok]"), "{out}");
        assert!(!out.contains("[DRIFT]"), "{out}");
        // Unfused ADMM at rank 16 sits far below the A100 ridge point.
        assert!(out.contains("bandwidth-bound"), "{out}");
    }

    #[test]
    fn analyze_json_reports_bounds_and_deviations() {
        let out = run(&[
            "analyze",
            "--dataset",
            "NELL2",
            "--nnz",
            "3000",
            "--rank",
            "32",
            "--iters",
            "2",
            "--update",
            "admm",
            "--format",
            "coo",
            "--device",
            "a100",
            "--json",
        ])
        .unwrap();
        let v: json::Value = json::parse(&out).expect("valid JSON");
        assert_eq!(v["rank"], 32);
        assert!(v["ridge_intensity"].as_f64().unwrap() > 1.0);
        let kernels = v["devices"][0]["kernels"].as_array().unwrap();
        assert!(kernels.iter().any(|k| k["kernel"] == "mttkrp"));
        for a in v["admm_ai"].as_array().unwrap() {
            assert!(a["deviation"].as_f64().unwrap() < 0.05, "{a}");
            assert_eq!(a["flagged"], false, "{a}");
        }
    }

    #[test]
    fn perf_record_compare_roundtrip_and_injected_drift() {
        let _perf_env = perf_env();
        let dir = std::env::temp_dir().join("cstf_cli_perf_baselines");
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_str().unwrap().to_string();
        let config = [
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "4",
            "--iters",
            "2",
            "--format",
            "csf",
            "--baseline-dir",
            &d,
        ];
        let record: Vec<&str> = ["perf", "record"].iter().chain(config.iter()).copied().collect();
        let out = run(&record).unwrap();
        assert!(out.contains("baseline recorded"), "{out}");
        assert!(dir.join("uber-csf-r4-cuadmm-g1.json").exists());

        // Same config, same binary: counters are exact, so zero drift.
        let compare: Vec<&str> = ["perf", "compare"].iter().chain(config.iter()).copied().collect();
        let out = run(&compare).unwrap();
        assert!(out.contains("perf gate OK"), "{out}");

        // The injection hook adds one launch — the gate must name its key.
        std::env::set_var("CSTF_PERF_INJECT_LAUNCH", "1");
        let err = run(&compare).unwrap_err();
        std::env::remove_var("CSTF_PERF_INJECT_LAUNCH");
        assert_eq!(err.exit_code(), 3);
        let msg = format!("{err}");
        assert!(msg.contains("perf_inject_launch"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn perf_compare_measured_band_ratchets_wall_clock() {
        let _perf_env = perf_env();
        let dir = std::env::temp_dir().join("cstf_cli_perf_band");
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_str().unwrap().to_string();
        let config = [
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "4",
            "--iters",
            "2",
            "--format",
            "csf",
            "--baseline-dir",
            &d,
        ];
        let record: Vec<&str> = ["perf", "record"].iter().chain(config.iter()).copied().collect();
        run(&record).unwrap();

        // An absurdly wide band cannot fail: wall-clock noise between two
        // in-process runs is orders of magnitude below it.
        let compare: Vec<&str> = ["perf", "compare"]
            .iter()
            .chain(config.iter())
            .chain(["--measured-band", "1000000000"].iter())
            .copied()
            .collect();
        let out = run(&compare).unwrap();
        assert!(out.contains("perf gate OK"), "{out}");

        // Doctor the stored baseline to claim near-zero wall-clock: the
        // current run's measured/modeled ratio now exceeds any sane band,
        // so compare must exit 3 via the aggregate ratchet (counters still
        // match exactly).
        let path = dir.join("uber-csf-r4-cuadmm-g1.json");
        let mut v: json::Value = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        for k in v["kernels"].as_array_mut().unwrap() {
            k["measured_s"] = json!(1e-12);
        }
        std::fs::write(&path, v.pretty()).unwrap();
        let banded: Vec<&str> = ["perf", "compare"]
            .iter()
            .chain(config.iter())
            .chain(["--measured-band", "0.5"].iter())
            .copied()
            .collect();
        let err = run(&banded).unwrap_err();
        assert_eq!(err.exit_code(), 3);
        assert!(format!("{err}").contains("aggregate"), "{err}");

        // Without the flag the doctored wall-clock stays advisory.
        let compare: Vec<&str> = ["perf", "compare"].iter().chain(config.iter()).copied().collect();
        let out = run(&compare).unwrap();
        assert!(out.contains("perf gate OK"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn perf_compare_without_baseline_is_a_clean_error() {
        let _perf_env = perf_env();
        let dir = std::env::temp_dir().join("cstf_cli_perf_nobase");
        let _ = std::fs::remove_dir_all(&dir);
        let err = run(&[
            "perf",
            "compare",
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--iters",
            "2",
            "--baseline-dir",
            dir.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(matches!(&err, CliError::Input(m) if m.contains("perf record")), "{err}");
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn perf_requires_record_or_compare() {
        let err = run(&["perf", "--dataset", "Uber", "--nnz", "2000"]).unwrap_err();
        assert!(matches!(err, CliError::Args(ArgError::MissingOption(_))));
        let err = run(&["perf", "replay", "--dataset", "Uber", "--nnz", "2000"]).unwrap_err();
        assert!(matches!(err, CliError::Args(ArgError::BadValue { .. })));
    }

    #[test]
    fn sharded_perf_baseline_keys_every_device() {
        let _perf_env = perf_env();
        let dir = std::env::temp_dir().join("cstf_cli_perf_sharded");
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_str().unwrap().to_string();
        let config = [
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "4",
            "--iters",
            "2",
            "--gpus",
            "2",
            "--baseline-dir",
            &d,
        ];
        let record: Vec<&str> = ["perf", "record"].iter().chain(config.iter()).copied().collect();
        run(&record).unwrap();
        let text = std::fs::read_to_string(dir.join("uber-blco-r4-cuadmm-g2.json")).unwrap();
        let b = cstf_device::PerfBaseline::from_json(&text).unwrap();
        assert_eq!(b.gpus, 2);
        assert!(b.kernels.iter().any(|k| k.gpu == 0));
        assert!(b.kernels.iter().any(|k| k.gpu == 1));

        let compare: Vec<&str> = ["perf", "compare"].iter().chain(config.iter()).copied().collect();
        let out = run(&compare).unwrap();
        assert!(out.contains("perf gate OK"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_telemetry_report_shows_per_device_table() {
        let dir = std::env::temp_dir().join("cstf_cli_mgpu_telemetry");
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_str().unwrap().to_string();
        run(&[
            "factorize",
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "3",
            "--iters",
            "2",
            "--gpus",
            "2",
            "--telemetry",
            &d,
        ])
        .unwrap();
        assert!(dir.join("devices.json").exists());
        // metrics.prom carries a device label per kernel-key series.
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(prom.contains("device=\"0\""), "{prom}");
        assert!(prom.contains("device=\"1\""), "{prom}");
        cstf_telemetry::parse_prometheus(&prom).expect("valid exposition format");

        let text = run(&["report", &d]).unwrap();
        assert!(text.contains("PER-DEVICE BREAKDOWN"), "{text}");
        assert!(text.contains("gpu0") && text.contains("gpu1"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_on_missing_or_file_path_is_a_typed_error() {
        let err = run(&["report", "/definitely/not/a/real/dir"]).unwrap_err();
        assert!(matches!(&err, CliError::Input(m) if m.contains("no such directory")), "{err:?}");

        let file = std::env::temp_dir().join("cstf_cli_report_notadir.txt");
        std::fs::write(&file, "not a telemetry dir").unwrap();
        let err = run(&["report", file.to_str().unwrap()]).unwrap_err();
        assert!(matches!(&err, CliError::Input(m) if m.contains("not a directory")), "{err:?}");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn memstat_on_missing_or_directory_path_is_a_typed_error() {
        let err = run(&["memstat", "/definitely/not/a/real/tensor.tns"]).unwrap_err();
        assert!(matches!(&err, CliError::Input(m) if m.contains("no such file")), "{err:?}");

        let dir = std::env::temp_dir().join("cstf_cli_memstat_dir");
        std::fs::create_dir_all(&dir).unwrap();
        let err = run(&["memstat", dir.to_str().unwrap()]).unwrap_err();
        assert!(matches!(&err, CliError::Input(m) if m.contains("is a directory")), "{err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_sharded_json_reports_elasticity_and_matches_clean_checksum() {
        let base = [
            "factorize",
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "3",
            "--iters",
            "4",
            "--gpus",
            "3",
            "--json",
        ];
        let clean: json::Value = json::parse(&run(&base).unwrap()).expect("valid JSON");
        assert_eq!(clean["elasticity"]["clean"], true);
        assert_eq!(clean["elasticity"]["reshards"], 0);

        let chaos_args: Vec<&str> =
            base.iter().copied().chain(["--faults", "device-loss:1@it2"]).collect();
        let chaos: json::Value = json::parse(&run(&chaos_args).unwrap()).expect("valid JSON");
        assert_eq!(chaos["elasticity"]["clean"], false);
        assert_eq!(chaos["elasticity"]["reshards"], 1);
        assert_eq!(chaos["elasticity"]["retired"][0]["device"], 1);
        assert_eq!(chaos["elasticity"]["retired"][0]["iteration"], 2);
        // Shrink-to-survivors keeps the model bitwise-identical.
        assert_eq!(chaos["factor_checksum"], clean["factor_checksum"]);
    }

    #[test]
    fn straggler_run_trips_deadlines_and_emits_group_metrics() {
        let dir = std::env::temp_dir().join("cstf_cli_straggler_telemetry");
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_str().unwrap().to_string();
        let out = run(&[
            "factorize",
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "3",
            "--iters",
            "3",
            "--gpus",
            "2",
            "--faults",
            "straggler:1x9",
            "--telemetry",
            &d,
        ])
        .unwrap();
        assert!(out.contains("elasticity:"), "{out}");
        assert!(out.contains("deadline trips"), "{out}");

        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(prom.contains("cstf_group_deadline_trips_total{device=\"1\"}"), "{prom}");
        assert!(prom.contains("cstf_fault_straggler_total{device=\"1\"}"), "{prom}");
        cstf_telemetry::parse_prometheus(&prom).expect("valid exposition format");

        // The straggler shows up as instant fault events in the trace,
        // pinned to gpu1's pid (2).
        let trace: json::Value =
            json::parse(&std::fs::read_to_string(dir.join("trace.json")).unwrap()).unwrap();
        let straggles: Vec<&json::Value> =
            trace.as_array().unwrap().iter().filter(|e| e["name"] == "fault_straggler").collect();
        assert!(!straggles.is_empty(), "straggler fault instants present");
        assert!(straggles.iter().all(|e| e["pid"] == 2), "pinned to gpu1");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn device_loss_run_emits_retire_and_reshard_metrics() {
        let dir = std::env::temp_dir().join("cstf_cli_loss_telemetry");
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_str().unwrap().to_string();
        run(&[
            "factorize",
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "3",
            "--iters",
            "4",
            "--gpus",
            "3",
            "--faults",
            "device-loss:2@it2",
            "--telemetry",
            &d,
        ])
        .unwrap();
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(prom.contains("cstf_group_reshards_total 1"), "{prom}");
        assert!(prom.contains("cstf_group_devices_retired_total{device=\"2\"} 1"), "{prom}");
        assert!(prom.contains("cstf_group_retire_iteration{device=\"2\"} 2"), "{prom}");
        assert!(prom.contains("cstf_group_loss_detections_total"), "{prom}");
        cstf_telemetry::parse_prometheus(&prom).expect("valid exposition format");

        // The retire/reshard marks land in the multi-device trace.
        let trace: json::Value =
            json::parse(&std::fs::read_to_string(dir.join("trace.json")).unwrap()).unwrap();
        let arr = trace.as_array().unwrap();
        let retired = arr.iter().find(|e| e["name"] == "device_retired").expect("retire mark");
        assert_eq!(retired["pid"], 3, "device 2 renders under pid 3");
        assert!(arr.iter().any(|e| e["name"] == "reshard"), "reshard marks present");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
