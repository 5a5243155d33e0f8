//! End-to-end validation of the telemetry artifact pipeline: a CLI
//! `factorize --telemetry DIR` run must produce four well-formed
//! artifacts, the per-iteration records must match what the solver
//! actually computed, and `cstf report` must render them.

use cstf_cli::{dispatch, parse};
use cstf_core::admm::AdmmConfig;
use cstf_device::{Device, DeviceSpec};
use cstf_telemetry::{convergence, parse_prometheus, RunSummary};

/// Runs the CLI in-process and returns captured stdout.
fn cli(args: &[&str]) -> String {
    let parsed = parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap();
    let mut buf = Vec::new();
    dispatch(&parsed, &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

fn telemetry_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cstf_artifact_test_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The exact solver configuration the CLI run below uses, re-run directly
/// so artifact contents can be compared against ground truth.
fn reference_run() -> cstf_core::auntf::FactorizeOutput {
    let x = cstf_data::by_name("Uber").unwrap().generate_scaled(3000, 0);
    let cfg = cstf_core::AuntfConfig {
        rank: 4,
        max_iters: 3,
        fit_tol: 0.0,
        update: cstf_core::UpdateMethod::Admm(AdmmConfig::cuadmm()),
        seed: 0,
        format: cstf_core::TensorFormat::Blco,
        ..Default::default()
    };
    cstf_core::Auntf::new(x, cfg).factorize(&Device::new(DeviceSpec::h100())).unwrap()
}

#[test]
fn four_artifacts_round_trip_and_match_the_solver() {
    let dir = telemetry_dir("roundtrip");
    let d = dir.to_str().unwrap().to_string();
    cli(&[
        "factorize",
        "--dataset",
        "Uber",
        "--nnz",
        "3000",
        "--rank",
        "4",
        "--iters",
        "3",
        "--seed",
        "0",
        "--telemetry",
        &d,
    ]);

    // --- run.json: parses into the shared data model ---
    let run_text = std::fs::read_to_string(dir.join("run.json")).expect("run.json written");
    let summary = RunSummary::from_json(&run_text).expect("run.json parses");
    assert_eq!(summary.system, "cstf-cli");
    assert_eq!(summary.rank, 4);
    assert_eq!(summary.iterations, 3);
    assert_eq!(summary.nnz, 3000);
    assert!(summary.modeled_s > 0.0);
    assert!(summary.phases.iter().any(|p| p.phase == "MTTKRP"));

    // --- events.jsonl: per-iteration records match the solver exactly ---
    let reference = reference_run();
    let events = std::fs::read_to_string(dir.join("events.jsonl")).expect("events.jsonl written");
    let records = convergence::read_jsonl(&events).expect("events.jsonl parses");
    assert_eq!(records.len(), reference.iters);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs());
    for (rec, (i, &fit)) in records.iter().zip(reference.fits.iter().enumerate()) {
        assert_eq!(rec.iter as usize, i);
        assert!(
            close(rec.fit.expect("fit recorded"), fit),
            "iteration {i}: artifact fit {:?} vs solver fit {fit}",
            rec.fit
        );
        let truth = &reference.convergence.records()[i];
        assert_eq!(rec.modes.len(), truth.modes.len());
        for (got, want) in rec.modes.iter().zip(&truth.modes) {
            assert_eq!(got.mode, want.mode);
            assert_eq!(got.inner_iters, want.inner_iters);
            assert!(close(got.primal_residual.unwrap(), want.primal_residual.unwrap()));
            assert!(close(got.dual_residual.unwrap(), want.dual_residual.unwrap()));
            assert!(close(got.rho.unwrap(), want.rho.unwrap()));
        }
    }
    // And run.json's fits agree with the solver too.
    assert_eq!(summary.fits.len(), reference.fits.len());
    for (a, b) in summary.fits.iter().zip(&reference.fits) {
        assert!(close(*a, *b));
    }

    // --- trace.json: valid Chrome Trace JSON with all event kinds ---
    let trace = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json written");
    let parsed: cstf_telemetry::json::Value =
        cstf_telemetry::json::parse(&trace).expect("trace is valid JSON");
    let events = parsed.as_array().expect("trace is an array");
    let has_ph = |ph: &str| events.iter().any(|e| e["ph"] == ph);
    assert!(has_ph("X"), "complete events");
    assert!(has_ph("C"), "counter tracks");
    assert!(has_ph("i"), "iteration-boundary instants");
    assert!(has_ph("s") && has_ph("f"), "MTTKRP->UPDATE flow arrows");
    assert_eq!(
        events.iter().filter(|e| e["ph"] == "i" && e["name"] == "outer_iteration").count(),
        3,
        "one instant per outer iteration"
    );
    assert!(
        events.iter().any(|e| e["pid"] == 2 && e["cat"] == "span"),
        "host spans present on the second process"
    );

    // --- metrics.prom: valid Prometheus exposition ---
    let prom = std::fs::read_to_string(dir.join("metrics.prom")).expect("metrics.prom written");
    let samples = parse_prometheus(&prom).expect("exposition format parses");
    let value = |name: &str| {
        samples.iter().find(|s| s.name == name).map(|s| s.value).expect("metric present")
    };
    assert!(value("cstf_launches_total") > 0.0);
    assert!(value("cstf_flops_total") > 0.0);
    assert!(value("cstf_bytes_total") > 0.0);
    assert_eq!(value("cstf_kernel_modeled_ns_count"), value("cstf_launches_total"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_faults_round_trip_through_the_artifacts() {
    let dir = telemetry_dir("faults");
    let d = dir.to_str().unwrap().to_string();
    cli(&[
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
        "--telemetry",
        &d,
    ]);

    // metrics.prom: total and per-kind fault counters.
    let prom = std::fs::read_to_string(dir.join("metrics.prom")).expect("metrics.prom written");
    let samples = parse_prometheus(&prom).expect("exposition format parses");
    let value = |name: &str| samples.iter().find(|s| s.name == name).map(|s| s.value);
    assert_eq!(value("cstf_faults_injected_total"), Some(2.0), "{prom}");
    assert_eq!(value("cstf_fault_transient_launch_total"), Some(2.0), "{prom}");

    // trace.json: one fault instant per injection, on the fault track.
    let trace = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json written");
    let parsed: cstf_telemetry::json::Value =
        cstf_telemetry::json::parse(&trace).expect("trace is valid JSON");
    let events = parsed.as_array().expect("trace is an array");
    let fault_instants: Vec<_> =
        events.iter().filter(|e| e["cat"] == "fault" && e["ph"] == "i").collect();
    assert_eq!(fault_instants.len(), 2, "one instant per injected fault");
    assert!(fault_instants.iter().all(|e| e["name"] == "fault_transient_launch"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_chaos_run_exports_device_labeled_fault_and_group_counters() {
    let dir = telemetry_dir("group_counters");
    let d = dir.to_str().unwrap().to_string();
    cli(&[
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
        "device-loss:2@it2,straggler:1x9",
        "--telemetry",
        &d,
    ]);

    let prom = std::fs::read_to_string(dir.join("metrics.prom")).expect("metrics.prom written");
    let samples = parse_prometheus(&prom).expect("exposition format parses");
    let labeled = |name: &str, label: &str| {
        let want = format!("device=\"{label}\"");
        samples.iter().find(|s| s.name == name && s.labels.contains(&want)).map(|s| s.value)
    };
    let value = |name: &str| samples.iter().find(|s| s.name == name).map(|s| s.value);

    // Per-kind fault counters carry the faulting member's device label.
    // The loss is persistent, so it fires once per retry attempt.
    assert!(value("cstf_faults_injected_total").unwrap_or(0.0) > 0.0, "{prom}");
    assert!(labeled("cstf_fault_device_loss_total", "2").unwrap_or(0.0) >= 1.0, "{prom}");
    assert!(labeled("cstf_fault_straggler_total", "1").unwrap_or(0.0) > 0.0, "{prom}");
    assert_eq!(labeled("cstf_fault_straggler_total", "0"), None, "healthy member unlabeled");

    // The elastic driver's own counters: detection -> retries -> reshard,
    // with retirement attributed to the lost member.
    assert!(value("cstf_group_loss_detections_total").unwrap_or(0.0) >= 1.0, "{prom}");
    assert!(value("cstf_group_loss_retries_total").unwrap_or(0.0) >= 1.0, "{prom}");
    assert_eq!(value("cstf_group_reshards_total"), Some(1.0), "{prom}");
    assert_eq!(labeled("cstf_group_devices_retired_total", "2"), Some(1.0), "{prom}");
    assert_eq!(labeled("cstf_group_retire_iteration", "2"), Some(2.0), "{prom}");
    assert!(labeled("cstf_group_deadline_trips_total", "1").unwrap_or(0.0) > 0.0, "{prom}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_tiling_and_elasticity_sections_match_golden_file() {
    // The sections render from modeled numbers only, so for a fixed
    // dataset/seed they are byte-stable; the golden file pins them.
    let tiled_dir = telemetry_dir("golden_tiled");
    let td = tiled_dir.to_str().unwrap().to_string();
    cli(&[
        "factorize",
        "--dataset",
        "Uber",
        "--nnz",
        "2000",
        "--rank",
        "3",
        "--iters",
        "2",
        "--seed",
        "0",
        "--tiles",
        "3",
        "--telemetry",
        &td,
    ]);
    let tiled_report = cli(&["report", &td]);

    let sharded_dir = telemetry_dir("golden_sharded");
    let sd = sharded_dir.to_str().unwrap().to_string();
    cli(&[
        "factorize",
        "--dataset",
        "Uber",
        "--nnz",
        "2000",
        "--rank",
        "3",
        "--iters",
        "2",
        "--seed",
        "0",
        "--gpus",
        "3",
        "--telemetry",
        &sd,
    ]);
    let sharded_report = cli(&["report", &sd]);

    // The tiling section is the "out-of-core:" line plus its indented
    // continuation; the elasticity section is a single line.
    let mut rendered = String::new();
    let mut lines = tiled_report.lines();
    while let Some(l) = lines.next() {
        if l.starts_with("out-of-core:") {
            rendered.push_str(l);
            rendered.push('\n');
            rendered.push_str(lines.next().expect("continuation line"));
            rendered.push('\n');
        }
    }
    for l in sharded_report.lines().filter(|l| l.starts_with("elasticity:")) {
        rendered.push_str(l);
        rendered.push('\n');
    }
    let golden = include_str!("golden/report_sections.txt");
    assert_eq!(rendered, golden, "report sections drifted from tests/golden/report_sections.txt");

    let _ = std::fs::remove_dir_all(&tiled_dir);
    let _ = std::fs::remove_dir_all(&sharded_dir);
}

#[test]
fn critical_path_gauges_and_ops_artifact_single_device() {
    let dir = telemetry_dir("critical_path_single");
    let d = dir.to_str().unwrap().to_string();
    cli(&[
        "factorize",
        "--dataset",
        "Uber",
        "--nnz",
        "2000",
        "--rank",
        "3",
        "--iters",
        "2",
        "--seed",
        "0",
        "--telemetry",
        &d,
    ]);

    // ops.jsonl: the op-DAG artifact exists and round-trips.
    let ops_text = std::fs::read_to_string(dir.join("ops.jsonl")).expect("ops.jsonl written");
    let ops = cstf_device::read_ops_jsonl(&ops_text).expect("ops.jsonl parses");
    assert!(!ops.is_empty());
    let dag = cstf_device::analyze(&ops);

    // metrics.prom: critical-path and per-device attribution gauges.
    let prom = std::fs::read_to_string(dir.join("metrics.prom")).expect("metrics.prom written");
    let samples = parse_prometheus(&prom).expect("exposition format parses");
    let value = |name: &str| {
        samples.iter().find(|s| s.name == name).map(|s| s.value).expect("metric present")
    };
    let labeled = |name: &str, device: &str| {
        let want = format!("device=\"{device}\"");
        samples
            .iter()
            .find(|s| s.name == name && s.labels.contains(&want))
            .map(|s| s.value)
            .expect("labeled metric present")
    };
    assert!(value("cstf_critical_path_seconds") > 0.0, "{prom}");
    assert_eq!(value("cstf_critical_path_ops"), ops.len() as f64, "{prom}");
    // One device: the whole stream is the path, so the two bounds agree
    // and the device is never idle or stalled.
    assert_eq!(
        value("cstf_critical_path_seconds"),
        value("cstf_critical_path_total_modeled_seconds"),
        "{prom}"
    );
    assert_eq!(value("cstf_critical_path_seconds"), dag.critical_path_s);
    assert!(labeled("cstf_device_busy_seconds", "0") > 0.0, "{prom}");
    assert_eq!(labeled("cstf_device_stall_seconds", "0"), 0.0, "{prom}");
    assert_eq!(labeled("cstf_device_idle_seconds", "0"), 0.0, "{prom}");
    assert_eq!(labeled("cstf_device_idle_fraction", "0"), 0.0, "{prom}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn critical_path_gauges_cover_every_sharded_device() {
    let dir = telemetry_dir("critical_path_sharded");
    let d = dir.to_str().unwrap().to_string();
    cli(&[
        "factorize",
        "--dataset",
        "Uber",
        "--nnz",
        "2000",
        "--rank",
        "3",
        "--iters",
        "2",
        "--seed",
        "0",
        "--gpus",
        "3",
        "--telemetry",
        &d,
    ]);

    let prom = std::fs::read_to_string(dir.join("metrics.prom")).expect("metrics.prom written");
    let samples = parse_prometheus(&prom).expect("exposition format parses");
    let value = |name: &str| {
        samples.iter().find(|s| s.name == name).map(|s| s.value).expect("metric present")
    };
    let labeled = |name: &str, device: &str| {
        let want = format!("device=\"{device}\"");
        samples
            .iter()
            .find(|s| s.name == name && s.labels.contains(&want))
            .map(|s| s.value)
            .expect("labeled metric present")
    };
    let cp = value("cstf_critical_path_seconds");
    let total = value("cstf_critical_path_total_modeled_seconds");
    assert!(cp > 0.0 && cp < total, "sharding must beat the serial bound: {cp} vs {total}");
    for dev in ["0", "1", "2"] {
        let busy = labeled("cstf_device_busy_seconds", dev);
        let stall = labeled("cstf_device_stall_seconds", dev);
        let idle = labeled("cstf_device_idle_seconds", dev);
        let frac = labeled("cstf_device_idle_fraction", dev);
        assert!(busy > 0.0, "gpu{dev} busy: {prom}");
        assert!(stall >= 0.0 && idle >= 0.0, "gpu{dev}: {prom}");
        assert!((0.0..=1.0).contains(&frac), "gpu{dev} idle fraction {frac}");
        let span = busy + stall + idle;
        assert!((span - cp).abs() <= 1e-9 * cp, "gpu{dev}: {busy}+{stall}+{idle} != {cp}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_renders_and_emits_regression_line() {
    let dir = telemetry_dir("report");
    let d = dir.to_str().unwrap().to_string();
    cli(&[
        "factorize",
        "--dataset",
        "NIPS",
        "--nnz",
        "2000",
        "--rank",
        "3",
        "--iters",
        "2",
        "--telemetry",
        &d,
    ]);

    let text = cli(&["report", &d]);
    assert!(text.contains("cstf-cli"), "{text}");
    assert!(text.contains("MTTKRP"), "{text}");
    assert!(text.lines().any(|l| l.trim_start().starts_with('0')), "iteration rows:\n{text}");

    let line = cli(&["report", &d, "--json"]);
    assert_eq!(line.trim().lines().count(), 1, "single-line JSON");
    let v: cstf_telemetry::json::Value = cstf_telemetry::json::parse(&line).unwrap();
    assert_eq!(v["schema_version"], 1);
    assert_eq!(v["iterations"], 2);
    assert!(v["per_iter_modeled_s"].as_f64().unwrap() > 0.0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_device_and_a_group_write_the_same_artifact_set() {
    let files = |gpus: &str| {
        let dir = telemetry_dir(&format!("artifact_set_g{gpus}"));
        let d = dir.to_str().unwrap().to_string();
        cli(&[
            "factorize",
            "--dataset",
            "Uber",
            "--nnz",
            "2000",
            "--rank",
            "3",
            "--iters",
            "2",
            "--seed",
            "0",
            "--gpus",
            gpus,
            "--telemetry",
            &d,
        ]);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).expect("metrics.prom");
        let _ = std::fs::remove_dir_all(&dir);
        (names, prom)
    };
    let (one, one_prom) = files("1");
    let (group, _) = files("3");

    // The same pipeline writes both; only the per-device breakdown is
    // group-only.
    let mut expected = one.clone();
    expected.push("devices.json".to_string());
    expected.sort();
    assert_eq!(group, expected, "g=1 wrote {one:?}");
    assert!(!one.contains(&"devices.json".to_string()));

    // One device: the per-kernel-key and fault families stay unlabeled.
    // Only the critical-path `cstf_device_*` gauges, which are per device
    // by definition, name device 0.
    let samples = parse_prometheus(&one_prom).expect("exposition format parses");
    for s in samples.iter().filter(|s| !s.name.starts_with("cstf_device_")) {
        assert!(!s.labels.contains("device="), "unexpected device label on {}", s.name);
    }
}
