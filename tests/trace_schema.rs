//! Schema validation for the `trace.json` artifact: every event a
//! `--telemetry` run emits must be loadable by the Chrome trace viewers
//! (Perfetto, `chrome://tracing`) — a JSON array of objects whose shape
//! depends on the phase code. Covers single-device and sharded runs,
//! including the critical-path flow arrows the op-DAG layer adds, and the
//! `--trace FILE` document, which comes from the same writer.

use cstf_cli::{dispatch, parse};

fn cli(args: &[&str]) -> String {
    let parsed = parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap();
    let mut buf = Vec::new();
    dispatch(&parsed, &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

fn run_and_load(
    tag: &str,
    extra: &[&str],
) -> (Vec<cstf_telemetry::json::Value>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("cstf_trace_schema_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().unwrap().to_string();
    let mut args = vec![
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
    ];
    args.extend_from_slice(extra);
    cli(&args);
    let text = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json written");
    let parsed: cstf_telemetry::json::Value =
        cstf_telemetry::json::parse(&text).expect("trace is valid JSON");
    let events = parsed.as_array().expect("trace is a JSON array").clone();
    (events, dir)
}

/// Chrome-trace invariants that hold for every event kind we emit.
fn validate(events: &[cstf_telemetry::json::Value]) {
    assert!(!events.is_empty(), "trace must not be empty");
    for e in events {
        let obj = e.as_object().expect("every event is an object");
        let name = obj.get("name").and_then(|n| n.as_str()).expect("string name");
        let ph = obj.get("ph").and_then(|p| p.as_str()).expect("string ph");
        assert!(
            matches!(ph, "M" | "X" | "C" | "i" | "s" | "f"),
            "unknown phase code {ph:?} on {name:?}"
        );
        assert!(obj.get("pid").and_then(|p| p.as_u64()).is_some(), "{name}: numeric pid");
        match ph {
            // Metadata events carry their payload in args, no timestamp.
            "M" => {
                assert!(obj.get("args").and_then(|a| a.as_object()).is_some());
            }
            // Complete events: timestamp + duration, both non-negative.
            "X" => {
                assert!(e["ts"].as_f64().unwrap() >= 0.0, "{name}: ts");
                assert!(e["dur"].as_f64().unwrap() >= 0.0, "{name}: dur");
                assert!(obj.get("tid").and_then(|t| t.as_u64()).is_some());
            }
            // Counter samples: args holds the sampled values.
            "C" => {
                assert!(e["ts"].as_f64().is_some(), "{name}: ts");
                assert!(obj.get("args").and_then(|a| a.as_object()).is_some());
            }
            // Instants: timestamp plus a scope marker.
            "i" => {
                assert!(e["ts"].as_f64().is_some(), "{name}: ts");
                assert!(obj.get("s").and_then(|s| s.as_str()).is_some(), "{name}: scope");
            }
            // Flow arrows: s/f pairs matched by (cat, id); checked below.
            "s" | "f" => {
                assert!(e["ts"].as_f64().is_some(), "{name}: ts");
                assert!(obj.get("cat").and_then(|c| c.as_str()).is_some());
                assert!(obj.get("id").and_then(|i| i.as_u64()).is_some());
            }
            _ => unreachable!(),
        }
    }

    // Every flow start has exactly one finish with the same (cat, id), and
    // every finish binds to its enclosing slice (`"bp": "e"`).
    let flows = |ph: &str| -> Vec<(String, u64)> {
        events
            .iter()
            .filter(|e| e["ph"] == ph)
            .map(|e| (e["cat"].as_str().unwrap().to_string(), e["id"].as_u64().unwrap()))
            .collect()
    };
    let starts = flows("s");
    let finishes = flows("f");
    assert_eq!(starts.len(), finishes.len(), "unbalanced flow arrows");
    for key in &starts {
        assert_eq!(
            finishes.iter().filter(|k| *k == key).count(),
            1,
            "flow {key:?} must have exactly one finish"
        );
    }
    for e in events.iter().filter(|e| e["ph"] == "f") {
        assert_eq!(e["bp"], "e", "flow finish must bind to the enclosing slice");
    }
}

#[test]
fn single_device_trace_is_schema_valid_with_critical_path_flows() {
    let (events, dir) = run_and_load("single", &[]);
    validate(&events);

    // The op-DAG layer adds critical-path flow arrows; a serial run's
    // chain covers every op, so arrows must be present.
    let cp: Vec<_> = events.iter().filter(|e| e["cat"] == "critical_path").collect();
    assert!(!cp.is_empty(), "critical-path flow arrows present");
    assert!(cp.iter().all(|e| e["name"] == "critical_path"));

    // The classic kinds are all still there.
    for ph in ["X", "C", "i", "s", "f"] {
        assert!(events.iter().any(|e| e["ph"] == ph), "missing {ph} events");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_trace_names_one_process_per_device_plus_host() {
    let gpus = 3u64;
    let (events, dir) = run_and_load("sharded", &["--gpus", "3"]);
    validate(&events);

    // Process-name metadata: gpu0..gpu2 on pids 1..=3, host on pid 4.
    let proc_name = |pid: u64| {
        events
            .iter()
            .find(|e| e["ph"] == "M" && e["name"] == "process_name" && e["pid"] == pid)
            .map(|e| e["args"]["name"].as_str().unwrap().to_string())
    };
    for d in 0..gpus {
        assert_eq!(proc_name(d + 1).as_deref(), Some(format!("gpu{d}").as_str()));
        assert!(events.iter().any(|e| e["ph"] == "X" && e["pid"] == d + 1), "gpu{d} has op boxes");
    }
    assert_eq!(proc_name(gpus + 1).as_deref(), Some("host"));
    assert_dataflow_and_key_counters_on_every_device(&events, gpus);

    // The sharded chain spans devices: critical-path arrows exist and
    // only ever point at device pids.
    let cp: Vec<_> = events.iter().filter(|e| e["cat"] == "critical_path").collect();
    assert!(!cp.is_empty(), "critical-path flow arrows present");
    for e in &cp {
        let pid = e["pid"].as_u64().unwrap();
        assert!((1..=gpus).contains(&pid), "flow arrow on device pid, got {pid}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `factorize --trace FILE` (no telemetry directory) and loads the
/// trace it wrote.
fn run_trace_flag(tag: &str, extra: &[&str]) -> Vec<cstf_telemetry::json::Value> {
    let path = std::env::temp_dir().join(format!("cstf_trace_schema_flag_{tag}.json"));
    let _ = std::fs::remove_file(&path);
    let p = path.to_str().unwrap().to_string();
    let mut args = vec![
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
        "--trace",
        &p,
    ];
    args.extend_from_slice(extra);
    cli(&args);
    let text = std::fs::read_to_string(&path).expect("--trace file written");
    let _ = std::fs::remove_file(&path);
    let parsed = cstf_telemetry::json::parse(&text).expect("trace is valid JSON");
    parsed.as_array().expect("trace is a JSON array").clone()
}

/// The `process_name` metadata of `pid`, if any.
fn process_name(events: &[cstf_telemetry::json::Value], pid: u64) -> Option<String> {
    events
        .iter()
        .find(|e| e["ph"] == "M" && e["name"] == "process_name" && e["pid"] == pid)
        .map(|e| e["args"]["name"].as_str().unwrap().to_string())
}

/// Every device pid `1..=gpus` carries MTTKRP→UPDATE dataflow arrows and
/// per-key `flops[phase/kernel/mode]` counter tracks.
fn assert_dataflow_and_key_counters_on_every_device(
    events: &[cstf_telemetry::json::Value],
    gpus: u64,
) {
    for pid in 1..=gpus {
        let on_pid = |e: &&cstf_telemetry::json::Value| e["pid"] == pid;
        assert!(
            events.iter().filter(on_pid).any(|e| e["cat"] == "dataflow" && e["ph"] == "s"),
            "pid {pid} has dataflow arrows"
        );
        assert!(
            events.iter().filter(on_pid).any(|e| {
                e["ph"] == "C" && e["name"].as_str().is_some_and(|n| n.starts_with("flops["))
            }),
            "pid {pid} has flops[...] counter tracks"
        );
    }
}

#[test]
fn trace_flag_single_device_is_schema_valid_and_names_its_processes() {
    let events = run_trace_flag("single", &[]);
    validate(&events);
    assert_eq!(process_name(&events, 1).as_deref(), Some("gpu0"));
    assert_eq!(process_name(&events, 2).as_deref(), Some("host"));
    for ph in ["X", "C", "i", "s", "f"] {
        assert!(events.iter().any(|e| e["ph"] == ph), "missing {ph} events");
    }
    assert_dataflow_and_key_counters_on_every_device(&events, 1);
    assert!(events.iter().any(|e| e["cat"] == "critical_path"), "critical-path arrows present");
}

#[test]
fn trace_flag_sharded_is_schema_valid_with_dataflow_on_every_device() {
    let gpus = 3u64;
    let events = run_trace_flag("sharded", &["--gpus", "3"]);
    validate(&events);
    for d in 0..gpus {
        assert_eq!(process_name(&events, d + 1), Some(format!("gpu{d}")));
    }
    assert_eq!(process_name(&events, gpus + 1).as_deref(), Some("host"));
    assert_dataflow_and_key_counters_on_every_device(&events, gpus);
}
