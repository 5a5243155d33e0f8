//! Pins what `cstf factorize` does, op by op, across every execution
//! placement: in-core, tiled and sharded, for all six formats, plus
//! seeded-fault runs and one elastic device-loss run.
//!
//! For each run the golden file records the FNV-1a hash of the
//! `ops.jsonl` artifact (every launch, transfer and collective with its
//! modeled cost, in order) together with the recovery and elasticity
//! counts. Those are independent of the worker-pool width. The factor
//! checksum is not for every format (ALTO's partitioning follows the pool
//! width), so it is recorded per width and the test fails when the current
//! width has no recorded line.
//!
//! Run at both widths with `RAYON_NUM_THREADS=1` and `RAYON_NUM_THREADS=2`.

use cstf_base::par;
use cstf_cli::{dispatch, parse};
use cstf_telemetry::json::{self, Value};

const GOLDEN: &str = include_str!("golden/op_streams.txt");

const BASE: [&str; 11] = [
    "factorize",
    "--dataset",
    "Uber",
    "--nnz",
    "20000",
    "--rank",
    "8",
    "--iters",
    "3",
    "--seed",
    "7",
];

/// `(run id, extra CLI arguments)` for every pinned run.
fn runs() -> Vec<(String, Vec<&'static str>)> {
    let mut runs = Vec::new();
    for format in ["coo", "csf", "csf1", "hicoo", "alto", "blco"] {
        for (gpus, tiles) in [("1", "1"), ("1", "3"), ("3", "1")] {
            runs.push((
                format!("{format}-g{gpus}-t{tiles}"),
                vec!["--format", format, "--gpus", gpus, "--tiles", tiles],
            ));
        }
    }
    // At a 5% launch-fault rate a whole ADMM update (dozens of launches)
    // rarely runs clean, so this run exhausts its retries; the capped
    // variant recovers.
    runs.push(("faults-seeded".into(), vec!["--faults", "seed=1,launch=0.05,nan=0.02"]));
    runs.push(("faults-capped".into(), vec!["--faults", "seed=1,launch=0.05,nan=0.02,max=3"]));
    runs.push(("g3-device-loss".into(), vec!["--gpus", "3", "--faults", "device-loss:2@it2"]));
    runs
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn count(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Bool(b)) => u8::from(*b).to_string(),
        Some(Value::Array(items)) => items.len().to_string(),
        Some(x) => x.as_u64().map_or_else(|| "?".into(), |n| n.to_string()),
        None => "-".into(),
    }
}

/// Runs one pinned configuration in-process and returns its ops line and,
/// when the run succeeds, its factor checksum. A failing run pins its
/// error message instead.
fn run(id: &str, extra: &[&str]) -> (String, Option<String>) {
    let dir = std::env::temp_dir().join(format!("cstf_op_streams_{}_{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut args: Vec<String> = BASE.iter().chain(extra).map(|s| s.to_string()).collect();
    args.extend(["--telemetry".into(), dir.to_str().unwrap().into(), "--json".into()]);
    let mut out = Vec::new();
    if let Err(e) = dispatch(&parse(&args).unwrap(), &mut out) {
        let _ = std::fs::remove_dir_all(&dir);
        return (format!("ops {id} error: {e}"), None);
    }
    let report = json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
    let ops = std::fs::read(dir.join("ops.jsonl")).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let counts = |v: &Value, keys: &[&str]| -> String {
        keys.iter().map(|k| count(v, k)).collect::<Vec<_>>().join("/")
    };
    let recovery = counts(
        &report["recovery"],
        &[
            "transient_retries",
            "nan_events",
            "cholesky_retries",
            "transfer_retries",
            "degraded_to_unfused",
        ],
    );
    let elasticity = match report.get("elasticity") {
        Some(e) => counts(e, &["loss_detections", "loss_retries", "reshards", "retired"]),
        None => "-".into(),
    };
    let checksum = report["factor_checksum"].as_str().unwrap().to_string();
    let ops = format!("ops {id} {:016x} recovery={recovery} elasticity={elasticity}", fnv1a(&ops));
    (ops, Some(checksum))
}

#[test]
fn op_streams_match_the_golden_file() {
    let width = format!("w{}", par::workers());
    let mut ops_lines = Vec::new();
    let mut sum_lines = Vec::new();
    for (id, extra) in runs() {
        let (ops, checksum) = run(&id, &extra);
        ops_lines.push(ops);
        if let Some(checksum) = checksum {
            sum_lines.push(format!("checksum {id} {width} {checksum}"));
        }
    }
    let golden: Vec<&str> =
        GOLDEN.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).collect();
    let current = format!("{}\n{}", ops_lines.join("\n"), sum_lines.join("\n"));

    let golden_ops: Vec<&str> = golden.iter().copied().filter(|l| l.starts_with("ops ")).collect();
    assert_eq!(golden_ops, ops_lines, "op streams moved; this run produced:\n{current}");

    let golden_sums: Vec<&str> = golden
        .iter()
        .copied()
        .filter(|l| l.starts_with("checksum ") && l.split(' ').nth(2) == Some(width.as_str()))
        .collect();
    assert!(!golden_sums.is_empty(), "no checksums recorded for pool {width}:\n{current}");
    assert_eq!(golden_sums, sum_lines, "factor checksums moved; this run produced:\n{current}");
}
