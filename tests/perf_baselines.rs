//! Runs every checked-in perf baseline (`results/baselines`) through
//! `cstf perf compare` in-process: for {coo, csf, alto} × {admm, cuadmm,
//! cuadmm-fused} × {1, 2} devices, the exact launch, flop and byte
//! counters of a fresh NELL2 run must match the recorded ones key for key.

use cstf_cli::{dispatch, parse};

#[test]
fn every_checked_in_baseline_matches_exactly() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results/baselines");
    let mut failures = Vec::new();
    for format in ["coo", "csf", "alto"] {
        for update in ["admm", "cuadmm", "cuadmm-fused"] {
            for gpus in ["1", "2"] {
                let args: Vec<String> = [
                    "perf",
                    "compare",
                    "--dataset",
                    "NELL2",
                    "--nnz",
                    "4000",
                    "--rank",
                    "16",
                    "--iters",
                    "2",
                    "--device",
                    "a100",
                    "--format",
                    format,
                    "--update",
                    update,
                    "--gpus",
                    gpus,
                    "--baseline-dir",
                    dir,
                ]
                .iter()
                .map(|s| s.to_string())
                .collect();
                let mut out = Vec::new();
                if let Err(e) = dispatch(&parse(&args).unwrap(), &mut out) {
                    let out = String::from_utf8_lossy(&out);
                    failures.push(format!("{format}/{update}/g{gpus}: {e}\n{out}"));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} baseline(s) drifted:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
