//! Chrome-trace / Perfetto export of kernel records.
//!
//! Serializes the retained [`KernelRecord`]s of one or more devices into
//! the Chrome Trace Event format (the `chrome://tracing` / Perfetto JSON
//! array form), laying the modeled kernels out on one timeline track per
//! phase. Useful for eyeball inspection of where a factorization's
//! modeled time goes.
//!
//! One writer, [`write_trace`], renders every run: device `d` is process
//! `d + 1` (named `gpu<d>`) with its complete events, counter tracks for
//! the modeled byte and flop rates and the per-key flop totals
//! (`"ph": "C"`), instant events at profiler marks and injected faults
//! (`"ph": "i"`), and flow arrows (`"ph": "s"`/`"f"`) linking each MTTKRP
//! kernel to the UPDATE kernel that consumes its output. Critical-path
//! arrows and a `host` process holding the telemetry spans and heap
//! counters follow. [`write_full_trace`] is the one-device call.
//!
//! All JSON is built through `cstf_telemetry::json` values, so kernel names and
//! labels are escaped correctly and non-finite rates are clamped to zero
//! instead of producing invalid tokens like `inf`.

use std::io::Write;

use cstf_telemetry::json;
use cstf_telemetry::json::Value;
use cstf_telemetry::{alloc, SpanRecord};

use crate::profiler::{FaultRecord, KernelRecord, MarkRecord, Phase, RunCapture};

/// One device's share of a trace: its kernel records, profiler marks and
/// injected faults, borrowed from wherever the run keeps them.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceTrace<'a> {
    /// Kernel records in launch order.
    pub records: &'a [KernelRecord],
    /// Profiler marks (`outer_iteration`, `reshard`, `device_retired`, ...).
    pub marks: &'a [MarkRecord],
    /// Injected device faults.
    pub faults: &'a [FaultRecord],
}

impl<'a> From<&'a RunCapture> for DeviceTrace<'a> {
    fn from(c: &'a RunCapture) -> Self {
        DeviceTrace { records: &c.records, marks: &c.marks, faults: &c.faults }
    }
}

/// Serializes one device's run: [`write_trace`] with a single device
/// (pid 1, `gpu0`), host spans and heap counters on pid 2, and no
/// critical-path arrows.
pub fn write_full_trace<W: Write>(
    records: &[KernelRecord],
    marks: &[MarkRecord],
    faults: &[FaultRecord],
    spans: &[SpanRecord],
    w: W,
) -> std::io::Result<()> {
    write_trace(&[DeviceTrace { records, marks, faults }], spans, &[], w)
}

/// Serializes a run on any number of devices as a Chrome Trace Event JSON
/// array.
///
/// Device `d` renders under pid `d + 1`, named `gpu<d>` through process
/// metadata: complete events (`"ph": "X"`, microsecond timestamps, laid
/// end-to-end per phase track in record order — each device is one
/// stream, like the paper's implementation), rate counters, per-key flop
/// counters, mark and fault instants, then MTTKRP→UPDATE dataflow arrows
/// (flow ids numbered across the whole trace). `chain` holds the modeled
/// critical path as `(device, record index)` pairs, rendered as arrows
/// between the op boxes they connect. Host-side telemetry spans and the
/// heap counters render under one further process after the last device.
/// Span timestamps are wall-clock (relative to the first span) while
/// kernel tracks use modeled time; Perfetto renders the processes
/// side-by-side without conflating the clocks.
pub fn write_trace<W: Write>(
    devices: &[DeviceTrace<'_>],
    spans: &[SpanRecord],
    chain: &[(usize, usize)],
    mut w: W,
) -> std::io::Result<()> {
    let mut events = Vec::new();
    let mut flow_id = 0;
    for (d, dev) in devices.iter().enumerate() {
        let pid = d as u32 + 1;
        events.push(process_name(pid, &format!("gpu{d}")));
        events.extend(complete_events(dev.records, pid));
        events.extend(counter_events(dev.records, pid));
        events.extend(key_counter_events(dev.records, pid));
        events.extend(instant_events(dev.marks, pid));
        events.extend(fault_events(dev.faults, pid));
        events.extend(flow_events(dev.records, pid, &mut flow_id));
    }
    let per_device: Vec<&[KernelRecord]> = devices.iter().map(|d| d.records).collect();
    events.extend(critical_path_flow_events(&per_device, chain));
    let host = devices.len() as u32 + 1;
    events.push(process_name(host, "host"));
    events.extend(span_events(spans, host));
    events.extend(heap_counter_events(host));
    let text = Value::Array(events).pretty();
    writeln!(w, "{text}")
}

/// Process metadata naming `pid` in the viewer's process list.
fn process_name(pid: u32, name: &str) -> Value {
    let args = json!({ "name": name });
    json!({ "name": "process_name", "ph": "M", "pid": pid, "args": args })
}

/// Counter samples (`"ph": "C"`) for the host heap: the process high-water
/// mark plus one `heap_peak[<region>]` track per registered [`HeapRegion`]
/// (`cstf_telemetry::HeapRegion`). The counters are process-wide watermarks,
/// not time series, so each track carries a single sample at `ts` 0 — a
/// horizontal line Perfetto draws across the whole trace. Empty (and
/// therefore absent) in binaries without the counting allocator.
fn heap_counter_events(pid: u32) -> Vec<Value> {
    let mut events = Vec::new();
    if alloc::peak_bytes() > 0 {
        let args = json!({ "value": alloc::peak_bytes() });
        events.push(json!({
            "name": "heap_high_water_bytes", "ph": "C", "ts": 0.0, "pid": pid, "args": args,
        }));
    }
    for (region, peak) in alloc::region_peaks() {
        let args = json!({ "value": peak });
        events.push(json!({
            "name": format!("heap_peak[{region}]"), "ph": "C", "ts": 0.0, "pid": pid,
            "args": args,
        }));
    }
    events
}

/// Instant events (`"ph": "i"`, process scope) for each injected device
/// fault, named `fault_<kind>` with the faulted kernel in `args`.
fn fault_events(faults: &[FaultRecord], pid: u32) -> Vec<Value> {
    faults
        .iter()
        .map(|f| {
            let args = json!({ "kernel": f.kernel, "op": f.op });
            json!({
                "name": format!("fault_{}", f.kind.label()),
                "cat": "fault",
                "ph": "i",
                "ts": finite(f.modeled_s_at) * 1e6,
                "pid": pid,
                "tid": 0,
                "s": "p",
                "args": args,
            })
        })
        .collect()
}

/// Complete events for host-side spans, one track per recording thread,
/// timestamped relative to the earliest span.
fn span_events(spans: &[SpanRecord], pid: u32) -> Vec<Value> {
    let t0 = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    spans
        .iter()
        .map(|s| {
            let args = match s.mode {
                Some(m) => json!({ "mode": m, "depth": s.depth }),
                None => json!({ "depth": s.depth }),
            };
            json!({
                "name": s.name,
                "cat": "span",
                "ph": "X",
                "ts": (s.start_ns - t0) as f64 / 1e3,
                "dur": s.dur_ns as f64 / 1e3,
                "pid": pid,
                "tid": s.thread,
                "args": args,
            })
        })
        .collect()
}

/// Start timestamps (µs) of each record laid end-to-end in record order.
fn start_times_us(records: &[KernelRecord]) -> Vec<f64> {
    let mut starts = Vec::with_capacity(records.len());
    let mut cursor_us = 0.0;
    for rec in records {
        starts.push(cursor_us);
        cursor_us += finite(rec.modeled_s) * 1e6;
    }
    starts
}

fn complete_events(records: &[KernelRecord], pid: u32) -> Vec<Value> {
    let starts = start_times_us(records);
    records
        .iter()
        .zip(&starts)
        .map(|(rec, &ts)| {
            let args = match rec.mode {
                Some(m) => json!({
                    "flops": finite(rec.cost.flops),
                    "bytes": finite(rec.cost.bytes()),
                    "measured_s": finite(rec.measured_s),
                    "mode": m,
                }),
                None => json!({
                    "flops": finite(rec.cost.flops),
                    "bytes": finite(rec.cost.bytes()),
                    "measured_s": finite(rec.measured_s),
                }),
            };
            json!({
                "name": rec.name,
                "cat": rec.phase.label(),
                "ph": "X",
                "ts": ts,
                "dur": finite(rec.modeled_s) * 1e6,
                "pid": pid,
                "tid": phase_track(rec.phase),
                "args": args,
            })
        })
        .collect()
}

/// One counter sample per kernel on the `flop/s` and `bytes/s` tracks: the
/// kernel's modeled rate, stamped at its start time.
fn counter_events(records: &[KernelRecord], pid: u32) -> Vec<Value> {
    let starts = start_times_us(records);
    let mut events = Vec::with_capacity(records.len() * 2);
    for (rec, &ts) in records.iter().zip(&starts) {
        let flops_per_s = finite(rec.cost.flops / rec.modeled_s);
        let bytes_per_s = finite(rec.cost.bytes() / rec.modeled_s);
        let flop_args = json!({ "value": flops_per_s });
        let byte_args = json!({ "value": bytes_per_s });
        events.push(json!({
            "name": "flop/s", "ph": "C", "ts": ts, "pid": pid, "args": flop_args,
        }));
        events.push(json!({
            "name": "bytes/s", "ph": "C", "ts": ts, "pid": pid, "args": byte_args,
        }));
    }
    events
}

/// Cumulative per-key counter tracks: one `"ph": "C"` sample per kernel on
/// a track named after its `(phase, kernel, mode)` attribution key, carrying
/// the running flop total for that key. These are the same exact counters
/// `cstf analyze` and the perf baselines consume, rendered over modeled
/// time, so counter drift between two traces is visible as diverging stair
/// steps rather than requiring a diff tool.
fn key_counter_events(records: &[KernelRecord], pid: u32) -> Vec<Value> {
    let starts = start_times_us(records);
    let mut running: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
    let mut events = Vec::with_capacity(records.len());
    for (rec, &ts) in records.iter().zip(&starts) {
        let mode = rec.mode.map_or_else(|| "-".to_string(), |m| m.to_string());
        let track = format!("flops[{}/{}/{}]", rec.phase.label(), rec.name, mode);
        let total = running.entry(track.clone()).or_insert(0.0);
        *total += finite(rec.cost.flops);
        let args = json!({ "value": *total });
        events.push(json!({
            "name": track, "ph": "C", "ts": ts, "pid": pid, "args": args,
        }));
    }
    events
}

/// Instant events (`"ph": "i"`, process scope) at each profiler mark.
fn instant_events(marks: &[MarkRecord], pid: u32) -> Vec<Value> {
    marks
        .iter()
        .map(|m| {
            json!({
                "name": m.label,
                "ph": "i",
                "ts": finite(m.modeled_s_at) * 1e6,
                "pid": pid,
                "tid": 0,
                "s": "p",
            })
        })
        .collect()
}

/// Flow arrows from each MTTKRP kernel to the next UPDATE-phase kernel:
/// the dataflow the paper's Algorithm 1 pairs per mode (the MTTKRP result
/// feeds that mode's constrained update). `flow_id` numbers the arrows
/// across every device of the trace.
fn flow_events(records: &[KernelRecord], pid: u32, flow_id: &mut u64) -> Vec<Value> {
    let starts = start_times_us(records);
    let mut events = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        if rec.phase != Phase::Mttkrp {
            continue;
        }
        let Some(j) = (i + 1..records.len()).find(|&j| records[j].phase == Phase::Update) else {
            continue;
        };
        *flow_id += 1;
        let end_of_mttkrp = starts[i] + finite(rec.modeled_s) * 1e6;
        events.push(json!({
            "name": "mttkrp_to_update",
            "cat": "dataflow",
            "ph": "s",
            "id": *flow_id,
            "ts": end_of_mttkrp,
            "pid": pid,
            "tid": phase_track(Phase::Mttkrp),
        }));
        events.push(json!({
            "name": "mttkrp_to_update",
            "cat": "dataflow",
            "ph": "f",
            "bp": "e",
            "id": *flow_id,
            "ts": starts[j],
            "pid": pid,
            "tid": phase_track(Phase::Update),
        }));
    }
    events
}

/// Flow arrows (`"ph": "s"`/`"f"`, cat `"critical_path"`) linking each
/// consecutive pair of ops on the modeled critical path. `chain` holds
/// `(device, record index)` pairs in path order, as produced by
/// [`crate::dag::DagAnalysis`]; `records_per_device[d]` must be the same
/// record stream the complete events were built from, so the arrows land
/// exactly on the op boxes (pid `d + 1`, the per-device process layout of
/// [`write_trace`]).
fn critical_path_flow_events(
    records_per_device: &[&[KernelRecord]],
    chain: &[(usize, usize)],
) -> Vec<Value> {
    let starts: Vec<Vec<f64>> = records_per_device.iter().map(|r| start_times_us(r)).collect();
    let op = |d: usize, i: usize| -> Option<(&KernelRecord, f64)> {
        let recs = records_per_device.get(d)?;
        Some((recs.get(i)?, *starts.get(d)?.get(i)?))
    };
    let mut events = Vec::new();
    for (flow_id, pair) in chain.windows(2).enumerate() {
        let ((ad, ai), (bd, bi)) = (pair[0], pair[1]);
        let (Some((a, a_ts)), Some((b, b_ts))) = (op(ad, ai), op(bd, bi)) else { continue };
        let id = flow_id as u64 + 1;
        events.push(json!({
            "name": "critical_path",
            "cat": "critical_path",
            "ph": "s",
            "id": id,
            "ts": a_ts + finite(a.modeled_s) * 1e6,
            "pid": ad as u32 + 1,
            "tid": phase_track(a.phase),
        }));
        events.push(json!({
            "name": "critical_path",
            "cat": "critical_path",
            "ph": "f",
            "bp": "e",
            "id": id,
            "ts": b_ts,
            "pid": bd as u32 + 1,
            "tid": phase_track(b.phase),
        }));
    }
    events
}

/// Replaces non-finite values with `0.0`: trace consumers reject `inf` /
/// `NaN` tokens, and a zero-length or zero-rate event is the honest
/// rendering of an unmodeled quantity.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn phase_track(phase: Phase) -> u32 {
    match phase {
        Phase::Gram => 1,
        Phase::Mttkrp => 2,
        Phase::Update => 3,
        Phase::Normalize => 4,
        Phase::Transfer => 5,
        Phase::Other => 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{KernelClass, KernelCost};

    fn rec(name: &'static str, phase: Phase, secs: f64) -> KernelRecord {
        KernelRecord {
            name,
            phase,
            class: KernelClass::Stream,
            cost: KernelCost { flops: 100.0, bytes_read: 800.0, ..Default::default() },
            modeled_s: secs,
            raw_s: secs,
            measured_s: 0.0,
            mode: None,
            collective_seq: None,
        }
    }

    /// Writes `records` and `marks` as one device through the one writer
    /// and returns the parsed event array.
    fn trace_of(records: &[KernelRecord], marks: &[MarkRecord]) -> Vec<Value> {
        let mut buf = Vec::new();
        write_full_trace(records, marks, &[], &[], &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        json::parse(&text).expect("valid JSON").as_array().unwrap().clone()
    }

    /// The kernel boxes (complete events) of a parsed trace.
    fn complete(events: &[Value]) -> Vec<&Value> {
        events.iter().filter(|e| e["ph"] == "X").collect()
    }

    #[test]
    fn trace_is_valid_json_array() {
        let records =
            vec![rec("mttkrp", Phase::Mttkrp, 1e-3), rec("compute_auxiliary", Phase::Update, 2e-3)];
        let events = trace_of(&records, &[]);
        let arr = complete(&events);
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0]["name"], "mttkrp");
        assert_eq!(arr[1]["cat"], "UPDATE");
        assert_eq!(arr[1]["ts"].as_f64().unwrap(), 1000.0); // after the first ms
        assert_eq!(arr[1]["dur"].as_f64().unwrap(), 2000.0);
    }

    #[test]
    fn empty_records_still_valid() {
        assert_eq!(complete(&trace_of(&[], &[])).len(), 0);
    }

    #[test]
    fn phases_map_to_distinct_tracks() {
        let tracks: Vec<u32> = Phase::all().iter().map(|&p| phase_track(p)).collect();
        let unique: std::collections::HashSet<_> = tracks.iter().collect();
        assert_eq!(unique.len(), tracks.len());
    }

    #[test]
    fn names_needing_escapes_still_produce_valid_json() {
        let records = vec![rec("weird\"name\\with\ttokens", Phase::Other, 1e-3)];
        let events = trace_of(&records, &[]);
        assert_eq!(complete(&events)[0]["name"], "weird\"name\\with\ttokens");
    }

    #[test]
    fn non_finite_costs_are_clamped_not_emitted() {
        let mut bad = rec("divergent", Phase::Update, 1e-3);
        bad.cost.flops = f64::INFINITY;
        bad.modeled_s = f64::NAN;
        let mut buf = Vec::new();
        write_full_trace(&[bad], &[], &[], &[], &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(!text.contains("inf") && !text.contains("NaN"), "no raw non-finite tokens");
        let parsed: Value = json::parse(&text).expect("valid JSON");
        let events = parsed.as_array().unwrap();
        assert_eq!(complete(events)[0]["dur"].as_f64().unwrap(), 0.0);
        assert_eq!(complete(events)[0]["args"]["flops"].as_f64().unwrap(), 0.0);
    }

    #[test]
    fn full_trace_has_counters_instants_and_flows() {
        let records =
            vec![rec("mttkrp_blco", Phase::Mttkrp, 1e-3), rec("admm_iterate", Phase::Update, 2e-3)];
        let marks = vec![crate::profiler::MarkRecord {
            label: "outer_iteration",
            seq: 2,
            modeled_s_at: 3e-3,
        }];
        let arr = trace_of(&records, &marks);

        let phases: Vec<&str> = arr.iter().filter_map(|e| e["ph"].as_str()).collect();
        assert!(phases.contains(&"X"), "complete events present");
        assert!(phases.contains(&"C"), "counter events present");
        assert!(phases.contains(&"i"), "instant events present");
        assert!(phases.contains(&"s") && phases.contains(&"f"), "flow pair present");

        let counter = arr.iter().find(|e| e["ph"] == "C" && e["name"] == "flop/s").unwrap();
        assert_eq!(counter["args"]["value"].as_f64().unwrap(), 100.0 / 1e-3);

        let instant = arr.iter().find(|e| e["ph"] == "i").unwrap();
        assert_eq!(instant["name"], "outer_iteration");
        assert_eq!(instant["ts"].as_f64().unwrap(), 3000.0);

        let start = arr.iter().find(|e| e["ph"] == "s").unwrap();
        let finish = arr.iter().find(|e| e["ph"] == "f").unwrap();
        assert_eq!(start["id"], finish["id"]);
        assert_eq!(finish["bp"], "e");
        assert_eq!(start["ts"].as_f64().unwrap(), 1000.0); // end of the MTTKRP kernel
        assert_eq!(finish["ts"].as_f64().unwrap(), 1000.0); // start of the UPDATE kernel
    }

    #[test]
    fn spans_render_as_second_process_with_relative_timestamps() {
        let spans = vec![
            SpanRecord {
                name: "outer_iteration",
                mode: None,
                depth: 0,
                thread: 7,
                start_ns: 5_000,
                dur_ns: 9_000,
            },
            SpanRecord {
                name: "mode_update",
                mode: Some(1),
                depth: 1,
                thread: 7,
                start_ns: 6_000,
                dur_ns: 2_000,
            },
        ];
        let mut buf = Vec::new();
        write_full_trace(&[], &[], &[], &spans, &mut buf).unwrap();
        let parsed: Value = json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        // Heap counter tracks may coexist; look at the span events only.
        let arr: Vec<&Value> =
            parsed.as_array().unwrap().iter().filter(|e| e["cat"] == "span").collect();
        assert_eq!(arr.len(), 2);
        assert!(arr.iter().all(|e| e["pid"] == 2 && e["tid"] == 7));
        let outer = arr.iter().find(|e| e["name"] == "outer_iteration").unwrap();
        assert_eq!(outer["ts"].as_f64().unwrap(), 0.0); // relative to first span
        assert_eq!(outer["dur"].as_f64().unwrap(), 9.0);
        let inner = arr.iter().find(|e| e["name"] == "mode_update").unwrap();
        assert_eq!(inner["args"]["mode"], 1);
        assert_eq!(inner["args"]["depth"], 1);
    }

    #[test]
    fn injected_faults_render_as_instants_on_the_fault_track() {
        use crate::fault::FaultKind;
        let faults = vec![
            FaultRecord {
                kind: FaultKind::TransientLaunch,
                kernel: "fused_inner_sweep",
                op: 12,
                modeled_s_at: 2e-3,
            },
            FaultRecord {
                kind: FaultKind::NanCorruption,
                kernel: "mttkrp",
                op: 30,
                modeled_s_at: 5e-3,
            },
        ];
        let mut buf = Vec::new();
        write_full_trace(&[], &[], &faults, &[], &mut buf).unwrap();
        let parsed: Value = json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let arr = parsed.as_array().unwrap();
        let transient =
            arr.iter().find(|e| e["name"] == "fault_transient_launch").expect("instant present");
        assert_eq!(transient["ph"], "i");
        assert_eq!(transient["cat"], "fault");
        assert_eq!(transient["args"]["kernel"], "fused_inner_sweep");
        assert_eq!(transient["ts"].as_f64().unwrap(), 2000.0);
        assert!(arr.iter().any(|e| e["name"] == "fault_nan_corruption"));
    }

    #[test]
    fn multi_device_trace_gives_each_device_its_own_pid() {
        let gpu0 = [rec("mttkrp_shard", Phase::Mttkrp, 1e-3)];
        let gpu1 = [rec("mttkrp_shard", Phase::Mttkrp, 1e-3), rec("gram_syrk", Phase::Gram, 5e-4)];
        let spans = vec![SpanRecord {
            name: "outer_iteration",
            mode: None,
            depth: 0,
            thread: 1,
            start_ns: 100,
            dur_ns: 400,
        }];
        let devices =
            [&gpu0[..], &gpu1[..]].map(|r| DeviceTrace { records: r, ..Default::default() });
        let mut buf = Vec::new();
        write_trace(&devices, &spans, &[], &mut buf).unwrap();
        let parsed: Value = json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let arr = parsed.as_array().unwrap();

        // Device d's kernels carry pid d + 1.
        let kernel_pids: Vec<i64> = arr
            .iter()
            .filter(|e| e["ph"] == "X" && e["cat"] != "span")
            .map(|e| e["pid"].as_i64().unwrap())
            .collect();
        assert_eq!(kernel_pids, vec![1, 2, 2]);

        // Host spans land on the process after the last device.
        let span = arr.iter().find(|e| e["cat"] == "span").unwrap();
        assert_eq!(span["pid"], 3);

        // Process-name metadata labels every pid.
        let names: Vec<(&str, i64)> = arr
            .iter()
            .filter(|e| e["ph"] == "M")
            .map(|e| (e["args"]["name"].as_str().unwrap(), e["pid"].as_i64().unwrap()))
            .collect();
        assert_eq!(names, vec![("gpu0", 1), ("gpu1", 2), ("host", 3)]);
    }

    #[test]
    fn elastic_multi_device_trace_pins_marks_and_faults_to_their_device() {
        use crate::fault::FaultKind;
        let shard = [rec("mttkrp_shard", Phase::Mttkrp, 1e-3)];
        let reshard = [MarkRecord { label: "reshard", seq: 1, modeled_s_at: 2e-3 }];
        let retire = [MarkRecord { label: "device_retired", seq: 1, modeled_s_at: 1e-3 }];
        let straggler = [FaultRecord {
            kind: FaultKind::Straggler,
            kernel: "all_reduce",
            op: 4,
            modeled_s_at: 5e-4,
        }];
        let devices = [
            DeviceTrace { records: &shard, marks: &reshard, faults: &[] },
            DeviceTrace { records: &shard, marks: &[], faults: &straggler },
            DeviceTrace { records: &[], marks: &retire, faults: &[] },
        ];
        let mut buf = Vec::new();
        write_trace(&devices, &[], &[], &mut buf).unwrap();
        let parsed: Value = json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let arr = parsed.as_array().unwrap();

        let reshard = arr.iter().find(|e| e["name"] == "reshard").expect("reshard instant");
        assert_eq!(reshard["ph"], "i");
        assert_eq!(reshard["pid"], 1); // device 0 → pid 1
        let retired = arr.iter().find(|e| e["name"] == "device_retired").expect("retire instant");
        assert_eq!(retired["pid"], 3); // device 2 → pid 3
        let straggle = arr.iter().find(|e| e["name"] == "fault_straggler").expect("fault instant");
        assert_eq!(straggle["pid"], 2); // device 1 → pid 2
        assert_eq!(straggle["cat"], "fault");
        // Devices without faults have no fault events.
        assert!(arr.iter().filter(|e| e["cat"] == "fault").count() == 1);
    }

    #[test]
    fn every_device_gets_dataflow_arrows_and_key_counters_with_trace_wide_flow_ids() {
        let stream = [rec("mttkrp_shard", Phase::Mttkrp, 1e-3), rec("admm", Phase::Update, 1e-3)];
        let devices = [DeviceTrace { records: &stream, ..Default::default() }; 3];
        let mut buf = Vec::new();
        write_trace(&devices, &[], &[], &mut buf).unwrap();
        let parsed: Value = json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let arr = parsed.as_array().unwrap();

        let starts: Vec<(i64, u64)> = arr
            .iter()
            .filter(|e| e["cat"] == "dataflow" && e["ph"] == "s")
            .map(|e| (e["pid"].as_i64().unwrap(), e["id"].as_u64().unwrap()))
            .collect();
        assert_eq!(starts, vec![(1, 1), (2, 2), (3, 3)], "one arrow per device, ids unique");
        for pid in 1..=3 {
            assert!(
                arr.iter().any(|e| e["pid"] == pid && e["name"] == "flops[MTTKRP/mttkrp_shard/-]"),
                "pid {pid} has its key counter track"
            );
        }
    }

    #[test]
    fn key_counter_tracks_accumulate_per_attribution_key() {
        let mut a = rec("mttkrp", Phase::Mttkrp, 1e-3);
        a.mode = Some(0);
        let mut b = rec("mttkrp", Phase::Mttkrp, 1e-3);
        b.mode = Some(0);
        let c = rec("cholesky_factor", Phase::Update, 1e-4);
        let arr = trace_of(&[a, b, c], &[]);

        let samples: Vec<f64> = arr
            .iter()
            .filter(|e| e["ph"] == "C" && e["name"] == "flops[MTTKRP/mttkrp/0]")
            .map(|e| e["args"]["value"].as_f64().unwrap())
            .collect();
        assert_eq!(samples, vec![100.0, 200.0], "running total per key");
        assert!(
            arr.iter().any(|e| e["name"] == "flops[UPDATE/cholesky_factor/-]"),
            "mode-less keys land on the '-' track"
        );
        let complete = arr.iter().find(|e| e["ph"] == "X" && e["name"] == "mttkrp").unwrap();
        assert_eq!(complete["args"]["mode"], 0);
    }

    #[test]
    fn heap_region_peaks_render_as_counter_tracks() {
        // Registering a region makes its watermark track appear in every
        // subsequent full trace (process-global, like the allocator).
        let _r = cstf_telemetry::HeapRegion::enter("trace-test-region");
        drop(_r);
        let mut buf = Vec::new();
        write_full_trace(&[], &[], &[], &[], &mut buf).unwrap();
        let parsed: Value = json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let track = parsed
            .as_array()
            .unwrap()
            .iter()
            .find(|e| e["name"] == "heap_peak[trace-test-region]")
            .expect("region counter track present");
        assert_eq!(track["ph"], "C");
        assert!(track["args"]["value"].as_u64().is_some());
    }

    #[test]
    fn mttkrp_without_downstream_update_emits_no_dangling_flow() {
        let records = vec![rec("mttkrp_tail", Phase::Mttkrp, 1e-3)];
        let events = trace_of(&records, &[]);
        assert!(events.iter().all(|e| e["ph"] != "s" && e["ph"] != "f"));
    }
}
