//! Metric names and units, the check that they match `BENCHMARK.json`, and
//! the result line a run ends with.

use std::path::Path;

use crate::json::{self, Value};

/// End-to-end metrics the untraced run reports on every workload, in the
/// result line, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_tps", "1/s"),
    ("local_p50_us", "us"),
    ("rss_mb", "MB"),
    ("setup_s", "s"),
];

/// End-to-end metrics printed in the text report only. The multisite
/// class and failures are missing or identically zero on some workload,
/// and no workload logs to disk, so a share of their median cannot bound
/// them; the p99s move with the host's fsync and wake-up tails by more
/// than any bound the result line allows (see `README.md`).
pub const TEXT_ONLY: [(&str, &str); 5] = [
    ("local_p99_us", "us"),
    ("multisite_p50_us", "us"),
    ("multisite_p99_us", "us"),
    ("failed_pct", "%"),
    ("log_bytes_per_txn", "bytes"),
];

/// Per-layer metrics the traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("workload.gen_ns", "ns"),
    ("workload.req_bytes", "bytes"),
    ("workload.codec_ns", "ns"),
    ("wire.frame_ns", "ns"),
    ("wire.frames_per_txn", "count"),
    ("client.ping_us", "us"),
    ("deploy.route_ns", "ns"),
    ("deploy.retries_per_txn", "count"),
    ("deploy.commit_ratio", "ratio"),
    ("phase.local.execution_us", "us"),
    ("phase.local.locking_us", "us"),
    ("phase.local.logging_us", "us"),
    ("phase.local.communication_us", "us"),
    ("phase.local.management_us", "us"),
    ("phase.multisite.execution_us", "us"),
    ("phase.multisite.locking_us", "us"),
    ("phase.multisite.logging_us", "us"),
    ("phase.multisite.communication_us", "us"),
    ("phase.multisite.management_us", "us"),
    ("twopc.prepare_us", "us"),
    ("twopc.decision_us", "us"),
    ("executor.parked_us", "us"),
    ("executor.queue_depth", "count"),
    ("engine.txn_us", "us"),
    ("executor.txn_us", "us"),
    ("executor.prepare_us", "us"),
    ("executor.decide_us", "us"),
    ("btree.get_ns", "ns"),
    ("buffer.hit_pct", "%"),
    ("buffer.evictions_per_txn", "count"),
    ("lock.acquire_release_ns", "ns"),
    ("wal.append_ns", "ns"),
    ("wal.commit_us.mem", "us"),
    ("wal.commit_us.file", "us"),
    ("wal.bytes_per_txn", "bytes"),
    ("wal.flushes_per_txn", "count"),
    ("dtxn.decision_force_us", "us"),
    ("ledger.local_unexplained_us", "us"),
    ("ledger.multisite_unexplained_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// What each per-layer metric measures and which end-to-end metric it
/// should move on which workload.
const LEDGER: &str = include_str!("../ledger.json");

/// Whether the served path of `workload` runs the layer `metric` measures
/// (per `ledger.json`).
pub fn on_path(metric: &str, workload: &str) -> bool {
    let Ok(doc) = json::parse(LEDGER) else {
        return true;
    };
    doc.get("per_layer")
        .map(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .find(|e| e.get("metric").and_then(Value::as_str) == Some(metric))
        .map(|e| {
            e.get("on_path")
                .map(Value::as_arr)
                .unwrap_or(&[])
                .iter()
                .any(|w| w.as_str() == Some(workload))
        })
        .unwrap_or(true)
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(TEXT_ONLY.iter())
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or("?")
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .map(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Check that the metrics this benchmark prints are exactly the ones
/// `BENCHMARK.json` declares, with the same units, and that the workload
/// is declared there too.
pub fn check_declared(benchmark_json: &str, workload: &str) -> Result<(), String> {
    let doc = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    for (key, list) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let (mut want, mut have) = (declared(&doc, key), ours(list));
        want.sort();
        have.sort();
        if want != have {
            return Err(format!(
                "metric-names: {key} in BENCHMARK.json is {want:?}, the benchmark prints {have:?}"
            ));
        }
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .map(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    if !workloads.contains(&workload) {
        return Err(format!(
            "workload {workload} is not declared in BENCHMARK.json"
        ));
    }
    Ok(())
}

/// Read `BENCHMARK.json` from the working directory (the checkout root).
pub fn read_benchmark_json() -> Result<String, String> {
    std::fs::read_to_string(Path::new("BENCHMARK.json"))
        .map_err(|e| format!("read BENCHMARK.json in the working directory: {e}"))
}

/// The result line: one JSON object, the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::num(*v),
                json::quote(unit_of(name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_benchmark_json() -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let text = repo_benchmark_json();
        for wl in crate::workload::NAMES {
            check_declared(&text, wl).unwrap();
        }
        assert!(check_declared(&text, "no-such-workload").is_err());
    }

    #[test]
    fn a_renamed_metric_is_caught() {
        let text = repo_benchmark_json().replace("\"local_p50_us\"", "\"local_median_us\"");
        let err = check_declared(&text, "tpcc-shared").unwrap_err();
        assert!(err.starts_with("metric-names"), "{err}");
    }

    #[test]
    fn benchmark_json_workloads_are_the_ones_implemented() {
        let doc = json::parse(&repo_benchmark_json()).unwrap();
        let mut names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        names.sort();
        let mut ours = crate::workload::NAMES.to_vec();
        ours.sort();
        assert_eq!(names, ours);
    }

    #[test]
    fn ledger_maps_every_layer_metric_to_printed_metrics_and_workloads() {
        let doc = json::parse(LEDGER).unwrap();
        let entries = doc.get("per_layer").unwrap().as_arr();
        let mut names: Vec<&str> = entries
            .iter()
            .map(|e| e.get("metric").unwrap().as_str().unwrap())
            .collect();
        names.sort();
        let mut ours: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        ours.sort();
        assert_eq!(names, ours);
        let e2e: Vec<&str> = END_TO_END
            .iter()
            .chain(TEXT_ONLY.iter())
            .map(|(n, _)| *n)
            .collect();
        for e in entries {
            for m in e.get("moves").unwrap().as_arr() {
                let metric = m.get("metric").unwrap().as_str().unwrap();
                let wl = m.get("workload").unwrap().as_str().unwrap();
                assert!(
                    e2e.contains(&metric),
                    "{metric} is not an end-to-end metric"
                );
                assert!(
                    crate::workload::NAMES.contains(&wl),
                    "{wl} is not a workload"
                );
            }
            for w in e.get("on_path").unwrap().as_arr() {
                assert!(crate::workload::NAMES.contains(&w.as_str().unwrap()));
            }
        }
        assert!(on_path("engine.txn_us", "tpcc-shared"));
        assert!(!on_path("engine.txn_us", "micro-2pc"));
    }

    #[test]
    fn result_line_parses_and_carries_units() {
        let line = result_line(true, 10, 1, &[("throughput_tps", 12.5), ("setup_s", 0.25)]);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted"), Some(&Value::Num(10.0)));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
        assert_eq!(
            m.get("throughput_tps").unwrap().get("value"),
            Some(&Value::Num(12.5))
        );
    }
}
