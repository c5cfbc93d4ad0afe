//! Quick smoke run of every workload, untraced and traced: every metric
//! `BENCHMARK.json` names must print with its unit, and no item may fail.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

const WORKLOADS: [&str; 3] = ["paper-grid", "tiny-leased", "store-query"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = text[start..].find(']').map_or(text.len(), |e| start + e);
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(entry[at..at + entry[at..].find('"')?].to_string())
    };
    text[start..end]
        .split('{')
        .skip(1)
        .filter_map(|entry| Some((field(entry, "name")?, field(entry, "unit")?)))
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .arg("--work-dir")
        .arg(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_prints_every_metric_and_fails_nothing() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = declared(section);
        assert!(!metrics.is_empty(), "{section} declares metrics");
        for workload in WORKLOADS {
            let line = run(workload, trace);
            assert!(line.contains("\"correct\": true"), "{workload}: {line}");
            assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
            for (name, unit) in &metrics {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&key)
                    .unwrap_or_else(|| panic!("{workload} trace {trace}: {name} missing"));
                let rest = &line[at + key.len()..];
                let (value, tail) = rest.split_once(',').expect("value then unit");
                value
                    .parse::<f64>()
                    .unwrap_or_else(|_| panic!("{workload}: {name} value {value:?}"));
                assert!(
                    tail.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
                    "{workload}: {name} unit is not {unit}"
                );
            }
        }
    }
}
