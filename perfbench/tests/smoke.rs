//! Minimal-length runs of every workload: each must pass every output
//! check and print every metric BENCHMARK.json names, with its unit.
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the debug build compiles the paper suite several times slower).

use std::process::{Command, Output};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dc-mbqc-perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &BENCHMARK[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_prints_every_metric() {
    for workload in ["served_mix", "cold_burst"] {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = perfbench(&[
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
            ]);
            assert!(
                out.status.success(),
                "{workload}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let line = stdout.lines().last().expect("a result line");
            assert!(
                line.starts_with("{\"correct\": true, ") && line.contains("\"failed\": 0, "),
                "{workload} trace {trace}: {line}"
            );
            let metrics = declared(section);
            assert_eq!(line.matches("\"value\": ").count(), metrics.len(), "{line}");
            for (name, unit) in metrics {
                let pattern = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&pattern)
                    .unwrap_or_else(|| panic!("{workload}: no {name}"));
                let rest = &line[at + pattern.len()..];
                let entry = &rest[..rest.find('}').expect("entry closes")];
                let (number, unit_field) = entry.split_once(", ").expect("value, unit");
                assert_eq!(
                    unit_field,
                    format!("\"unit\": \"{unit}\""),
                    "{workload}: {name}"
                );
                let value: f64 = number.parse().expect("a number");
                if section == "end_to_end" {
                    assert!(value > 0.0, "{workload}: {name} = {value}");
                }
            }
        }
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "cold_burst",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "cold_burst",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
