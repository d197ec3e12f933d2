//! Self-test: every workload once at smoke scale, untraced and traced.
//! Each run must be correct with no failed count, and must print exactly
//! the metrics `BENCHMARK.json` declares for its mode, each once.

use std::path::Path;
use std::process::Command;

/// Metric names declared in one section (`end_to_end` or `per_layer`) of
/// the repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

/// Metric names in a result line, in print order.
fn printed(line: &str) -> Vec<String> {
    let marker = "\": {\"value\": ";
    let mut names = Vec::new();
    let mut rest = line;
    while let Some(i) = rest.find(marker) {
        let head = &rest[..i];
        names.push(head[head.rfind('"').expect("opening quote") + 1..].to_string());
        rest = &rest[i + marker.len()..];
    }
    names
}

#[test]
fn every_workload_runs_clean_at_smoke_scale() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    for workload in ["cold-skewed", "serve-warm", "checked"] {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_tc-perfledger"))
                .args([
                    "--workload",
                    workload,
                    "--scale",
                    "smoke",
                    "--seconds",
                    "0",
                    "--trace",
                    trace,
                ])
                .current_dir(&root)
                .output()
                .expect("benchmark binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let what = format!("{workload} --trace {trace}");
            assert!(
                out.status.success(),
                "{what}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(stdout.contains("failed_frac=0\n"), "{what}: {stdout}");
            let line = stdout.lines().last().expect("a result line");
            assert!(line.starts_with("{\"correct\": true, "), "{what}: {line}");
            assert!(line.contains("\"failed\": 0, "), "{what}: {line}");

            let names = printed(line);
            let mut unique = names.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), names.len(), "{what}: a metric printed twice");
            assert_eq!(
                names,
                declared(section),
                "{what}: printed metrics differ from BENCHMARK.json"
            );
        }
    }
}
