//! Runs every workload of the `benchmark` binary end to end, shrunken
//! with `--smoke`: untraced and traced, from the repository root, and
//! checks the printed result, the result files and the Chrome trace.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml` keeps
//! each run to about a second; debug builds take longer.

use std::path::{Path, PathBuf};
use std::process::Command;

use codesign_perfbench::json::{self, Json};
use codesign_perfbench::metrics::{END_TO_END, PER_LAYER};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// Runs one smoke workload and returns the last stdout line and the
/// result file, both parsed.
fn run(workload: &str, trace: bool) -> (Json, Json) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let tag = if trace { "traced" } else { "plain" };
    let out = dir.join(format!("{workload}-{tag}.json"));
    let chrome = dir.join(format!("{workload}-{tag}.trace.json"));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_benchmark"));
    cmd.current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out);
    if trace {
        cmd.arg("--trace-out").arg(&chrome);
    }
    let output = cmd.output().expect("the benchmark binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} ({tag}) failed:\n{stderr}"
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let line = json::parse(last).expect("the last line is JSON");
    let file = json::parse(&std::fs::read_to_string(&out).expect("a result file")).unwrap();
    if trace {
        let text = std::fs::read_to_string(&chrome).expect("a trace file");
        codesign::trace::validate_chrome_trace(&text).expect("the trace validates");
    }
    (line, file)
}

/// Asserts the result line has exactly the contract's keys and exactly
/// the metrics listed, each with its unit.
fn check_line(line: &Json, expected: &[(&str, &str)]) {
    let keys: Vec<&String> = line.as_obj().unwrap().keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
    assert_eq!(metrics.len(), expected.len());
    for (name, unit) in expected {
        let m = metrics
            .get(*name)
            .unwrap_or_else(|| panic!("no metric `{name}`"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{name} has no value"
        );
    }
}

fn check(workload: &str) {
    let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|d| (d.name, d.unit)).collect();
    let layers: Vec<(&str, &str)> = PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect();
    let (line, plain) = run(workload, false);
    check_line(&line, &e2e);
    for d in &END_TO_END {
        let v = line
            .get("metrics")
            .unwrap()
            .get(d.name)
            .unwrap()
            .get("value")
            .unwrap();
        assert!(v.as_f64().unwrap() > 0.0, "{workload}: {} reads 0", d.name);
    }
    let (line, traced) = run(workload, true);
    check_line(&line, &layers);
    assert_eq!(
        plain.get("digest"),
        traced.get("digest"),
        "{workload}: tracing changed the simulated results"
    );
    assert_eq!(plain.get("workload").and_then(Json::as_str), Some(workload));
}

#[test]
fn cosim_runs_clean() {
    check("cosim");
}

#[test]
fn explore_dsp_runs_clean() {
    check("explore_dsp");
}

#[test]
fn explore_tgff_runs_clean() {
    check("explore_tgff");
}

#[test]
fn serve_mix_runs_clean() {
    check("serve_mix");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "cosim", "--seed", "x"],
        &["--workload", "cosim", "--trace", "2"],
        &["compare", "only-one-dir"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .current_dir(repo_root())
            .args(args)
            .output()
            .unwrap();
        assert!(!output.status.success(), "{args:?} succeeded");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
