//! Integration: the `codesign` command-line front end.

use std::io::Write as _;
use std::process::Command;

use codesign::trace::json::{self, Json};

fn codesign(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_codesign"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn spec_file() -> tempfile::TempPath {
    let mut f = tempfile::NamedTempFile::new().expect("temp file");
    f.write_all(
        b"system demo\n\
          task a sw=2000 hw=200 area=20 par=0.8\n\
          task b sw=8000 hw=500 area=60 par=0.9\n\
          task c sw=1000 hw=400 area=15 mod=0.9\n\
          edge a -> b bytes=64\n\
          edge b -> c bytes=64\n\
          deadline 6000\n\
          channel x cap=0\n\
          process src iter=4\n\
            compute 500\n\
            send x 32\n\
          end\n\
          process dst iter=4\n\
            recv x\n\
            compute 4000\n\
          end\n",
    )
    .expect("writes");
    f.into_temp_path()
}

/// A minimal tempfile substitute so the test has no extra dependency.
mod tempfile {
    use std::path::{Path, PathBuf};

    pub struct NamedTempFile(std::fs::File, PathBuf);
    pub struct TempPath(PathBuf);

    impl NamedTempFile {
        pub fn new() -> std::io::Result<Self> {
            let path = std::env::temp_dir().join(format!(
                "codesign_cli_{}_{}.cds",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .expect("clock")
                    .as_nanos()
            ));
            Ok(NamedTempFile(std::fs::File::create(&path)?, path))
        }

        pub fn into_temp_path(self) -> TempPath {
            TempPath(self.1)
        }
    }

    impl std::io::Write for NamedTempFile {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            std::io::Write::write(&mut self.0, buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            std::io::Write::flush(&mut self.0)
        }
    }

    impl std::ops::Deref for TempPath {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

#[test]
fn help_lists_subcommands() {
    let (out, _, ok) = codesign(&["help"]);
    assert!(ok);
    for cmd in [
        "classify",
        "partition",
        "explore",
        "cosim",
        "multiproc",
        "ladder",
        "faults",
    ] {
        assert!(out.contains(cmd), "{cmd} missing from help");
    }
}

#[test]
fn classify_prints_the_survey() {
    let (out, _, ok) = codesign(&["classify"]);
    assert!(ok);
    assert!(out.contains("Chinook"));
    assert!(out.contains("co-processor flow"));
}

#[test]
fn partition_runs_on_a_spec_file() {
    let path = spec_file();
    let (out, err, ok) = codesign(&[
        "partition",
        path.to_str().unwrap(),
        "--algorithm",
        "kl",
        "--objective",
        "perf",
    ]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("makespan"));
    assert!(out.contains("deadline 6000: met"), "{out}");
}

#[test]
fn partition_portfolio_is_deterministic_and_never_worse() {
    let path = spec_file();
    let run = |algorithm: &str| {
        let (out, err, ok) = codesign(&[
            "partition",
            path.to_str().unwrap(),
            "--algorithm",
            algorithm,
        ]);
        assert!(ok, "{algorithm} stderr: {err}");
        let cost: f64 = out
            .split("cost ")
            .nth(1)
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or_else(|| panic!("no cost in output: {out}"));
        (out, cost)
    };
    let (out1, port_cost) = run("portfolio");
    let (out2, _) = run("portfolio");
    assert_eq!(out1, out2, "portfolio output must be reproducible");
    assert!(out1.contains("deadline 6000: met"), "{out1}");
    for algorithm in ["kl", "sw", "hw", "gclp", "sa"] {
        let (_, cost) = run(algorithm);
        assert!(
            port_cost <= cost + 1e-9,
            "portfolio cost {port_cost} lost to {algorithm} at {cost}"
        );
    }
}

#[test]
fn cosim_searches_a_hardware_budget() {
    let path = spec_file();
    let (out, err, ok) = codesign(&["cosim", path.to_str().unwrap(), "--budget", "1"]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("finish time"));
    assert!(
        out.contains("dst"),
        "the heavy process moves to hardware: {out}"
    );
}

#[test]
fn cosim_rejects_a_zero_quantum_without_panicking() {
    // Regression: `--quantum 0` reached `Coordinator::new`, whose
    // assertion panicked (exit 101); the served job already answered
    // `bad_field`. Both now share the one check in `run_cosim_sliced`.
    let path = spec_file();
    let out = Command::new(env!("CARGO_BIN_EXE_codesign"))
        .args(["cosim", path.to_str().unwrap(), "--quantum", "0"])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert_ne!(out.status.code(), Some(101), "panicked: {err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(
        err.contains("bad_field") && err.contains("quantum"),
        "{err}"
    );
}

#[test]
fn multiproc_allocates_processors() {
    let path = spec_file();
    let (out, err, ok) = codesign(&[
        "multiproc",
        path.to_str().unwrap(),
        "--deadline",
        "4000",
        "--solver",
        "exact",
    ]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("optimal: true"));
    assert!(out.contains("PE0:"));
}

#[test]
fn bad_input_fails_cleanly() {
    let (_, err, ok) = codesign(&["partition", "/nonexistent/file.cds"]);
    assert!(!ok);
    assert!(err.contains("cannot read"));
    let (_, err, ok) = codesign(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"));
}

#[test]
fn invalid_flag_values_name_the_flag() {
    let (_, err, ok) = codesign(&["ladder", "--iterations", "lots"]);
    assert!(!ok);
    assert!(err.contains("--iterations"), "{err}");
    assert!(err.contains("lots"), "{err}");
    let (_, err, ok) = codesign(&["faults", "--seeds", "-3"]);
    assert!(!ok);
    assert!(err.contains("--seeds"), "{err}");
    let (_, err, ok) = codesign(&["faults", "--scenario", "nope", "--seeds", "1"]);
    assert!(!ok);
    assert!(err.contains("unknown scenario"), "{err}");
    assert!(err.contains("ladder_message"), "lists the options: {err}");
}

#[test]
fn invalid_explore_flags_name_the_flag() {
    let path = spec_file();
    for (flag, value) in [
        ("--budget", "many"),
        ("--threads", "fast"),
        ("--seed", "1.5"),
        ("--workers", "-2"),
    ] {
        let (_, err, ok) = codesign(&["explore", path.to_str().unwrap(), flag, value]);
        assert!(!ok, "{flag} {value} must be rejected");
        assert!(err.contains(flag), "error must name {flag}: {err}");
        assert!(err.contains(value), "error must quote `{value}`: {err}");
    }
    let (_, err, ok) = codesign(&["explore", "/nonexistent/file.cds"]);
    assert!(!ok);
    assert!(err.contains("cannot read"), "{err}");
}

/// Drops the wall-clock lines (`wall_ns`, `points_per_sec`) from an
/// `explore --json` report, leaving the deterministic remainder that
/// must be byte-identical across thread counts and warm starts.
fn strip_timing(report: &str) -> String {
    report
        .lines()
        .filter(|l| {
            let l = l.trim_start();
            !l.starts_with("\"wall_ns\"") && !l.starts_with("\"points_per_sec\"")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn explore_reports_are_identical_across_thread_counts() {
    let path = spec_file();
    let run = |threads: &str| {
        let (out, err, ok) = codesign(&[
            "explore",
            path.to_str().unwrap(),
            "--budget",
            "48",
            "--seed",
            "7",
            "--threads",
            threads,
            "--json",
        ]);
        assert!(ok, "threads={threads} stderr: {err}");
        out
    };
    let solo = run("1");
    let pool = run("8");
    assert_eq!(
        strip_timing(&solo),
        strip_timing(&pool),
        "same seed, different --threads: reports must be byte-identical"
    );
    assert!(solo.contains("\"front\""), "{solo}");
    assert!(solo.contains("\"revisit_rate\""), "{solo}");
    // Wall-clock context rides along for cross-run comparability.
    assert!(solo.contains("\"points_per_sec\""), "{solo}");
    assert!(solo.contains("\"host_cores\""), "{solo}");
    assert!(solo.contains("\"dedup_skips\""), "{solo}");
    assert!(solo.contains("\"delta_hit_rate\""), "{solo}");
}

#[test]
fn explore_cache_file_warm_starts_byte_identically() {
    let path = spec_file();
    let cache_path =
        std::env::temp_dir().join(format!("codesign_cli_cache_{}.evc", std::process::id()));
    let _ = std::fs::remove_file(&cache_path);
    let run = || {
        codesign(&[
            "explore",
            path.to_str().unwrap(),
            "--budget",
            "48",
            "--seed",
            "7",
            "--cache-file",
            cache_path.to_str().unwrap(),
            "--json",
        ])
    };
    let (cold, cold_err, ok) = run();
    assert!(ok, "cold run failed: {cold_err}");
    assert!(
        cache_path.exists(),
        "the cold run must create the cache file"
    );
    let after_cold = std::fs::read(&cache_path).expect("cache file readable");
    let (warm, warm_err, ok) = run();
    assert!(ok, "warm run failed: {warm_err}");
    assert_eq!(
        strip_timing(&cold),
        strip_timing(&warm),
        "warm-started report must be byte-identical to the cold one"
    );
    assert!(
        warm_err.contains("warm start"),
        "the warm run announces its preload: {warm_err}"
    );
    let after_warm = std::fs::read(&cache_path).expect("cache file readable");
    assert_eq!(
        after_cold, after_warm,
        "re-running must not grow the cache file"
    );
    let _ = std::fs::remove_file(&cache_path);
}

#[test]
fn explore_rejects_a_corrupt_cache_file() {
    let path = spec_file();
    let cache_path =
        std::env::temp_dir().join(format!("codesign_cli_badcache_{}.evc", std::process::id()));
    std::fs::write(&cache_path, b"not a cache file at all").expect("writes");
    let (_, err, ok) = codesign(&[
        "explore",
        path.to_str().unwrap(),
        "--budget",
        "16",
        "--cache-file",
        cache_path.to_str().unwrap(),
    ]);
    assert!(!ok, "a corrupt cache file must abort the run");
    assert!(err.contains("cannot load cache file"), "{err}");
    let _ = std::fs::remove_file(&cache_path);
}

#[test]
fn explore_prints_a_front_and_writes_a_report() {
    let path = spec_file();
    let out_path =
        std::env::temp_dir().join(format!("codesign_cli_explore_{}.json", std::process::id()));
    let (out, err, ok) = codesign(&[
        "explore",
        path.to_str().unwrap(),
        "--budget",
        "32",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("Pareto front"), "{out}");
    assert!(out.contains("best (latency-led weights)"), "{out}");
    let json = std::fs::read_to_string(&out_path).expect("report written");
    assert!(json.contains("\"report\": \"explore\""), "{json}");
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn partition_emits_machine_readable_json() {
    let path = spec_file();
    let (out, err, ok) = codesign(&["partition", path.to_str().unwrap(), "--json"]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("\"command\": \"partition\""), "{out}");
    assert!(out.contains("\"makespan\""), "{out}");
    assert!(out.contains("\"side\""), "{out}");
    assert!(
        !out.contains("makespan "),
        "human table must be suppressed under --json: {out}"
    );
}

#[test]
fn faults_runs_a_small_campaign() {
    let out_path =
        std::env::temp_dir().join(format!("codesign_cli_faults_{}.json", std::process::id()));
    let (out, err, ok) = codesign(&[
        "faults",
        "--seeds",
        "2",
        "--scenario",
        "ladder_message",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("ladder_message"), "{out}");
    let json = std::fs::read_to_string(&out_path).expect("report written");
    assert!(json.contains("fault_campaign"), "{json}");
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn ladder_prints_all_levels() {
    let (out, err, ok) = codesign(&["ladder", "--bytes", "32", "--iterations", "4"]);
    assert!(ok, "stderr: {err}");
    for level in ["pin", "register", "driver", "message"] {
        assert!(out.contains(level), "{level} missing: {out}");
    }
}

#[test]
fn shipped_sample_specs_work_end_to_end() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    for (file, args) in [
        ("radio_link.cds", vec!["partition"]),
        (
            "camera_node.cds",
            vec!["partition", "--objective", "cost", "--algorithm", "hw"],
        ),
        ("camera_node.cds", vec!["cosim", "--budget", "1"]),
        (
            "audio_codec.cds",
            vec!["partition", "--algorithm", "gclp", "--sharing"],
        ),
        (
            "radio_link.cds",
            vec!["multiproc", "--deadline", "20000", "--solver", "bin"],
        ),
    ] {
        let path = root.join(file);
        let mut full: Vec<&str> = vec![args[0], path.to_str().unwrap()];
        full.extend(&args[1..]);
        let (out, err, ok) = codesign(&full);
        assert!(ok, "{file} {args:?}: {err}");
        assert!(!out.is_empty(), "{file} {args:?} produced no output");
    }
}

/// Runs `codesign serve` (stdio transport) with `input` on stdin.
fn serve_stdio(input: &str) -> (String, String, bool) {
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_codesign"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("writes requests");
    let out = child.wait_with_output().expect("serve exits");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Every reply line in `out`, parsed.
fn replies(out: &str) -> Vec<Json> {
    out.lines()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect()
}

/// The reply to request `id` with `status`.
fn reply<'a>(replies: &'a [Json], id: &str, status: &str) -> &'a Json {
    replies
        .iter()
        .find(|r| {
            r.get("id").and_then(Json::as_str) == Some(id)
                && r.get("status").and_then(Json::as_str) == Some(status)
        })
        .unwrap_or_else(|| panic!("no `{status}` reply for `{id}` in {replies:?}"))
}

/// The `result` of the `ok` reply to request `id` among the reply lines
/// in `out`.
fn ok_result(out: &str, id: &str) -> String {
    let replies = replies(out);
    let result = reply(&replies, id, "ok")
        .get("result")
        .and_then(Json::as_str);
    result.expect("an ok reply carries a result").to_string()
}

#[test]
fn serve_names_every_malformed_request_code() {
    let path = spec_file();
    let spec = path.to_str().unwrap();
    let input = format!(
        "this is not json\n\
         {{\"id\":\"k\",\"kind\":\"frobnicate\"}}\n\
         {{\"id\":\"m\",\"kind\":\"partition\"}}\n\
         {{\"id\":\"r\",\"kind\":\"explore\",\"spec\":\"{spec}\",\"budget\":9999999}}\n\
         {{\"id\":\"p\",\"kind\":\"partition\",\"spec\":\"/nonexistent.cds\"}}\n\
         {{\"id\":\"q\",\"kind\":\"partition\",\"spec\":\"{spec}\",\"priority\":\"urgent\"}}\n\
         {{\"id\":\"w\",\"kind\":\"wait\"}}\n\
         {{\"id\":\"z\",\"kind\":\"shutdown\"}}\n"
    );
    let (out, err, ok) = serve_stdio(&input);
    assert!(ok, "serve must exit cleanly: {err}");
    // One named, machine-readable code per malformed shape — and the
    // server survives all of them to answer the shutdown.
    let replies = replies(&out);
    let codes: Vec<&str> = replies
        .iter()
        .filter_map(|r| r.get("code").and_then(Json::as_str))
        .collect();
    for code in [
        "bad_json",      // unparseable line
        "unknown_kind",  // no such job kind
        "missing_field", // partition without a spec
        "bad_field",     // budget out of range
        "bad_spec",      // unreadable spec file
        "bad_priority",  // priority not high|normal|low
    ] {
        assert!(codes.contains(&code), "{code} missing in: {out}");
    }
    // The shutdown must report final stats.
    reply(&replies, "z", "stats");
}

#[test]
fn serve_results_are_byte_identical_to_the_cli() {
    let path = spec_file();
    let spec = path.to_str().unwrap();
    let (cli_partition, err, ok) = codesign(&["partition", spec, "--json"]);
    assert!(ok, "stderr: {err}");
    let (cli_cosim, err, ok) = codesign(&["cosim", spec, "--json"]);
    assert!(ok, "stderr: {err}");

    let input = format!(
        "{{\"id\":\"part\",\"kind\":\"partition\",\"spec\":\"{spec}\"}}\n\
         {{\"id\":\"cosim\",\"kind\":\"cosim\",\"spec\":\"{spec}\"}}\n\
         {{\"id\":\"w\",\"kind\":\"wait\"}}\n\
         {{\"id\":\"z\",\"kind\":\"shutdown\"}}\n"
    );
    let (out, err, ok) = serve_stdio(&input);
    assert!(ok, "serve must exit cleanly: {err}");
    for (id, cli_bytes) in [("part", &cli_partition), ("cosim", &cli_cosim)] {
        assert_eq!(
            &ok_result(&out, id),
            cli_bytes,
            "served `{id}` bytes must equal the direct CLI run"
        );
    }
}

#[test]
fn serve_retries_transient_chaos_and_reports_attempts() {
    let path = spec_file();
    let spec = path.to_str().unwrap();
    let input = format!(
        "{{\"id\":\"flaky\",\"kind\":\"partition\",\"spec\":\"{spec}\",\"chaos\":\"transient:2\"}}\n\
         {{\"id\":\"w\",\"kind\":\"wait\"}}\n\
         {{\"id\":\"z\",\"kind\":\"shutdown\"}}\n"
    );
    let (out, err, ok) = serve_stdio(&input);
    assert!(ok, "serve must exit cleanly: {err}");
    let replies = replies(&out);
    // Two injected faults then success = 3 attempts.
    let flaky = reply(&replies, "flaky", "ok");
    assert_eq!(
        flaky.get("attempts").and_then(Json::as_int),
        Some(3),
        "{out}"
    );
    // The final stats count both retries.
    let stats = reply(&replies, "z", "stats").get("stats");
    assert_eq!(
        stats.and_then(|s| s.get("retried")).and_then(Json::as_int),
        Some(2),
        "{out}"
    );
}

/// A spec whose system and task names need escaping: every JSON report,
/// run directly or served, must parse and give the names back unchanged.
#[test]
fn json_reports_escape_system_and_task_names() {
    let sample = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/specs/radio_link.cds");
    let text = std::fs::read_to_string(sample)
        .expect("sample spec")
        .replace("system radio_link", "system radio\"link\\x")
        .replace("task sample ", "task sam\"ple ")
        .replace("edge sample ", "edge sam\"ple ");
    let mut f = tempfile::NamedTempFile::new().expect("temp file");
    f.write_all(text.as_bytes()).expect("writes spec");
    let path = f.into_temp_path();
    let spec = path.to_str().unwrap();

    let check = |kind: &str, report: &str| {
        let doc = json::parse(report).unwrap_or_else(|e| panic!("{kind}: {e}\n{report}"));
        let name = if kind == "explore" { "spec" } else { "system" };
        assert_eq!(
            doc.get(name).and_then(Json::as_str),
            Some("radio\"link\\x"),
            "{kind}: {report}"
        );
        if kind == "partition" {
            let Some(Json::Array(tasks)) = doc.get("tasks") else {
                panic!("no tasks: {report}")
            };
            assert_eq!(
                tasks[0].get("name").and_then(Json::as_str),
                Some("sam\"ple")
            );
        }
    };
    for (kind, extra) in [
        ("partition", None),
        ("explore", Some("16")),
        ("cosim", None),
    ] {
        let mut args = vec![kind, spec, "--json"];
        if let Some(budget) = extra {
            args.extend(["--budget", budget]);
        }
        let (out, err, ok) = codesign(&args);
        assert!(ok, "{kind}: {err}");
        check(kind, &out);
    }

    let spec = json::escape(spec);
    let input = format!(
        "{{\"id\":\"partition\",\"kind\":\"partition\",\"spec\":\"{spec}\"}}\n\
         {{\"id\":\"explore\",\"kind\":\"explore\",\"spec\":\"{spec}\",\"budget\":16}}\n\
         {{\"id\":\"cosim\",\"kind\":\"cosim\",\"spec\":\"{spec}\"}}\n\
         {{\"id\":\"w\",\"kind\":\"wait\"}}\n"
    );
    let (out, err, ok) = serve_stdio(&input);
    assert!(ok, "serve must exit cleanly: {err}");
    for kind in ["partition", "explore", "cosim"] {
        check(kind, &ok_result(&out, kind));
    }
}
