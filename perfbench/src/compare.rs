//! `benchmark compare DIR_A DIR_B`: judges two sets of result files
//! (written with `--out`) against the bounds in the metric catalogue.
//!
//! For every workload and end-to-end metric it prints each set's median
//! and quartiles. A metric is `unresolved` when either set's spread
//! (interquartile range over median) exceeds the metric's bound, and
//! `worse` or `better` when set B's median differs from set A's by more
//! than the bound; otherwise `same`. `setup_s` is judged on its medians
//! alone. Runs of one workload and seed must report one digest across
//! both sets: the simulated results may not change. Where a set also
//! holds traced runs, the trace overhead is the traced median op latency
//! over the untraced one, minus one.
//!
//! Exits 0 when nothing is `worse`, `unresolved` or mismatched, else 1.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::metrics::{Better, END_TO_END};
use crate::stats;

/// One result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether the run was traced.
    pub trace: bool,
    /// Output digest.
    pub digest: String,
    /// Metric values by name (end-to-end or per-layer, per `trace`).
    pub values: BTreeMap<String, f64>,
}

/// Parses one result file's text.
///
/// # Errors
///
/// Names the first missing or malformed field.
pub fn parse_run(text: &str) -> Result<Run, String> {
    let doc = json::parse(text)?;
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("missing `{k}`"));
    let trace = matches!(field("trace")?, Json::Bool(true));
    let values = field(if trace { "layers" } else { "metrics" })?
        .as_obj()
        .ok_or("metrics are not an object")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(Run {
        workload: field("workload")?
            .as_str()
            .ok_or("bad `workload`")?
            .to_string(),
        seed: field("seed")?.as_f64().ok_or("bad `seed`")? as u64,
        trace,
        digest: field("digest")?.as_str().ok_or("bad `digest`")?.to_string(),
        values,
    })
}

fn load(dir: &Path) -> Result<Vec<Run>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runs = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "json") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            runs.push(parse_run(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    if runs.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(runs)
}

/// A set's summary of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of runs.
    pub n: usize,
    /// Quartiles (first, median, third).
    pub q: [f64; 3],
}

impl Summary {
    fn of(values: &[f64]) -> Option<Summary> {
        let q = match values.len() {
            0 => return None,
            1 => [values[0]; 3],
            _ => stats::quartiles(values)?,
        };
        Some(Summary { n: values.len(), q })
    }

    /// Interquartile range over the median.
    #[must_use]
    pub fn spread(&self) -> f64 {
        (self.q[2] - self.q[0]) / self.q[1].abs().max(f64::MIN_POSITIVE)
    }
}

/// The verdict on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound.
    Same,
    /// B's median is better by more than the bound.
    Better,
    /// B's median is worse by more than the bound.
    Worse,
    /// A set's spread exceeds the bound.
    Unresolved,
}

/// Judges B against A for a metric with the given bound and direction.
#[must_use]
pub fn judge(a: &Summary, b: &Summary, bound: f64, better: Better) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    judge_medians(a, b, bound, better)
}

/// Judges B against A on their medians alone.
#[must_use]
pub fn judge_medians(a: &Summary, b: &Summary, bound: f64, better: Better) -> Verdict {
    let change = (b.q[1] - a.q[1]) / a.q[1].abs().max(f64::MIN_POSITIVE);
    let worse = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worse > bound {
        Verdict::Worse
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn values(runs: &[Run], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.values.get(metric).copied())
        .collect()
}

/// Digest mismatches among runs of one workload and seed.
fn digest_mismatches(runs: &[&Run]) -> Vec<String> {
    let mut seen: BTreeMap<(&str, u64), &str> = BTreeMap::new();
    let mut out = Vec::new();
    for r in runs {
        let key = (r.workload.as_str(), r.seed);
        match seen.get(&key) {
            Some(d) if *d != r.digest => out.push(format!(
                "{} seed {}: digest {} against {}",
                r.workload, r.seed, r.digest, d
            )),
            Some(_) => {}
            None => {
                seen.insert(key, &r.digest);
            }
        }
    }
    out
}

/// Trace overhead of a set for a workload, when it holds both kinds.
fn trace_overhead(runs: &[Run], workload: &str) -> Option<f64> {
    let traced = stats::median(&values(runs, workload, true, "traced_op_p50_ms"))?;
    let plain = stats::median(&values(runs, workload, false, "op_p50_ms"))?;
    Some(traced / plain - 1.0)
}

/// Runs the subcommand on `[DIR_A, DIR_B]`. Returns whether the sets
/// agree.
///
/// # Errors
///
/// Bad arguments or unreadable result files.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two directories of result files".into());
    };
    let (a, b) = (load(Path::new(a))?, load(Path::new(b))?);
    let mut clean = true;
    let all: Vec<&Run> = a.iter().chain(&b).collect();
    for m in digest_mismatches(&all) {
        println!("DIGEST MISMATCH {m}");
        clean = false;
    }
    let workloads: std::collections::BTreeSet<&str> =
        all.iter().map(|r| r.workload.as_str()).collect();
    println!(
        "{:<13} {:<12} {:>4} {:>12} {:>12} {:>12} {:>4} {:>12} {:>12} {:>12} {:>8}  verdict",
        "workload",
        "metric",
        "n_a",
        "q1_a",
        "median_a",
        "q3_a",
        "n_b",
        "q1_b",
        "median_b",
        "q3_b",
        "change"
    );
    for w in &workloads {
        for metric in &END_TO_END {
            let sa = Summary::of(&values(&a, w, false, metric.name));
            let sb = Summary::of(&values(&b, w, false, metric.name));
            let (Some(sa), Some(sb)) = (sa, sb) else {
                println!("{w:<13} {:<12} missing in a set", metric.name);
                clean = false;
                continue;
            };
            // Set-up time is judged on medians alone: a few milliseconds
            // per repetition, its run-to-run spread says more about the
            // host than about the program.
            let verdict = if metric.name == "setup_s" {
                judge_medians(&sa, &sb, metric.bound, metric.better)
            } else {
                judge(&sa, &sb, metric.bound, metric.better)
            };
            if matches!(verdict, Verdict::Worse | Verdict::Unresolved) {
                clean = false;
            }
            println!(
                "{w:<13} {:<12} {:>4} {:>12.6} {:>12.6} {:>12.6} {:>4} {:>12.6} {:>12.6} {:>12.6} {:>+7.2}%  {verdict:?} \
                 (bound {:.0}%, spreads {:.1}% / {:.1}%)",
                metric.name,
                sa.n,
                sa.q[0],
                sa.q[1],
                sa.q[2],
                sb.n,
                sb.q[0],
                sb.q[1],
                sb.q[2],
                (sb.q[1] / sa.q[1] - 1.0) * 100.0,
                metric.bound * 100.0,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
            );
        }
        for (name, set) in [("a", &a), ("b", &b)] {
            if let Some(o) = trace_overhead(set, w) {
                println!("{w:<13} trace_overhead ({name}) {:+.2}%", o * 100.0);
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(v: &[f64]) -> Summary {
        Summary::of(v).unwrap()
    }

    #[test]
    fn verdicts_respect_bound_direction_and_spread() {
        let a = summary(&[99.0, 100.0, 100.0, 101.0]);
        let slower = summary(&[119.0, 120.0, 120.0, 121.0]);
        assert_eq!(judge(&a, &slower, 0.1, Better::Lower), Verdict::Worse);
        assert_eq!(judge(&a, &slower, 0.1, Better::Higher), Verdict::Better);
        assert_eq!(judge(&a, &slower, 0.25, Better::Lower), Verdict::Same);
        let noisy = summary(&[60.0, 100.0, 140.0, 180.0]);
        assert_eq!(judge(&a, &noisy, 0.1, Better::Lower), Verdict::Unresolved);
        // Medians alone: 120 against 100.
        assert_eq!(
            judge_medians(&a, &noisy, 0.1, Better::Lower),
            Verdict::Worse
        );
        assert_eq!(
            judge_medians(&a, &noisy, 0.25, Better::Lower),
            Verdict::Same
        );
    }

    #[test]
    fn result_files_parse_and_digests_are_compared() {
        let text = r#"{"workload": "cosim", "seed": 7, "git_rev": "x", "host_cores": 2,
            "trace": false, "seconds": 1.0, "correct": true, "ops": 3, "ops_failed": 0,
            "digest": "00ff", "metrics": {"op_p50_ms": {"value": 1.5, "unit": "ms"}},
            "layers": {}}"#;
        let run = parse_run(text).unwrap();
        assert_eq!(run.seed, 7);
        assert_eq!(run.values["op_p50_ms"], 1.5);
        let mut other = run.clone();
        assert!(digest_mismatches(&[&run, &other]).is_empty());
        other.digest = "0100".into();
        assert_eq!(digest_mismatches(&[&run, &other]).len(), 1);
        other.seed = 8;
        assert!(digest_mismatches(&[&run, &other]).is_empty());
    }
}
