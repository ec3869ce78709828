//! `bench-partition` — timings for the incremental partition evaluator,
//! emitted as `BENCH_partition.json`.
//!
//! Each of the five algorithms runs on seeded TGFF graphs of 16, 64 and
//! 256 tasks; `after_ns` is its mean time per run on this host, and every
//! timed run must return the same result as the warm-up run. That the
//! incremental evaluator returns the retired seed implementation's
//! results is pinned by `crates/partition/tests/seed_golden.rs`;
//! before/after timings across commits come from `benchmark compare`.
//!
//! ```text
//! cargo run --release -p codesign-bench --bin bench-partition [--smoke] [out.json]
//! ```
//!
//! `--smoke` times the 16-task graphs only and writes under `target/`.

use std::time::Instant;

use codesign_bench::jsonout;
use codesign_ir::task::TaskGraph;
use codesign_ir::workload::tgff::{random_task_graph, TgffConfig};
use codesign_partition::algorithms::{
    self, simulated_annealing, AnnealingSchedule, PartitionResult,
};
use codesign_partition::area::NaiveArea;
use codesign_partition::cost::Objective;
use codesign_partition::eval::EvalConfig;

static NAIVE: NaiveArea = NaiveArea;

/// Task-graph sizes measured, with iteration counts that shrink with
/// size.
const SIZES: &[(usize, u32)] = &[(16, 20), (64, 5), (256, 1)];

fn graph(tasks: usize) -> TaskGraph {
    random_task_graph(&TgffConfig {
        tasks,
        seed: 0xDAC,
        ..TgffConfig::default()
    })
}

fn time(iterations: u32, f: impl Fn() -> PartitionResult) -> u128 {
    // One warm-up run, then the average of `iterations` timed runs.
    let warm = f().expect("algorithm runs");
    let start = Instant::now();
    for _ in 0..iterations {
        let (_, e) = f().expect("algorithm runs");
        assert_eq!(e, warm.1, "non-deterministic algorithm under benchmark");
    }
    start.elapsed().as_nanos() / u128::from(iterations)
}

fn main() {
    let (smoke, out_path) =
        jsonout::smoke_args("BENCH_partition.json", "target/BENCH_partition_smoke.json");
    let sizes = if smoke { &SIZES[..1] } else { SIZES };
    let schedule = AnnealingSchedule::default();
    let mut rows: Vec<String> = Vec::new();

    for &(tasks, iterations) in sizes {
        let g = graph(tasks);
        let config = EvalConfig::new(
            Objective::performance_driven(g.total_sw_cycles() / 3),
            &NAIVE,
        );
        let runs: [(&'static str, &dyn Fn() -> PartitionResult); 5] = [
            ("sw_first", &|| algorithms::sw_first(&g, &config)),
            ("hw_first", &|| algorithms::hw_first(&g, &config)),
            ("kernighan_lin", &|| algorithms::kernighan_lin(&g, &config)),
            ("gclp", &|| algorithms::gclp(&g, &config)),
            ("simulated_annealing", &|| {
                simulated_annealing(&g, &config, &schedule, 7)
            }),
        ];
        for (algorithm, run) in runs {
            let after_ns = time(iterations, run);
            eprintln!("{algorithm:>20} {tasks:>4} tasks: {after_ns:>12} ns");
            rows.push(format!(
                "{{\"algorithm\": \"{algorithm}\", \"tasks\": {tasks}, \"after_ns\": {after_ns}}}"
            ));
        }
    }

    let json = jsonout::render(
        "partition_algorithms",
        &[
            ("units", "ns_per_run".into()),
            ("host_cores", jsonout::host_cores().into()),
            ("git_rev", jsonout::git_rev().as_str().into()),
            (
                "after",
                "incremental Evaluator with suffix-restart delta evaluation".into(),
            ),
        ],
        &rows,
    );
    jsonout::write(&out_path, &json);
}
