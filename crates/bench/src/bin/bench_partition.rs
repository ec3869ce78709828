//! `bench-partition` — before/after timings for the incremental
//! partition evaluator, emitted as `BENCH_partition.json`.
//!
//! "Before" is the seed implementation (clone every candidate,
//! re-schedule from scratch), retired since: its timings are recorded
//! constants from a 1-core host, not measured on this one. "After" is
//! the incremental [`Evaluator`](codesign_partition::eval::Evaluator)-based
//! algorithms, timed here on the same TGFF graphs. That both return the
//! same results is pinned by `crates/partition/tests/seed_golden.rs`.
//! Pin the run to one core so the speedup column compares like with
//! like:
//!
//! ```text
//! taskset -c 0 cargo run --release -p codesign-bench --bin bench-partition [out.json]
//! ```

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

/// The seed implementation's recorded ns per run, in `SIZES` order and,
/// within a size, in the order the algorithms are run below.
const SEED_BEFORE_NS: [[u128; 5]; 3] = [
    [583_377, 108_531, 681_463, 259_532, 5_843_319],
    [84_723_010, 5_005_524, 267_803_365, 32_233_443, 65_192_687],
    [
        17_065_942_039,
        911_795_559,
        38_852_584_875,
        7_112_334_267,
        1_086_486_459,
    ],
];

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
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_partition.json".to_string());
    let schedule = AnnealingSchedule::default();
    let mut rows: Vec<String> = Vec::new();
    let mut kl64_speedup = 0.0;

    for (&(tasks, iterations), seed_ns) in SIZES.iter().zip(SEED_BEFORE_NS) {
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
        for ((algorithm, run), before_ns) in runs.into_iter().zip(seed_ns) {
            let after_ns = time(iterations, run);
            let speedup = before_ns as f64 / after_ns.max(1) as f64;
            eprintln!(
                "{algorithm:>20} {tasks:>4} tasks: {before_ns:>12} ns -> {after_ns:>12} ns  ({speedup:.1}x)"
            );
            if algorithm == "kernighan_lin" && tasks == 64 {
                kl64_speedup = speedup;
            }
            rows.push(format!(
                "{{\"algorithm\": \"{algorithm}\", \"tasks\": {tasks}, \"before_ns\": {before_ns}, \
                 \"after_ns\": {after_ns}, \"speedup\": {speedup:.2}}}"
            ));
        }
    }

    let json = jsonout::render(
        "partition_algorithms",
        &[
            ("units", "ns_per_run".into()),
            ("host_cores", jsonout::host_cores().into()),
            (
                "before",
                "recorded seed clone-and-reevaluate timings (1-core host), not measured on this host"
                    .into(),
            ),
            (
                "after",
                "incremental Evaluator with suffix-restart delta evaluation".into(),
            ),
        ],
        &rows,
    );
    jsonout::write(&out_path, &json);

    println!("kernighan_lin @ 64 tasks: {kl64_speedup:.1}x (gate: >= 5x)");
    assert!(
        kl64_speedup >= 5.0,
        "incremental KL at 64 tasks is only {kl64_speedup:.1}x faster than the seed"
    );
}
