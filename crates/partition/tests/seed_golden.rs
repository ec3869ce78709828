//! Golden results of the seed partitioning implementation: single
//! evaluations, and every partitioner's whole search on the
//! `bench-partition` TGFF graphs.
//!
//! The constants were produced by the seed implementation (clone every
//! candidate, re-schedule from scratch), which the incremental
//! evaluator replaced and which has since been retired. Matching them
//! bit for bit keeps the evaluator scheduling exactly as the seed did,
//! and the incremental searches walking exactly the seed's path: a
//! delta-evaluation bug that changes one accept/reject decision moves a
//! final cost.

use codesign_ir::workload::tgff::{random_task_graph, TgffConfig};
use codesign_partition::algorithms::{
    gclp, hw_first, kernighan_lin, simulated_annealing, sw_first, AnnealingSchedule,
};
use codesign_partition::area::NaiveArea;
use codesign_partition::cost::Objective;
use codesign_partition::eval::{evaluate, EvalConfig};
use codesign_partition::{Partition, Side};

static NAIVE: NaiveArea = NaiveArea;

/// Final costs of (sw_first, hw_first, kernighan_lin, gclp,
/// simulated_annealing with the default schedule and seed 7).
const SEED_COSTS: [(usize, [f64; 5]); 2] = [
    (
        16,
        [
            0.6644265773192986,
            0.6644265773192986,
            0.6644265773192986,
            0.7001708570050226,
            0.6644265773192986,
        ],
    ),
    (
        64,
        [
            0.7388653768059168,
            0.7099866010210769,
            0.6972221041139472,
            0.7368410204526777,
            0.7105673632032411,
        ],
    ),
];

/// Per TGFF seed on 24 tasks: the (makespan, cost) of the all-software,
/// all-hardware and every-third-task-in-hardware partitions, then
/// Kernighan–Lin's partition (`s`/`h` per task) and cost.
type SeedEvaluations = (u64, [(u64, f64); 3], &'static str, f64);

const SEED_EVALUATIONS: [SeedEvaluations; 3] = [
    (
        1,
        [
            (268_228, 202.05301995076812),
            (26_321, 0.7448647185455954),
            (172_010, 94.02991279502685),
        ],
        "hhhshhhhhhhhhhhhshhhhhhh",
        0.6929886918131379,
    ),
    (
        7,
        [
            (199_613, 202.05290231578633),
            (23_846, 0.7891416598102238),
            (137_442, 108.31375337457699),
        ],
        "shhhhhshhhhhhhhhhhhhhhhh",
        0.7661713065718607,
    ),
    (
        42,
        [
            (276_936, 202.0548759201084),
            (30_787, 0.7809441191953792),
            (154_436, 68.87195112779762),
        ],
        "hhhhhhhhhhshhhhhhhhhshhh",
        0.7467993635816075,
    ),
];

#[test]
fn evaluations_reproduce_the_seed_evaluator() {
    for (seed, expected, kl_sides, kl_cost) in SEED_EVALUATIONS {
        let g = random_task_graph(&TgffConfig {
            tasks: 24,
            seed,
            ..TgffConfig::default()
        });
        let config = EvalConfig::new(
            Objective::performance_driven(g.total_sw_cycles() / 3),
            &NAIVE,
        );
        let every_third = g
            .ids()
            .map(|t| {
                if t.index() % 3 == 0 {
                    Side::Hw
                } else {
                    Side::Sw
                }
            })
            .collect();
        let partitions = [
            Partition::all_sw(g.len()),
            Partition::all_hw(g.len()),
            Partition::from_sides(every_third),
        ];
        for (i, (p, want)) in partitions.iter().zip(expected).enumerate() {
            let e = evaluate(&g, p, &config).expect("evaluates");
            assert_eq!((e.makespan, e.cost), want, "seed {seed} partition {i}");
        }
        let (p, e) = kernighan_lin(&g, &config).expect("algorithm runs");
        let sides: String = g
            .ids()
            .map(|t| match p.side(t) {
                Side::Sw => 's',
                Side::Hw => 'h',
            })
            .collect();
        assert_eq!(
            (sides.as_str(), e.cost),
            (kl_sides, kl_cost),
            "seed {seed}: KL"
        );
    }
}

#[test]
fn searches_reproduce_the_seed_costs() {
    let schedule = AnnealingSchedule::default();
    for (tasks, expected) in SEED_COSTS {
        let g = random_task_graph(&TgffConfig {
            tasks,
            seed: 0xDAC,
            ..TgffConfig::default()
        });
        let config = EvalConfig::new(
            Objective::performance_driven(g.total_sw_cycles() / 3),
            &NAIVE,
        );
        let results = [
            ("sw_first", sw_first(&g, &config)),
            ("hw_first", hw_first(&g, &config)),
            ("kernighan_lin", kernighan_lin(&g, &config)),
            ("gclp", gclp(&g, &config)),
            (
                "simulated_annealing",
                simulated_annealing(&g, &config, &schedule, 7),
            ),
        ];
        for ((name, result), want) in results.into_iter().zip(expected) {
            let (_, eval) = result.expect("algorithm runs");
            assert_eq!(eval.cost, want, "{name} at {tasks} tasks");
        }
    }
}
