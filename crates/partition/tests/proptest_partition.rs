//! Property-based tests for partition evaluation and search invariants.

use codesign_ir::task::TaskId;
use codesign_ir::workload::tgff::{random_task_graph, TgffConfig};
use codesign_partition::algorithms::{
    gclp, hw_first, kernighan_lin, portfolio, simulated_annealing, sw_first, AnnealingSchedule,
    PORTFOLIO_SA_SEEDS,
};
use codesign_partition::area::{HwAreaModel, NaiveArea};
use codesign_partition::cost::{EdgeCommModel, Objective};
use codesign_partition::eval::{evaluate, EvalConfig, Evaluator};
use codesign_partition::{Partition, Side};
use proptest::prelude::*;

static NAIVE: NaiveArea = NaiveArea;

fn cfg(objective: Objective) -> EvalConfig<'static> {
    EvalConfig::new(objective, &NAIVE)
}

fn arb_graph() -> impl Strategy<Value = codesign_ir::task::TaskGraph> {
    (2usize..20, any::<u64>(), 0.0f64..1.0).prop_map(|(tasks, seed, edge_prob)| {
        random_task_graph(&TgffConfig {
            tasks,
            seed,
            edge_prob,
            ..TgffConfig::default()
        })
    })
}

fn arb_partition(n: usize) -> impl Strategy<Value = Partition> {
    prop::collection::vec(prop::bool::ANY, n).prop_map(|bits| {
        Partition::from_sides(
            bits.into_iter()
                .map(|b| if b { Side::Hw } else { Side::Sw })
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The makespan of any partition is bounded below by the critical
    /// path under the per-side costs and above by serial execution plus
    /// all communication.
    #[test]
    fn makespan_bounds(g in arb_graph(), seed in any::<u64>()) {
        let n = g.len();
        let partition = {
            let mut p = Partition::all_sw(n);
            for (i, id) in g.ids().enumerate() {
                if (seed >> (i % 64)) & 1 == 1 {
                    p.flip(id);
                }
            }
            p
        };
        let config = cfg(Objective::default());
        let e = evaluate(&g, &partition, &config).expect("evaluates");
        let side_cost = |id: TaskId, t: &codesign_ir::task::Task| match partition.side(id) {
            Side::Sw => t.sw_cycles(),
            Side::Hw => t.hw_cycles(),
        };
        let cp = g.critical_path(side_cost).expect("acyclic");
        prop_assert!(e.makespan >= cp, "{} < critical path {cp}", e.makespan);
        let serial: u64 = g.iter().map(|(id, t)| side_cost(id, t)).sum();
        prop_assert!(
            e.makespan <= serial + e.comm_cycles,
            "{} > serial {serial} + comm {}",
            e.makespan,
            e.comm_cycles
        );
    }

    /// Cross-boundary bytes are exactly the edges whose endpoints sit on
    /// different sides.
    #[test]
    fn cross_bytes_match_boundary_edges(g in arb_graph(), p in arb_partition(19)) {
        prop_assume!(p.len() >= g.len());
        let p = Partition::from_sides(
            g.ids().map(|id| p.side_of_index(id.index())).collect(),
        );
        let config = cfg(Objective::default());
        let e = evaluate(&g, &p, &config).expect("evaluates");
        let expected: u64 = g
            .edges()
            .iter()
            .filter(|edge| p.side(edge.src) != p.side(edge.dst))
            .map(|edge| edge.bytes)
            .sum();
        prop_assert_eq!(e.cross_bytes, expected);
        let per_edge_overhead = EdgeCommModel::default().setup_cycles;
        let crossing_edges = g
            .edges()
            .iter()
            .filter(|edge| p.side(edge.src) != p.side(edge.dst))
            .count() as u64;
        prop_assert!(e.comm_cycles >= crossing_edges * per_edge_overhead);
    }

    /// The all-hardware partition costs zero software time on the CPU and
    /// the all-software partition costs zero area — and the hardware area
    /// of any partition is the estimator's price of its hardware set.
    #[test]
    fn extreme_partitions_have_extreme_resources(g in arb_graph()) {
        let config = cfg(Objective::default());
        let sw = evaluate(&g, &Partition::all_sw(g.len()), &config).expect("evaluates");
        prop_assert_eq!(sw.hw_area, 0.0);
        prop_assert_eq!(sw.cross_bytes, 0);
        let hw = evaluate(&g, &Partition::all_hw(g.len()), &config).expect("evaluates");
        let all: Vec<TaskId> = g.ids().collect();
        prop_assert!((hw.hw_area - NAIVE.area_of(&g, &all)).abs() < 1e-9);
    }

    /// Every search algorithm returns a partition at least as good as its
    /// own starting point under the objective it optimized.
    #[test]
    fn searches_never_regress_their_start(g in arb_graph(), deadline_frac in 2u64..6) {
        let config = cfg(Objective::performance_driven(
            g.total_sw_cycles() / deadline_frac,
        ));
        let start_sw = evaluate(&g, &Partition::all_sw(g.len()), &config).expect("evaluates");
        let (_, e) = sw_first(&g, &config).expect("runs");
        prop_assert!(e.cost <= start_sw.cost + 1e-9);
        let start_hw = evaluate(&g, &Partition::all_hw(g.len()), &config).expect("evaluates");
        let (_, e) = hw_first(&g, &config).expect("runs");
        prop_assert!(e.cost <= start_hw.cost + 1e-9);
        let (_, e) = kernighan_lin(&g, &config).expect("runs");
        prop_assert!(e.cost <= start_sw.cost + 1e-9);
    }

    /// Evaluation is deterministic.
    #[test]
    fn evaluation_is_deterministic(g in arb_graph()) {
        let config = cfg(Objective::default());
        let p = Partition::all_hw(g.len());
        let a = evaluate(&g, &p, &config).expect("evaluates");
        let b = evaluate(&g, &p, &config).expect("evaluates");
        prop_assert_eq!(a, b);
    }

    /// Incremental delta-evaluation is bit-identical to a full
    /// `evaluate()` from scratch: over a random start partition and a
    /// random flip sequence, every `probe_flip` matches the full
    /// evaluation of the flipped partition, every `apply_flip` leaves the
    /// evaluator's current state equal to a fresh evaluation, and
    /// re-applying the whole sequence in reverse restores the start
    /// (flips are involutive). A second evaluator commits the same flips
    /// in random-size batches, empty ones included, through
    /// `apply_flips`: after every batch it equals a full evaluation, a
    /// task listed twice in one batch flips back, and it ends in the
    /// one-at-a-time evaluator's state.
    #[test]
    fn incremental_matches_full_evaluation(
        g in arb_graph(),
        p in arb_partition(19),
        flips in prop::collection::vec(any::<u64>(), 1..24),
        batch_sizes in prop::collection::vec(0usize..5, 1..24),
    ) {
        prop_assume!(p.len() >= g.len());
        let start = Partition::from_sides(
            g.ids().map(|id| p.side_of_index(id.index())).collect(),
        );
        let config = cfg(Objective::performance_driven(
            g.total_sw_cycles() / 2,
        ));
        let mut ev = Evaluator::new(&g, &config, &start).expect("evaluator builds");
        prop_assert_eq!(
            ev.current(),
            &evaluate(&g, &start, &config).expect("evaluates")
        );

        let mut reference = start.clone();
        let flips: Vec<TaskId> = flips
            .into_iter()
            .map(|raw| TaskId::from_index((raw % g.len() as u64) as usize))
            .collect();
        for &t in &flips {
            // Probing must not disturb the evaluator, and must equal the
            // full evaluation of the hypothetical flipped partition.
            let mut probed = reference.clone();
            probed.flip(t);
            let probe = ev.probe_flip(t);
            prop_assert_eq!(&probe, &evaluate(&g, &probed, &config).expect("evaluates"));
            prop_assert_eq!(
                ev.current(),
                &evaluate(&g, &reference, &config).expect("evaluates")
            );

            // Committing the flip tracks a from-scratch evaluation.
            reference.flip(t);
            let committed = ev.apply_flip(t).clone();
            prop_assert_eq!(&committed, &probe);
            prop_assert_eq!(&ev.partition(), &reference);
            prop_assert_eq!(
                &committed,
                &evaluate(&g, &reference, &config).expect("evaluates")
            );
        }

        // The same flips in random-size batches; the last batch holds
        // whatever is left plus the first task twice.
        let mut batches: Vec<Vec<TaskId>> = Vec::new();
        let mut rest = flips.as_slice();
        for &size in &batch_sizes {
            let (batch, tail) = rest.split_at(size.min(rest.len()));
            batches.push(batch.to_vec());
            rest = tail;
        }
        batches.push([rest, &[flips[0], flips[0]]].concat());
        let mut batched = Evaluator::new(&g, &config, &start).expect("evaluator builds");
        let mut expected = start.clone();
        for batch in &batches {
            for &t in batch {
                expected.flip(t);
            }
            let committed = batched.apply_flips(batch).clone();
            prop_assert_eq!(&batched.partition(), &expected);
            prop_assert_eq!(
                &committed,
                &evaluate(&g, &expected, &config).expect("evaluates")
            );
        }
        prop_assert_eq!(&batched.partition(), &reference);
        prop_assert_eq!(batched.current(), ev.current());

        // Undoing every flip in reverse restores the starting state.
        for &t in flips.iter().rev() {
            ev.apply_flip(t);
        }
        prop_assert_eq!(&ev.partition(), &start);
        prop_assert_eq!(
            ev.current(),
            &evaluate(&g, &start, &config).expect("evaluates")
        );
    }
}

proptest! {
    // The portfolio races seven contenders (five algorithms plus extra
    // annealer seeds) per case, so keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The portfolio is deterministic across runs and never worse than
    /// any individual contender it raced.
    #[test]
    fn portfolio_deterministic_and_never_worse(g in arb_graph(), deadline_frac in 2u64..6) {
        let config = cfg(Objective::performance_driven(
            g.total_sw_cycles() / deadline_frac,
        ));
        let (p1, e1) = portfolio(&g, &config).expect("runs");
        let (p2, e2) = portfolio(&g, &config).expect("runs");
        prop_assert_eq!(&p1, &p2);
        prop_assert_eq!(&e1, &e2);

        let schedule = AnnealingSchedule::default();
        let mut contenders: Vec<(&str, f64)> = vec![
            ("gclp", gclp(&g, &config).expect("runs").1.cost),
            ("hw_first", hw_first(&g, &config).expect("runs").1.cost),
            ("kernighan_lin", kernighan_lin(&g, &config).expect("runs").1.cost),
            ("sw_first", sw_first(&g, &config).expect("runs").1.cost),
        ];
        for &seed in PORTFOLIO_SA_SEEDS {
            let cost = simulated_annealing(&g, &config, &schedule, seed)
                .expect("runs")
                .1
                .cost;
            contenders.push(("sa", cost));
        }
        for (name, cost) in contenders {
            prop_assert!(
                e1.cost <= cost + 1e-9,
                "portfolio cost {} lost to {name} at {cost}",
                e1.cost
            );
        }
    }
}

/// Helper so the arbitrary partition can be resized to the graph.
trait SideOfIndex {
    fn side_of_index(&self, i: usize) -> Side;
}

impl SideOfIndex for Partition {
    fn side_of_index(&self, i: usize) -> Side {
        self.side(TaskId::from_index(i % self.len().max(1)))
    }
}
