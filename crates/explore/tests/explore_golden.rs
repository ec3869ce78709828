//! Golden outputs of the explorer: for three seeded runs, the FNV-1a of
//! the report, every `ExploreStats` field and the front length.
//!
//! Between them the runs reach every generation arm, restarts, dedup
//! redraws, the dominance gate, both sensitivity-profile arms, Stage-1
//! moves on both sides of `MAX_DELTA_FLIPS` and `Full` mode. They pin
//! the candidate stream and the generator's rng draw order, so any
//! change to generation, Stage-1 scoring or the latency bound that is
//! not exact fails here with the run that moved.

use codesign_explore::{explore, DesignSpace, EvalMode, ExploreConfig, ExploreStats, SpaceConfig};
use codesign_ir::workload::tgff::{random_task_graph, TgffConfig};
use codesign_trace::hash::fnv1a;
use codesign_trace::Tracer;

fn tgff_space(tasks: usize, invocations: u32) -> DesignSpace {
    let graph = random_task_graph(&TgffConfig {
        tasks,
        seed: 0x601D,
        ..TgffConfig::default()
    });
    DesignSpace::new(
        graph,
        SpaceConfig {
            invocations,
            ..SpaceConfig::default()
        },
    )
}

fn check(space: &DesignSpace, cfg: &ExploreConfig, golden: (u64, ExploreStats, usize)) {
    let out = explore(space, cfg, &Tracer::off());
    let report = out.report_json(space, cfg);
    assert_eq!(
        (fnv1a(report.as_bytes()), out.stats, out.archive.len()),
        golden,
        "report digest, stats or front size moved; report:\n{report}"
    );
}

/// A 10-task space at 4096 offers: restarts, redraws, the gate and both
/// profile arms all run, and nearly every Stage-1 move is narrow.
#[test]
fn small_space_delta_mode() {
    let cfg = ExploreConfig {
        seed: 0xE1,
        budget: 4096,
        workers: 8,
        eval_mode: EvalMode::Delta,
        ..ExploreConfig::default()
    };
    check(
        &tgff_space(10, 12),
        &cfg,
        (
            0x058069411c53149d,
            ExploreStats {
                offered: 4096,
                rounds: 512,
                unique_points: 4096,
                revisits: 0,
                infeasible: 0,
                gated: 1541,
                dedup_skips: 2907,
                delta_hits: 4071,
                delta_misses: 25,
                evaluations: 1315,
                warm_hits: 0,
            },
            183,
        ),
    );
}

/// The same space in `Full` mode: the candidate stream is
/// mode-independent, and no Stage-1 pass is counted.
#[test]
fn small_space_full_mode() {
    let cfg = ExploreConfig {
        seed: 0xE1,
        budget: 512,
        workers: 8,
        eval_mode: EvalMode::Full,
        ..ExploreConfig::default()
    };
    check(
        &tgff_space(10, 12),
        &cfg,
        (
            0x1af66b6f1903c3b6,
            ExploreStats {
                offered: 512,
                rounds: 64,
                unique_points: 512,
                revisits: 0,
                infeasible: 0,
                gated: 0,
                dedup_skips: 87,
                delta_hits: 0,
                delta_misses: 0,
                evaluations: 512,
                warm_hits: 0,
            },
            128,
        ),
    );
}

/// A 64-task space: restarts flip more than `MAX_DELTA_FLIPS` tasks, so
/// wide replays run and count as misses, and the multi-flip arm flips up
/// to four tasks.
#[test]
fn wide_space_wide_moves_and_multi_flip() {
    let cfg = ExploreConfig {
        seed: 0xE1,
        budget: 256,
        workers: 32,
        eval_mode: EvalMode::Delta,
        ..ExploreConfig::default()
    };
    check(
        &tgff_space(64, 2),
        &cfg,
        (
            0xea32e51c475e0c84,
            ExploreStats {
                offered: 256,
                rounds: 8,
                unique_points: 256,
                revisits: 0,
                infeasible: 0,
                gated: 28,
                dedup_skips: 29,
                delta_hits: 112,
                delta_misses: 144,
                evaluations: 206,
                warm_hits: 0,
            },
            109,
        ),
    );
}
