//! `bench-explore` — throughput, scaling, and determinism measurements
//! for the pipelined design-space exploration executor, emitted as
//! `BENCH_explore.json`.
//!
//! Five experiment groups share one seed:
//!
//! 1. **Thread sweep** — the Figure 8 `dsp_coprocessor` space explored
//!    at threads ∈ {1, 2, 4, 8, 16}; all five reports are asserted
//!    byte-identical (the crate's core determinism claim), and the
//!    4-thread run yields `speedup_vs_1_thread`.
//! 2. **Budget scale** — the same space at 10⁵ and 10⁶ offers:
//!    generation-time dedup redraws duplicates until the space
//!    saturates, and the class cache bounds simulations by the number
//!    of distinct (assignment, level) classes.
//! 3. **256-task space, delta vs full** — a TGFF-generated graph at the
//!    scale the issue targets, explored once per eval mode with
//!    identical generation; the two archives are asserted identical and
//!    the wall-clock ratio is the headline `delta_speedup`.
//! 4. **Cold vs warm** — the 256-task space explored twice through a
//!    persistent cache file; the warm report is asserted byte-identical
//!    to the cold one, the warm run must re-simulate nothing, and (full
//!    runs) its wall time is gated at < 0.5× cold — on the big space
//!    simulation dominates, so the saving is visible in the wall clock.
//! 5. **Estimate vs measured** — the best dsp front entry per ladder
//!    level is *realized*: the HW side synthesized to an FSMD
//!    co-processor, the SW side compiled to CR32, the whole system
//!    executed (`codesign-synth`); each `gap:<level>` row reports the
//!    estimated latency/area next to the measured cycles/area.
//!
//! ```text
//! cargo run --release -p codesign-bench --bin bench-explore [--smoke] [out.json]
//! ```
//!
//! `--smoke` shrinks the budgets and defaults the output under
//! `target/`. Determinism gates (byte identity, archive equality
//! between eval modes) hold in both modes; wall-clock gates need real
//! cores — the thread-scaling gate fires only on hosts with ≥ 4 cores
//! (the CI box has 1), and the warm-start gate only in full mode.

use std::time::Instant;

use codesign_bench::jsonout;
use codesign_explore::{
    explore_with_cache, persist_session, preload_cache, DesignSpace, EvalCache, EvalMode,
    ExploreConfig, ExploreOutcome, SpaceConfig,
};
use codesign_ir::workload::tgff::{random_task_graph, TgffConfig};
use codesign_partition::{Partition, Side};
use codesign_sim::ladder::AbstractionLevel;
use codesign_synth::coproc::{characterize, realize, Application, CharacterizedApp};
use codesign_trace::Tracer;

/// Exploration seed (fixed: the report is part of the artifact).
const SEED: u64 = 0xD5E;
/// Thread counts the sweep covers.
const SWEEP: [usize; 5] = [1, 2, 4, 8, 16];

struct Run {
    label: String,
    threads: usize,
    cache: bool,
    budget: u64,
    wall_ns: u128,
    outcome: ExploreOutcome,
    report: String,
    eval_mode: EvalMode,
}

fn run(space: &DesignSpace, cfg: &ExploreConfig, cache: EvalCache, label: String) -> Run {
    let start = Instant::now();
    let outcome = explore_with_cache(space, cfg, cache, &Tracer::off());
    let wall_ns = start.elapsed().as_nanos();
    let report = outcome.report_json(space, cfg);
    eprintln!(
        "{label:>16}: {wall_ns:>13} ns, {} evals, {} gated, front {}, delta hit rate {:.2}",
        outcome.stats.evaluations,
        outcome.stats.gated,
        outcome.archive.len(),
        outcome.stats.delta_hit_rate()
    );
    Run {
        label,
        threads: cfg.threads,
        cache: cfg.use_cache,
        budget: cfg.budget,
        wall_ns,
        outcome,
        report,
        eval_mode: cfg.eval_mode,
    }
}

/// The `p`-th percentile of this run's per-evaluation wall times, 0
/// when nothing was simulated.
fn eval_percentile_ns(r: &Run, p: f64) -> u64 {
    let mut ns = r.outcome.eval_ns.clone();
    if ns.is_empty() {
        return 0;
    }
    ns.sort_unstable();
    let rank = ((ns.len() - 1) as f64 * p).round() as usize;
    ns[rank.min(ns.len() - 1)]
}

fn row(r: &Run) -> String {
    let points_per_sec = r.outcome.stats.offered as f64 * 1e9 / r.wall_ns.max(1) as f64;
    format!(
        "{{\"run\": \"{}\", \"eval_mode\": \"{}\", \"threads\": {}, \"cache\": {}, \
         \"budget\": {}, \"wall_ns\": {}, \"points_per_sec\": {:.0}, \"offered\": {}, \
         \"unique_points\": {}, \"revisits\": {}, \"revisit_rate\": {:.4}, \
         \"dedup_skips\": {}, \"gated\": {}, \"delta_hit_rate\": {:.4}, \
         \"evaluations\": {}, \"warm_hits\": {}, \"eval_p50_ns\": {}, \
         \"eval_p99_ns\": {}, \"front_size\": {}}}",
        r.label,
        r.eval_mode.as_str(),
        r.threads,
        r.cache,
        r.budget,
        r.wall_ns,
        points_per_sec,
        r.outcome.stats.offered,
        r.outcome.stats.unique_points,
        r.outcome.stats.revisits,
        r.outcome.stats.revisit_rate(),
        r.outcome.stats.dedup_skips,
        r.outcome.stats.gated,
        r.outcome.stats.delta_hit_rate(),
        r.outcome.stats.evaluations,
        r.outcome.stats.warm_hits,
        eval_percentile_ns(r, 0.50),
        eval_percentile_ns(r, 0.99),
        r.outcome.archive.len()
    )
}

/// Realizes the best front entry at each ladder level and renders one
/// `gap:<level>` row per level comparing the explorer's estimates with
/// the measured execution: latency against the realized system's total
/// cycles, area against the sum of the synthesized co-processor areas.
fn gap_rows(app: &CharacterizedApp, sweep_run: &Run) -> Vec<String> {
    let mut rows = Vec::new();
    for level in AbstractionLevel::ALL {
        let best = sweep_run
            .outcome
            .archive
            .sorted_entries()
            .into_iter()
            .filter(|e| e.point.level == level)
            .min_by(|a, b| a.score.cost.total_cmp(&b.score.cost));
        let Some(entry) = best else { continue };
        let partition = Partition::from_sides(entry.point.assignment.clone());
        let measured = realize(app, &partition, &Tracer::off()).expect("front entry realizes");
        assert!(measured.verified, "realized system failed verification");
        let measured_area: f64 = entry
            .point
            .assignment
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Side::Hw)
            .map(|(i, _)| {
                app.synthesized(codesign_ir::task::TaskId::from_index(i))
                    .area
            })
            .sum();
        let est_latency = entry.score.latency;
        let latency_gap = measured.total_cycles as f64 / est_latency.max(1) as f64;
        let area_gap = if entry.score.hw_area > 0.0 {
            measured_area / entry.score.hw_area
        } else if measured_area > 0.0 {
            f64::INFINITY
        } else {
            1.0
        };
        eprintln!(
            "{:>16}: est latency {} vs measured {} cycles (x{:.2}), \
             est area {:.1} vs synthesized {:.1} (x{:.2})",
            format!("gap:{level}"),
            est_latency,
            measured.total_cycles,
            latency_gap,
            entry.score.hw_area,
            measured_area,
            area_gap
        );
        rows.push(format!(
            "{{\"run\": \"gap:{level}\", \"level\": \"{level}\", \"assignment\": \"{}\", \
             \"quantum\": {}, \"est_latency\": {}, \"measured_cycles\": {}, \
             \"measured_bus_cycles\": {}, \"latency_gap\": {:.4}, \"est_area\": {:.4}, \
             \"measured_area\": {:.4}, \"area_gap\": {:.4}, \"verified\": {}}}",
            entry.point.assignment_string(),
            entry.point.quantum,
            est_latency,
            measured.total_cycles,
            measured.bus_cycles,
            latency_gap,
            entry.score.hw_area,
            measured_area,
            area_gap,
            measured.verified
        ));
    }
    rows
}

#[allow(clippy::too_many_lines)]
fn main() {
    let (smoke, out_path) =
        jsonout::smoke_args("BENCH_explore.json", "target/BENCH_explore_smoke.json");
    let cores = jsonout::host_cores();
    let sweep_budget: u64 = if smoke { 256 } else { 4_096 };
    let scale_budgets: &[u64] = if smoke {
        &[10_000]
    } else {
        &[100_000, 1_000_000]
    };
    let big_tasks = if smoke { 64 } else { 256 };
    let big_budget: u64 = if smoke { 32 } else { 256 };

    let app = characterize(&Application::dsp_suite()).expect("dsp suite characterizes");
    let space = DesignSpace::new(app.graph().clone(), SpaceConfig::default());
    let base = ExploreConfig {
        seed: SEED,
        budget: sweep_budget,
        workers: 64,
        ..ExploreConfig::default()
    };

    // 1. Thread sweep: byte-identical reports, wall clock only moves.
    let sweep: Vec<Run> = SWEEP
        .iter()
        .map(|&threads| {
            run(
                &space,
                &ExploreConfig {
                    threads,
                    ..base.clone()
                },
                EvalCache::new(),
                format!("threads={threads}"),
            )
        })
        .collect();
    for r in &sweep[1..] {
        assert_eq!(
            sweep[0].report, r.report,
            "exploration reports differ between threads=1 and threads={}",
            r.threads
        );
    }
    let uncached = run(
        &space,
        &ExploreConfig {
            threads: 4,
            use_cache: false,
            ..base.clone()
        },
        EvalCache::new(),
        "no-cache".into(),
    );
    assert_eq!(
        sweep[0].outcome.archive.len(),
        uncached.outcome.archive.len(),
        "the cache changed the Pareto front"
    );

    // 2. Budget scale: dedup redraws duplicates while the space lasts,
    // and the class cache bounds simulations by the class count.
    let scale: Vec<Run> = scale_budgets
        .iter()
        .map(|&budget| {
            run(
                &space,
                &ExploreConfig {
                    budget,
                    threads: 4,
                    workers: 256,
                    // Bound per-offer generation cost once the space
                    // saturates and every draw collides.
                    dedup_retries: 4,
                    ..base.clone()
                },
                EvalCache::new(),
                format!("budget={budget}"),
            )
        })
        .collect();
    for r in &scale {
        assert!(
            r.outcome.stats.dedup_skips > 0,
            "a {}-offer run never redrew a duplicate",
            r.budget
        );
        assert_eq!(
            r.outcome.stats.offered, r.budget,
            "dedup must not change the offer budget"
        );
    }

    // 3. The TGFF space at issue scale, once per eval mode. Generation
    // is identical; only the scoring pipeline differs, so the archives
    // must match while the wall clocks diverge.
    let big_graph = random_task_graph(&TgffConfig {
        tasks: big_tasks,
        width: 16,
        sw_cycles: (500, 4_000),
        seed: SEED,
        ..TgffConfig::default()
    });
    let big_space = DesignSpace::new(
        big_graph,
        SpaceConfig {
            invocations: 2,
            ..SpaceConfig::default()
        },
    );
    let big_cfg = ExploreConfig {
        budget: big_budget,
        threads: 4,
        workers: 32,
        ..base.clone()
    };
    let big = run(
        &big_space,
        &big_cfg,
        EvalCache::new(),
        format!("tgff-{big_tasks}"),
    );
    let big_full = run(
        &big_space,
        &ExploreConfig {
            eval_mode: EvalMode::Full,
            ..big_cfg.clone()
        },
        EvalCache::new(),
        format!("tgff-{big_tasks}-full"),
    );
    assert_eq!(
        big.outcome.archive.entries(),
        big_full.outcome.archive.entries(),
        "delta and full archives diverged on the tgff space"
    );
    let delta_vs_full_wall = big_full.wall_ns as f64 / big.wall_ns.max(1) as f64;

    // 4. Cold vs warm through a persistent cache file, on the big space
    // where simulation (not generation) dominates the wall clock.
    let cache_path = std::path::PathBuf::from("target/bench_explore_cache.evc");
    let _ = std::fs::remove_file(&cache_path);
    let cold = run(&big_space, &big_cfg, EvalCache::new(), "cold".into());
    persist_session(&cold.outcome.cache, &cache_path).expect("persists the cold session");
    let preloaded = EvalCache::new();
    let loaded = preload_cache(&preloaded, &cache_path).expect("reloads the cache file");
    assert_eq!(
        loaded as u64, cold.outcome.stats.evaluations,
        "the cache file holds exactly the cold run's evaluations"
    );
    let warm = run(&big_space, &big_cfg, preloaded, "warm".into());
    assert_eq!(
        cold.report, warm.report,
        "a persistent-cache warm start changed the report"
    );
    assert_eq!(warm.outcome.stats.evaluations, 0, "warm run re-simulated");
    let _ = std::fs::remove_file(&cache_path);

    // 5. Close the loop: realize the best front entry per ladder level
    // and measure the estimate gap.
    let gaps = gap_rows(&app, &sweep[0]);

    let wall_of = |threads: usize| {
        sweep
            .iter()
            .find(|r| r.threads == threads)
            .expect("sweep covers it")
            .wall_ns
    };
    let speedup = wall_of(1) as f64 / wall_of(4).max(1) as f64;
    let cache_speedup = uncached.wall_ns as f64 / wall_of(4).max(1) as f64;
    let warm_vs_cold = warm.wall_ns as f64 / cold.wall_ns.max(1) as f64;

    let rendered: Vec<String> = sweep
        .iter()
        .chain([&uncached])
        .chain(&scale)
        .chain([&big, &big_full, &cold, &warm])
        .map(row)
        .chain(gaps)
        .collect();
    let json = jsonout::render(
        "explore_executor",
        &[
            ("units", "nanoseconds_wall".into()),
            (
                "scenario",
                "dsp_coprocessor (Figure 8 suite) + tgff task graphs".into(),
            ),
            ("host_cores", cores.into()),
            ("threads_max", SWEEP[SWEEP.len() - 1].into()),
            (
                "identical_reports",
                "threads {1,2,4,8,16}, cold vs warm, delta vs full archive, asserted".into(),
            ),
            ("speedup_vs_1_thread", speedup.into()),
            ("cache_speedup", cache_speedup.into()),
            ("warm_vs_cold", warm_vs_cold.into()),
            ("delta_vs_full_wall", delta_vs_full_wall.into()),
        ],
        &rendered,
    );
    jsonout::write(&out_path, &json);

    // Gates. Determinism gates were asserted above and hold in both
    // modes. Wall-clock gates need cores (scaling) or a full budget
    // (warm-start economics).
    assert!(
        big.outcome.archive.len() > 1,
        "the 256-task front collapsed"
    );
    assert!(
        big.outcome.stats.evaluations <= big_full.outcome.stats.evaluations,
        "delta mode must not simulate more than full mode"
    );
    let scaling_floor = if smoke { 1.2 } else { 1.5 };
    println!(
        "delta vs full (same binary) on tgff-{big_tasks}: {delta_vs_full_wall:.2}x wall, \
         {}/{} simulations",
        big.outcome.stats.evaluations, big_full.outcome.stats.evaluations
    );
    if cores >= 4 {
        println!("speedup vs 1 thread: {speedup:.2}x on 4 threads (gate: >= {scaling_floor}x)");
        assert!(
            speedup >= scaling_floor,
            "parallel exploration is only {speedup:.2}x faster on 4 threads"
        );
    } else {
        println!(
            "speedup vs 1 thread: {speedup:.2}x on 4 threads (gate skipped: {cores}-core host)"
        );
    }
    if !smoke {
        println!("warm vs cold on tgff-{big_tasks}: {warm_vs_cold:.2}x (gate: < 0.5)");
        assert!(
            warm_vs_cold < 0.5,
            "a fully warm start ran at {warm_vs_cold:.2}x of cold"
        );
    } else {
        println!("warm vs cold on tgff-{big_tasks}: {warm_vs_cold:.2}x (gate skipped: smoke mode)");
    }
}
