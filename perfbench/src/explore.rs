//! `explore_dsp` and `explore_tgff`: the design-space explorer.
//!
//! One op is one cold exploration (`explore_with_cache` on an empty
//! `EvalCache`, one thread). Work unit: offered points.
//!
//! One thread, not two: on a two-vCPU host shared with other tenants,
//! runs of a two-thread exploration spread ~9% from one to the next,
//! against ~3% for one thread, which would hide the regressions this
//! benchmark exists to catch. Exploration results do not depend on the
//! thread count; parallel scaling is outside this benchmark.
//!
//! * `explore_dsp` explores the Figure 8 dsp co-processor space, 16,384
//!   offers per op. Stage-2 simulation is a small share of thread time
//!   there; generation, dedup, the dominance gate, the cache and the
//!   merge do the rest.
//! * `explore_tgff` explores seeded 256-task TGFF graphs, 256 offers
//!   per op, where Stage-1 delta rescoring and Stage-2 message-level
//!   co-simulation dominate. Ops cycle over eight graphs, so one seed's
//!   graphs stand for the workload. After every 4th op it persists the
//!   cold cache to a file (`persist_session`), reloads it
//!   (`preload_cache`) and reruns warm: the warm report must be
//!   byte-identical and simulate nothing.
//!
//! Each workload has 32 distinct explorations. Each op's report must
//! equal the report the same inputs gave on the first pass, and must
//! offer exactly its budget.

use std::path::PathBuf;

use codesign::conform::sweep::splitmix64;
use codesign::explore::{
    explore_with_cache, persist_session, preload_cache, DesignSpace, EvalCache, ExploreConfig,
    ExploreOutcome, ExploreStats, SpaceConfig,
};
use codesign::ir::workload::tgff::{random_task_graph, TgffConfig};
use codesign::synth::coproc::{characterize, Application};
use codesign::trace::Tracer;

use crate::{digest_str, time_op, Ctx, Measured};

/// Threads per exploration (see the module docs).
const THREADS: usize = 1;
/// Offers per `explore_dsp` op.
const DSP_BUDGET: u64 = 16_384;
/// Offers per `explore_tgff` op.
const TGFF_BUDGET: u64 = 256;
/// Tasks per `explore_tgff` graph.
const TGFF_TASKS: usize = 256;
/// A warm rerun follows every this-many `explore_tgff` ops.
const WARM_EVERY: u64 = 4;
/// TGFF graphs per `explore_tgff` run.
const TGFF_GRAPHS: usize = 8;
/// Distinct explorations per run, dealt over its spaces; the run cycles
/// through them.
const BATCH: usize = 32;

/// The spaces of a run and the explorations each op runs on them.
struct Plan {
    spaces: Vec<DesignSpace>,
    /// `(space index, config)` per distinct op.
    ops: Vec<(usize, ExploreConfig)>,
}

/// `BATCH` explorations with seeds from `seed`, dealt round-robin over
/// `spaces` spaces.
fn ops(
    seed: u64,
    spaces: usize,
    budget: u64,
    workers: usize,
    smoke: bool,
) -> Vec<(usize, ExploreConfig)> {
    let n = if smoke { 2 } else { BATCH };
    (0..n)
        .map(|i| {
            let cfg = ExploreConfig {
                seed: splitmix64(seed ^ ((i as u64) << 32)),
                budget: if smoke { budget / 16 } else { budget },
                threads: THREADS,
                workers,
                ..ExploreConfig::default()
            };
            (i % spaces, cfg)
        })
        .collect()
}

fn dsp_plan(ctx: &Ctx) -> Result<Plan, String> {
    let app = characterize(&Application::dsp_suite()).map_err(|e| e.to_string())?;
    Ok(Plan {
        spaces: vec![DesignSpace::new(
            app.graph().clone(),
            SpaceConfig::default(),
        )],
        ops: ops(
            ctx.seed,
            1,
            DSP_BUDGET,
            ExploreConfig::default().workers,
            ctx.smoke,
        ),
    })
}

fn tgff_plan(ctx: &Ctx) -> Result<Plan, String> {
    let graphs = if ctx.smoke { 1 } else { TGFF_GRAPHS };
    let spaces: Vec<DesignSpace> = (0..graphs as u64)
        .map(|g| {
            let graph = random_task_graph(&TgffConfig {
                tasks: if ctx.smoke { 32 } else { TGFF_TASKS },
                width: 16,
                sw_cycles: (500, 4_000),
                seed: splitmix64(ctx.seed.wrapping_add(g)),
                ..TgffConfig::default()
            });
            let cfg = SpaceConfig {
                invocations: 2,
                ..SpaceConfig::default()
            };
            DesignSpace::new(graph, cfg)
        })
        .collect();
    Ok(Plan {
        ops: ops(ctx.seed, spaces.len(), TGFF_BUDGET, 32, ctx.smoke),
        spaces,
    })
}

/// What an op's first pass left for later passes and the counters.
struct First {
    report: String,
    stats: ExploreStats,
    front: usize,
    /// Seconds of Stage-2 simulation, summed over threads.
    eval_s: f64,
    /// Wall seconds of the exploration.
    wall_s: f64,
}

/// Checks an outcome against its budget and against the report the same
/// op gave on the first pass, and returns its report.
fn check(
    plan: &Plan,
    i: usize,
    outcome: &ExploreOutcome,
    first: Option<&First>,
) -> Result<String, String> {
    let (space, cfg) = &plan.ops[i];
    if outcome.stats.offered != cfg.budget {
        return Err(format!(
            "offered {} points on a budget of {}",
            outcome.stats.offered, cfg.budget
        ));
    }
    if outcome.archive.is_empty() {
        return Err("empty Pareto front".into());
    }
    let report = outcome.report_json(&plan.spaces[*space], cfg);
    if first.is_some_and(|f| f.report != report) {
        return Err(format!("exploration {i} is not deterministic"));
    }
    Ok(report)
}

/// Persists a cold run's cache, reloads it, reruns warm, and checks the
/// warm run against the cold report. Returns the warm hits.
fn warm_rerun(
    ctx: &Ctx,
    op: u64,
    phase: u64,
    plan: &Plan,
    i: usize,
    cold: &ExploreOutcome,
    cold_report: &str,
) -> Result<u64, String> {
    let sp = &ctx.spans;
    let path = warm_cache_file(ctx.seed);
    let _ = std::fs::remove_file(&path);
    let persisted = sp
        .time("main", "explore", "explore.persist", phase, op, |_| {
            persist_session(&cold.cache, &path)
        })
        .map_err(|e| e.to_string())?;
    let cache = EvalCache::new();
    let loaded = sp
        .time("main", "explore", "explore.preload", phase, op, |_| {
            preload_cache(&cache, &path)
        })
        .map_err(|e| e.to_string());
    let _ = std::fs::remove_file(&path);
    if loaded? != persisted {
        return Err("the cache file did not reload what was persisted".into());
    }
    let (space, cfg) = &plan.ops[i];
    let space = &plan.spaces[*space];
    let warm = sp.time("main", "explore", "explore.warm_run", phase, op, |_| {
        explore_with_cache(space, cfg, cache, &Tracer::off())
    });
    if warm.stats.evaluations != 0 {
        return Err(format!(
            "the warm rerun simulated {} points",
            warm.stats.evaluations
        ));
    }
    if warm.report_json(space, cfg) != cold_report {
        return Err("the warm rerun's report differs from the cold one".into());
    }
    Ok(warm.stats.warm_hits)
}

/// Where warm reruns persist their cache: inside the build directory of
/// the checkout, removed again right after.
fn warm_cache_file(seed: u64) -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("perfbench-{}-{seed}.evc", std::process::id()))
}

fn run(ctx: &Ctx, plan: impl Fn(&Ctx) -> Result<Plan, String>, warm: bool) -> Measured {
    let mut m = Measured::default();
    let setup = || plan(ctx);
    let plan = match setup() {
        Ok(p) => p,
        Err(e) => return m.fail(e),
    };
    let n = plan.ops.len();
    let mut first_pass: Vec<First> = Vec::with_capacity(n);
    let mut warm_hits = Vec::new();
    m.measure(ctx, n, setup, |m, phase, op| {
        let i = op as usize % n;
        let (space, cfg) = &plan.ops[i];
        let timed = time_op(ctx, m, phase, op, |parent| {
            let t = std::time::Instant::now();
            let outcome = ctx
                .spans
                .time("main", "explore", "explore.run", parent, op, |_| {
                    explore_with_cache(&plan.spaces[*space], cfg, EvalCache::new(), &Tracer::off())
                });
            let offered = outcome.stats.offered as f64;
            Ok(((outcome, t.elapsed().as_secs_f64()), offered))
        });
        let Ok((outcome, wall_s)) = timed else { return };
        let checked = ctx
            .spans
            .time("main", "bench", "bench.check", phase, op, |_| {
                check(&plan, i, &outcome, first_pass.get(i))
            });
        let report = match checked {
            Ok(r) => r,
            Err(e) => return m.failures.push(e),
        };
        if warm && op % WARM_EVERY == 0 {
            match warm_rerun(ctx, op, phase, &plan, i, &outcome, &report) {
                Ok(hits) => warm_hits.push(hits as f64),
                Err(e) => m.failures.push(e),
            }
        }
        if i == first_pass.len() {
            first_pass.push(First {
                report,
                stats: outcome.stats.clone(),
                front: outcome.archive.len(),
                eval_s: outcome.eval_ns.iter().sum::<u64>() as f64 / 1e9,
                wall_s,
            });
        }
    });
    if warm && warm_hits.is_empty() {
        m.failures
            .push("no warm rerun ran; lengthen the run".into());
    }
    let k = first_pass.len().max(1) as f64;
    let mean = |f: &dyn Fn(&First) -> f64| first_pass.iter().map(f).sum::<f64>() / k;
    m.counter(
        "explore.unique_points",
        mean(&|f| f.stats.unique_points as f64),
    );
    m.counter("explore.evaluations", mean(&|f| f.stats.evaluations as f64));
    m.counter("explore.gated", mean(&|f| f.stats.gated as f64));
    m.counter("explore.dedup_skips", mean(&|f| f.stats.dedup_skips as f64));
    m.counter(
        "explore.delta_hit_rate",
        mean(&|f| f.stats.delta_hit_rate()),
    );
    m.counter("explore.revisit_rate", mean(&|f| f.stats.revisit_rate()));
    m.counter("explore.front_size", mean(&|f| f.front as f64));
    let eval_s: f64 = first_pass.iter().map(|f| f.eval_s).sum();
    let thread_s: f64 = first_pass.iter().map(|f| f.wall_s * THREADS as f64).sum();
    m.counter(
        "explore.stage2_share",
        100.0 * eval_s / thread_s.max(f64::MIN_POSITIVE),
    );
    if !warm_hits.is_empty() {
        m.counter(
            "explore.warm_hits",
            warm_hits.iter().sum::<f64>() / warm_hits.len() as f64,
        );
    }
    m.digest = digest_str(
        &first_pass
            .iter()
            .map(|f| f.report.as_str())
            .collect::<String>(),
    );
    m
}

/// Runs `explore_dsp`.
pub fn run_dsp(ctx: &Ctx) -> Measured {
    run(ctx, dsp_plan, false)
}

/// Runs `explore_tgff`.
pub fn run_tgff(ctx: &Ctx) -> Measured {
    run(ctx, tgff_plan, true)
}
