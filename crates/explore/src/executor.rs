//! The deterministic pipelined exploration executor.
//!
//! The executor is a software pipeline over a **persistent**
//! work-stealing pool: evaluator threads are spawned once per
//! exploration (not once per round, the PR 5 design whose per-round
//! spawn cost made two threads *slower* than one) and pull evaluations
//! from a queue of round batches. Every source of nondeterminism is
//! pinned the same way the solver portfolio and the fault injector pin
//! theirs:
//!
//! 1. **Generate (serial, main thread).** A fixed number of *logical*
//!    workers — a config knob independent of `--threads` — each draw
//!    one candidate per round from a private `StdRng` seeded
//!    `seed ^ fnv1a("worker:w:round:r")`, mutating a snapshot of the
//!    Pareto front or restarting from a random point. Mutations include
//!    **sensitivity-guided flips**: the incremental partition evaluator
//!    ranks an incumbent's tasks by the cost delta of flipping each
//!    one, and two of the mutation arms draw from the top of that
//!    ranking instead of uniformly. A draw that lands on an
//!    already-seen point is redrawn (up to
//!    [`ExploreConfig::dedup_retries`] times, counted as
//!    `dedup_skips`), so offers stop drowning in revisits. The snapshot
//!    for round `r` is the archive after the merge of round
//!    `r - 1 - PIPELINE_DEPTH`: lagging the snapshot by a fixed depth
//!    is what lets generation of round `r` overlap evaluation of the
//!    rounds still in flight without the outcome depending on timing.
//!    Adding OS threads cannot change what gets generated.
//! 2. **Resolve (serial, main thread, candidate order).** Under
//!    [`EvalMode::Delta`] each candidate is first scored by the
//!    **stage-1 delta cost model** ([`crate::delta::Stage1`], a suffix
//!    replay when the candidate is near the previous one), which pays
//!    for a **two-stage filter**: a candidate whose *bound* — exact
//!    hardware area and cross-boundary bytes plus a sound latency lower
//!    bound — is already weakly dominated by a snapshot incumbent can
//!    never enter the archive, so its co-simulation is skipped entirely
//!    (`gated`). Survivors are keyed by **simulation class**
//!    `(assignment, level)` rather than full point: the bounded co-sim
//!    is quantum-invariant, so the five quanta of a point share one
//!    simulation, composed with the per-point stage-1 numbers at merge.
//!    The class key is checked against the sharded cache and against a
//!    hash map of keys pending in *any* in-flight round (O(1),
//!    replacing PR 5's O(n²) in-round scan); anything unknown joins the
//!    round's evaluation batch. Because this pass is serial, the
//!    accounting is deterministic. [`EvalMode::Full`] keeps the PR 6
//!    path — one full evaluation per unique point, no gate — and is
//!    retained as the oracle the property tests compare against.
//! 3. **Evaluate (parallel, pipelined).** The batch is published to the
//!    pool; threads pull indices from an atomic counter — classic work
//!    stealing — while the main thread already generates the next
//!    round. Evaluation is pure, so scheduling order is unobservable.
//!    The main thread itself steals work when it has to wait.
//! 4. **Merge (serial, main thread, fixed `(round, worker)` order).**
//!    Rounds merge strictly in round order; within a round, scores
//!    scatter back by candidate index, class scores are composed with
//!    each candidate's stage-1 evaluation, and results are offered to
//!    the cache, tracer, and archive in generation order.
//!
//! The result: bit-identical archives, counters, and reports at
//! `--threads 1` and `--threads 8`, with or without the cache, and —
//! because warm-start-dependent quantities are kept out of the report —
//! bit-identical reports between a cold run and a run warm-started from
//! a persistent cache file. The gate is *sound*, not heuristic: a gated
//! candidate's true score is weakly dominated by an archive incumbent
//! (dominance is transitive, so later evictions cannot resurrect it),
//! hence the archive is byte-identical between `Delta` and `Full` mode
//! as well.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use codesign_sim::ladder::AbstractionLevel;
use codesign_trace::json::escape;
use codesign_trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use codesign_partition::eval::Evaluation;
use codesign_partition::Side;

use crate::delta::Stage1;
use crate::space::sync_rounds_for;
use crate::{
    fnv1a_str, Constraints, DesignPoint, DesignSpace, EvalCache, ParetoArchive, Score, Weights,
};

/// How candidate scores are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Stage-1 delta cost model, archive-dominance gate, and
    /// class-keyed co-simulation (quanta share one sim). The default.
    #[default]
    Delta,
    /// One full evaluation per unique point, no gate — the PR 6 path,
    /// kept as the oracle for equivalence tests and benchmarks.
    Full,
}

impl EvalMode {
    /// Lowercase name used in reports and CLI flags.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EvalMode::Delta => "delta",
            EvalMode::Full => "full",
        }
    }
}

/// Mutation arms drawing from the sensitivity profile pick uniformly
/// among this many top-ranked flips.
const SENSITIVITY_TOP_K: usize = 8;

/// Probability a worker restarts from a uniform random point instead of
/// mutating the incumbent front.
const RESTART_PCT: f64 = 0.25;

/// Synchronization quanta candidates choose from.
const QUANTA: [u64; 5] = [4, 8, 16, 32, 64];

/// Interface abstraction levels candidates choose from.
const LEVELS: [AbstractionLevel; 4] = AbstractionLevel::ALL;

/// Rounds generated ahead of the merge frontier. Round `r` mutates the
/// archive as of round `r - 1 - PIPELINE_DEPTH`, so generation of one
/// round overlaps evaluation of the one before it. Part of the
/// experiment definition (it picks the snapshot each round sees), and
/// recorded in every report.
const PIPELINE_DEPTH: usize = 1;

/// Executor parameters. `threads` is the only knob that may legally
/// vary between two runs expected to produce identical output.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Base seed for every generator substream.
    pub seed: u64,
    /// Total candidates to offer (generation budget).
    pub budget: u64,
    /// OS threads evaluating cache misses (the main thread included).
    /// Affects wall clock only.
    pub threads: usize,
    /// Logical generator streams per round. Part of the experiment
    /// definition: changing it changes the candidate sequence.
    pub workers: usize,
    /// Consult the memo cache (off only for the equivalence proptest
    /// and for measuring the cache's worth).
    pub use_cache: bool,
    /// Scoring pipeline; part of the experiment definition for the
    /// *stats*, but never for the archive (the gate is sound).
    pub eval_mode: EvalMode,
    /// How many times a draw that lands on an already-seen point is
    /// redrawn before the duplicate is accepted. Zero disables
    /// generation-time dedup.
    pub dedup_retries: u32,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            seed: 42,
            budget: 256,
            threads: 1,
            workers: 8,
            use_cache: true,
            eval_mode: EvalMode::Delta,
            dedup_retries: 16,
        }
    }
}

/// Deterministic accounting for one exploration run. Everything here is
/// independent of `threads`. All fields except `evaluations` and
/// `warm_hits` are also independent of warm starts and appear in the
/// report; those two describe what *this process* had to do, so they
/// differ between a cold and a warm run and live outside the report
/// (stderr and the bench JSON only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreStats {
    /// Candidates generated (equals the budget).
    pub offered: u64,
    /// Generation rounds executed.
    pub rounds: u64,
    /// Distinct design points resolved this run.
    pub unique_points: u64,
    /// Offers that revisited an already-resolved point
    /// (`offered - unique_points`); dedup redraws keep this near zero
    /// until the space saturates.
    pub revisits: u64,
    /// Candidates scored infeasible *at merge*. In `Delta` mode a
    /// candidate gated before simulation is never scored, so this can
    /// differ between modes; the archive cannot.
    pub infeasible: u64,
    /// Candidates whose bound was already dominated by a snapshot
    /// incumbent: their co-simulation was skipped. Always zero in
    /// `Full` mode.
    pub gated: u64,
    /// Draws redrawn because they landed on an already-seen point.
    pub dedup_skips: u64,
    /// Stage-1 scoring passes whose move flipped at most
    /// [`MAX_DELTA_FLIPS`](crate::delta::MAX_DELTA_FLIPS) tasks (`Delta`
    /// only).
    pub delta_hits: u64,
    /// Stage-1 scoring passes whose move flipped more tasks than that
    /// (`Delta` only).
    pub delta_misses: u64,
    /// Simulations this process ran: unique points in `Full` mode,
    /// distinct non-gated simulation classes in `Delta` mode. Warm
    /// starts lower it; `use_cache: false` raises it.
    pub evaluations: u64,
    /// First-touch resolutions served by a preloaded (persistent)
    /// cache entry. Zero on a cold run.
    pub warm_hits: u64,
}

impl ExploreStats {
    /// Revisits over offers, 0.0 when nothing was offered.
    #[must_use]
    pub fn revisit_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.revisits as f64 / self.offered as f64
        }
    }

    /// Fraction of stage-1 scoring passes whose move flipped at most
    /// [`MAX_DELTA_FLIPS`](crate::delta::MAX_DELTA_FLIPS) tasks. 0.0 in
    /// `Full` mode (no passes run).
    #[must_use]
    pub fn delta_hit_rate(&self) -> f64 {
        let total = self.delta_hits + self.delta_misses;
        if total == 0 {
            0.0
        } else {
            self.delta_hits as f64 / total as f64
        }
    }
}

/// The result of one exploration run.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// The final non-dominated set.
    pub archive: ParetoArchive,
    /// Deterministic run accounting.
    pub stats: ExploreStats,
    /// The evaluation cache as it stood at the end of the run — the
    /// caller persists its session entries to warm-start later runs.
    pub cache: EvalCache,
    /// Wall-clock nanoseconds of every simulation this process ran,
    /// in merge order. Thread- and load-dependent: bench percentiles
    /// only, never part of any report.
    pub eval_ns: Vec<u64>,
}

/// Where a resolved candidate's score will come from.
enum Resolution {
    /// Already known when resolved (cache hit, composed immediately in
    /// `Delta` mode; or a stage-1 failure scored infeasible).
    Known(Score),
    /// Index into this round's evaluation batch.
    Pending(usize),
    /// Pending in this or an earlier in-flight round; resolved from the
    /// cache at merge time (the owning round merges first, or earlier
    /// in this round's own scatter pass).
    Shared(u64),
    /// Bound dominated by a snapshot incumbent: provably cannot enter
    /// the archive, so it is never simulated or inserted.
    Gated,
}

/// One generated candidate, post cache resolution.
struct Candidate {
    point: DesignPoint,
    /// The full point key — what `seen` and the archive track in both
    /// modes (the cache tracks class keys in `Delta` mode).
    key: u64,
    /// Stage-1 evaluation, carried by `Delta`-mode candidates whose
    /// class score arrives at merge time and must be composed.
    stage1: Option<Evaluation>,
    resolution: Resolution,
}

/// One round submitted to the pipeline but not yet merged.
struct InflightRound {
    candidates: Vec<Candidate>,
    /// Cache keys of `batch`'s entries, in batch order.
    pending_keys: Vec<u64>,
    /// The evaluation batch, `None` when every candidate was resolved
    /// without simulation.
    batch: Option<Arc<Batch>>,
}

/// One round's cache misses, shared with the evaluator pool. Threads
/// claim indices from `next` (work stealing) and scatter scores back
/// under the `done` lock; `complete` wakes the merger when the last
/// score lands.
struct Batch {
    points: Vec<DesignPoint>,
    mode: EvalMode,
    next: AtomicUsize,
    done: Mutex<BatchDone>,
    complete: Condvar,
}

struct BatchDone {
    scores: Vec<Option<Score>>,
    ns: Vec<u64>,
    finished: usize,
}

impl Batch {
    fn new(points: Vec<DesignPoint>, mode: EvalMode) -> Arc<Batch> {
        let n = points.len();
        Arc::new(Batch {
            points,
            mode,
            next: AtomicUsize::new(0),
            done: Mutex::new(BatchDone {
                scores: vec![None; n],
                ns: vec![0; n],
                finished: 0,
            }),
            complete: Condvar::new(),
        })
    }

    /// Whether every index has been claimed (not necessarily finished).
    fn drained(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.points.len()
    }

    /// Claims and evaluates indices until the batch is drained. In
    /// `Delta` mode the batch entries are simulation-class
    /// representatives, so only the quantum-invariant co-sim runs.
    fn work(&self, space: &DesignSpace) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.points.len() {
                return;
            }
            let t0 = Instant::now();
            let p = &self.points[i];
            let score = match self.mode {
                EvalMode::Full => space.evaluate(p),
                EvalMode::Delta => space.evaluate_class(&p.assignment, p.level),
            };
            let ns = t0.elapsed().as_nanos() as u64;
            let mut d = self.done.lock().expect("batch lock");
            d.scores[i] = Some(score);
            d.ns[i] = ns;
            d.finished += 1;
            if d.finished == self.points.len() {
                self.complete.notify_all();
            }
        }
    }

    /// Drains remaining work on the calling thread, then blocks until
    /// every claimed index has a score, and returns scores and per-
    /// evaluation wall times in index order. With no pool this *is*
    /// the (serial) evaluation.
    fn join(&self, space: &DesignSpace) -> (Vec<Score>, Vec<u64>) {
        self.work(space);
        let mut d = self.done.lock().expect("batch lock");
        while d.finished < self.points.len() {
            d = self.complete.wait(d).expect("batch lock");
        }
        let ns = d.ns.clone();
        let scores = d
            .scores
            .iter_mut()
            .map(|s| s.take().expect("every batch index was evaluated"))
            .collect();
        (scores, ns)
    }
}

/// The persistent pool's shared state: a FIFO of round batches and a
/// shutdown flag. Workers always serve the *oldest* live batch, which
/// is the next one the merger will wait on.
struct PoolShared {
    queue: Mutex<PoolQueue>,
    available: Condvar,
}

struct PoolQueue {
    batches: VecDeque<Arc<Batch>>,
    shutdown: bool,
}

impl PoolShared {
    fn new() -> Self {
        PoolShared {
            queue: Mutex::new(PoolQueue {
                batches: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        }
    }

    fn submit(&self, batch: Arc<Batch>) {
        self.queue
            .lock()
            .expect("pool lock")
            .batches
            .push_back(batch);
        self.available.notify_all();
    }

    fn shutdown(&self) {
        self.queue.lock().expect("pool lock").shutdown = true;
        self.available.notify_all();
    }

    /// An evaluator thread's whole life: take the oldest live batch,
    /// steal work from it until drained, repeat until shutdown.
    fn worker(&self, space: &DesignSpace) {
        loop {
            let batch = {
                let mut q = self.queue.lock().expect("pool lock");
                loop {
                    while q.batches.front().is_some_and(|b| b.drained()) {
                        q.batches.pop_front();
                    }
                    if let Some(b) = q.batches.front() {
                        break Arc::clone(b);
                    }
                    if q.shutdown {
                        return;
                    }
                    q = self.available.wait(q).expect("pool lock");
                }
            };
            batch.work(space);
        }
    }
}

/// Runs the exploration loop with a fresh cache.
#[must_use]
pub fn explore(space: &DesignSpace, cfg: &ExploreConfig, tracer: &Tracer) -> ExploreOutcome {
    explore_with_cache(space, cfg, EvalCache::new(), tracer)
}

/// Runs the exploration loop against a caller-provided cache —
/// typically one preloaded from a persistent cache file
/// ([`crate::persist::preload_cache`]). Output is a pure function of
/// `(space, cfg minus threads, preload-visible scores)`, and because
/// preloaded scores equal what evaluation would produce, the *report*
/// is a pure function of `(space, cfg minus threads)` alone.
#[must_use]
pub fn explore_with_cache(
    space: &DesignSpace,
    cfg: &ExploreConfig,
    cache: EvalCache,
    tracer: &Tracer,
) -> ExploreOutcome {
    let threads = cfg.threads.max(1);
    if threads == 1 {
        return run_pipeline(space, cfg, cache, tracer, None);
    }
    let shared = PoolShared::new();
    std::thread::scope(|scope| {
        // threads - 1 pool workers; the main thread is the last
        // evaluator, stealing work whenever it waits on a merge.
        let handles: Vec<_> = (1..threads)
            .map(|_| scope.spawn(|| shared.worker(space)))
            .collect();
        let outcome = run_pipeline(space, cfg, cache, tracer, Some(&shared));
        shared.shutdown();
        for h in handles {
            h.join().expect("evaluator thread panicked");
        }
        outcome
    })
}

/// Composes a merge-time raw score with the candidate's stage-1
/// evaluation in `Delta` mode; `Full`-mode raw scores are already
/// final.
fn finalize(space: &DesignSpace, cfg: &ExploreConfig, c: &Candidate, raw: Score) -> Score {
    match cfg.eval_mode {
        EvalMode::Full => raw,
        EvalMode::Delta => space.compose(
            &raw,
            c.stage1
                .as_ref()
                .expect("delta-mode pending candidates carry their stage-1 evaluation"),
            c.point.quantum,
        ),
    }
}

/// The pipeline driver. All generation, resolution, and merging happens
/// here on the calling thread; `pool` only changes *where* batch
/// evaluations run (and `None` runs them inline at merge time).
#[allow(clippy::too_many_lines)]
fn run_pipeline(
    space: &DesignSpace,
    cfg: &ExploreConfig,
    cache: EvalCache,
    tracer: &Tracer,
    pool: Option<&PoolShared>,
) -> ExploreOutcome {
    let track = tracer.track("explore");
    let mut archive = ParetoArchive::new();
    let workers = cfg.workers.max(1);
    let mut offered = 0u64;
    let mut rounds = 0u64;
    let mut infeasible = 0u64;
    let mut gated = 0u64;
    let mut dedup_skips = 0u64;
    let mut evaluations = 0u64;
    let mut warm_hits = 0u64;
    let mut merged = 0u64; // monotone trace timestamp
    let mut seen: HashSet<u64> = HashSet::new();
    let mut seen_classes: HashSet<u64> = HashSet::new();
    let mut pending: HashSet<u64> = HashSet::new();
    let mut inflight: VecDeque<InflightRound> = VecDeque::new();
    let mut eval_ns: Vec<u64> = Vec::new();
    // The stage-1 scorer lives on this thread for the whole run: its
    // committed evaluator moves candidate-to-candidate by suffix
    // replay, and its sensitivity profiles steer generation in *both*
    // modes (the candidate stream must not depend on the mode).
    let eval_cfg = space.eval_config();
    let mut stage1 = Stage1::new(space.graph(), &eval_cfg);

    loop {
        // Merge until the pipeline has room — and drain it entirely
        // once the budget is spent. Strictly in round order.
        while inflight.len() > PIPELINE_DEPTH || (offered >= cfg.budget && !inflight.is_empty()) {
            let round = inflight.pop_front().expect("inflight round");
            let (scores, ns) = match &round.batch {
                Some(batch) => batch.join(space),
                None => (Vec::new(), Vec::new()),
            };
            eval_ns.extend(ns);
            if cfg.use_cache {
                for (key, score) in round.pending_keys.iter().zip(&scores) {
                    cache.insert(*key, score.clone());
                    pending.remove(key);
                }
            }
            for c in round.candidates {
                let score = match &c.resolution {
                    Resolution::Known(s) => s.clone(),
                    Resolution::Pending(i) => finalize(space, cfg, &c, scores[*i].clone()),
                    Resolution::Shared(key) => finalize(
                        space,
                        cfg,
                        &c,
                        cache
                            .peek(*key)
                            .expect("shared key was scattered by an earlier merge"),
                    ),
                    Resolution::Gated => {
                        if tracer.is_on() {
                            tracer.span(
                                track,
                                "gated",
                                merged,
                                1,
                                &[
                                    ("assignment", c.point.assignment_string().as_str().into()),
                                    ("quantum", c.point.quantum.into()),
                                    ("level", format!("{}", c.point.level).as_str().into()),
                                ],
                            );
                        }
                        merged += 1;
                        continue;
                    }
                };
                if tracer.is_on() {
                    tracer.span(
                        track,
                        "candidate",
                        merged,
                        1,
                        &[
                            ("assignment", c.point.assignment_string().as_str().into()),
                            ("quantum", c.point.quantum.into()),
                            ("level", format!("{}", c.point.level).as_str().into()),
                            ("feasible", score.feasible.into()),
                            ("latency", score.latency.into()),
                        ],
                    );
                }
                if score.feasible {
                    archive.insert(c.point, score, c.key);
                } else {
                    infeasible += 1;
                }
                merged += 1;
            }
            if tracer.is_on() {
                tracer.counter(track, "front_size", merged, archive.len() as u64);
                tracer.counter(track, "revisits", merged, offered - seen.len() as u64);
            }
        }
        if offered >= cfg.budget {
            break;
        }

        // Generate one round against the (depth-lagged) archive and
        // resolve it in candidate order. Nothing mutates the archive
        // until the next merge, so the round reads it in place.
        let snapshot = archive.entries();
        // One incumbent per round: the whole round sweeps a single
        // Pareto entry's mutation neighborhood (the paper's §4.2
        // "iterative refinement of a candidate" shape). Besides focus,
        // this keeps consecutive stage-1 commits within a few flips of
        // each other, so stage-1 moves stay narrow (`delta_hits`) even
        // on 256-task graphs.
        let round_base = if snapshot.is_empty() {
            None
        } else {
            let stream = fnv1a_str(&format!("base:round:{rounds}"));
            let i = StdRng::seed_from_u64(cfg.seed ^ stream).gen_range(0..snapshot.len());
            Some(&snapshot[i].point)
        };
        let mut candidates: Vec<Candidate> = Vec::with_capacity(workers);
        let mut batch_points: Vec<DesignPoint> = Vec::new();
        let mut pending_keys: Vec<u64> = Vec::new();
        for w in 0..workers {
            if offered >= cfg.budget {
                break;
            }
            let stream = fnv1a_str(&format!("worker:{w}:round:{rounds}"));
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ stream);
            // One point per offer: every redraw overwrites it in place.
            let mut point = DesignPoint {
                assignment: Vec::with_capacity(space.len()),
                quantum: QUANTA[0],
                level: LEVELS[0],
            };
            next_candidate(space, round_base, &mut stage1, &mut rng, &mut point);
            let mut key = space.key(&point);
            let mut retries = 0u32;
            while retries < cfg.dedup_retries && seen.contains(&key) {
                next_candidate(space, round_base, &mut stage1, &mut rng, &mut point);
                key = space.key(&point);
                retries += 1;
                dedup_skips += 1;
            }
            offered += 1;
            let first = seen.insert(key);
            let (resolution, stage1_eval) = match cfg.eval_mode {
                EvalMode::Full => {
                    let resolution = if cfg.use_cache {
                        match cache.lookup(key) {
                            Some((score, preloaded)) => {
                                if first && preloaded {
                                    warm_hits += 1;
                                }
                                Resolution::Known(score)
                            }
                            None if pending.contains(&key) => Resolution::Shared(key),
                            None => {
                                pending.insert(key);
                                pending_keys.push(key);
                                batch_points.push(point.clone());
                                evaluations += 1;
                                Resolution::Pending(batch_points.len() - 1)
                            }
                        }
                    } else {
                        batch_points.push(point.clone());
                        evaluations += 1;
                        Resolution::Pending(batch_points.len() - 1)
                    };
                    (resolution, None)
                }
                EvalMode::Delta => match stage1.evaluate(&point.assignment) {
                    // The cost model rejected the assignment outright
                    // (unschedulable graph): same verdict a full
                    // evaluation would reach, without simulating.
                    None => (Resolution::Known(Score::infeasible()), None),
                    Some(pe) => {
                        // Two-stage filter. The bound is componentwise
                        // ≤ the candidate's true score (exact area and
                        // cross-bytes, sound latency lower bound), so
                        // a snapshot incumbent at or below the bound
                        // weakly dominates the true score and the
                        // archive would reject the insert.
                        let lb = space.latency_lower_bound(&point.assignment, point.level);
                        let cross = space.exact_cross_bytes(&point.assignment);
                        let rounds_lb = sync_rounds_for(lb, point.quantum);
                        let dominated = snapshot.iter().map(|e| &e.score).any(|s| {
                            s.latency <= lb
                                && s.hw_area <= pe.hw_area
                                && s.cross_bytes <= cross
                                && s.sync_rounds <= rounds_lb
                        });
                        if dominated {
                            gated += 1;
                            (Resolution::Gated, None)
                        } else {
                            let ck = space.class_key(&point.assignment, point.level);
                            let first_class = seen_classes.insert(ck);
                            if cfg.use_cache {
                                match cache.lookup(ck) {
                                    Some((class, preloaded)) => {
                                        if first_class && preloaded {
                                            warm_hits += 1;
                                        }
                                        let score = space.compose(&class, &pe, point.quantum);
                                        (Resolution::Known(score), None)
                                    }
                                    None if pending.contains(&ck) => {
                                        (Resolution::Shared(ck), Some(pe))
                                    }
                                    None => {
                                        pending.insert(ck);
                                        pending_keys.push(ck);
                                        batch_points.push(point.clone());
                                        evaluations += 1;
                                        (Resolution::Pending(batch_points.len() - 1), Some(pe))
                                    }
                                }
                            } else {
                                batch_points.push(point.clone());
                                evaluations += 1;
                                (Resolution::Pending(batch_points.len() - 1), Some(pe))
                            }
                        }
                    }
                },
            };
            candidates.push(Candidate {
                point,
                key,
                stage1: stage1_eval,
                resolution,
            });
        }
        rounds += 1;
        let batch = if batch_points.is_empty() {
            None
        } else {
            Some(Batch::new(batch_points, cfg.eval_mode))
        };
        if let (Some(pool), Some(batch)) = (pool, &batch) {
            pool.submit(Arc::clone(batch));
        }
        inflight.push_back(InflightRound {
            candidates,
            pending_keys,
            batch,
        });
    }

    let unique_points = seen.len() as u64;
    let stats = ExploreStats {
        offered,
        rounds,
        unique_points,
        revisits: offered - unique_points,
        infeasible,
        gated,
        dedup_skips,
        delta_hits: stage1.delta_hits,
        delta_misses: stage1.delta_misses,
        evaluations,
        warm_hits,
    };
    ExploreOutcome {
        archive,
        stats,
        cache,
        eval_ns,
    }
}

/// Draws one candidate into `point`, overwriting all of it: a uniform
/// restart, or a mutation of the round's base incumbent — flip one task,
/// flip two, re-draw the quantum, re-draw the abstraction level, draw
/// from the full single-flip × quanta × levels cross-product
/// neighborhood, a scaling multi-flip whose width grows with the task
/// count (the move that lets 256-task spaces escape local basins), or
/// one of two **sensitivity-guided** moves that flip a task from the top
/// of the incumbent's flip-delta ranking (the highest-gradient
/// refinement of the paper's §4.2 survey).
fn next_candidate(
    space: &DesignSpace,
    base: Option<&DesignPoint>,
    stage1: &mut Stage1,
    rng: &mut StdRng,
    point: &mut DesignPoint,
) {
    // The restart draw is made only when there is a base to mutate.
    match base {
        Some(base) if !rng.gen_bool(RESTART_PCT) => {
            // Field by field: the derived `clone_from` would reallocate
            // the assignment.
            point.assignment.clone_from(&base.assignment);
            point.quantum = base.quantum;
            point.level = base.level;
        }
        _ => {
            point.assignment.clear();
            point.assignment.extend((0..space.len()).map(|_| {
                if rng.gen_bool(0.5) {
                    Side::Hw
                } else {
                    Side::Sw
                }
            }));
            point.quantum = QUANTA[rng.gen_range(0..QUANTA.len())];
            point.level = LEVELS[rng.gen_range(0..LEVELS.len())];
            return;
        }
    }
    match rng.gen_range(0u8..8) {
        0 => flip_random(&mut point.assignment, rng),
        1 => {
            flip_random(&mut point.assignment, rng);
            flip_random(&mut point.assignment, rng);
        }
        2 => point.quantum = QUANTA[rng.gen_range(0..QUANTA.len())],
        3 => point.level = LEVELS[rng.gen_range(0..LEVELS.len())],
        4 => {
            // One uniform draw from the full cross-product neighborhood:
            // simultaneously flip a task, re-draw the quantum, and
            // re-draw the level.
            let size = space.cross_neighborhood_size(QUANTA.len(), LEVELS.len());
            if size > 0 {
                let index = rng.gen_range(0..size);
                *point = space.cross_neighbor(point, index, &QUANTA, &LEVELS);
            }
        }
        5 => {
            // Multi-flip: ~n/16 tasks at once, at least two.
            let n = point.assignment.len();
            let flips = rng.gen_range(2..=(n / 16).max(2));
            for _ in 0..flips {
                flip_random(&mut point.assignment, rng);
            }
        }
        6 => {
            // Sensitivity-guided flip: one task drawn uniformly from
            // the top of the incumbent's flip-delta ranking.
            let pick = stage1.profile(&point.assignment).and_then(|p| {
                if p.is_empty() {
                    None
                } else {
                    Some(p[rng.gen_range(0..p.len().min(SENSITIVITY_TOP_K))])
                }
            });
            match pick {
                Some(t) => point.assignment[t] = point.assignment[t].flipped(),
                None => flip_random(&mut point.assignment, rng),
            }
        }
        _ => {
            // Steepest descent plus a quantum re-draw: take the single
            // most improving flip and move along the sync axis too.
            let top = stage1
                .profile(&point.assignment)
                .and_then(|p| p.first().copied());
            match top {
                Some(t) => point.assignment[t] = point.assignment[t].flipped(),
                None => flip_random(&mut point.assignment, rng),
            }
            point.quantum = QUANTA[rng.gen_range(0..QUANTA.len())];
        }
    }
}

fn flip_random(assignment: &mut [Side], rng: &mut StdRng) {
    if !assignment.is_empty() {
        let i = rng.gen_range(0..assignment.len());
        assignment[i] = assignment[i].flipped();
    }
}

impl ExploreOutcome {
    /// Renders the deterministic run report. Deliberately excludes the
    /// thread count, every wall-clock quantity, and every quantity a
    /// warm start changes (`evaluations`, `warm_hits`): the report must
    /// be byte-identical at `--threads 1` and `--threads 8` *and*
    /// between a cold run and a persistent-cache warm start, so timing
    /// and cache economics live in the bench JSON and on stderr, never
    /// here.
    #[must_use]
    pub fn report_json(&self, space: &DesignSpace, cfg: &ExploreConfig) -> String {
        self.report_json_with(space, cfg, &[])
    }

    /// The run report plus wall-clock context — throughput and host
    /// shape — for CLI output where trajectories are compared across
    /// runs and machines. Unlike [`report_json`](Self::report_json)
    /// this is *not* reproducible byte-for-byte: it exists for parity
    /// with the bench JSON.
    #[must_use]
    pub fn timed_report_json(
        &self,
        space: &DesignSpace,
        cfg: &ExploreConfig,
        wall_ns: u64,
        host_cores: usize,
    ) -> String {
        let pps = if wall_ns == 0 {
            0.0
        } else {
            self.stats.offered as f64 * 1e9 / wall_ns as f64
        };
        self.report_json_with(
            space,
            cfg,
            &[
                ("wall_ns", format!("{wall_ns}")),
                ("points_per_sec", format!("{pps:.1}")),
                ("host_cores", format!("{host_cores}")),
            ],
        )
    }

    fn report_json_with(
        &self,
        space: &DesignSpace,
        cfg: &ExploreConfig,
        extra: &[(&str, String)],
    ) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"report\": \"explore\",\n");
        out.push_str(&format!(
            "  \"spec\": \"{}\",\n",
            escape(space.graph().name())
        ));
        out.push_str(&format!("  \"digest\": \"{:#018x}\",\n", space.digest()));
        out.push_str(&format!("  \"seed\": {},\n", cfg.seed));
        out.push_str(&format!("  \"budget\": {},\n", cfg.budget));
        out.push_str(&format!("  \"workers\": {},\n", cfg.workers));
        out.push_str(&format!("  \"pipeline_depth\": {PIPELINE_DEPTH},\n"));
        out.push_str(&format!("  \"cache\": {},\n", cfg.use_cache));
        out.push_str(&format!(
            "  \"eval_mode\": \"{}\",\n",
            cfg.eval_mode.as_str()
        ));
        for (name, value) in extra {
            out.push_str(&format!("  \"{name}\": {value},\n"));
        }
        out.push_str("  \"stats\": {\n");
        out.push_str(&format!("    \"offered\": {},\n", self.stats.offered));
        out.push_str(&format!("    \"rounds\": {},\n", self.stats.rounds));
        out.push_str(&format!(
            "    \"unique_points\": {},\n",
            self.stats.unique_points
        ));
        out.push_str(&format!("    \"revisits\": {},\n", self.stats.revisits));
        out.push_str(&format!(
            "    \"revisit_rate\": {:.4},\n",
            self.stats.revisit_rate()
        ));
        out.push_str(&format!("    \"infeasible\": {},\n", self.stats.infeasible));
        out.push_str(&format!("    \"gated\": {},\n", self.stats.gated));
        out.push_str(&format!(
            "    \"dedup_skips\": {},\n",
            self.stats.dedup_skips
        ));
        out.push_str(&format!(
            "    \"delta_hit_rate\": {:.4},\n",
            self.stats.delta_hit_rate()
        ));
        out.push_str(&format!("    \"front_size\": {}\n", self.archive.len()));
        out.push_str("  },\n");
        out.push_str("  \"front\": [\n");
        let sorted = self.archive.sorted_entries();
        for (i, e) in sorted.iter().enumerate() {
            out.push_str(&entry_json(e, "    "));
            out.push_str(if i + 1 < sorted.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        match self
            .archive
            .best_under(&Constraints::default(), &Weights::default())
        {
            Some(best) => {
                out.push_str("  \"best\": \n");
                out.push_str(&entry_json(best, "  "));
                out.push('\n');
            }
            None => out.push_str("  \"best\": null\n"),
        }
        out.push_str("}\n");
        out
    }
}

fn entry_json(e: &crate::archive::ArchiveEntry, indent: &str) -> String {
    format!(
        "{indent}{{\"assignment\": \"{}\", \"quantum\": {}, \"level\": \"{}\", \
         \"latency\": {}, \"hw_area\": {:.4}, \"cross_bytes\": {}, \"sync_rounds\": {}, \
         \"makespan\": {}, \"cost\": {:.6}}}",
        e.point.assignment_string(),
        e.point.quantum,
        e.point.level,
        e.score.latency,
        e.score.hw_area,
        e.score.cross_bytes,
        e.score.sync_rounds,
        e.score.makespan,
        e.score.cost,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpaceConfig;
    use codesign_ir::task::{Task, TaskGraph};

    fn space() -> DesignSpace {
        let mut g = TaskGraph::new("xctr");
        let a = g.add_task(Task::new("a", 4_000).with_hw_cycles(400).with_hw_area(10.0));
        let b = g.add_task(Task::new("b", 8_000).with_hw_cycles(500).with_hw_area(20.0));
        let c = g.add_task(Task::new("c", 2_000).with_hw_cycles(300).with_hw_area(15.0));
        let d = g.add_task(Task::new("d", 6_000).with_hw_cycles(900).with_hw_area(12.0));
        g.add_edge(a, b, 64).unwrap();
        g.add_edge(b, c, 128).unwrap();
        g.add_edge(a, d, 32).unwrap();
        g.add_edge(d, c, 64).unwrap();
        DesignSpace::new(g, SpaceConfig::default())
    }

    fn small_cfg(threads: usize) -> ExploreConfig {
        ExploreConfig {
            budget: 48,
            threads,
            ..ExploreConfig::default()
        }
    }

    #[test]
    fn thread_count_cannot_change_the_outcome() {
        let space = space();
        let solo = explore(&space, &small_cfg(1), &Tracer::off());
        let pool = explore(&space, &small_cfg(8), &Tracer::off());
        assert_eq!(solo.stats, pool.stats);
        assert_eq!(
            solo.report_json(&space, &small_cfg(1)),
            pool.report_json(&space, &small_cfg(8)),
            "reports must be byte-identical across thread counts"
        );
    }

    #[test]
    fn delta_and_full_modes_agree_on_the_archive() {
        let space = space();
        for budget in [48u64, 200] {
            let delta = explore(
                &space,
                &ExploreConfig {
                    budget,
                    eval_mode: EvalMode::Delta,
                    ..small_cfg(1)
                },
                &Tracer::off(),
            );
            let full = explore(
                &space,
                &ExploreConfig {
                    budget,
                    eval_mode: EvalMode::Full,
                    ..small_cfg(1)
                },
                &Tracer::off(),
            );
            assert_eq!(
                delta.archive.entries(),
                full.archive.entries(),
                "budget {budget}: the gate is sound, the archive cannot differ"
            );
            assert_eq!(delta.stats.offered, full.stats.offered);
            assert_eq!(delta.stats.unique_points, full.stats.unique_points);
            assert_eq!(full.stats.gated, 0, "full mode never gates");
            assert!(
                delta.stats.evaluations <= full.stats.evaluations,
                "class keying and the gate can only reduce simulations"
            );
        }
    }

    #[test]
    fn cache_disabled_reaches_the_same_front() {
        let space = space();
        let with = explore(&space, &small_cfg(2), &Tracer::off());
        let without = explore(
            &space,
            &ExploreConfig {
                use_cache: false,
                ..small_cfg(2)
            },
            &Tracer::off(),
        );
        assert_eq!(with.archive.len(), without.archive.len());
        for (a, b) in with.archive.entries().iter().zip(without.archive.entries()) {
            assert_eq!(a, b, "evaluation purity makes the cache invisible");
        }
        // The shared accounting agrees; only the work differs.
        assert_eq!(with.stats.offered, without.stats.offered);
        assert_eq!(with.stats.unique_points, without.stats.unique_points);
        assert_eq!(with.stats.revisits, without.stats.revisits);
        assert_eq!(with.stats.gated, without.stats.gated, "gate ignores cache");
        // Without the cache, every non-gated offer is simulated; with
        // it, at most one simulation per distinct class.
        assert_eq!(
            without.stats.evaluations + without.stats.gated,
            without.stats.offered
        );
        assert!(with.stats.evaluations <= with.stats.unique_points);
    }

    #[test]
    fn full_mode_keeps_point_exact_accounting() {
        let space = space();
        let cfg = ExploreConfig {
            budget: 200,
            eval_mode: EvalMode::Full,
            ..small_cfg(2)
        };
        let out = explore(&space, &cfg, &Tracer::off());
        assert_eq!(out.stats.offered, 200);
        assert_eq!(
            out.stats.evaluations, out.stats.unique_points,
            "full mode with the cache simulates exactly the unique points"
        );
        assert_eq!(out.cache.len() as u64, out.stats.unique_points);
        assert_eq!(out.stats.gated, 0);
        assert_eq!(out.stats.delta_hits + out.stats.delta_misses, 0);
    }

    #[test]
    fn budget_is_exact_and_dedup_redraws_duplicates() {
        let space = space();
        let cfg = ExploreConfig {
            budget: 200,
            ..small_cfg(2)
        };
        let out = explore(&space, &cfg, &Tracer::off());
        assert_eq!(out.stats.offered, 200);
        assert!(
            out.stats.dedup_skips > 0,
            "a 200-offer run over this small space must redraw duplicates"
        );
        assert!(
            out.stats.revisit_rate() < 0.5,
            "dedup must keep the revisit rate far below the old 0.98"
        );
        assert_eq!(out.stats.warm_hits, 0, "no preload, no warm hits");
        assert!(!out.archive.is_empty());
        assert_eq!(
            out.cache.len() as u64,
            out.stats.evaluations,
            "the returned cache holds exactly the simulated classes"
        );
        let report = out.report_json(&space, &cfg);
        assert!(report.contains("\"dedup_skips\""), "report records dedup");
        assert!(report.contains("\"delta_hit_rate\""));
        assert!(report.contains("\"gated\""));
    }

    #[test]
    fn odd_budgets_and_workers_drain_cleanly() {
        let space = space();
        for (budget, workers) in [(1u64, 8), (7, 3), (53, 5)] {
            let cfg = ExploreConfig {
                budget,
                workers,
                ..small_cfg(3)
            };
            let out = explore(&space, &cfg, &Tracer::off());
            assert_eq!(out.stats.offered, budget, "workers={workers}");
            assert_eq!(
                out.stats.rounds,
                budget.div_ceil(workers as u64),
                "rounds are full except the last"
            );
        }
    }

    #[test]
    fn warm_start_matches_cold_report_with_zero_evaluations() {
        let space = space();
        let cfg = small_cfg(2);
        let cold = explore(&space, &cfg, &Tracer::off());
        let warm_cache = EvalCache::new();
        for (k, s) in cold.cache.session_entries() {
            warm_cache.preload(k, s);
        }
        let warm = explore_with_cache(&space, &cfg, warm_cache, &Tracer::off());
        assert_eq!(
            cold.report_json(&space, &cfg),
            warm.report_json(&space, &cfg),
            "a warm start must not change the report"
        );
        assert_eq!(warm.stats.evaluations, 0, "everything was preloaded");
        assert_eq!(
            warm.stats.warm_hits, cold.stats.evaluations,
            "every class simulated cold is served by the preload exactly once"
        );
        assert_eq!(cold.stats.unique_points, warm.stats.unique_points);
    }

    #[test]
    fn timed_report_adds_throughput_and_host_shape() {
        let space = space();
        let cfg = small_cfg(1);
        let out = explore(&space, &cfg, &Tracer::off());
        let timed = out.timed_report_json(&space, &cfg, 2_000_000_000, 4);
        assert!(timed.contains("\"points_per_sec\": 24.0"));
        assert!(timed.contains("\"host_cores\": 4"));
        assert!(timed.contains("\"wall_ns\": 2000000000"));
        assert!(
            !out.report_json(&space, &cfg).contains("points_per_sec"),
            "the deterministic report stays wall-clock free"
        );
    }

    #[test]
    fn tracer_sees_every_candidate() {
        let space = space();
        let tracer = Tracer::on();
        let cfg = small_cfg(1);
        let _ = explore(&space, &cfg, &tracer);
        // One span per candidate (gated or scored) plus two counters
        // per round.
        assert!(tracer.event_count() >= cfg.budget as usize);
    }
}
