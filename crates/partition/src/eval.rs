//! Partition evaluation: schedule, traffic, area, and the scalarized
//! objective.
//!
//! A partition is evaluated by list-scheduling the task graph onto the
//! target of the paper's Figure 8: one instruction-set processor (which
//! serializes its tasks) plus a co-processor with a configurable number
//! of concurrent contexts (1 = the single-threaded co-processor of
//! Section 4.5; more = the multi-threaded co-processor of Section 4.5.1).
//! Every edge that crosses the boundary pays the [`EdgeCommModel`]
//! transfer cost — making the paper's "communication … favors partitions
//! that localize communication" a measured effect, not an assumption.
//!
//! # The incremental evaluator
//!
//! Every search algorithm in [`crate::algorithms`] explores the
//! single-flip neighborhood of a partition, which makes evaluation the
//! hot path. [`Evaluator`] exploits two facts about this workload:
//!
//! 1. The **schedule order is partition-independent** (priorities come
//!    from software bottom levels), so it is computed once per graph,
//!    not once per candidate.
//! 2. Scheduling position `p` depends only on the sides of tasks at
//!    positions `≤ p` (predecessors always precede their consumers in a
//!    list schedule). Flipping task `t` therefore invalidates only the
//!    **suffix** of the schedule starting at `t`'s position. The
//!    evaluator checkpoints the scheduler registers (CPU horizon,
//!    per-context hardware horizons, communication counters) before
//!    every position and replays just that suffix.
//!
//! Because the replay runs the identical arithmetic in the identical
//! order, [`Evaluator::probe_flip`] is *bit-identical* to a full
//! [`evaluate`] of the flipped partition — a property pinned by the
//! equivalence proptests. The same holds for a move of several tasks:
//! [`Evaluator::apply_flips`] commits them all with one replay from the
//! earliest flipped position. All scratch buffers are owned and reused, so
//! steady-state probing allocates nothing. Neighborhood scans
//! ([`Evaluator::best_flip`]) fan out across threads for large graphs
//! with a deterministic lowest-id tie-break, so results never depend on
//! thread timing.

use codesign_ir::task::{TaskGraph, TaskId};

use crate::area::HwAreaModel;
use crate::cost::{EdgeCommModel, Objective};
use crate::error::PartitionError;
use crate::{Partition, Side};

/// Evaluation parameters.
#[derive(Debug)]
pub struct EvalConfig<'a> {
    /// Cross-boundary communication model.
    pub comm: EdgeCommModel,
    /// The weighted objective.
    pub objective: Objective,
    /// Hardware-area estimator.
    pub area_model: &'a dyn HwAreaModel,
    /// Concurrent hardware contexts (1 = single-threaded co-processor).
    pub hw_contexts: usize,
}

impl<'a> EvalConfig<'a> {
    /// Creates a config with default communication model and a
    /// single-threaded co-processor.
    #[must_use]
    pub fn new(objective: Objective, area_model: &'a dyn HwAreaModel) -> Self {
        EvalConfig {
            comm: EdgeCommModel::default(),
            objective,
            area_model,
            hw_contexts: 1,
        }
    }
}

/// Everything measured about one partition.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// End-to-end schedule length in cycles.
    pub makespan: u64,
    /// Hardware area under the configured estimator.
    pub hw_area: f64,
    /// Bytes crossing the HW/SW boundary.
    pub cross_bytes: u64,
    /// Cycles spent in cross-boundary transfers.
    pub comm_cycles: u64,
    /// Fraction of the makespan during which both sides were busy.
    pub overlap: f64,
    /// Whether the deadline (if any) is met.
    pub meets_deadline: bool,
    /// The scalarized objective value (lower is better).
    pub cost: f64,
}

/// Evaluates a partition of `graph` under `config`.
///
/// One-shot convenience over [`Evaluator`]; algorithms that evaluate many
/// neighbors of the same graph should hold an `Evaluator` instead.
///
/// # Errors
///
/// Returns [`PartitionError::SizeMismatch`] if the partition does not
/// cover the graph, and propagates graph validation errors.
pub fn evaluate(
    graph: &TaskGraph,
    partition: &Partition,
    config: &EvalConfig<'_>,
) -> Result<Evaluation, PartitionError> {
    let ev = Evaluator::new(graph, config, partition)?;
    Ok(ev.state.current)
}

/// Below this many eligible flips a neighborhood scan stays serial: the
/// per-scan thread spawn cost would exceed the probe work.
const PARALLEL_SCAN_MIN: usize = 128;

/// The scheduler's scalar registers: everything that flows forward
/// through the list schedule besides per-task finish times and the
/// hardware context horizons.
#[derive(Debug, Clone, Copy, Default)]
struct Regs {
    cpu_free: u64,
    comm_cycles: u64,
    cross_bytes: u64,
}

/// Partition-independent evaluation context, computed once per graph.
#[derive(Debug)]
struct Shared<'a> {
    graph: &'a TaskGraph,
    config: &'a EvalConfig<'a>,
    /// List-schedule order (bottom-level priority), fixed per graph.
    order: Vec<TaskId>,
    /// Position of each task in `order`.
    pos_of: Vec<u32>,
    sw_cycles: Vec<u64>,
    hw_cycles: Vec<u64>,
    hw_contexts: usize,
    /// Scalarization constants (all partition-independent).
    all_sw_time: f64,
    all_hw_area: f64,
    total_bytes: u64,
}

/// Scheduler register checkpoints: entry `p` holds the register state
/// immediately *before* position `p` is scheduled (entry `n` is the
/// final state). Restoring entry `p` and replaying positions `p..n`
/// reproduces a full evaluation exactly.
#[derive(Debug)]
struct Checkpoints {
    hw_contexts: usize,
    cpu_free_at: Vec<u64>,
    hw_free_at: Vec<u64>,
    comm_at: Vec<u64>,
    bytes_at: Vec<u64>,
}

impl Checkpoints {
    fn new(n: usize, hw_contexts: usize) -> Self {
        Checkpoints {
            hw_contexts,
            cpu_free_at: vec![0; n + 1],
            hw_free_at: vec![0; (n + 1) * hw_contexts],
            comm_at: vec![0; n + 1],
            bytes_at: vec![0; n + 1],
        }
    }

    fn record(&mut self, p: usize, regs: &Regs, hw_free: &[u64]) {
        self.cpu_free_at[p] = regs.cpu_free;
        self.comm_at[p] = regs.comm_cycles;
        self.bytes_at[p] = regs.cross_bytes;
        let ctx = self.hw_contexts;
        self.hw_free_at[p * ctx..(p + 1) * ctx].copy_from_slice(hw_free);
    }

    fn load(&self, p: usize, hw_free: &mut Vec<u64>) -> Regs {
        let ctx = self.hw_contexts;
        hw_free.clear();
        hw_free.extend_from_slice(&self.hw_free_at[p * ctx..(p + 1) * ctx]);
        Regs {
            cpu_free: self.cpu_free_at[p],
            comm_cycles: self.comm_at[p],
            cross_bytes: self.bytes_at[p],
        }
    }
}

/// The committed partition and its schedule.
#[derive(Debug)]
struct State {
    sides: Vec<Side>,
    /// Finish time per task.
    finish: Vec<u64>,
    /// `(start, end, side)` per schedule position, for overlap accounting.
    busy: Vec<(u64, u64, Side)>,
    ckpt: Checkpoints,
    current: Evaluation,
}

/// Reusable evaluation buffers. Each scan worker thread owns one, so
/// probing is allocation-free in steady state.
#[derive(Debug)]
struct Scratch {
    finish: Vec<u64>,
    hw_free: Vec<u64>,
    busy: Vec<(u64, u64, Side)>,
    events: Vec<(u64, i32, Side)>,
    hw_tasks: Vec<TaskId>,
}

impl Scratch {
    fn new(n: usize, hw_contexts: usize) -> Self {
        Scratch {
            finish: Vec::with_capacity(n),
            hw_free: Vec::with_capacity(hw_contexts),
            busy: Vec::with_capacity(n),
            events: Vec::with_capacity(2 * n),
            hw_tasks: Vec::with_capacity(n),
        }
    }
}

/// Incremental partition evaluator with checkpointed delta-evaluation.
///
/// Construction precomputes everything partition-independent: the list
/// schedule order, the graph's adjacency index, per-task durations, and
/// the scalarization constants. After that:
///
/// * [`probe_flip`](Self::probe_flip) evaluates a single-task flip by
///   replaying only the schedule suffix after that task — without
///   mutating the committed state;
/// * [`apply_flip`](Self::apply_flip) commits a flip (flips are their own
///   inverse, so "undo" is applying the same flip again), and
///   [`apply_flips`](Self::apply_flips) commits several with one replay
///   from the earliest flipped position;
/// * [`best_flip`](Self::best_flip) scans the whole neighborhood, in
///   parallel for large graphs, with a deterministic tie-break.
#[derive(Debug)]
pub struct Evaluator<'a> {
    shared: Shared<'a>,
    state: State,
    scratch: Scratch,
}

impl<'a> Evaluator<'a> {
    /// Builds an evaluator for `graph` under `config`, committed to
    /// `partition`.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::SizeMismatch`] if the partition does not
    /// cover the graph, and propagates graph validation errors.
    pub fn new(
        graph: &'a TaskGraph,
        config: &'a EvalConfig<'a>,
        partition: &Partition,
    ) -> Result<Self, PartitionError> {
        if partition.len() != graph.len() {
            return Err(PartitionError::SizeMismatch {
                partition: partition.len(),
                graph: graph.len(),
            });
        }
        let order = schedule_order(graph)?;
        let n = graph.len();
        let mut pos_of = vec![0u32; n];
        for (p, &t) in order.iter().enumerate() {
            pos_of[t.index()] = p as u32;
        }
        let hw_contexts = config.hw_contexts.max(1);
        let all_ids: Vec<TaskId> = graph.ids().collect();
        let shared = Shared {
            graph,
            config,
            order,
            pos_of,
            sw_cycles: graph.iter().map(|(_, t)| t.sw_cycles()).collect(),
            hw_cycles: graph.iter().map(|(_, t)| t.hw_cycles()).collect(),
            hw_contexts,
            all_sw_time: graph.total_sw_cycles().max(1) as f64,
            all_hw_area: config.area_model.area_of(graph, &all_ids).max(1e-9),
            total_bytes: graph.edges().iter().map(|e| e.bytes).sum(),
        };
        let state = State {
            sides: (0..n)
                .map(|i| partition.side(TaskId::from_index(i)))
                .collect(),
            finish: vec![0; n],
            busy: Vec::with_capacity(n),
            ckpt: Checkpoints::new(n, hw_contexts),
            current: Evaluation {
                makespan: 0,
                hw_area: 0.0,
                cross_bytes: 0,
                comm_cycles: 0,
                overlap: 0.0,
                meets_deadline: true,
                cost: 0.0,
            },
        };
        let mut ev = Evaluator {
            shared,
            state,
            scratch: Scratch::new(n, hw_contexts),
        };
        commit(&ev.shared, &mut ev.state, &mut ev.scratch, 0);
        Ok(ev)
    }

    /// Number of tasks covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.sides.len()
    }

    /// Whether the graph has no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.state.sides.is_empty()
    }

    /// The evaluation of the committed partition.
    #[must_use]
    pub fn current(&self) -> &Evaluation {
        &self.state.current
    }

    /// The committed side of one task.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn side(&self, t: TaskId) -> Side {
        self.state.sides[t.index()]
    }

    /// A snapshot of the committed partition.
    #[must_use]
    pub fn partition(&self) -> Partition {
        Partition::from_sides(self.state.sides.clone())
    }

    /// Re-seeds the evaluator with a whole new partition (full pass).
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::SizeMismatch`] if the partition does not
    /// cover the graph.
    pub fn reset(&mut self, partition: &Partition) -> Result<&Evaluation, PartitionError> {
        if partition.len() != self.len() {
            return Err(PartitionError::SizeMismatch {
                partition: partition.len(),
                graph: self.len(),
            });
        }
        for (i, s) in self.state.sides.iter_mut().enumerate() {
            *s = partition.side(TaskId::from_index(i));
        }
        commit(&self.shared, &mut self.state, &mut self.scratch, 0);
        Ok(&self.state.current)
    }

    /// Evaluates the committed partition with task `t` flipped, replaying
    /// only the schedule suffix after `t`. The committed state is left
    /// untouched; the result is bit-identical to a full [`evaluate`] of
    /// the flipped partition.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn probe_flip(&mut self, t: TaskId) -> Evaluation {
        probe(&self.shared, &self.state, &mut self.scratch, t)
    }

    /// Commits a single-task flip, updating the schedule and checkpoints
    /// from `t`'s position onward. Flips are involutive: applying the
    /// same flip again restores the previous partition exactly.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn apply_flip(&mut self, t: TaskId) -> &Evaluation {
        self.apply_flips(&[t])
    }

    /// Commits every listed flip with one schedule replay from the
    /// earliest position among them. No position before that one sees a
    /// changed side, so the result is bit-identical to applying the
    /// flips one at a time, or to a full [`evaluate`] of the new
    /// partition. A task listed twice flips back; an empty slice commits
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if a listed task is out of range.
    pub fn apply_flips(&mut self, flips: &[TaskId]) -> &Evaluation {
        let Some(from) = flips
            .iter()
            .map(|t| self.shared.pos_of[t.index()] as usize)
            .min()
        else {
            return &self.state.current;
        };
        for t in flips {
            let s = &mut self.state.sides[t.index()];
            *s = s.flipped();
        }
        commit(&self.shared, &mut self.state, &mut self.scratch, from);
        &self.state.current
    }

    /// Per-task flip sensitivities against the committed partition: entry
    /// `t` is `cost(flip t) - cost(current)` — negative means flipping
    /// task `t` *improves* the scalarized objective. This is the
    /// Yen–Wolf-style gradient a sensitivity-guided search samples from;
    /// each probe replays only the schedule suffix after `t`, so a whole
    /// profile costs far less than `n` full evaluations. The committed
    /// state is untouched.
    #[must_use]
    pub fn flip_deltas(&mut self) -> Vec<f64> {
        let base = self.state.current.cost;
        (0..self.len())
            .map(|i| {
                let e = probe(
                    &self.shared,
                    &self.state,
                    &mut self.scratch,
                    TaskId::from_index(i),
                );
                e.cost - base
            })
            .collect()
    }

    /// Probes every non-`locked` flip and returns the one with the lowest
    /// cost (ties go to the lowest task id), or `None` if every task is
    /// locked. The best flip is returned whether or not it improves on
    /// [`current`](Self::current) — pass-based algorithms need
    /// non-improving moves — so callers decide whether to apply it.
    ///
    /// Scans over at least [`PARALLEL_SCAN_MIN`] candidates fan out over
    /// the available cores; the reduction is position-ordered, so the
    /// result is independent of thread timing.
    ///
    /// # Panics
    ///
    /// Panics if `locked.len()` differs from the task count.
    #[must_use]
    pub fn best_flip(&mut self, locked: &[bool]) -> Option<(TaskId, Evaluation)> {
        let n = self.len();
        assert_eq!(locked.len(), n, "locked mask must cover the graph");
        let eligible: Vec<TaskId> = (0..n)
            .map(TaskId::from_index)
            .filter(|t| !locked[t.index()])
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        if eligible.len() < PARALLEL_SCAN_MIN || workers < 2 {
            let mut best: Option<(TaskId, Evaluation)> = None;
            for &t in &eligible {
                let e = probe(&self.shared, &self.state, &mut self.scratch, t);
                if best.as_ref().is_none_or(|(_, b)| e.cost < b.cost) {
                    best = Some((t, e));
                }
            }
            return best;
        }
        let shared = &self.shared;
        let state = &self.state;
        let chunk = eligible.len().div_ceil(workers);
        let per_chunk: Vec<Option<(TaskId, Evaluation)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = eligible
                .chunks(chunk)
                .map(|tasks| {
                    scope.spawn(move || {
                        let mut scratch = Scratch::new(shared.order.len(), shared.hw_contexts);
                        let mut best: Option<(TaskId, Evaluation)> = None;
                        for &t in tasks {
                            let e = probe(shared, state, &mut scratch, t);
                            if best.as_ref().is_none_or(|(_, b)| e.cost < b.cost) {
                                best = Some((t, e));
                            }
                        }
                        best
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scan worker panicked"))
                .collect()
        });
        // Chunks cover ascending task ids; folding with strict `<` keeps
        // the lowest id among cost ties, matching the serial loop.
        per_chunk
            .into_iter()
            .flatten()
            .fold(None, |best, cand| match best {
                Some(b) if cand.1.cost >= b.1.cost => Some(b),
                _ => Some(cand),
            })
    }
}

/// Replays schedule positions `from..n` with the given side assignment.
/// `finish`, `busy`, `regs`, and `hw_free` must hold the state of a
/// consistent schedule prefix of length `from`. When `ckpt` is given, the
/// register state is recorded before every position (and once at the
/// end), making the result resumable.
#[allow(clippy::too_many_arguments)]
fn schedule_suffix<F: Fn(TaskId) -> Side>(
    shared: &Shared<'_>,
    side_of: &F,
    from: usize,
    regs: &mut Regs,
    hw_free: &mut [u64],
    finish: &mut [u64],
    busy: &mut Vec<(u64, u64, Side)>,
    mut ckpt: Option<&mut Checkpoints>,
) {
    let n = shared.order.len();
    debug_assert_eq!(busy.len(), from);
    for p in from..n {
        if let Some(ck) = ckpt.as_deref_mut() {
            ck.record(p, regs, hw_free);
        }
        let t = shared.order[p];
        let side = side_of(t);
        let mut data_ready = 0u64;
        for e in shared.graph.incoming_edges(t) {
            let mut ready = finish[e.src.index()];
            if side_of(e.src) != side {
                let cycles = shared.config.comm.transfer_cycles(e.bytes);
                ready += cycles;
                regs.comm_cycles += cycles;
                regs.cross_bytes += e.bytes;
            }
            data_ready = data_ready.max(ready);
        }
        let duration = match side {
            Side::Sw => shared.sw_cycles[t.index()],
            Side::Hw => shared.hw_cycles[t.index()],
        };
        let start = match side {
            Side::Sw => {
                let s = data_ready.max(regs.cpu_free);
                regs.cpu_free = s + duration;
                s
            }
            Side::Hw => {
                let (ctx, &free) = hw_free
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &f)| f)
                    .expect("hw_contexts >= 1");
                let s = data_ready.max(free);
                hw_free[ctx] = s + duration;
                s
            }
        };
        finish[t.index()] = start + duration;
        busy.push((start, start + duration, side));
    }
    if let Some(ck) = ckpt {
        ck.record(n, regs, hw_free);
    }
}

/// Folds a completed schedule into an [`Evaluation`] — the identical
/// arithmetic whether the schedule came from a full pass or a replayed
/// suffix.
fn scalarize<F: Fn(TaskId) -> Side>(
    shared: &Shared<'_>,
    side_of: &F,
    finish: &[u64],
    busy: &[(u64, u64, Side)],
    regs: &Regs,
    events: &mut Vec<(u64, i32, Side)>,
    hw_tasks: &mut Vec<TaskId>,
) -> Evaluation {
    let makespan = finish.iter().copied().max().unwrap_or(0);
    hw_tasks.clear();
    hw_tasks.extend(shared.graph.ids().filter(|&t| side_of(t) == Side::Hw));
    let hw_area = shared.config.area_model.area_of(shared.graph, hw_tasks);
    let overlap = overlap_fraction(events, busy, makespan);
    let meets_deadline = shared
        .config
        .objective
        .deadline
        .is_none_or(|d| makespan <= d);

    let obj = &shared.config.objective;
    let n = shared.graph.len().max(1) as f64;
    let norm_time = makespan as f64 / shared.all_sw_time;
    let norm_area = hw_area / shared.all_hw_area;
    let norm_comm = if shared.total_bytes == 0 {
        0.0
    } else {
        regs.cross_bytes as f64 / shared.total_bytes as f64
    };
    let mod_penalty: f64 = hw_tasks
        .iter()
        .map(|&t| shared.graph.task(t).modifiability())
        .sum::<f64>()
        / n;
    let nature_penalty: f64 = shared
        .graph
        .iter()
        .filter(|&(id, _)| side_of(id) == Side::Sw)
        .map(|(_, t)| t.parallelism())
        .sum::<f64>()
        / n;
    let lost_concurrency = 1.0 - overlap;

    let mut cost = obj.w_time * norm_time
        + obj.w_area * norm_area
        + obj.w_comm * norm_comm
        + obj.w_modifiability * mod_penalty
        + obj.w_nature * nature_penalty
        + obj.w_concurrency * lost_concurrency;
    if let Some(d) = obj.deadline {
        if makespan > d {
            cost += obj.deadline_penalty * (makespan - d) as f64 / d.max(1) as f64;
        }
    }

    Evaluation {
        makespan,
        hw_area,
        cross_bytes: regs.cross_bytes,
        comm_cycles: regs.comm_cycles,
        overlap,
        meets_deadline,
        cost,
    }
}

/// Evaluates flipping `flip` against the committed state, into `scratch`.
fn probe(shared: &Shared<'_>, state: &State, scratch: &mut Scratch, flip: TaskId) -> Evaluation {
    let p0 = shared.pos_of[flip.index()] as usize;
    let Scratch {
        finish,
        hw_free,
        busy,
        events,
        hw_tasks,
    } = scratch;
    finish.clear();
    finish.extend_from_slice(&state.finish);
    busy.clear();
    busy.extend_from_slice(&state.busy[..p0]);
    let mut regs = state.ckpt.load(p0, hw_free);
    let sides = &state.sides;
    let side_of = move |t: TaskId| {
        let s = sides[t.index()];
        if t == flip {
            s.flipped()
        } else {
            s
        }
    };
    schedule_suffix(shared, &side_of, p0, &mut regs, hw_free, finish, busy, None);
    scalarize(shared, &side_of, finish, busy, &regs, events, hw_tasks)
}

/// Recomputes the committed schedule from position `from` onward
/// (refreshing checkpoints) and updates the current evaluation.
fn commit(shared: &Shared<'_>, state: &mut State, scratch: &mut Scratch, from: usize) {
    let State {
        sides,
        finish,
        busy,
        ckpt,
        current,
    } = state;
    busy.truncate(from);
    let mut regs = ckpt.load(from, &mut scratch.hw_free);
    let side_of = |t: TaskId| sides[t.index()];
    schedule_suffix(
        shared,
        &side_of,
        from,
        &mut regs,
        &mut scratch.hw_free,
        finish,
        busy,
        Some(ckpt),
    );
    *current = scalarize(
        shared,
        &side_of,
        finish,
        busy,
        &regs,
        &mut scratch.events,
        &mut scratch.hw_tasks,
    );
}

/// Topological order sorted by bottom level (longest path first), the
/// usual list-scheduling priority. Partition-independent: priorities are
/// software bottom levels, so one order serves every candidate.
fn schedule_order(graph: &TaskGraph) -> Result<Vec<TaskId>, PartitionError> {
    // bottom_levels also detects cycles.
    let levels = graph.bottom_levels(|_, t| t.sw_cycles())?;
    let mut result = Vec::with_capacity(graph.len());
    let mut placed = vec![false; graph.len()];
    let mut indegree: Vec<usize> = (0..graph.len())
        .map(|i| graph.in_degree(TaskId::from_index(i)))
        .collect();
    let mut ready: Vec<TaskId> = graph.ids().filter(|t| indegree[t.index()] == 0).collect();
    while !ready.is_empty() {
        // Highest bottom level first.
        ready.sort_by_key(|&t| std::cmp::Reverse(levels[t.index()]));
        let t = ready.remove(0);
        if placed[t.index()] {
            continue;
        }
        placed[t.index()] = true;
        result.push(t);
        for s in graph.successors(t) {
            indegree[s.index()] -= 1;
            if indegree[s.index()] == 0 {
                ready.push(s);
            }
        }
    }
    Ok(result)
}

fn overlap_fraction(
    events: &mut Vec<(u64, i32, Side)>,
    busy: &[(u64, u64, Side)],
    makespan: u64,
) -> f64 {
    if makespan == 0 {
        return 0.0;
    }
    // Sweep: count cycles where both a SW and an HW interval are active.
    events.clear();
    for &(s, e, side) in busy {
        events.push((s, 1, side));
        events.push((e, -1, side));
    }
    events.sort_by_key(|&(t, d, _)| (t, d));
    let (mut sw, mut hw) = (0i32, 0i32);
    let mut both = 0u64;
    let mut last = 0u64;
    for &(t, d, side) in events.iter() {
        if sw > 0 && hw > 0 {
            both += t - last;
        }
        last = t;
        match side {
            Side::Sw => sw += d,
            Side::Hw => hw += d,
        }
    }
    both as f64 / makespan as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::area::NaiveArea;
    use codesign_ir::task::Task;

    fn chain() -> TaskGraph {
        let mut g = TaskGraph::new("chain");
        let a = g.add_task(Task::new("a", 1_000).with_hw_cycles(100).with_hw_area(10.0));
        let b = g.add_task(Task::new("b", 2_000).with_hw_cycles(200).with_hw_area(20.0));
        let c = g.add_task(Task::new("c", 3_000).with_hw_cycles(300).with_hw_area(30.0));
        g.add_edge(a, b, 40).unwrap();
        g.add_edge(b, c, 40).unwrap();
        g
    }

    fn config(objective: Objective) -> EvalConfig<'static> {
        static NAIVE: NaiveArea = NaiveArea;
        EvalConfig::new(objective, &NAIVE)
    }

    #[test]
    fn all_sw_serializes_and_costs_no_area() {
        let g = chain();
        let e = evaluate(&g, &Partition::all_sw(3), &config(Objective::default())).unwrap();
        assert_eq!(e.makespan, 6_000);
        assert_eq!(e.hw_area, 0.0);
        assert_eq!(e.cross_bytes, 0);
    }

    #[test]
    fn all_hw_is_fast_but_expensive() {
        let g = chain();
        let e = evaluate(&g, &Partition::all_hw(3), &config(Objective::default())).unwrap();
        assert_eq!(e.makespan, 600);
        assert!((e.hw_area - 60.0).abs() < 1e-9);
        assert_eq!(e.cross_bytes, 0, "no boundary inside hardware");
    }

    #[test]
    fn boundary_crossings_pay_communication() {
        let g = chain();
        let mixed = Partition::from_sides(vec![Side::Sw, Side::Hw, Side::Sw]);
        let e = evaluate(&g, &mixed, &config(Objective::default())).unwrap();
        assert_eq!(e.cross_bytes, 80);
        let per_edge = EdgeCommModel::default().transfer_cycles(40);
        assert_eq!(e.comm_cycles, 2 * per_edge);
        assert_eq!(e.makespan, 1_000 + per_edge + 200 + per_edge + 3_000);
    }

    #[test]
    fn parallel_branches_overlap_across_the_boundary() {
        let mut g = TaskGraph::new("fork");
        let a = g.add_task(Task::new("a", 100).with_hw_cycles(10));
        let b = g.add_task(Task::new("b", 5_000).with_hw_cycles(500));
        let c = g.add_task(Task::new("c", 5_000).with_hw_cycles(500));
        g.add_edge(a, b, 8).unwrap();
        g.add_edge(a, c, 8).unwrap();
        // b in SW, c in HW: they overlap after a.
        let p = Partition::from_sides(vec![Side::Sw, Side::Sw, Side::Hw]);
        let e = evaluate(&g, &p, &config(Objective::default())).unwrap();
        assert!(e.overlap > 0.05, "overlap {}", e.overlap);
        // Both serial on the CPU: zero overlap.
        let serial = evaluate(&g, &Partition::all_sw(3), &config(Objective::default())).unwrap();
        assert_eq!(serial.overlap, 0.0);
    }

    #[test]
    fn multi_context_hw_runs_branches_concurrently() {
        let mut g = TaskGraph::new("fork");
        let a = g.add_task(Task::new("a", 10).with_hw_cycles(10));
        let b = g.add_task(Task::new("b", 1_000).with_hw_cycles(1_000));
        let c = g.add_task(Task::new("c", 1_000).with_hw_cycles(1_000));
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(a, c, 0).unwrap();
        let p = Partition::all_hw(3);
        static NAIVE: NaiveArea = NaiveArea;
        let mut cfg = EvalConfig::new(Objective::default(), &NAIVE);
        cfg.hw_contexts = 1;
        let single = evaluate(&g, &p, &cfg).unwrap();
        cfg.hw_contexts = 2;
        let dual = evaluate(&g, &p, &cfg).unwrap();
        assert_eq!(single.makespan, 2_010);
        assert_eq!(dual.makespan, 1_010, "figure-9 concurrency");
    }

    #[test]
    fn deadline_violation_penalized() {
        let g = chain();
        let strict = Objective {
            deadline: Some(500),
            ..Objective::default()
        };
        let sw = evaluate(&g, &Partition::all_sw(3), &config(strict.clone())).unwrap();
        assert!(!sw.meets_deadline);
        let hw = evaluate(&g, &Partition::all_hw(3), &config(strict)).unwrap();
        assert!(!hw.meets_deadline); // 600 > 500
        assert!(sw.cost > hw.cost, "larger overshoot costs more");
    }

    #[test]
    fn size_mismatch_rejected() {
        let g = chain();
        let err = evaluate(&g, &Partition::all_sw(7), &config(Objective::default()));
        assert!(matches!(err, Err(PartitionError::SizeMismatch { .. })));
    }

    #[test]
    fn modifiability_term_prefers_software() {
        let mut g = TaskGraph::new("mod");
        g.add_task(Task::new("very_modifiable", 100).with_modifiability(1.0));
        let obj = Objective {
            w_time: 0.0,
            w_area: 0.0,
            w_comm: 0.0,
            w_nature: 0.0,
            w_modifiability: 1.0,
            ..Objective::default()
        };
        let sw = evaluate(&g, &Partition::all_sw(1), &config(obj.clone())).unwrap();
        let hw = evaluate(&g, &Partition::all_hw(1), &config(obj)).unwrap();
        assert!(sw.cost < hw.cost);
    }

    #[test]
    fn nature_term_prefers_hardware_for_parallel_tasks() {
        let mut g = TaskGraph::new("par");
        g.add_task(Task::new("very_parallel", 100).with_parallelism(1.0));
        let obj = Objective {
            w_time: 0.0,
            w_area: 0.0,
            w_comm: 0.0,
            w_modifiability: 0.0,
            w_nature: 1.0,
            ..Objective::default()
        };
        let sw = evaluate(&g, &Partition::all_sw(1), &config(obj.clone())).unwrap();
        let hw = evaluate(&g, &Partition::all_hw(1), &config(obj)).unwrap();
        assert!(hw.cost < sw.cost);
    }

    #[test]
    fn probe_matches_full_evaluation_exactly() {
        let g = chain();
        let cfg = config(Objective::default());
        let start = Partition::from_sides(vec![Side::Sw, Side::Hw, Side::Sw]);
        let mut ev = Evaluator::new(&g, &cfg, &start).unwrap();
        for t in g.ids() {
            let probed = ev.probe_flip(t);
            let mut flipped = start.clone();
            flipped.flip(t);
            let full = evaluate(&g, &flipped, &cfg).unwrap();
            assert_eq!(probed, full, "flip of {t} diverged from full evaluation");
        }
        // Probing must not disturb the committed state.
        assert_eq!(*ev.current(), evaluate(&g, &start, &cfg).unwrap());
    }

    #[test]
    fn apply_flip_commits_and_inverts() {
        let g = chain();
        let cfg = config(Objective::default());
        let mut ev = Evaluator::new(&g, &cfg, &Partition::all_sw(3)).unwrap();
        let t = TaskId::from_index(1);
        let probed = ev.probe_flip(t);
        let committed = ev.apply_flip(t).clone();
        assert_eq!(probed, committed);
        assert_eq!(ev.side(t), Side::Hw);
        // A second flip of the same task restores the original exactly.
        ev.apply_flip(t);
        assert_eq!(
            *ev.current(),
            evaluate(&g, &Partition::all_sw(3), &cfg).unwrap()
        );
    }

    #[test]
    fn best_flip_respects_locks_and_ties_to_lowest_id() {
        let mut g = TaskGraph::new("twin");
        // Two identical independent tasks: their flips tie exactly.
        g.add_task(Task::new("a", 1_000).with_hw_cycles(100).with_hw_area(10.0));
        g.add_task(Task::new("b", 1_000).with_hw_cycles(100).with_hw_area(10.0));
        let cfg = config(Objective::default());
        let mut ev = Evaluator::new(&g, &cfg, &Partition::all_sw(2)).unwrap();
        let (t, _) = ev.best_flip(&[false, false]).unwrap();
        assert_eq!(t, TaskId::from_index(0), "ties break to the lowest id");
        let (t, _) = ev.best_flip(&[true, false]).unwrap();
        assert_eq!(t, TaskId::from_index(1), "locked tasks are skipped");
        assert!(ev.best_flip(&[true, true]).is_none());
    }

    #[test]
    fn flip_deltas_match_full_rescore() {
        let g = chain();
        let cfg = config(Objective::default());
        let start = Partition::from_sides(vec![Side::Sw, Side::Hw, Side::Sw]);
        let mut ev = Evaluator::new(&g, &cfg, &start).unwrap();
        let base = ev.current().cost;
        let deltas = ev.flip_deltas();
        assert_eq!(deltas.len(), g.len());
        for t in g.ids() {
            let mut flipped = start.clone();
            flipped.flip(t);
            let full = evaluate(&g, &flipped, &cfg).unwrap();
            assert_eq!(
                deltas[t.index()],
                full.cost - base,
                "sensitivity of {t} diverged from a full rescore"
            );
        }
        // Profiling must not disturb the committed state.
        assert_eq!(*ev.current(), evaluate(&g, &start, &cfg).unwrap());
    }

    #[test]
    fn reset_matches_fresh_evaluator() {
        let g = chain();
        let cfg = config(Objective::default());
        let mut ev = Evaluator::new(&g, &cfg, &Partition::all_sw(3)).unwrap();
        let mixed = Partition::from_sides(vec![Side::Hw, Side::Sw, Side::Hw]);
        let after_reset = ev.reset(&mixed).unwrap().clone();
        assert_eq!(after_reset, evaluate(&g, &mixed, &cfg).unwrap());
        assert!(ev.reset(&Partition::all_sw(5)).is_err());
    }
}
