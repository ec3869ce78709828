//! The design space: one task graph viewed as both a partitioning
//! problem and a co-simulated process network, plus the evaluator that
//! scores a [`DesignPoint`] against both models.
//!
//! The two models see the same system the way the paper's Figure 2
//! nests the design tasks:
//!
//! * the **partition cost model** ([`codesign_partition::eval`])
//!   list-schedules the task graph under the configured objective and
//!   prices hardware with the space's area model — implementation cost
//!   and the scalarized Section 3.3 objective;
//! * the **bounded co-simulation** mounts the graph as a message-level
//!   process network (one process per task, one buffered channel per
//!   edge) under the conservative [`Coordinator`] at the point's
//!   synchronization quantum, with the boundary priced at the point's
//!   interface abstraction level — observed latency, cross-boundary
//!   traffic, and synchronization cost.
//!
//! Evaluation is a pure function of (space, point): no global state, no
//! wall clock, no thread-dependent arithmetic — which is what lets the
//! executor fan evaluations out over threads and memoize them by
//! content hash.

use codesign_ir::process::{Action, Process, ProcessNetwork};
use codesign_ir::task::{TaskGraph, TaskId};
use codesign_partition::area::{HwAreaModel, NaiveArea, SharedArea};
use codesign_partition::cost::Objective;
use codesign_partition::eval::{evaluate as partition_eval, EvalConfig, Evaluation};
use codesign_partition::{Partition, Side};
use codesign_sim::engine::SimEngine;
use codesign_sim::ladder::AbstractionLevel;
use codesign_sim::message::{CommModel, MessageConfig, MessageEngine, Placement, Resource};

use crate::{level_index, DesignPoint, Fnv1a, Score};

/// Space-wide evaluation parameters.
#[derive(Debug, Clone)]
pub struct SpaceConfig {
    /// The partitioning objective (weights + optional deadline).
    pub objective: Objective,
    /// Price hardware with the sharing-aware estimator instead of the
    /// naive per-task sum.
    pub sharing_aware: bool,
    /// Frames each derived process iterates in the bounded co-simulation.
    pub invocations: u32,
    /// Global cycle bound on the co-simulation; a point that cannot
    /// finish inside it is scored infeasible.
    pub sim_budget: u64,
}

impl Default for SpaceConfig {
    fn default() -> Self {
        SpaceConfig {
            objective: Objective::default(),
            sharing_aware: false,
            invocations: 12,
            sim_budget: 50_000_000,
        }
    }
}

/// Communication cost of the boundary at one interface abstraction
/// level. Descending the ladder buys accuracy by modeling more per-
/// message mechanism — driver entry, register handshakes, pin-level
/// signaling — which the message engine sees as higher setup cost and
/// narrower payload bandwidth (the Figure 3 trade, folded into the cost
/// model instead of the event count).
#[must_use]
pub fn comm_for(level: AbstractionLevel) -> CommModel {
    match level {
        AbstractionLevel::Message => CommModel::default(),
        AbstractionLevel::Driver => CommModel {
            setup_cycles: 40,
            bytes_per_cycle: 4,
            local_discount: 0.25,
        },
        AbstractionLevel::Register => CommModel {
            setup_cycles: 60,
            bytes_per_cycle: 1,
            local_discount: 0.25,
        },
        AbstractionLevel::Pin => CommModel {
            setup_cycles: 100,
            bytes_per_cycle: 1,
            local_discount: 0.5,
        },
    }
}

/// A task graph prepared for exploration: the derived process network,
/// per-process hardware speedups, the area model, and the canonical
/// spec digest that scopes every cache key.
#[derive(Debug)]
pub struct DesignSpace {
    graph: TaskGraph,
    config: SpaceConfig,
    shared_area: Option<SharedArea>,
    naive_area: NaiveArea,
    net: ProcessNetwork,
    speedups: Vec<f64>,
    /// A topological order of the graph, for the critical-path term of
    /// [`latency_lower_bound`](Self::latency_lower_bound).
    topo: Vec<TaskId>,
    digest: u64,
}

impl DesignSpace {
    /// Prepares `graph` for exploration under `config`.
    #[must_use]
    pub fn new(graph: TaskGraph, config: SpaceConfig) -> Self {
        let shared_area = config.sharing_aware.then(|| SharedArea::from_graph(&graph));
        let (net, speedups) = net_from_graph(&graph, config.invocations);
        let topo = topo_order(&graph);
        let digest = digest_of(&graph, &config);
        DesignSpace {
            graph,
            config,
            shared_area,
            naive_area: NaiveArea,
            net,
            speedups,
            topo,
            digest,
        }
    }

    /// The underlying task graph.
    #[must_use]
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Number of tasks (the assignment length every point must have).
    #[must_use]
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Whether the graph has no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// The space configuration.
    #[must_use]
    pub fn config(&self) -> &SpaceConfig {
        &self.config
    }

    /// The canonical digest of (graph, objective, co-sim parameters):
    /// the spec component of every cache key.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    fn area_model(&self) -> &dyn HwAreaModel {
        match &self.shared_area {
            Some(shared) => shared,
            None => &self.naive_area,
        }
    }

    /// The canonical cache key of a point: FNV-1a over the spec digest,
    /// the assignment (one byte per task in task-id order), the quantum
    /// (8 little-endian bytes), and the ladder index of the level. Two
    /// points collide exactly when they describe the same configuration
    /// of the same spec (up to 64-bit hash collisions).
    #[must_use]
    pub fn key(&self, point: &DesignPoint) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.digest);
        for side in &point.assignment {
            h.write(&[match side {
                Side::Sw => 0u8,
                Side::Hw => 1u8,
            }]);
        }
        h.write_u64(point.quantum);
        h.write(&[level_index(point.level)]);
        h.finish()
    }

    /// Maps an assignment onto the derived network: hardware tasks each
    /// get a dedicated controller context, software tasks serialize on
    /// processor 0 (the Figure 8 single-CPU + co-processor target).
    #[must_use]
    pub fn placement(&self, assignment: &[Side]) -> Placement {
        let mut next_hw = 0u32;
        Placement::from_assignment(
            assignment
                .iter()
                .map(|side| match side {
                    Side::Sw => Resource::Software(0),
                    Side::Hw => {
                        next_hw += 1;
                        Resource::Hardware(next_hw - 1)
                    }
                })
                .collect(),
        )
    }

    /// Size of the full cross-product neighborhood of any point: every
    /// single-task flip × every quantum × every level —
    /// `len() * quanta * levels` distinct moves. This is the
    /// neighborhood the executor's cross-product mutation draws from
    /// uniformly, and the one [`cross_neighbors`](DesignSpace::cross_neighbors)
    /// enumerates; at 256 tasks × 5 quanta × 4 levels it is 5120 moves
    /// per incumbent, a space only a memoized parallel executor can
    /// afford to sample densely.
    #[must_use]
    pub fn cross_neighborhood_size(&self, quanta: usize, levels: usize) -> u64 {
        self.len() as u64 * quanta as u64 * levels as u64
    }

    /// Decodes `index` (row-major over task × quantum × level) into the
    /// corresponding cross-product neighbor of `base`: flip task
    /// `index / (|Q|·|L|)`, set quantum `Q[(index / |L|) % |Q|]` and
    /// level `L[index % |L|]`. Deterministic and total for
    /// `index < cross_neighborhood_size(...)`.
    ///
    /// # Panics
    /// If `index` is out of range or `quanta`/`levels` is empty.
    #[must_use]
    pub fn cross_neighbor(
        &self,
        base: &DesignPoint,
        index: u64,
        quanta: &[u64],
        levels: &[AbstractionLevel],
    ) -> DesignPoint {
        assert!(
            index < self.cross_neighborhood_size(quanta.len(), levels.len()),
            "cross-product neighbor index {index} out of range"
        );
        let per_task = (quanta.len() * levels.len()) as u64;
        let task = (index / per_task) as usize;
        let rem = index % per_task;
        let quantum = quanta[(rem / levels.len() as u64) as usize];
        let level = levels[(rem % levels.len() as u64) as usize];
        let mut assignment = base.assignment.clone();
        if let Some(side) = assignment.get_mut(task) {
            *side = side.flipped();
        }
        DesignPoint {
            assignment,
            quantum,
            level,
        }
    }

    /// Iterates the full cross-product neighborhood of `base` in
    /// canonical (task, quantum, level) order — the exhaustive
    /// counterpart of the executor's uniform draw, for callers that
    /// want a complete local sweep.
    pub fn cross_neighbors<'a>(
        &'a self,
        base: &'a DesignPoint,
        quanta: &'a [u64],
        levels: &'a [AbstractionLevel],
    ) -> impl Iterator<Item = DesignPoint> + 'a {
        (0..self.cross_neighborhood_size(quanta.len(), levels.len()))
            .map(move |i| self.cross_neighbor(base, i, quanta, levels))
    }

    /// Scores one design point: the partition cost model (stage 1) plus
    /// the bounded co-simulation of the point's *simulation class*
    /// (stage 2), composed by [`compose`](Self::compose). Pure and
    /// deterministic; a point whose co-simulation cannot finish within
    /// the space's budget (or whose assignment does not cover the
    /// graph) comes back [`Score::infeasible`].
    ///
    /// This is the *full* reference evaluation the delta-scored pipeline
    /// is property-tested byte-identical against.
    #[must_use]
    pub fn evaluate(&self, point: &DesignPoint) -> Score {
        let partition = Partition::from_sides(point.assignment.clone());
        let eval_cfg = self.eval_config();
        let Ok(pe) = partition_eval(&self.graph, &partition, &eval_cfg) else {
            return Score::infeasible();
        };
        let class = self.evaluate_class(&point.assignment, point.level);
        self.compose(&class, &pe, point.quantum)
    }

    /// The stage-1 evaluation config (objective + area model), for
    /// callers that hold an incremental
    /// [`Evaluator`](codesign_partition::eval::Evaluator) across many
    /// candidate probes.
    #[must_use]
    pub fn eval_config(&self) -> EvalConfig<'_> {
        EvalConfig::new(self.config.objective.clone(), self.area_model())
    }

    /// The cache key of a point's *simulation class* `(assignment,
    /// level)`. The bounded co-simulation's observables — latency and
    /// cross-boundary traffic — do not depend on the synchronization
    /// quantum (the engine is horizon-subdivision independent; the
    /// space's quantum-invariance test pins it), so all quanta of one
    /// assignment × level share one simulation. Tagged distinctly from
    /// [`key`](Self::key) so class records and point records never
    /// collide in a shared cache file.
    #[must_use]
    pub fn class_key(&self, assignment: &[Side], level: AbstractionLevel) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.digest);
        h.write(b"class:v1");
        for side in assignment {
            h.write(&[match side {
                Side::Sw => 0u8,
                Side::Hw => 1u8,
            }]);
        }
        h.write(&[level_index(level)]);
        h.finish()
    }

    /// Runs the bounded co-simulation of one simulation class and
    /// returns its observables as a `Score` shell: `latency` and
    /// `cross_bytes` are the simulated values, every stage-1 field is
    /// zero, and `feasible` reports whether the simulation completed.
    /// Compose with a stage-1 evaluation via [`compose`](Self::compose)
    /// to obtain a full point score.
    #[must_use]
    pub fn evaluate_class(&self, assignment: &[Side], level: AbstractionLevel) -> Score {
        let sim_cfg = MessageConfig {
            comm: comm_for(level),
            hw_speedups: Some(self.speedups.clone()),
            budget: self.config.sim_budget,
            ..MessageConfig::default()
        };
        let Ok(mut engine) = MessageEngine::new(
            "explore",
            self.net.clone(),
            self.placement(assignment),
            sim_cfg,
        ) else {
            return Score::infeasible();
        };
        while !engine.is_done() {
            if engine.advance_to(u64::MAX).is_err() {
                return Score::infeasible();
            }
        }
        let report = engine.report();
        Score {
            latency: report.finish_time,
            hw_area: 0.0,
            cross_bytes: report.cross_boundary_bytes,
            sync_rounds: 0,
            makespan: 0,
            cost: 0.0,
            feasible: true,
        }
    }

    /// Composes a simulation-class outcome with a stage-1 partition
    /// evaluation into the score of a concrete point at `quantum`. The
    /// synchronization-round count is the analytic
    /// [`sync_rounds_for`] — the quantum is a synchronization knob, not
    /// a timing knob, so rounds follow directly from latency.
    #[must_use]
    pub fn compose(&self, class: &Score, stage1: &Evaluation, quantum: u64) -> Score {
        if !class.feasible {
            return Score::infeasible();
        }
        Score {
            latency: class.latency,
            // The cost model can produce -0.0 for an all-software
            // design; adding +0.0 normalizes it so reports never print
            // a negative zero.
            hw_area: stage1.hw_area + 0.0,
            cross_bytes: class.cross_bytes,
            sync_rounds: sync_rounds_for(class.latency, quantum),
            makespan: stage1.makespan,
            cost: stage1.cost,
            feasible: true,
        }
    }

    /// Exact cross-boundary traffic of an assignment, without
    /// simulating: every edge whose endpoints sit on different sides
    /// delivers its payload once per invocation (software tasks share
    /// one CPU and hardware contexts are mutually local, so "crosses
    /// the boundary" is exactly "sides differ"). Matches the simulated
    /// `cross_boundary_bytes` bit-for-bit — one of the two exact legs
    /// of the two-stage filter's bound.
    #[must_use]
    pub fn exact_cross_bytes(&self, assignment: &[Side]) -> u64 {
        if assignment.len() != self.graph.len() {
            return 0;
        }
        let inv = u64::from(self.config.invocations.max(1));
        inv * self
            .graph
            .edges()
            .iter()
            .filter(|e| assignment[e.src.index()] != assignment[e.dst.index()])
            .map(|e| e.bytes)
            .sum::<u64>()
    }

    /// A sound lower bound on the simulated latency of `(assignment,
    /// level)`: the maximum of
    ///
    /// 1. the shared-CPU busy bound (software computes serialize on one
    ///    processor; context switches and blocking only add),
    /// 2. the per-process bound (each process pays its compute plus all
    ///    outgoing transfers on its own timeline, every invocation), and
    /// 3. the single-invocation critical path with per-level transfer
    ///    costs on cross edges.
    ///
    /// Never exceeds the simulated finish time, which is what makes the
    /// two-stage filter's dominance gate sound.
    #[must_use]
    pub fn latency_lower_bound(&self, assignment: &[Side], level: AbstractionLevel) -> u64 {
        let n = self.graph.len();
        if assignment.len() != n || n == 0 {
            return 0;
        }
        let comm = comm_for(level);
        let inv = u64::from(self.config.invocations.max(1));
        // Per-invocation compute cost as the engine prices it.
        let cost = |i: usize| -> u64 {
            let c = (self.graph.task(TaskId::from_index(i)).sw_cycles() / inv).max(1);
            match assignment[i] {
                Side::Sw => c,
                Side::Hw => ((c as f64 / self.speedups[i]).ceil() as u64).max(1),
            }
        };
        let local = |e: &codesign_ir::task::DataEdge| {
            assignment[e.src.index()] == assignment[e.dst.index()]
        };

        let sw_busy: u64 = (0..n)
            .filter(|&i| assignment[i] == Side::Sw)
            .map(|i| inv * cost(i))
            .sum();

        let mut out_xfer = vec![0u64; n];
        for e in self.graph.edges() {
            out_xfer[e.src.index()] += comm.transfer_cycles(e.bytes, local(e));
        }
        let proc_bound = (0..n)
            .map(|i| inv * (cost(i) + out_xfer[i]))
            .max()
            .unwrap_or(0);

        let mut reach = vec![0u64; n];
        for &t in &self.topo {
            let i = t.index();
            let data_ready = self
                .graph
                .incoming_edges(t)
                .map(|e| reach[e.src.index()] + comm.transfer_cycles(e.bytes, local(e)))
                .max()
                .unwrap_or(0);
            reach[i] = data_ready + cost(i);
        }
        let critical_path = reach.iter().copied().max().unwrap_or(0);

        sw_busy.max(proc_bound).max(critical_path)
    }
}

/// Synchronization rounds a conservative coordinator needs to carry a
/// co-simulation of `latency` cycles at `quantum`: one round per
/// started quantum, at least one. Analytic because the quantum is a
/// synchronization knob only — it never changes the simulated timing.
#[must_use]
pub fn sync_rounds_for(latency: u64, quantum: u64) -> u64 {
    latency.div_ceil(quantum.max(1)).max(1)
}

/// A topological order of the graph (Kahn's algorithm, index-ordered
/// ready queue); any order serves the critical-path lower bound.
fn topo_order(graph: &TaskGraph) -> Vec<TaskId> {
    let n = graph.len();
    let mut indegree: Vec<usize> = (0..n)
        .map(|i| graph.in_degree(TaskId::from_index(i)))
        .collect();
    let mut queue: std::collections::VecDeque<TaskId> =
        graph.ids().filter(|t| indegree[t.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(t) = queue.pop_front() {
        order.push(t);
        for s in graph.successors(t) {
            indegree[s.index()] -= 1;
            if indegree[s.index()] == 0 {
                queue.push_back(s);
            }
        }
    }
    order
}

/// The task graph as a message-level process network: one process per
/// task (receive every in-edge, compute one frame, send every
/// out-edge), one buffered channel per edge. On a DAG with unit-
/// capacity channels this is deadlock-free, and the per-process
/// hardware speedups (measured software cycles over hardware cycles)
/// make a hardware placement reproduce the task's characterized
/// speedup.
fn net_from_graph(graph: &TaskGraph, invocations: u32) -> (ProcessNetwork, Vec<f64>) {
    let invocations = invocations.max(1);
    let mut net = ProcessNetwork::new(format!("{}_explore", graph.name()));
    let channels: Vec<_> = graph
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| net.add_channel(format!("e{i}:{}->{}", e.src, e.dst), 1))
        .collect();
    let mut speedups = Vec::with_capacity(graph.len());
    for (id, task) in graph.iter() {
        let mut actions = Vec::new();
        for (i, e) in graph.edges().iter().enumerate() {
            if e.dst == id {
                actions.push(Action::Receive {
                    channel: channels[i],
                });
            }
        }
        actions.push(Action::Compute(
            (task.sw_cycles() / u64::from(invocations)).max(1),
        ));
        for (i, e) in graph.edges().iter().enumerate() {
            if e.src == id {
                actions.push(Action::Send {
                    channel: channels[i],
                    bytes: e.bytes,
                });
            }
        }
        net.add_process(Process::new(task.name(), actions).with_iterations(invocations));
        speedups.push((task.sw_cycles() as f64 / task.hw_cycles().max(1) as f64).max(1.0));
    }
    (net, speedups)
}

/// Canonical digest of everything evaluation depends on besides the
/// point itself: graph structure and attributes, objective weights,
/// and the co-simulation parameters.
fn digest_of(graph: &TaskGraph, config: &SpaceConfig) -> u64 {
    let mut h = Fnv1a::new();
    // Version tag: scoring semantics changed (analytic sync rounds,
    // class-composed evaluation), so records persisted by older
    // binaries must never hit.
    h.write(b"eval:v2");
    h.write(graph.name().as_bytes());
    h.write_u64(graph.len() as u64);
    for (_, task) in graph.iter() {
        h.write(task.name().as_bytes());
        h.write_u64(task.sw_cycles());
        h.write_u64(task.hw_cycles());
        h.write_f64(task.hw_area());
        h.write_f64(task.parallelism());
        h.write_f64(task.modifiability());
    }
    for e in graph.edges() {
        h.write_u64(e.src.index() as u64);
        h.write_u64(e.dst.index() as u64);
        h.write_u64(e.bytes);
    }
    let o = &config.objective;
    h.write_u64(o.deadline.unwrap_or(u64::MAX));
    for w in [
        o.w_time,
        o.w_area,
        o.w_modifiability,
        o.w_nature,
        o.w_comm,
        o.w_concurrency,
        o.deadline_penalty,
    ] {
        h.write_f64(w);
    }
    h.write(&[u8::from(config.sharing_aware)]);
    h.write_u64(u64::from(config.invocations));
    h.write_u64(config.sim_budget);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_ir::task::Task;
    use codesign_ir::workload::tgff::{random_task_graph, TgffConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn chain() -> TaskGraph {
        let mut g = TaskGraph::new("chain");
        let a = g.add_task(Task::new("a", 4_000).with_hw_cycles(400).with_hw_area(10.0));
        let b = g.add_task(Task::new("b", 8_000).with_hw_cycles(500).with_hw_area(20.0));
        let c = g.add_task(Task::new("c", 2_000).with_hw_cycles(300).with_hw_area(15.0));
        g.add_edge(a, b, 64).unwrap();
        g.add_edge(b, c, 64).unwrap();
        g
    }

    fn point(assignment: Vec<Side>) -> DesignPoint {
        DesignPoint {
            assignment,
            quantum: 16,
            level: AbstractionLevel::Message,
        }
    }

    #[test]
    fn evaluation_is_deterministic_and_feasible() {
        let space = DesignSpace::new(chain(), SpaceConfig::default());
        let p = point(vec![Side::Sw, Side::Hw, Side::Sw]);
        let a = space.evaluate(&p);
        let b = space.evaluate(&p);
        assert!(a.feasible);
        assert_eq!(a, b, "evaluation must be a pure function of the point");
        assert!(a.latency > 0);
        assert!(a.sync_rounds > 0);
        assert!(a.cross_bytes > 0, "the boundary crossing is visible");
    }

    /// Persisted cache files are keyed by these hashes: if they move,
    /// every `CDEXEVC1` file written earlier silently stops warm-starting.
    #[test]
    fn cache_keys_are_pinned() {
        let space = DesignSpace::new(chain(), SpaceConfig::default());
        let p = point(vec![Side::Sw, Side::Hw, Side::Sw]);
        assert_eq!(space.digest(), 0x7ac5_eb2a_91bb_35a6);
        assert_eq!(space.key(&p), 0x99dd_b914_4673_e6a6);
        assert_eq!(
            space.class_key(&p.assignment, p.level),
            0xa849_c120_1922_b209
        );
    }

    #[test]
    fn all_software_pays_no_area_and_crosses_nothing() {
        let space = DesignSpace::new(chain(), SpaceConfig::default());
        let s = space.evaluate(&point(vec![Side::Sw; 3]));
        assert!(s.feasible);
        assert_eq!(s.hw_area, 0.0);
        assert_eq!(s.cross_bytes, 0);
    }

    #[test]
    fn descending_the_ladder_raises_latency() {
        let space = DesignSpace::new(chain(), SpaceConfig::default());
        let mixed = vec![Side::Sw, Side::Hw, Side::Sw];
        let msg = space.evaluate(&point(mixed.clone()));
        let pin = space.evaluate(&DesignPoint {
            assignment: mixed,
            quantum: 16,
            level: AbstractionLevel::Pin,
        });
        assert!(
            pin.latency > msg.latency,
            "pin boundary {} vs message boundary {}",
            pin.latency,
            msg.latency
        );
    }

    #[test]
    fn smaller_quantum_costs_more_sync_rounds() {
        let space = DesignSpace::new(chain(), SpaceConfig::default());
        let mixed = vec![Side::Sw, Side::Hw, Side::Sw];
        let fine = space.evaluate(&DesignPoint {
            assignment: mixed.clone(),
            quantum: 4,
            level: AbstractionLevel::Message,
        });
        let coarse = space.evaluate(&DesignPoint {
            assignment: mixed,
            quantum: 64,
            level: AbstractionLevel::Message,
        });
        assert!(
            fine.sync_rounds > coarse.sync_rounds,
            "q=4 rounds {} vs q=64 rounds {}",
            fine.sync_rounds,
            coarse.sync_rounds
        );
        assert_eq!(fine.latency, coarse.latency, "quantum is a sync knob only");
    }

    #[test]
    fn keys_are_canonical_per_configuration() {
        let space = DesignSpace::new(chain(), SpaceConfig::default());
        let p = point(vec![Side::Sw, Side::Hw, Side::Sw]);
        assert_eq!(space.key(&p), space.key(&p.clone()));
        let mut q = p.clone();
        q.quantum = 32;
        assert_ne!(space.key(&p), space.key(&q));
        let mut l = p.clone();
        l.level = AbstractionLevel::Driver;
        assert_ne!(space.key(&p), space.key(&l));
        let mut a = p.clone();
        a.assignment[0] = Side::Hw;
        assert_ne!(space.key(&p), space.key(&a));
        // A different spec scopes the same point to a different key.
        let cfg = SpaceConfig {
            invocations: 13,
            ..SpaceConfig::default()
        };
        let other = DesignSpace::new(chain(), cfg);
        assert_ne!(space.key(&p), other.key(&p));
    }

    #[test]
    fn cross_neighborhood_enumerates_the_full_product() {
        let space = DesignSpace::new(chain(), SpaceConfig::default());
        let quanta = [4u64, 16, 64];
        let levels = [AbstractionLevel::Message, AbstractionLevel::Pin];
        let base = point(vec![Side::Sw, Side::Hw, Side::Sw]);
        let size = space.cross_neighborhood_size(quanta.len(), levels.len());
        assert_eq!(size, 3 * 3 * 2);
        let all: Vec<_> = space.cross_neighbors(&base, &quanta, &levels).collect();
        assert_eq!(all.len() as u64, size);
        // Every neighbor flips exactly one task relative to the base.
        for n in &all {
            let flips = n
                .assignment
                .iter()
                .zip(&base.assignment)
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(flips, 1);
            assert!(quanta.contains(&n.quantum));
            assert!(levels.contains(&n.level));
        }
        // All canonical keys are distinct: the decode is a bijection.
        let mut keys: Vec<u64> = all.iter().map(|n| space.key(n)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len() as u64, size);
        // Spot-check the row-major decode.
        let first = space.cross_neighbor(&base, 0, &quanta, &levels);
        assert_eq!(first.assignment[0], Side::Hw, "task 0 flipped");
        assert_eq!(first.quantum, 4);
        assert_eq!(first.level, AbstractionLevel::Message);
        let last = space.cross_neighbor(&base, size - 1, &quanta, &levels);
        assert_eq!(last.assignment[2], Side::Hw, "task 2 flipped");
        assert_eq!(last.quantum, 64);
        assert_eq!(last.level, AbstractionLevel::Pin);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cross_neighbor_rejects_out_of_range_indices() {
        let space = DesignSpace::new(chain(), SpaceConfig::default());
        let base = point(vec![Side::Sw; 3]);
        let _ = space.cross_neighbor(&base, 12, &[16], &[AbstractionLevel::Message]);
    }

    #[test]
    fn class_composition_reproduces_full_evaluation() {
        // evaluate() == compose(evaluate_class, stage-1) by construction;
        // pin it from the outside so refactors keep the equation.
        let space = DesignSpace::new(chain(), SpaceConfig::default());
        for assignment in [
            vec![Side::Sw, Side::Hw, Side::Sw],
            vec![Side::Hw, Side::Hw, Side::Sw],
            vec![Side::Sw; 3],
        ] {
            for level in [AbstractionLevel::Message, AbstractionLevel::Pin] {
                let class = space.evaluate_class(&assignment, level);
                let pe = partition_eval(
                    space.graph(),
                    &Partition::from_sides(assignment.clone()),
                    &space.eval_config(),
                )
                .unwrap();
                for quantum in [4u64, 16, 64] {
                    let full = space.evaluate(&DesignPoint {
                        assignment: assignment.clone(),
                        quantum,
                        level,
                    });
                    assert_eq!(full, space.compose(&class, &pe, quantum));
                }
            }
        }
    }

    /// The spaces and assignments the analytic legs of the gate's bound
    /// are checked on: the 3-task chain with all eight assignments, and
    /// seeded TGFF graphs of 8 to 64 tasks at 1, 2 and 12 invocations,
    /// with compute costs down to one cycle (below the invocation count,
    /// where the per-invocation cost clamps to 1), each with
    /// all-software, all-hardware and random assignments.
    fn bound_cases() -> Vec<(DesignSpace, Vec<Vec<Side>>)> {
        let side = |hw: bool| if hw { Side::Hw } else { Side::Sw };
        let chain_assignments = (0u32..8)
            .map(|bits| (0..3).map(|i| side(bits >> i & 1 == 1)).collect())
            .collect();
        let mut cases = vec![(
            DesignSpace::new(chain(), SpaceConfig::default()),
            chain_assignments,
        )];
        let mut rng = StdRng::seed_from_u64(0xB0D);
        for tasks in [8usize, 16, 32, 64] {
            for sw_cycles in [(1u64, 16u64), (1, 4_000)] {
                for invocations in [1u32, 2, 12] {
                    let graph = random_task_graph(&TgffConfig {
                        tasks,
                        sw_cycles,
                        seed: rng.gen(),
                        ..TgffConfig::default()
                    });
                    let mut assignments = vec![vec![Side::Sw; tasks], vec![Side::Hw; tasks]];
                    assignments.extend(
                        (0..8).map(|_| (0..tasks).map(|_| side(rng.gen_bool(0.5))).collect()),
                    );
                    let config = SpaceConfig {
                        invocations,
                        ..SpaceConfig::default()
                    };
                    cases.push((DesignSpace::new(graph, config), assignments));
                }
            }
        }
        cases
    }

    #[test]
    fn exact_cross_bytes_matches_simulation() {
        for (space, assignments) in bound_cases() {
            for assignment in &assignments {
                for level in AbstractionLevel::ALL {
                    let simulated = space.evaluate_class(assignment, level);
                    assert!(simulated.feasible);
                    assert_eq!(
                        space.exact_cross_bytes(assignment),
                        simulated.cross_bytes,
                        "{}: analytic traffic diverged for {assignment:?}@{level:?}",
                        space.graph().name()
                    );
                }
            }
        }
    }

    #[test]
    fn latency_lower_bound_never_exceeds_simulation() {
        for (space, assignments) in bound_cases() {
            for assignment in &assignments {
                for level in AbstractionLevel::ALL {
                    let simulated = space.evaluate_class(assignment, level);
                    let bound = space.latency_lower_bound(assignment, level);
                    assert!(
                        bound <= simulated.latency,
                        "{}: {assignment:?}@{level:?}: bound {bound} > simulated {}",
                        space.graph().name(),
                        simulated.latency
                    );
                    assert!(bound > 0, "the bound is never vacuous on a non-empty graph");
                }
            }
        }
    }

    #[test]
    fn class_keys_ignore_quantum_but_not_level_or_assignment() {
        let space = DesignSpace::new(chain(), SpaceConfig::default());
        let a = vec![Side::Sw, Side::Hw, Side::Sw];
        let k = space.class_key(&a, AbstractionLevel::Message);
        assert_eq!(k, space.class_key(&a, AbstractionLevel::Message));
        assert_ne!(k, space.class_key(&a, AbstractionLevel::Pin));
        let mut b = a.clone();
        b[0] = Side::Hw;
        assert_ne!(k, space.class_key(&b, AbstractionLevel::Message));
        // Class keys and point keys live in disjoint families.
        let p = DesignPoint {
            assignment: a.clone(),
            quantum: 16,
            level: AbstractionLevel::Message,
        };
        assert_ne!(k, space.key(&p));
    }

    #[test]
    fn bad_assignment_lengths_are_infeasible_not_panics() {
        let space = DesignSpace::new(chain(), SpaceConfig::default());
        let s = space.evaluate(&point(vec![Side::Sw; 7]));
        assert!(!s.feasible);
    }
}
