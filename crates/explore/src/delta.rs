//! Stage-1 delta scoring: the incremental suffix-restart evaluator
//! (crates/partition, PR 1) reused *inside* the explorer.
//!
//! The explorer offers a stream of assignments that are mostly small
//! mutations of each other — one or two task flips of a Pareto
//! incumbent. Rebuilding the full list schedule for every candidate
//! (what [`DesignSpace::evaluate`](crate::DesignSpace::evaluate) does)
//! throws that locality away. [`Stage1`] instead keeps one committed
//! [`Evaluator`] and moves it to each offered assignment with one
//! [`Evaluator::apply_flips`] of the tasks that differ: one replay of
//! the schedule suffix from the earliest flipped position. The
//! evaluator guarantees a replay equals a from-scratch pass, so every
//! move lands on bit-identical state, and no move costs more than a
//! rebuild, which replays from position zero.
//!
//! [`Stage1::evaluate`] counts each scoring pass by the width of its
//! move: a `delta_hit` when it flips at most [`MAX_DELTA_FLIPS`] tasks,
//! a `delta_miss` otherwise. The counters only report how local the
//! candidate stream is, as the [`hit_rate`](Stage1::hit_rate); they do
//! not choose how a move is scored.
//!
//! The same evaluator also prices **flip sensitivities** for the
//! sampler: [`Stage1::profile`] returns the task indices of an
//! assignment ordered by the cost delta of flipping each one (most
//! improving first), memoized in a bounded, deterministically-evicted
//! map. This is the Yen–Wolf-style gradient the paper's §4.2 survey
//! frames partition refinement around.

use std::collections::HashMap;

use codesign_ir::task::{TaskGraph, TaskId};
use codesign_partition::eval::{EvalConfig, Evaluation, Evaluator};
use codesign_partition::{Partition, Side};

use crate::Fnv1a;

/// Widest move counted as a `delta_hit`; wider moves count as
/// `delta_misses`. The width only splits the counters: a move of any
/// width is one replay from its earliest flipped position.
pub const MAX_DELTA_FLIPS: usize = 8;

/// Sensitivity profiles memoized before the map is wholly cleared.
/// Eviction must not depend on query timing, so the map is dropped all
/// at once — deterministic under any thread count because only the
/// (serial) generation pass queries it.
const PROFILE_CACHE_CAP: usize = 256;

/// The stage-1 scorer: one committed incremental evaluator plus a
/// bounded memo of flip-sensitivity profiles.
pub struct Stage1<'a> {
    /// `None` when the graph fails schedule validation (e.g. a cycle):
    /// every assignment is then unscorable, mirroring the full
    /// evaluator which would reject them all.
    evaluator: Option<Evaluator<'a>>,
    committed: Vec<Side>,
    /// The tasks a move flips, reused from move to move.
    flips: Vec<TaskId>,
    profiles: HashMap<u64, Vec<usize>>,
    /// Scoring passes whose move flipped at most [`MAX_DELTA_FLIPS`]
    /// tasks.
    pub delta_hits: u64,
    /// Scoring passes whose move flipped more than [`MAX_DELTA_FLIPS`]
    /// tasks.
    pub delta_misses: u64,
}

impl std::fmt::Debug for Stage1<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stage1")
            .field("schedulable", &self.evaluator.is_some())
            .field("tasks", &self.committed.len())
            .field("profiles", &self.profiles.len())
            .field("delta_hits", &self.delta_hits)
            .field("delta_misses", &self.delta_misses)
            .finish()
    }
}

impl<'a> Stage1<'a> {
    /// Builds the scorer committed to the all-software partition.
    #[must_use]
    pub fn new(graph: &'a TaskGraph, config: &'a EvalConfig<'a>) -> Self {
        let n = graph.len();
        let seed = Partition::from_sides(vec![Side::Sw; n]);
        Stage1 {
            evaluator: Evaluator::new(graph, config, &seed).ok(),
            committed: vec![Side::Sw; n],
            flips: Vec::with_capacity(n),
            profiles: HashMap::new(),
            delta_hits: 0,
            delta_misses: 0,
        }
    }

    /// Moves the committed evaluator to `assignment` with one replay,
    /// without counting the move as a scoring pass, and returns whether
    /// the move flipped at most [`MAX_DELTA_FLIPS`] tasks. Returns `None`
    /// when the graph is unschedulable or the assignment length is wrong.
    fn commit(&mut self, assignment: &[Side]) -> Option<bool> {
        let ev = self.evaluator.as_mut()?;
        if assignment.len() != self.committed.len() {
            return None;
        }
        self.flips.clear();
        self.flips.extend(
            (0..assignment.len())
                .filter(|&i| assignment[i] != self.committed[i])
                .map(TaskId::from_index),
        );
        ev.apply_flips(&self.flips);
        self.committed.copy_from_slice(assignment);
        Some(self.flips.len() <= MAX_DELTA_FLIPS)
    }

    /// Scores `assignment` with the partition cost model by one suffix
    /// replay from the committed assignment, counting the pass as a
    /// `delta_hit` or a `delta_miss` by the width of the move.
    /// Bit-identical to [`codesign_partition::eval::evaluate`].
    pub fn evaluate(&mut self, assignment: &[Side]) -> Option<Evaluation> {
        if self.commit(assignment)? {
            self.delta_hits += 1;
        } else {
            self.delta_misses += 1;
        }
        Some(self.evaluator.as_ref()?.current().clone())
    }

    /// Task indices of `assignment` ordered by flip sensitivity: the
    /// first entry is the flip that lowers the scalarized cost the
    /// most (or raises it the least). Memoized per assignment.
    pub fn profile(&mut self, assignment: &[Side]) -> Option<&[usize]> {
        let key = profile_key(assignment);
        if !self.profiles.contains_key(&key) {
            self.commit(assignment)?;
            let deltas = self.evaluator.as_mut()?.flip_deltas();
            let mut order: Vec<usize> = (0..deltas.len()).collect();
            order.sort_by(|&a, &b| {
                deltas[a]
                    .partial_cmp(&deltas[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            if self.profiles.len() >= PROFILE_CACHE_CAP {
                self.profiles.clear();
            }
            self.profiles.insert(key, order);
        }
        self.profiles.get(&key).map(Vec::as_slice)
    }

    /// Fraction of scoring passes whose move flipped at most
    /// [`MAX_DELTA_FLIPS`] tasks.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.delta_hits + self.delta_misses;
        if total == 0 {
            0.0
        } else {
            self.delta_hits as f64 / total as f64
        }
    }
}

fn profile_key(assignment: &[Side]) -> u64 {
    let mut h = Fnv1a::new();
    for side in assignment {
        h.write(&[u8::from(*side == Side::Hw)]);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_ir::task::Task;
    use codesign_partition::area::NaiveArea;
    use codesign_partition::cost::Objective;
    use codesign_partition::eval::evaluate as full_evaluate;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn graph(n: usize) -> TaskGraph {
        let mut g = TaskGraph::new("delta");
        let ids: Vec<TaskId> = (0..n)
            .map(|i| {
                g.add_task(
                    Task::new(format!("t{i}"), 1_000 + 37 * i as u64)
                        .with_hw_cycles(100 + 13 * i as u64)
                        .with_hw_area(4.0 + i as f64),
                )
            })
            .collect();
        for i in 1..n {
            g.add_edge(ids[i / 2], ids[i], 16 + 8 * i as u64).unwrap();
        }
        g
    }

    #[test]
    fn random_mutation_chains_match_full_rescore() {
        let g = graph(24);
        let area = NaiveArea;
        let cfg = EvalConfig::new(Objective::default(), &area);
        let mut stage1 = Stage1::new(&g, &cfg);
        let mut rng = StdRng::seed_from_u64(0xD317A);
        let mut sides = vec![Side::Sw; g.len()];
        for step in 0..200 {
            // Mix small mutations with large jumps so wide replays are
            // checked and both counters move.
            let flips = if step % 7 == 0 {
                rng.gen_range(MAX_DELTA_FLIPS + 1..=g.len())
            } else {
                rng.gen_range(0..=MAX_DELTA_FLIPS)
            };
            for _ in 0..flips {
                let i = rng.gen_range(0..sides.len());
                sides[i] = sides[i].flipped();
            }
            let got = stage1.evaluate(&sides).expect("schedulable");
            let want = full_evaluate(&g, &Partition::from_sides(sides.clone()), &cfg)
                .expect("schedulable");
            assert_eq!(got, want, "step {step}: replay diverged from full");
        }
        assert!(stage1.delta_hits > 0, "no narrow move counted");
        assert!(stage1.delta_misses > 0, "no wide move counted");
    }

    #[test]
    fn profiles_rank_flips_by_probe_delta() {
        let g = graph(12);
        let area = NaiveArea;
        let cfg = EvalConfig::new(Objective::default(), &area);
        let mut stage1 = Stage1::new(&g, &cfg);
        let sides: Vec<Side> = (0..g.len())
            .map(|i| if i % 3 == 0 { Side::Hw } else { Side::Sw })
            .collect();
        let order = stage1.profile(&sides).expect("schedulable").to_vec();
        assert_eq!(order.len(), g.len());
        // The profile must be the argsort of the probe deltas.
        let mut ev = Evaluator::new(&g, &cfg, &Partition::from_sides(sides)).unwrap();
        let base = ev.current().cost;
        let deltas: Vec<f64> = (0..g.len())
            .map(|i| ev.probe_flip(TaskId::from_index(i)).cost - base)
            .collect();
        for w in order.windows(2) {
            assert!(
                deltas[w[0]] <= deltas[w[1]],
                "profile not sorted by sensitivity"
            );
        }
        // Memoized: a second query returns the identical order.
        let sides2: Vec<Side> = (0..g.len())
            .map(|i| if i % 3 == 0 { Side::Hw } else { Side::Sw })
            .collect();
        assert_eq!(stage1.profile(&sides2).unwrap(), order.as_slice());
    }
}
