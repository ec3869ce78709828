//! Property-based tests for the co-simulation engines.

use codesign_ir::process::{Action, ChannelId, Process, ProcessId, ProcessNetwork};
use codesign_ir::workload::tgff::{random_process_network, NetworkConfig};
use codesign_sim::engine::{Coordinator, SimEngine};
use codesign_sim::message::{simulate, MessageConfig, MessageEngine, Placement, Resource};
use codesign_sim::trace::Tracer;
use codesign_sim::SimError;
use proptest::prelude::*;

/// A scripted engine for coordination properties: busy until `work`,
/// then done. With `hinted` it promises its completion time (its only
/// cross-domain effect); without, it returns `None` and pins the
/// coordinator to lockstep pace.
#[derive(Debug)]
struct ScriptedWorker {
    name: String,
    work: u64,
    time: u64,
    hinted: bool,
}

impl SimEngine for ScriptedWorker {
    fn name(&self) -> &str {
        &self.name
    }
    fn local_time(&self) -> u64 {
        self.time
    }
    fn advance_to(&mut self, t: u64) -> Result<(), SimError> {
        self.time = t.min(self.work);
        Ok(())
    }
    fn is_done(&self) -> bool {
        self.time >= self.work
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn next_event_hint(&self) -> Option<u64> {
        self.hinted.then_some(self.work)
    }
}

/// Runs the engine mix under one coordinator and fingerprints everything
/// observable: the run result (including budget errors), coordination
/// stats, and each engine's end state.
fn coordinate(
    lookahead: bool,
    quantum: u64,
    budget: u64,
    net: &ProcessNetwork,
    placement: &Placement,
    workers: &[(u64, bool)],
) -> (String, codesign_sim::engine::CoordinatorStats) {
    let mut coord = if lookahead {
        Coordinator::new(quantum)
    } else {
        Coordinator::lockstep(quantum)
    };
    coord.add_engine(Box::new(
        MessageEngine::new(
            "net",
            net.clone(),
            placement.clone(),
            MessageConfig::default(),
        )
        .expect("valid placement"),
    ));
    for (i, &(work, hinted)) in workers.iter().enumerate() {
        coord.add_engine(Box::new(ScriptedWorker {
            name: format!("w{i}"),
            work,
            time: 0,
            hinted,
        }));
    }
    // Round accounting (sync_rounds/rounds_skipped/cycles_leapt) differs
    // between the two modes by design; everything else must not.
    let mut fp = match coord.run(budget) {
        Ok(stats) => format!("ok@{};", stats.time),
        Err(e) => format!("{e:?};"),
    };
    for engine in coord.engines() {
        fp.push_str(&format!("{}@{}:", engine.name(), engine.local_time()));
        if let Some(m) = engine.as_any().downcast_ref::<MessageEngine>() {
            fp.push_str(&format!("{:?};", m.report()));
        }
    }
    (fp, coord.stats())
}

/// The same network with every channel's capacity replaced, preserving
/// channel and process id order (generated channels are rendezvous-only,
/// so this is how the buffered paths get exercised).
fn with_channel_capacity(net: &ProcessNetwork, cap: usize) -> ProcessNetwork {
    let mut out = ProcessNetwork::new(net.name());
    for i in 0..net.channel_count() {
        out.add_channel(net.channel(ChannelId::from_index(i)).name(), cap);
    }
    for (_, p) in net.iter() {
        out.add_process(
            Process::new(p.name(), p.actions().to_vec()).with_iterations(p.iterations()),
        );
    }
    out
}

/// Ground truth for [`codesign_sim::message::MessageReport::cross_boundary_bytes`]:
/// every generated channel is point-to-point and fully drained, so the
/// total is the sum of `bytes * iterations` over Send actions whose
/// sender and (statically known) receiver are placed on non-local
/// resources — independent of buffering.
fn expected_cross_bytes(net: &ProcessNetwork, placement: &Placement) -> u64 {
    let mut receiver: Vec<Option<usize>> = vec![None; net.channel_count()];
    for (pid, p) in net.iter() {
        for a in p.actions() {
            if let Action::Receive { channel } = a {
                receiver[channel.index()].get_or_insert(pid.index());
            }
        }
    }
    let mut total = 0;
    for (pid, p) in net.iter() {
        for a in p.actions() {
            if let Action::Send { channel, bytes } = a {
                let crosses = receiver[channel.index()].is_some_and(|r| {
                    !placement
                        .resource(pid)
                        .is_local_to(placement.resource(ProcessId::from_index(r)))
                });
                if crosses {
                    total += bytes * u64::from(p.iterations());
                }
            }
        }
    }
    total
}

fn arb_network() -> impl Strategy<Value = codesign_ir::process::ProcessNetwork> {
    (2usize..9, any::<u64>(), 0.0f64..1.0, 1u32..12).prop_map(
        |(processes, seed, channel_prob, iterations)| {
            random_process_network(&NetworkConfig {
                processes,
                seed,
                channel_prob,
                iterations,
                ..NetworkConfig::default()
            })
        },
    )
}

fn arb_placement(n: usize) -> impl Strategy<Value = Placement> {
    prop::collection::vec(0u8..3, n).prop_map(|choices| {
        let mut hw = 0u32;
        Placement::from_assignment(
            choices
                .into_iter()
                .map(|c| match c {
                    0 => Resource::Software(0),
                    1 => Resource::Software(1),
                    _ => {
                        hw += 1;
                        Resource::Hardware(hw - 1)
                    }
                })
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Generated networks complete under any placement — no deadlocks,
    /// since their channel topology follows the process order.
    #[test]
    fn random_networks_never_deadlock(net in arb_network(), seed in any::<u64>()) {
        let n = net.len();
        let placement = {
            let mut hw = 0u32;
            Placement::from_assignment(
                (0..n)
                    .map(|i| {
                        if (seed >> (i % 64)) & 1 == 1 {
                            hw += 1;
                            Resource::Hardware(hw - 1)
                        } else {
                            Resource::Software(0)
                        }
                    })
                    .collect(),
            )
        };
        let report = simulate(&net, &placement, &MessageConfig::default(), &Tracer::off()).expect("completes");
        prop_assert!(report.finish_time > 0);
    }

    /// Message conservation: every send is received exactly once, so the
    /// simulated message count and byte count equal the network's totals.
    #[test]
    fn messages_are_conserved(net in arb_network()) {
        let report = simulate(
            &net,
            &Placement::all_hardware(net.len()),
            &MessageConfig::default(),
&Tracer::off(),
        )
        .expect("completes");
        let total_msgs: u64 = net
            .iter()
            .map(|(_, p)| {
                let sends = p
                    .actions()
                    .iter()
                    .filter(|a| matches!(a, codesign_ir::process::Action::Send { .. }))
                    .count() as u64;
                sends * u64::from(p.iterations())
            })
            .sum();
        let total_bytes: u64 = net.iter().map(|(_, p)| p.total_sent_bytes()).sum();
        prop_assert_eq!(report.messages, total_msgs);
        prop_assert_eq!(report.bytes, total_bytes);
    }

    /// Simulation is deterministic.
    #[test]
    fn simulation_is_deterministic(net in arb_network(), p in arb_placement(8)) {
        prop_assume!(p.len() >= net.len());
        let placement = Placement::from_assignment(
            net.ids().map(|id| p.resource(ProcessId::from_index(id.index() % p.len()))).collect(),
        );
        let a = simulate(&net, &placement, &MessageConfig::default(), &Tracer::off()).expect("completes");
        let b = simulate(&net, &placement, &MessageConfig::default(), &Tracer::off()).expect("completes");
        prop_assert_eq!(a, b);
    }

    /// Lower bound: no process finishes before its own busy time
    /// (compute scaled by its resource, plus nothing for waits).
    #[test]
    fn finish_time_bounded_below_by_busy_time(net in arb_network()) {
        let config = MessageConfig {
            hw_speedup: 4.0,
            ..MessageConfig::default()
        };
        let placement = Placement::all_hardware(net.len());
        let report = simulate(&net, &placement, &config, &Tracer::off()).expect("completes");
        for (id, p) in net.iter() {
            let busy = (p.total_compute() as f64 / config.hw_speedup).floor() as u64;
            prop_assert!(
                report.per_process_finish[id.index()] >= busy,
                "{}: {} < {busy}",
                p.name(),
                report.per_process_finish[id.index()]
            );
        }
    }

    /// Cross-boundary accounting is exact: for rendezvous channels and
    /// for every buffered capacity, `cross_boundary_bytes` equals the
    /// placement-determined sum over Send actions. (Regression: buffered
    /// sends used to hardcode non-local cost and the buffered/drain
    /// paths skipped the accounting entirely.)
    #[test]
    fn cross_boundary_bytes_are_exact(
        net in arb_network(),
        p in arb_placement(8),
        cap in 0usize..5,
    ) {
        prop_assume!(p.len() >= net.len());
        let placement = Placement::from_assignment(
            net.ids().map(|id| p.resource(ProcessId::from_index(id.index() % p.len()))).collect(),
        );
        let net = with_channel_capacity(&net, cap);
        let expected = expected_cross_bytes(&net, &placement);
        let report = simulate(&net, &placement, &MessageConfig::default(), &Tracer::off()).expect("completes");
        prop_assert_eq!(
            report.cross_boundary_bytes,
            expected,
            "capacity {}",
            cap
        );
    }

    /// Lookahead is a pure optimization: across random engine mixes
    /// (message-level networks plus hinted and hint-free scripted
    /// workers), quanta, and budgets, the lookahead coordinator
    /// reproduces pure lockstep bit-identically — same end states, same
    /// final times, same budget errors — and its `sync_rounds +
    /// rounds_skipped` equals the lockstep round count.
    #[test]
    fn lookahead_is_bit_identical_to_lockstep(
        net in arb_network(),
        p in arb_placement(8),
        workers in prop::collection::vec((0u64..600, any::<bool>()), 0..3),
        quantum in 1u64..64,
        budget in prop_oneof![1u64..20_000, Just(u64::MAX)],
    ) {
        prop_assume!(p.len() >= net.len());
        let placement = Placement::from_assignment(
            net.ids().map(|id| p.resource(ProcessId::from_index(id.index() % p.len()))).collect(),
        );
        let (lock_fp, lock) = coordinate(false, quantum, budget, &net, &placement, &workers);
        let (look_fp, look) = coordinate(true, quantum, budget, &net, &placement, &workers);
        prop_assert_eq!(lock_fp, look_fp);
        prop_assert_eq!(lock.time, look.time);
        prop_assert_eq!(lock.sync_rounds, look.sync_rounds + look.rounds_skipped);
        prop_assert_eq!(lock.rounds_skipped, 0);
    }

    /// Faster hardware never slows the system down.
    #[test]
    fn hw_speedup_is_monotone(net in arb_network()) {
        let placement = Placement::all_hardware(net.len());
        let slow = simulate(
            &net,
            &placement,
            &MessageConfig { hw_speedup: 1.0, ..MessageConfig::default() },
&Tracer::off(),
        )
        .expect("completes");
        let fast = simulate(
            &net,
            &placement,
            &MessageConfig { hw_speedup: 16.0, ..MessageConfig::default() },
&Tracer::off(),
        )
        .expect("completes");
        prop_assert!(fast.finish_time <= slow.finish_time);
    }
}
