//! Property-based tests for the fault-injection contracts:
//!
//! 1. an empty [`FaultPlan`] is bit-identical to the un-instrumented
//!    baseline (wrappers are exact pass-throughs and consume no
//!    randomness);
//! 2. identical seeds yield identical campaigns (same outcomes, same
//!    fault records);
//! 3. the coordinator's no-progress watchdog never fires on healthy
//!    random engine mixes, including mixes wrapped in quiet fault
//!    wrappers;
//! 4. a wrapped device caught up by one `advance(n)`, or by two calls
//!    that sum to `n`, logs the same faults, with the same cycle stamps,
//!    as one ticked `n` times.

use codesign_fault::{
    shared, FaultPlan, FaultyEngine, FaultyPhy, FaultySlave, IrqRates, MessageFaultHook,
    RegisterRates,
};
use codesign_ir::workload::tgff::{random_process_network, NetworkConfig};
use codesign_rtl::bus::{fifo_regs, timer_regs, BusSlave, BusTiming, DrainFifo, SystemBus, Timer};
use codesign_rtl::state::StateWriter;
use codesign_sim::engine::{Coordinator, SimEngine};
use codesign_sim::message::{MessageConfig, MessageEngine, Placement, Resource};
use codesign_sim::SimError;
use proptest::prelude::*;

/// Busy until `work`, then done; optionally promises its completion
/// time (same scripted engine the sim crate's coordination properties
/// use).
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

fn arb_network() -> impl Strategy<Value = codesign_ir::process::ProcessNetwork> {
    (2usize..8, any::<u64>(), 0.0f64..1.0, 1u32..10).prop_map(
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

fn placement_from_seed(n: usize, seed: u64) -> Placement {
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
}

/// Runs a network-engine under the (watchdog-armed) coordinator, with
/// an optional fault plan hooked in, and fingerprints everything
/// observable.
fn run_network(
    net: &codesign_ir::process::ProcessNetwork,
    placement: &Placement,
    plan: Option<(&FaultPlan, u64)>,
) -> String {
    let mut engine = MessageEngine::new(
        "net",
        net.clone(),
        placement.clone(),
        MessageConfig::default(),
    )
    .expect("valid placement");
    let mut fault_log = String::new();
    if let Some((plan, seed)) = plan {
        let injector = shared(seed);
        engine.set_faults(Box::new(MessageFaultHook::new(plan, injector.clone())));
        let mut coord = Coordinator::new(16);
        coord.add_engine(Box::new(engine));
        let mut fp = fingerprint(&mut coord);
        for r in injector.borrow().records() {
            fault_log.push_str(&format!("{:?};", r));
        }
        fp.push_str(&fault_log);
        fp
    } else {
        let mut coord = Coordinator::new(16);
        coord.add_engine(Box::new(engine));
        fingerprint(&mut coord)
    }
}

fn fingerprint(coord: &mut Coordinator) -> String {
    let mut fp = match coord.run(u64::MAX) {
        Ok(stats) => format!("ok@{};", stats.time),
        Err(e) => format!("{e:?};"),
    };
    for engine in coord.engines() {
        fp.push_str(&format!("{}@{}:", engine.name(), engine.local_time()));
        if let Some(m) = engine.as_any().downcast_ref::<MessageEngine>() {
            fp.push_str(&format!("{:?};", m.report()));
        }
    }
    fp
}

/// Drives `ops` through a bus and fingerprints every observable value
/// and cycle count. With `wrapped`, the fifo is behind a quiet
/// [`FaultySlave`] and the bus behind a quiet [`FaultyPhy`].
fn run_bus(ops: &[(bool, u8)], wrapped: bool) -> String {
    let injector = shared(99);
    let mut bus = SystemBus::new(BusTiming::default());
    let fifo = Box::new(DrainFifo::new(8, 7));
    if wrapped {
        bus.map(
            0x0,
            0x100,
            Box::new(FaultySlave::new(fifo, FaultPlan::quiet(), injector.clone())),
        )
        .unwrap();
        bus.set_phy(Box::new(FaultyPhy::new(
            BusTiming::default(),
            FaultPlan::quiet(),
            injector.clone(),
        )));
    } else {
        bus.map(0x0, 0x100, fifo).unwrap();
    }
    let mut fp = String::new();
    for &(is_read, v) in ops {
        let r = if is_read {
            bus.read(fifo_regs::COUNT)
        } else {
            bus.write(fifo_regs::DATA, u32::from(v)).map(|cyc| (0, cyc))
        };
        fp.push_str(&format!("{r:?};"));
        bus.tick(u64::from(v % 5));
    }
    fp.push_str(&format!("{:?};irqs={}", bus.stats(), bus.irq_pending()));
    if wrapped {
        assert_eq!(
            injector.borrow().count(),
            0,
            "quiet wrappers must not inject"
        );
    }
    fp
}

/// How [`run_armed`] catches a device up by `n` cycles.
#[derive(Debug, Clone, Copy)]
enum CatchUp {
    /// `n` calls of `tick()`.
    Ticks,
    /// One `advance(n)`.
    Once,
    /// `advance(k); advance(n - k)`, with `k` drawn from the op.
    Split,
}

/// Drives a timer and a FIFO, each behind a [`FaultySlave`] under an
/// armed plan, through `ops` — register writes, reads, `n`-cycle
/// catch-ups (made as `catch_up` says), and irq samples — and
/// fingerprints every value seen, the fault log and the end state.
fn run_armed(ops: &[(u8, u32)], seed: u64, catch_up: CatchUp) -> String {
    let plan = FaultPlan {
        register: RegisterRates {
            corrupt_read: 0.05,
            corrupt_write: 0.05,
        },
        irq: IrqRates {
            drop: 0.1,
            duplicate: 0.2,
            spurious: 0.05,
        },
        ..FaultPlan::quiet()
    };
    let injector = shared(seed);
    let mut devices = [
        FaultySlave::new(Box::new(Timer::new()), plan, injector.clone()),
        FaultySlave::new(Box::new(DrainFifo::new(6, 5)), plan, injector.clone()),
    ];
    let mut fp = String::new();
    for &(op, v) in ops {
        let dev = &mut devices[usize::from(op & 1)];
        match op >> 1 & 3 {
            0 if op & 1 == 0 => {
                dev.write(timer_regs::LOAD, v % 9);
                dev.write(timer_regs::CTRL, v >> 4 & 7);
            }
            0 => dev.write(fifo_regs::DATA, v),
            1 => fp.push_str(&format!("{};", dev.read(v % 3 * 4))),
            2 => {
                let n = u64::from(v % 13);
                match catch_up {
                    CatchUp::Ticks => {
                        for _ in 0..n {
                            dev.tick();
                        }
                    }
                    CatchUp::Once => dev.advance(n),
                    CatchUp::Split => {
                        let k = u64::from(v >> 4) % (n + 1);
                        dev.advance(k);
                        dev.advance(n - k);
                    }
                }
            }
            _ => fp.push_str(&format!("{};", dev.irq_pending())),
        }
    }
    for dev in &devices {
        let mut w = StateWriter::new();
        dev.save_state(&mut w);
        fp.push_str(&format!("{:?};", w.into_bytes()));
    }
    fp.push_str(&format!("{:?}", injector.borrow().records()));
    fp
}

/// Contract 4 is not vacuous: a fixed script under the armed plan logs
/// register and interrupt faults whose stamps depend on device time.
#[test]
fn armed_script_logs_faults_at_device_cycles() {
    let ops: Vec<(u8, u32)> = (0..200u32)
        .map(|i| ((i.wrapping_mul(2_654_435_761) >> 7) as u8, i * 37 + 11))
        .collect();
    let advanced = run_armed(&ops, 5, CatchUp::Once);
    for kind in ["CorruptRead", "CorruptWrite", "IrqSpurious"] {
        assert!(advanced.contains(kind), "no {kind} in {advanced}");
    }
    assert_eq!(advanced, run_armed(&ops, 5, CatchUp::Ticks));
    assert_eq!(advanced, run_armed(&ops, 5, CatchUp::Split));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contract 4: catching up in one step, or in two, is invisible to
    /// an armed plan — same values, same faults at the same device
    /// cycles.
    #[test]
    fn armed_slave_advance_matches_ticking(
        ops in prop::collection::vec((any::<u8>(), any::<u32>()), 1..80),
        seed in any::<u64>(),
    ) {
        let ticked = run_armed(&ops, seed, CatchUp::Ticks);
        prop_assert_eq!(&run_armed(&ops, seed, CatchUp::Once), &ticked);
        prop_assert_eq!(&run_armed(&ops, seed, CatchUp::Split), &ticked);
    }

    /// Contract 1a: an empty plan hooked into the message engine is
    /// bit-identical to no hook at all.
    #[test]
    fn empty_plan_message_runs_are_bit_identical(
        net in arb_network(),
        pseed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let placement = placement_from_seed(net.len(), pseed);
        let bare = run_network(&net, &placement, None);
        let quiet = run_network(&net, &placement, Some((&FaultPlan::quiet(), seed)));
        prop_assert_eq!(bare, quiet);
    }

    /// Contract 1b: quiet bus wrappers (slave and phy) are exact
    /// pass-throughs for arbitrary transaction sequences.
    #[test]
    fn empty_plan_bus_sequences_are_bit_identical(
        ops in prop::collection::vec((any::<bool>(), any::<u8>()), 1..64),
    ) {
        prop_assert_eq!(run_bus(&ops, false), run_bus(&ops, true));
    }

    /// Contract 2: identical seeds yield identical faulty outcomes and
    /// identical fault records, run to run.
    #[test]
    fn identical_seeds_yield_identical_campaign_runs(
        net in arb_network(),
        pseed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let placement = placement_from_seed(net.len(), pseed);
        let plan = FaultPlan::standard();
        let a = run_network(&net, &placement, Some((&plan, seed)));
        let b = run_network(&net, &placement, Some((&plan, seed)));
        prop_assert_eq!(a, b);
    }

    /// Contract 3: the default-on watchdog stays silent on healthy
    /// random engine mixes — message networks plus hinted/hint-free
    /// scripted workers, some behind quiet fault wrappers.
    #[test]
    fn watchdog_never_fires_on_healthy_mixes(
        net in arb_network(),
        pseed in any::<u64>(),
        workers in prop::collection::vec((0u64..600, any::<bool>(), any::<bool>()), 0..4),
        quantum in 1u64..64,
    ) {
        let placement = placement_from_seed(net.len(), pseed);
        let injector = shared(1);
        let mut coord = Coordinator::new(quantum);
        coord.add_engine(Box::new(
            MessageEngine::new("net", net.clone(), placement, MessageConfig::default())
                .expect("valid placement"),
        ));
        for (i, &(work, hinted, wrap)) in workers.iter().enumerate() {
            let worker = Box::new(ScriptedWorker {
                name: format!("w{i}"),
                work,
                time: 0,
                hinted,
            });
            if wrap {
                coord.add_engine(Box::new(FaultyEngine::new(
                    worker,
                    injector.clone(),
                    0.0,
                    0.0,
                )));
            } else {
                coord.add_engine(worker);
            }
        }
        let result = coord.run(u64::MAX);
        prop_assert!(
            !matches!(result, Err(SimError::Watchdog { .. })),
            "watchdog fired on a healthy mix: {result:?}"
        );
        prop_assert!(result.is_ok(), "healthy mix failed: {result:?}");
    }
}
