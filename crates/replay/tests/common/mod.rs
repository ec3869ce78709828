//! Shared scenario builders: one coordinator per abstraction-ladder
//! level, all deterministic and snapshot-capable.
//!
//! Compiled into several test binaries; not every binary uses every
//! helper, so the module allows dead code as a whole.
#![allow(dead_code)]

use codesign_fault::SharedInjector;
use codesign_isa::asm::assemble;
use codesign_sim::adapters::CpuEngine;
use codesign_sim::engine::Coordinator;
use codesign_sim::ladder::{
    build_cpu, message_scenario, producer_program, DriverEngine, LadderConfig,
};
use codesign_sim::message::MessageEngine;

pub const QUANTUM: u64 = 16;

pub fn ladder_cfg() -> LadderConfig {
    LadderConfig {
        iterations: 3,
        ..LadderConfig::default()
    }
}

fn iss_level(pin: bool) -> (Coordinator, Option<SharedInjector>) {
    let cfg = ladder_cfg();
    let program = assemble(&producer_program(&cfg)).unwrap();
    let cpu = build_cpu(&cfg.spec().unwrap(), &program, pin).unwrap();
    let mut coord = Coordinator::lockstep(QUANTUM);
    coord.add_engine(Box::new(CpuEngine::new("cpu", cpu)));
    (coord, None)
}

/// Builds the level-`idx` scenario: 0 = pin, 1 = register, 2 = driver,
/// 3 = message.
pub fn build_level(idx: usize) -> (Coordinator, Option<SharedInjector>) {
    match idx {
        0 => iss_level(true),
        1 => iss_level(false),
        2 => {
            let mut coord = Coordinator::lockstep(QUANTUM);
            coord.add_engine(Box::new(DriverEngine::new("driver", ladder_cfg())));
            (coord, None)
        }
        3 => {
            let (net, placement, config) = message_scenario(&ladder_cfg());
            let engine = MessageEngine::new("ladder", net, placement, config).unwrap();
            let mut coord = Coordinator::lockstep(QUANTUM);
            coord.add_engine(Box::new(engine));
            (coord, None)
        }
        other => panic!("no ladder level {other}"),
    }
}
