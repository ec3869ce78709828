//! `bench-faults` — the deterministic fault-injection campaign, emitted
//! as `BENCH_faults.json`.
//!
//! Sweeps seeds over the abstraction-ladder scenarios (message,
//! register, interrupt rungs) and the Figure 8 DSP-coprocessor system
//! with the standard [`FaultPlan`](codesign::fault::FaultPlan), and
//! classifies every run against its fault-free golden fingerprint:
//!
//! - **masked** — faults injected, end state identical to golden;
//! - **recovered** — transient faults absorbed by the coordinator's
//!   bounded retry, end state identical;
//! - **detected** — the run failed loudly (deadlock, budget, fault);
//! - **watchdog** — the run hung and the no-progress watchdog converted
//!   it into a structured error with a diagnosis snapshot;
//! - **corrupted** — the run finished with a *different* end state
//!   (silent data corruption, the class the campaign exists to count).
//!
//! ```text
//! cargo run --release -p codesign-bench --bin bench-faults [--smoke] [out.json]
//! ```
//!
//! `--smoke` sweeps fewer seeds and defaults the output under
//! `target/`, so CI exercises the full path without perturbing the
//! checked-in `BENCH_faults.json`. Results carry no wall-clock times:
//! the same seeds reproduce the same report byte for byte.

use codesign::resilience::{campaign_table, run_campaign, CampaignConfig, SCENARIOS};
use codesign::trace::Tracer;
use codesign_bench::jsonout;

/// Seeds per scenario for the checked-in report.
const FULL_SEEDS: u64 = 32;
/// Seeds per scenario under `--smoke`: the smallest sweep where every
/// scenario's standard plan injects at least one fault (the injection
/// draws ride the simulated event stream, so cycle-accurate timing
/// fixes legitimately shift which seeds fire).
const SMOKE_SEEDS: u64 = 10;

fn main() {
    let (smoke, out_path) =
        jsonout::smoke_args("BENCH_faults.json", "target/BENCH_faults_smoke.json");
    let config = CampaignConfig {
        seeds: if smoke { SMOKE_SEEDS } else { FULL_SEEDS },
        ..CampaignConfig::default()
    };

    let report = run_campaign(&config, &Tracer::off()).expect("campaign runs");
    eprint!("{}", campaign_table(&report));

    // Gate: every scenario ran, every seeded run landed in exactly one
    // class, and the plan actually injected faults somewhere.
    assert_eq!(
        report.scenarios.len(),
        SCENARIOS.len(),
        "campaign must cover every scenario"
    );
    for s in &report.scenarios {
        assert_eq!(
            s.total(),
            config.seeds,
            "{}: class counts must sum to the seeded runs",
            s.scenario
        );
        assert!(
            s.faults_injected > 0,
            "{}: the standard plan injected no faults",
            s.scenario
        );
    }
    // Determinism gate: the same config reproduces the same report.
    let again = run_campaign(&config, &Tracer::off()).expect("campaign reruns");
    assert_eq!(
        report.to_json(),
        again.to_json(),
        "identical configs must produce byte-identical reports"
    );

    jsonout::write(&out_path, &report.to_json());
}
