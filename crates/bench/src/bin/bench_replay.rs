//! `bench-replay` — time-travel debugging costs, emitted as
//! `BENCH_replay.json`.
//!
//! For every fault-campaign scenario (the three abstraction-ladder
//! rungs plus the Figure 8 DSP co-processor) this harness measures what
//! the `codesign-replay` subsystem charges for its guarantees:
//!
//! - **snapshot latency** — mean wall time to serialize one whole-run
//!   checkpoint (coordinator + engines + injector), and its size;
//! - **store dedup** — logical vs stored bytes across a full recording
//!   run (page-based content dedup in the versioned state store);
//! - **replay overhead** — wall time of a checkpoint-recording run vs
//!   the identical run executed straight, same round loop;
//! - **divergence search** — for the first seed whose armed run departs
//!   its golden twin, the round `bisect_divergence` reports, the states
//!   it compared, and whether the divergence healed. These fields hold
//!   no timings, so a full run reproduces them exactly.
//!
//! ```text
//! cargo run --release -p codesign-bench --bin bench-replay [--smoke] [out.json]
//! ```
//!
//! `--smoke` restricts the sweep to one scenario and defaults the
//! output under `target/` so CI exercises the full path without
//! perturbing the checked-in `BENCH_replay.json`. Wall-clock figures
//! vary by host; the correctness gates (restored-run bit-identity, the
//! search agreeing with the linear oracle on every scanned seed) do not.

use std::time::Instant;

use codesign::fault::FaultPlan;
use codesign::replay::{bisect_divergence, linear_first_divergence, snapshot, ReplaySession};
use codesign::resilience::{build_scenario, RUN_BUDGET, SCENARIOS};

use codesign_bench::jsonout;

/// Checkpoint every N coordination rounds.
const CADENCE: u64 = 8;
/// Round ceiling for every run (far above any scenario's real length).
const MAX_ROUNDS: u64 = 200_000;
/// Snapshot calls timed for the latency figure.
const SNAP_SAMPLES: u32 = 32;

/// Builds one scenario run as the factory shape the search wants.
fn factory(
    scenario: &'static str,
    plan: FaultPlan,
    seed: u64,
) -> impl Fn() -> Result<
    (
        codesign::sim::engine::Coordinator,
        Option<codesign::fault::SharedInjector>,
    ),
    codesign::sim::error::SimError,
> {
    move || {
        let (coord, injector) =
            build_scenario(scenario, &plan, seed, true).expect("known scenario");
        Ok((coord, Some(injector)))
    }
}

fn main() {
    let (smoke, out_path) =
        jsonout::smoke_args("BENCH_replay.json", "target/BENCH_replay_smoke.json");
    let scenarios: &[&'static str] = if smoke {
        &["ladder_register"]
    } else {
        &SCENARIOS
    };
    let bisect_seeds: u64 = if smoke { 4 } else { 8 };

    let mut rows = Vec::new();
    let mut total_bisect_probes = 0u64;

    for &scenario in scenarios {
        // Straight execution: the same round loop with no recording.
        let (mut coord, injector) =
            build_scenario(scenario, &FaultPlan::quiet(), 1, true).expect("scenario builds");
        let t0 = Instant::now();
        let mut rounds = 0u64;
        while !coord.is_done() && rounds < MAX_ROUNDS {
            coord
                .run_one_round(RUN_BUDGET)
                .expect("golden run is clean");
            rounds += 1;
        }
        let straight = t0.elapsed();
        let end_blob = snapshot(&coord, Some(&injector));

        // Snapshot latency at the (largest) end state.
        let t0 = Instant::now();
        for _ in 0..SNAP_SAMPLES {
            std::hint::black_box(snapshot(&coord, Some(&injector)));
        }
        let snap_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(SNAP_SAMPLES);

        // Recording run: identical execution under checkpoint cadence.
        let (coord2, injector2) =
            build_scenario(scenario, &FaultPlan::quiet(), 1, true).expect("scenario builds");
        let mut session =
            ReplaySession::new(coord2, Some(injector2), CADENCE).expect("snapshot-capable");
        let t0 = Instant::now();
        session.run_to_end(MAX_ROUNDS).expect("golden run is clean");
        let replay = t0.elapsed();
        assert_eq!(
            session.current_step(),
            rounds,
            "{scenario}: same round count"
        );
        assert_eq!(
            session.snapshot_bytes(),
            end_blob,
            "{scenario}: recorded run must end bit-identical to the straight run"
        );
        let stats = session.store().stats();
        assert!(
            stats.stored_bytes < stats.logical_bytes,
            "{scenario}: the page store must deduplicate something"
        );

        // Restore gate: resume from mid-run, finish, same end state.
        session
            .restore_to(rounds / 2)
            .expect("mid-run restore works");
        session
            .run_to_end(MAX_ROUNDS)
            .expect("resumed run is clean");
        assert_eq!(
            session.snapshot_bytes(),
            end_blob,
            "{scenario}: a restored run must finish bit-identical"
        );

        // Divergence search: first seed whose armed run departs its
        // golden twin. Gate: every scanned seed matches the linear
        // oracle exactly.
        let mut bisect_row = String::from("\"masked\"");
        for seed in 1..=bisect_seeds {
            let golden = factory(scenario, FaultPlan::quiet(), seed);
            let faulty = factory(scenario, FaultPlan::standard(), seed);
            let report = bisect_divergence(&golden, &faulty, CADENCE, MAX_ROUNDS, RUN_BUDGET)
                .expect("search runs");
            let linear = linear_first_divergence(&golden, &faulty, MAX_ROUNDS, RUN_BUDGET)
                .expect("linear scan runs");
            assert_eq!(
                report.first_divergent_round, linear,
                "{scenario} seed {seed}: the search must match the linear oracle"
            );
            let Some(round) = report.first_divergent_round else {
                continue;
            };
            total_bisect_probes += report.probes;
            bisect_row = format!(
                "{{\"seed\": {seed}, \"first_divergent_round\": {round}, \
                 \"probes\": {}, \"healed\": {}}}",
                report.probes,
                report.healed()
            );
            break;
        }
        assert_ne!(
            bisect_row, "\"masked\"",
            "{scenario}: no seed in 1..={bisect_seeds} diverged — widen the scan"
        );

        let overhead = replay.as_secs_f64() / straight.as_secs_f64().max(1e-9);
        println!(
            "{scenario:>16}: {rounds} rounds, snapshot {snap_us:.1} us ({} B), \
             dedup {:.2}x, replay overhead {overhead:.2}x",
            end_blob.len(),
            stats.dedup_ratio(),
        );
        rows.push(format!(
            "{{\"scenario\": \"{scenario}\", \"rounds\": {rounds}, \
             \"snapshot_bytes\": {}, \"snapshot_us\": {snap_us:.2}, \
             \"checkpoints\": {}, \"logical_bytes\": {}, \"stored_bytes\": {}, \
             \"dedup_ratio\": {:.4}, \"straight_ms\": {:.3}, \"replay_ms\": {:.3}, \
             \"replay_overhead\": {overhead:.4}, \"bisect\": {bisect_row}}}",
            end_blob.len(),
            stats.checkpoints,
            stats.logical_bytes,
            stats.stored_bytes,
            stats.dedup_ratio(),
            straight.as_secs_f64() * 1e3,
            replay.as_secs_f64() * 1e3,
        ));
    }

    let json = jsonout::render(
        "replay",
        &[
            ("smoke", smoke.into()),
            ("cadence_rounds", CADENCE.into()),
            ("snapshot_samples", u64::from(SNAP_SAMPLES).into()),
            ("host_cores", jsonout::host_cores().into()),
            ("git_rev", jsonout::git_rev().as_str().into()),
            ("bisect_total_probes", total_bisect_probes.into()),
        ],
        &rows,
    );
    jsonout::write(&out_path, &json);
}
