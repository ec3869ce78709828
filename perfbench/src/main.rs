//! `benchmark` — one seeded workload of the codesign stack per process,
//! measured end to end and, in a separate traced run, layer by layer.
//!
//! # Running one workload
//!
//! From the repository root (the `serve_mix` jobs read
//! `examples/specs/*.cds` by relative path):
//!
//! ```text
//! cargo run -q --release --manifest-path perfbench/Cargo.toml --bin benchmark -- \
//!     --workload cosim --seed 1 --seconds 20 --trace 0 --out runs/cosim-1.json
//! ```
//!
//! `--workload` is one of `cosim`, `explore_dsp`, `explore_tgff`,
//! `serve_mix`. All inputs come from `--seed`; the program only receives
//! them. A run sets up once to make its inputs, runs one untimed
//! warm-up op, then runs ops for `--seconds`; `setup_s` is the median
//! of five more set-ups timed between those ops, spread over the phase
//! (`serve_mix`: after its traffic). Every metric is
//! printed on stderr by name and unit; the last line on stdout is
//! `{"correct", "attempted", "failed", "metrics"}`. A failed output check
//! prints `"correct": false` and exits 1; bad arguments exit 2 and print
//! no result. `--out FILE` also writes the run's `workload`, `seed`,
//! `git_rev`, `host_cores`, `metrics` (or `layers`), `ops`, `ops_failed`
//! and `digest`. Default seed 1; seed 7 is held out for confirming
//! claims made on the default.
//!
//! The full set, ten seeds of every workload:
//!
//! ```text
//! for s in $(seq 1 10); do for w in cosim explore_dsp explore_tgff serve_mix; do
//!   cargo run -q --release --manifest-path perfbench/Cargo.toml --bin benchmark -- \
//!       --workload $w --seed $s --seconds 20 --out runs/$w-$s.json
//! done; done
//! ```
//!
//! # The traced run
//!
//! `--trace 1` runs the same workload and seed with every call into the
//! program wrapped in a span (name, layer, start, end, parent, op or
//! request id), kept in memory and converted once at exit into a
//! `codesign::trace::Tracer`, whose Chrome JSON must pass
//! `validate_chrome_trace` (`--trace-out FILE` keeps it). It reports
//! the per-layer metrics instead of the end-to-end ones; end-to-end
//! metrics come only from untraced runs. Spans are recorded by this
//! benchmark around public calls; spans inside the program are a
//! separate change.
//!
//! # Comparing two sets of runs
//!
//! `benchmark compare DIR_A DIR_B` reads the `--out` files of two sets
//! and prints, per workload and end-to-end metric, each set's median and
//! quartiles. It marks a metric `unresolved` when either set's spread
//! (interquartile range over median) exceeds the metric's bound, and
//! `worse` or `better` when the medians differ by more than the bound
//! (`setup_s`: medians only).
//! Runs of one workload and seed must carry one digest across both sets.
//! When a set also holds traced runs it prints the trace overhead (traced
//! over untraced median op latency). Exit 0 means nothing was worse,
//! unresolved or mismatched.
//!
//! # End-to-end metrics (every workload)
//!
//! | metric | what | bound |
//! |---|---|---|
//! | `setup_s` | median of five set-ups (inputs, space or graph builds, expected results, server boot), timed mid-run | 25% |
//! | `op_p50_ms` | median op time (see below) | 25% |
//! | `op_p90_ms` | 90th percentile op time | 25% |
//! | `work_per_s` | work units per second of op time | 25% |
//! | `peak_rss_mb` | peak resident set (`VmHWM`) | 10% |
//!
//! An op and a work unit per workload: `cosim`, one round of 64 /
//! simulated cycles; `explore_dsp` and `explore_tgff`, one cold
//! exploration of 32 / offered points; `serve_mix`, one job / jobs
//! completed in the closed loop. The sequential workloads run their
//! distinct ops over and over and keep each op's fastest time, so the
//! percentiles are across the 64 or 32 distinct ops, and `work_per_s` is
//! their work over their summed fastest times: on a shared host, other
//! tenants slow stretches of a run by 10–40%, and the fastest pass
//! measures the program rather than the neighbours. `serve_mix` times
//! every low-rate job from when it was due (about 3,000 samples) and
//! counts the closed loop's completions per second. The module docs of
//! `cosim.rs`, `explore.rs` and `serve.rs` say what each runs and
//! checks.
//!
//! # Layers, and the end-to-end metric each should move
//!
//! A layer is a crate. `<layer>.share` is the layer's self time as a
//! share of the measured phase (`serve_mix`: of reply latency, where
//! `serve.share` is everything but the job's run: queue, protocol,
//! transport, client). Counts are per op over the first pass through the
//! inputs. A layer a workload does not exercise reads 0.
//!
//! | layer | per-layer metrics | moves |
//! |---|---|---|
//! | isa, rtl, sim | `sim.share`, `sim.ladder.{pin,register,driver,message}.{share,events}`, `conform.events.*` | `op_p50_ms`, `work_per_s` @cosim; flat on `explore_*` |
//! | sim coordinator | `sim.coordinator.{rounds,rounds_skipped}` | `op_p50_ms` @cosim |
//! | conform | `conform.share` | `op_p50_ms` @cosim; `op_p90_ms` @serve_mix (the heaviest served jobs) |
//! | fault (+ core, hls, synth) | `fault.share` | `op_p50_ms` @cosim; `op_p90_ms` @serve_mix |
//! | replay, rtl state | `replay.share`, `replay.{bisect,linear}_probes` | `op_p50_ms` @cosim |
//! | explore executor, cache, gate | `explore.share`, `explore.{unique_points,evaluations,gated,dedup_skips,delta_hit_rate,revisit_rate,front_size}` | `work_per_s`, `op_p50_ms` @explore_dsp |
//! | explore → sim (Stage 2) | `explore.stage2_share` | `work_per_s` @explore_tgff; ≈ flat @explore_dsp |
//! | explore persistence | `explore.warm_hits` (and the persist/preload spans) | `work_per_s` @explore_tgff |
//! | partition | `partition.share` | `op_p50_ms` @serve_mix |
//! | serve: net, queue, protocol | `serve.share`, `serve.{queue_depth_p99,worker_busy_share,shed,retried,store_entries}` | `op_p50_ms`, `op_p90_ms`, `work_per_s` @serve_mix |
//! | this benchmark | `bench.share`, `span_coverage` (≥ 95%), `traced_op_p50_ms` | none; trace overhead |
//!
//! # Determinism
//!
//! Every run reports a `digest` of its inputs' outputs over one pass
//! through them (`serve_mix`: of its script and the expected replies),
//! the same for a given workload, seed and `--seconds`, traced or not.
//! A change that only makes a simulator faster must leave every digest
//! identical; `compare` checks.
//!
//! # Calibration
//!
//! On a 2-vCPU x86-64 VM (`host_cores` 2, Intel Xeon, shared with other
//! tenants), rustc 1.95, on the tree that adds this benchmark (parent
//! commit `be3ca70`), `--seconds 20`. Two sets of five runs at seed 1,
//! run alternately; median (spread = interquartile range / median):
//!
//! | workload | set | setup_s | op_p50_ms | op_p90_ms | work_per_s | peak_rss_mb |
//! |---|---|---|---|---|---|---|
//! | cosim | A | 1.45 ms (19%) | 47.7 (12%) | 54.5 (12%) | 3.04e7 (10%) | 6.76 (2%) |
//! | cosim | B | 1.42 ms (5%) | 47.1 (3%) | 52.7 (3%) | 3.08e7 (3%) | 6.80 (2%) |
//! | explore_dsp | A | 0.41 ms (24%) | 69.5 (15%) | 71.0 (19%) | 2.35e5 (13%) | 5.00 (4%) |
//! | explore_dsp | B | 0.41 ms (7%) | 69.0 (1%) | 69.7 (2%) | 2.37e5 (1%) | 5.10 (2%) |
//! | explore_tgff | A | 2.50 ms (44%) | 83.0 (17%) | 87.9 (18%) | 3089 (13%) | 8.56 (2%) |
//! | explore_tgff | B | 2.50 ms (11%) | 82.7 (2%) | 88.0 (2%) | 3095 (1%) | 8.62 (2%) |
//! | serve_mix | A | 43.4 ms (10%) | 2.24 (4%) | 6.50 (5%) | 1687 (8%) | 11.4 (2%) |
//! | serve_mix | B | 45.2 ms (16%) | 2.24 (6%) | 6.35 (8%) | 1721 (12%) | 11.4 (2%) |
//!
//! `benchmark compare` on the two sets judges every metric `same`, with
//! identical digests; one run of set A fell in a slow stretch of the
//! host. The trace overhead is within ±1% on every workload. Ten seeds
//! (1–10, so the held-out seed 7 too) per workload, swept twice, gave
//! spreads of 1.5–5% for `cosim`, 1–4.5% for `explore_dsp`, 1.5–5% for
//! `explore_tgff` and 4–13% for `serve_mix`, 7–31% for `setup_s`, and
//! medians within 5% between the sweeps. In a noisier stretch of the
//! same host whole runs slowed by 15–25% and spreads reached ~20%,
//! which is why the timing bounds sit at 25%.

fn main() -> std::process::ExitCode {
    codesign_perfbench::main()
}
