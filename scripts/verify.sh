#!/usr/bin/env bash
# Repository verification: build, tests, and lints.
#
# Tier-1 (ROADMAP.md): release build + full test suite. Clippy runs over
# every target (libs, bins, tests, examples) with warnings denied so lint
# debt cannot accumulate, and rustfmt is enforced so diffs stay clean.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q (hard 20-minute timeout) =="
# The timeout is a backstop against coordination hangs the in-process
# watchdog cannot see (e.g. a test that never calls the coordinator).
timeout --signal=KILL 1200 cargo test -q

echo "== cargo clippy --all-targets -- -D warnings =="
cargo clippy --all-targets -- -D warnings

echo "== bench-cosim smoke (1 iteration, gates round reduction) =="
cargo run --release -q -p codesign-bench --bin bench-cosim -- --smoke

echo "== bench-partition smoke (16 tasks, gates determinism) =="
cargo run --release -q -p codesign-bench --bin bench-partition -- --smoke

echo "== bench-faults smoke (10 seeds, gates class accounting) =="
cargo run --release -q -p codesign-bench --bin bench-faults -- --smoke

# The full campaign (32 seeds x 4 scenarios, ~0.1 s) holds no timings
# and no git revision, so it must regenerate the checked-in report byte
# for byte. Armed IRQ sampling and fault cycle stamps ride on exact
# device catch-up; any drift shows here.
echo "== bench-faults full (byte-identical to BENCH_faults.json) =="
cargo run --release -q -p codesign-bench --bin bench-faults -- target/BENCH_faults.json
cmp target/BENCH_faults.json BENCH_faults.json

# Gates report byte-identity across threads {1,2,4,8,16} and cold/warm
# persistent-cache runs, revisit absorption, and — on hosts with >= 4
# cores — a >= 1.2x speedup at 4 threads (skipped below that, where the
# pool has no cores to scale onto; the full run gates >= 1.5x).
echo "== bench-explore smoke (pipelined scaling + persistent cache) =="
cargo run --release -q -p codesign-bench --bin bench-explore -- --smoke

# Gates the lockstep self-test, zero divergences over 40 generated
# systems, and byte-identical reports across thread counts. The hard
# timeout backstops a hung co-simulation inside the sweep workers.
echo "== bench-conform smoke (40-system differential conformance) =="
timeout --signal=KILL 300 cargo run --release -q -p codesign-bench --bin bench-conform -- --smoke

# The full 1000-system sweep (~0.4 s) must regenerate the checked-in
# report apart from the three lines that describe the host and the
# checkout rather than the campaign: every cycle bound, count and error
# statistic is pinned, as BENCH_faults.json's are above.
echo "== bench-conform full (BENCH_conform.json up to host lines) =="
timeout --signal=KILL 300 cargo run --release -q -p codesign-bench --bin bench-conform -- target/BENCH_conform.json
host_lines='"(git_rev|host_cores|threads)":'
diff <(grep -Ev "$host_lines" target/BENCH_conform.json) <(grep -Ev "$host_lines" BENCH_conform.json)

# Chaos stays on even in the smoke: injected panics, wedged-engine
# watchdog stalls, transient faults, garbage lines, and an overload
# burst against a deliberately small queue. Gates the accounting
# invariant (accepted == ok + failed + drained), zero lost/duplicated
# results, and byte-identity of served replies vs the direct renderers;
# the load-dependent gates (shed > 0, deadline_expired > 0) self-skip
# on 1-core hosts where the pipelined clients cannot outrun the pool.
echo "== bench-serve smoke (chaos-on multi-tenant job server) =="
timeout --signal=KILL 300 cargo run --release -q -p codesign-bench --bin bench-serve -- --smoke

# Gates restored-run bit-identity (straight vs recorded vs mid-run
# restored end states), page-store dedup actually deduplicating, and
# divergence bisection agreeing with the linear-scan oracle on the
# first diverging seed.
echo "== bench-replay smoke (time-travel checkpoint/restore + bisection) =="
timeout --signal=KILL 300 cargo run --release -q -p codesign-bench --bin bench-replay -- --smoke

# The benchmark BENCHMARK.json declares is its own workspace with its
# own lock file: build it against the current crates with the lock held
# fixed, and run its smoke tests, so an API change that breaks it (or
# would rewrite its lock) fails here rather than in the next benchmark.
echo "== perfbench tests (locked, offline) =="
cargo test --release -q --offline --locked --manifest-path perfbench/Cargo.toml

echo "verify: OK"
