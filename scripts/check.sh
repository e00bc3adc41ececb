#!/usr/bin/env sh
# Tier-1 verification in one command: release build, full test suite,
# and lint-clean clippy. Run from the repository root:
#
#   ./scripts/check.sh
#
# This is what the verify workflow runs; keep it fast and deterministic.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo fmt --check (first-party packages) =="
# Formatting drift fails fast. The root package and every crate under
# crates/ are named one by one: the vendored stand-ins are workspace
# members too, but they are not ours to format.
cargo fmt --check -p aegis-suite -p aegis -p aegis-attack -p aegis-bench \
    -p aegis-dp -p aegis-faults -p aegis-fuzzer -p aegis-isa -p aegis-microarch \
    -p aegis-obfuscator -p aegis-obs -p aegis-par -p aegis-perf -p aegis-profiler \
    -p aegis-sev -p aegis-workloads

echo "== cargo build --release --workspace =="
cargo build --release --workspace

# The vendored stand-ins for crates.io packages are not ours to test or
# lint (vendor/serde carries its own warning).
VENDORED="--exclude criterion --exclude proptest --exclude rand
    --exclude serde --exclude serde_derive --exclude serde_json"

echo "== cargo test -q =="
# The workspace's default members are the root package plus every
# first-party crate, so this runs each crate's own suite too. The
# lane-vs-scalar bit-exactness checks live in crates/microarch (lanes of
# wide batches vs one-lane Core twins) and
# crates/microarch/tests/engine_pin.rs (Core and batch sessions vs
# digests pinned on the engine with a separate scalar counter unit),
# crates/sev (recording proptests), crates/sev/tests/cycles_pin.rs
# (every core's cycle count through scripted host runs vs digests pinned
# before host ticks took the cycles-only path for unobserved cores),
# tests/profiler_probes.rs (probe lanes), crates/perf (one recorder over
# a core and a lane group), crates/aegis's unit tests (dataset and
# cross-tenant lanes vs their forks) and crates/aegis/tests/mea_pin.rs
# (MEA lanes vs digests pinned on the per-unit fork loop).
cargo test -q

echo "== cargo check --manifest-path benchmark/Cargo.toml =="
# benchmark/ is a workspace of its own, so the steps above never build
# it; check its calls against the current library API. Its committed
# lock file still lists crates the workspace has since dropped, and
# cargo rewrites it even offline, so a copy is put back afterwards and
# benchmark/ stays unmodified.
bench_lock=$(mktemp)
cp benchmark/Cargo.lock "$bench_lock"
trap 'cp "$bench_lock" benchmark/Cargo.lock; rm -f "$bench_lock"' EXIT
CARGO_TARGET_DIR=target/benchmark-check \
    cargo check --offline --manifest-path benchmark/Cargo.toml
cp "$bench_lock" benchmark/Cargo.lock
rm -f "$bench_lock"
trap - EXIT

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
# Tests, benches and examples are linted too, not just the libraries.
# shellcheck disable=SC2086
cargo clippy --workspace --all-targets $VENDORED -- -D warnings

echo "== RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps =="
# Public docs must resolve every intra-doc link and link no private item.
# shellcheck disable=SC2086
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps $VENDORED

echo "== fault matrix (AEGIS_FAULTS=smoke) =="
# The cross-crate fault-injection properties re-run under the moderate
# every-site smoke plan: supervised recovery paths (watchdog latching,
# slot re-programming, torn-artifact recompute) stay green with faults
# actually firing. The steps below re-run further named suites under the
# smoke plan; the rest of the unit suites see the ambient (fault-free)
# environment.
AEGIS_FAULTS=smoke cargo test -q --test fault_injection

echo "== profiler probe matrix (AEGIS_FAULTS=smoke) =="
# Probes recorded as lanes must stay bit-identical to the attach + record
# loop with the smoke plan ambient; the suite's hosts carry explicit
# plans, so this also proves nothing reads the ambient plan behind them.
AEGIS_FAULTS=smoke cargo test -q --test profiler_probes

echo "== recording pin (AEGIS_FAULTS=smoke) =="
# The scalar host recording path's pinned trace digests must not move
# with the smoke plan ambient: the recorder takes only the host's
# explicit plan, so this proves it reads no ambient plan.
AEGIS_FAULTS=smoke cargo test -q -p aegis-sev --test recording_pin

echo "== cycles pin (AEGIS_FAULTS=smoke) =="
# Per-core cycle counts and follow-up recordings of scripted hosts must
# not move with the smoke plan ambient: host ticks take the cycles-only
# path only on cores nothing observes, and the hosts carry explicit
# plans.
AEGIS_FAULTS=smoke cargo test -q -p aegis-sev --test cycles_pin

echo "== MEA collection pin (AEGIS_FAULTS=smoke) =="
# Model-extraction runs, recorded as lanes, must match the digests pinned
# on the per-unit fork loop with the smoke plan ambient. The file keeps a
# second digest column for this pass: its no-defense rows equal the first
# column, which proves recording reads only the host's explicit plan.
AEGIS_FAULTS=smoke cargo test -q -p aegis --test mea_pin

echo "== service matrix (AEGIS_FAULTS=smoke) =="
# The supervised service-plane properties (watchdog restart recovery,
# gapless hot reload, ε-ledger fail-closed exhaustion, cross-lifetime
# ledger persistence) re-run under the smoke plan so the service.* fault
# sites (health-flap, torn reload, ledger corruption) actually fire.
AEGIS_FAULTS=smoke cargo test -q --test service_plane

echo "== store matrix (AEGIS_FAULTS=smoke) =="
# The artifact-store contract suite re-runs under the smoke plan so the
# cache torn-write site actually fires on the populate step of the
# smoke sequence (populate → corrupt one page → heal → gc →
# bit-identical re-read), alongside the pinned binary layout, the
# fail-closed manifest, GC safety, and workspace-anchored cache paths.
AEGIS_FAULTS=smoke cargo test -q --test store_format

echo "== fleet matrix (AEGIS_FAULTS=smoke) =="
# The fleet-plane contracts (seeded chaos storms with fail-closed
# evacuation, clean-twin bit-equality of crashed and surviving hosts,
# zero reads of a crashed host through the lane-batched recorder,
# ε-ledger carry and quarantine across hosts, storm-schedule replay)
# re-run under the smoke plan. A fleet steps its live hosts in parallel
# on the worker pool; the determinism test storms one fleet with a
# ledger store at 1, 2 and 8 workers and compares the reports, the
# ledger record files byte for byte and the store journal's lines as a
# multiset. Every fleet passes an explicit FaultPlan into each of its
# hosts and service planes, so nothing in the suite sees the ambient
# plan: the simulated physics must not move.
AEGIS_FAULTS=smoke cargo test -q --test fleet_plane

echo "== observability matrix (AEGIS_FAULTS=smoke) =="
# Under the smoke plan injected faults write `fault` events into the run
# log, so the log must still validate against the golden schema (which
# lists the `fault` kind) and stay write-only.
AEGIS_FAULTS=smoke cargo test -q --test observability

echo "== artifact cache unit tests (AEGIS_FAULTS=smoke) =="
# The aegis-par suite re-runs with the cache torn-write site live: tests
# of torn writes arm it themselves, and tests whose property is defined
# without faults state FaultPlan::none(), so none leans on the ambient
# plan being off.
AEGIS_FAULTS=smoke cargo test -q -p aegis-par

echo "== parallel determinism (AEGIS_FAULTS=smoke) =="
# The determinism contract (any worker count, any AEGIS_OBS level, cold
# or warm cache) must hold with faults firing on the hosts; exact cache
# traffic is asserted on a cache that states a fault-free plan.
AEGIS_FAULTS=smoke cargo test -q --test parallel_determinism

echo "== ε-sweep unit tests (AEGIS_FAULTS=smoke) =="
# The ε-sweep resumes only through its artifact cache, so each run
# counts its own lookups whatever the ambient plan: a restarted sweep
# recomputes exactly what the cache misses.
AEGIS_FAULTS=smoke cargo test -q -p aegis --lib sweep::

echo "== obfuscator and host unit tests (AEGIS_FAULTS=smoke) =="
# Daemon and host properties that involve faults arm their own plans;
# those defined without faults (an inert plan matching a fault-free
# daemon, a torn reload against its clean twin, constant-output fill,
# a forced fail-closed latch released by a healthy injector) state
# FaultPlan::none(), so none leans on the ambient plan being off.
AEGIS_FAULTS=smoke cargo test -q -p aegis-obfuscator -p aegis-sev --lib

echo "== end-to-end defense (AEGIS_FAULTS=smoke) =="
# The flagship loop (attack succeeds undefended, the defense collapses
# it, overhead stays bounded) must hold with faults firing; the one
# test pinned to a fault-free seed (no covering gadget) states
# FaultPlan::none() for its host and pipeline.
AEGIS_FAULTS=smoke cargo test -q --test end_to_end_defense

echo "== deprecation lint (examples) =="
# Examples must stay on the current API surface: nothing we present as
# a usage model may lean on deprecated items. (The old collect_dataset /
# collect_mea_runs compatibility wrappers are gone entirely.)
cargo clippy --examples -- -D deprecated

echo "== bench smoke (AEGIS_BENCH_SMOKE=1) =="
# One iteration per bench workload, no criterion sampling: proves every
# bench harness still compiles and runs end to end without burning
# minutes. No bench writes, so the checked-in BENCH_*.json numbers are
# not rewritten; fleet_kernel (storm steps), parallel_scaling (one
# collection and one dnn ranking at 1 and at 2 workers) and
# measurement_kernel (one timed fuzzer run) build their rows and derived
# rates or speedup ratios through the writer and check them (no repeated
# (id, metric), no non-finite value), the others return before their
# writer runs. The canonical bench list is the [[bench]] section of the
# root Cargo.toml; --benches runs all of it.
AEGIS_BENCH_SMOKE=1 cargo bench -p aegis-suite --benches

echo "== bench baseline diff =="
# Fails if any BENCH_*.json in the working tree is out of the one row
# shape benches/common/mod.rs writes or repeats an (id, metric) pair.
# The smoke pass above never rewrites the files, so the comparison is of
# whatever numbers the working tree carries (freshly regenerated or
# untouched) against the committed baselines: every row whose unit is
# not ns fails when it moves more than 20% against its `better`
# direction. Raw ns rows are not compared; see scripts/bench_diff.sh.
./scripts/bench_diff.sh

echo "check.sh: all green"
