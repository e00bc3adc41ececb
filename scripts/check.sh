#!/usr/bin/env sh
# Tier-1 verification in one command: release build, full test suite,
# and lint-clean clippy. Run from the repository root:
#
#   ./scripts/check.sh
#
# This is what the verify workflow runs; keep it fast and deterministic.
set -eu

cd "$(dirname "$0")/.."

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
# crates/sev (recording proptests), tests/profiler_probes.rs (probe
# lanes), crates/perf (one recorder over a core and a lane group),
# crates/aegis's unit tests (dataset and cross-tenant lanes vs their
# forks) and crates/aegis/tests/mea_pin.rs (MEA lanes vs digests pinned
# on the per-unit fork loop).
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
# actually firing. Only this test binary runs under the smoke plan —
# unit suites always see the ambient (fault-free) environment.
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
# bit-identical re-read), alongside the pinned binary layout, legacy
# JSON migration, fail-closed manifest, and GC-safety properties.
AEGIS_FAULTS=smoke cargo test -q --test store_format

echo "== fleet matrix (AEGIS_FAULTS=smoke) =="
# The fleet-plane contracts (seeded chaos storms with fail-closed
# evacuation, clean-twin bit-equality of crashed and surviving hosts,
# ε-ledger carry and quarantine across hosts, storm-schedule replay at
# any worker count, checkpoint-resume of the policy × storm-seed sweep)
# re-run under the smoke plan. Fleets pass explicit FaultPlans into
# every host and sweep cell, so only the ArtifactCache checkpoint loops
# see the ambient plan: the simulated physics must not move.
AEGIS_FAULTS=smoke cargo test -q --test fleet_plane

echo "== deprecation lint (examples) =="
# Examples must stay on the current API surface: nothing we present as
# a usage model may lean on deprecated items. (The old collect_dataset /
# collect_mea_runs compatibility wrappers are gone entirely.)
cargo clippy --examples -- -D deprecated

echo "== bench smoke (AEGIS_BENCH_SMOKE=1) =="
# One iteration per bench workload, no criterion sampling: proves every
# bench harness still compiles and runs end to end without burning
# minutes. Does not rewrite the checked-in BENCH_*.json numbers. The
# canonical bench list is the [[bench]] section of the root Cargo.toml;
# --benches runs all of it.
AEGIS_BENCH_SMOKE=1 cargo bench -p aegis-suite --benches

echo "== bench baseline diff =="
# The smoke pass above never rewrites BENCH_*.json, so this compares
# whatever numbers the working tree carries (freshly regenerated or
# untouched) against the committed baselines and fails on any gated
# throughput/speedup metric regressing more than 20%. Raw *_ns medians
# are informational only; see scripts/bench_diff.sh.
./scripts/bench_diff.sh

echo "check.sh: all green"
