#!/bin/sh
# Tier-1 gate: build, full test suite, and lints (warnings are errors).
set -eux

# The tier-1 pair: the workspace's default members are every crate, so
# these build and test the whole workspace. `--locked` fails on a
# dependency edit instead of silently rewriting a lock file.
cargo build --release --offline --locked
cargo test -q --offline --locked
# The vendored shims are patched in, not workspace members: their own
# tests (rand's uniform sampler against its reference form among them)
# run by name.
cargo test -q --offline -p rand -p serde -p serde_json -p proptest
cargo clippy --all-targets --offline --workspace -- -D warnings
# Formatting: the workspace crates, src/, tests/ and examples/ stay
# rustfmt-clean (the vendored shims and benchmark/ are not members).
cargo fmt --all --check
# Rustdoc: every intra-doc link in the workspace resolves.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# The workload ledger's unit and smoke tests: every workload end to end at
# --scale 0.01, with all of its correctness checks.
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

# Exporter smoke: a quick experiment run must write a structurally valid
# Chrome trace and a JSON metrics snapshot.
EXPORT_DIR="$(mktemp -d)"
cargo run --release --offline -p mmr-bench --bin experiments -- \
  --quick --quiet --trace "$EXPORT_DIR/trace.json" \
  --metrics "$EXPORT_DIR/metrics.json" t1 thm62
# The trace must be JSON with a non-empty traceEvents array holding exactly
# one complete ("ph": "X") event per requested experiment.
python3 - "$EXPORT_DIR/trace.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert isinstance(events, list) and events, "traceEvents must be non-empty"
spans = sorted(e["name"] for e in events if e["ph"] == "X")
assert spans == ["t1", "thm62"], f"one span per experiment, got {spans}"
print(f"trace ok: {len(events)} events, spans {spans}")
EOF
# The metrics file must parse as the JSON snapshot and count one t1 run.
python3 - "$EXPORT_DIR/metrics.json" <<'EOF'
import json, sys
counters = {c["name"]: c["value"] for c in json.load(open(sys.argv[1]))["counters"]}
assert counters.get("exp.t1.runs") == 1, f"exp.t1.runs should be 1: {counters}"
print(f"metrics ok: {len(counters)} counters")
EOF
rm -rf "$EXPORT_DIR"

# Cross-thread-count determinism smoke: a seeded run of every experiment
# must emit identical structured results at --threads 1 and --threads 4
# once the timing/environment metadata (elapsed_secs, threads, host_cores,
# trials_per_sec) is filtered out — with telemetry collection live on both
# runs. The statistical diagnostics (mean, ci95, rse) stay in the diff.
DET_DIR="$(mktemp -d)"
cargo run --release --offline -p mmr-bench --bin experiments -- \
  --quick --seed 20110606 --threads 1 --json "$DET_DIR/t1.json" \
  --metrics "$DET_DIR/m1.json"
cargo run --release --offline -p mmr-bench --bin experiments -- \
  --quick --seed 20110606 --threads 4 --json "$DET_DIR/t4.json" \
  --metrics "$DET_DIR/m4.json"
grep -vE '"(elapsed_secs|threads|host_cores|trials_per_sec)":' "$DET_DIR/t1.json" > "$DET_DIR/t1.stripped"
grep -vE '"(elapsed_secs|threads|host_cores|trials_per_sec)":' "$DET_DIR/t4.json" > "$DET_DIR/t4.stripped"
diff "$DET_DIR/t1.stripped" "$DET_DIR/t4.stripped"
grep -q '"mc.runner.chunks_claimed"' "$DET_DIR/m4.json"
rm -rf "$DET_DIR"

# Metrics snapshot schema check: a full registry run with --metrics must
# emit every runner/pool/per-model counter (validated in-process), and
# METRICS.md must document every name such a run emits.
cargo test -q --offline -p mmr-bench --test metrics_schema
cargo test -q --offline -p mmr-bench --test metrics_doc

# Chaos smoke: a seeded fault-injection run (torn cache writes, the one
# recoverable fault) must recover to results bit-identical with a
# fault-free run, modulo timing metadata and the fault ledger. Each side
# writes a fresh cache directory, and the chaos run must really tear one,
# a write of thm61's and of thm63's shared-draw grids among them.
CHAOS_DIR="$(mktemp -d)"
cargo run --release --offline -p mmr-bench --bin experiments -- \
  --quick --seed 20110606 --cache "$CHAOS_DIR/clean-cache" \
  --json "$CHAOS_DIR/clean.json" lem42 thm61 thm62 thm63
cargo run --release --offline -p mmr-bench --bin experiments -- \
  --quick --seed 20110606 --cache "$CHAOS_DIR/chaos-cache" \
  --json "$CHAOS_DIR/chaos.json" --chaos 20110606:torn lem42 thm61 thm62 thm63
python3 - "$CHAOS_DIR/clean.json" "$CHAOS_DIR/chaos.json" <<'EOF2'
import json, sys
def strip(node):
    if isinstance(node, dict):
        for key in ("elapsed_secs", "threads", "host_cores", "trials_per_sec", "fault_ledger"):
            node.pop(key, None)
        for value in node.values():
            strip(value)
    elif isinstance(node, list):
        for value in node:
            strip(value)
clean, chaos = (json.load(open(p)) for p in sys.argv[1:3])
torn = sum(e["fault_ledger"]["injected_torn_writes"] for e in chaos["experiments"])
assert torn > 0, "the chaos plan tore no cache write"
for grid_id in ("thm61", "thm63"):
    grid = next(e for e in chaos["experiments"] if e["id"] == grid_id)
    assert grid["fault_ledger"]["injected_torn_writes"] > 0, f"no {grid_id} grid write was torn"
strip(clean); strip(chaos)
assert clean == chaos, "chaos run diverged from the fault-free run"
print(f"chaos smoke ok: {torn} torn write(s) recovered, results bit-identical")
EOF2
rm -rf "$CHAOS_DIR"

# Result-cache smoke: the same seeded experiment run against a --cache
# directory must be bit-identical cold (populating) and warm (served from
# the store), the warm run must actually hit (mc.cache.hits > 0 in its
# metrics snapshot) and miss nothing (thm61's and thm63's shared-draw
# grids included), a grown run must extend from the stored prefixes, and
# an unusable cache directory must degrade to an uncached run — results
# intact, typed warning, exit code 2 (the --metrics/--flight error
# contract).
CACHE_DIR="$(mktemp -d)"
cargo run --release --offline -p mmr-bench --bin experiments -- \
  --quick --seed 20110606 --cache "$CACHE_DIR/store" \
  --json "$CACHE_DIR/cold.json" lem42 thm61 thm62 thm63
cargo run --release --offline -p mmr-bench --bin experiments -- \
  --quick --seed 20110606 --cache "$CACHE_DIR/store" \
  --json "$CACHE_DIR/warm.json" --metrics "$CACHE_DIR/warm_metrics.json" lem42 thm61 thm62 thm63
grep -vE '"(elapsed_secs|threads|host_cores|trials_per_sec)":' "$CACHE_DIR/cold.json" > "$CACHE_DIR/cold.stripped"
grep -vE '"(elapsed_secs|threads|host_cores|trials_per_sec)":' "$CACHE_DIR/warm.json" > "$CACHE_DIR/warm.stripped"
diff "$CACHE_DIR/cold.stripped" "$CACHE_DIR/warm.stripped"
python3 - "$CACHE_DIR/warm_metrics.json" <<'EOF2'
import json, sys
counters = {c["name"]: c["value"] for c in json.load(open(sys.argv[1]))["counters"]}
assert counters.get("mc.cache.hits", 0) > 0, f"warm run produced no cache hits: {counters}"
assert counters.get("mc.cache.errors", 0) == 0, f"cache errors on a healthy store: {counters}"
assert counters.get("mc.cache.misses", 0) == 0, f"a warm request missed (a shared-draw grid?): {counters}"
print(f"cache smoke ok: {counters['mc.cache.hits']} hits, {counters.get('mc.cache.misses', 0)} misses")
EOF2
# A grown pass: a third process at twice --quick's 10,000 trials must
# resume every request from the prefixes the cold process stored
# (extends only: no miss, no error), and match an uncached run.
cargo run --release --offline -p mmr-bench --bin experiments -- \
  --trials 20000 --seed 20110606 --cache "$CACHE_DIR/store" \
  --json "$CACHE_DIR/grown.json" --metrics "$CACHE_DIR/grown_metrics.json" lem42 thm61 thm62 thm63
cargo run --release --offline -p mmr-bench --bin experiments -- \
  --trials 20000 --seed 20110606 \
  --json "$CACHE_DIR/uncached_grown.json" lem42 thm61 thm62 thm63
grep -vE '"(elapsed_secs|threads|host_cores|trials_per_sec)":' "$CACHE_DIR/grown.json" > "$CACHE_DIR/grown.stripped"
grep -vE '"(elapsed_secs|threads|host_cores|trials_per_sec)":' "$CACHE_DIR/uncached_grown.json" > "$CACHE_DIR/uncached_grown.stripped"
diff "$CACHE_DIR/grown.stripped" "$CACHE_DIR/uncached_grown.stripped"
python3 - "$CACHE_DIR/grown_metrics.json" <<'EOF2'
import json, sys
counters = {c["name"]: c["value"] for c in json.load(open(sys.argv[1]))["counters"]}
assert counters.get("mc.cache.extends", 0) > 0, f"grown run extended nothing: {counters}"
assert counters.get("mc.cache.misses", 0) == 0, f"a grown request missed: {counters}"
assert counters.get("mc.cache.errors", 0) == 0, f"cache errors on a healthy store: {counters}"
print(f"grown cache smoke ok: {counters['mc.cache.extends']} extends")
EOF2
CACHE_RC=0
cargo run --release --offline -p mmr-bench --bin experiments -- \
  --quick --seed 20110606 --cache "$CACHE_DIR/cold.json/not-a-dir" \
  --json "$CACHE_DIR/degraded.json" lem42 thm61 thm62 thm63 \
  2> "$CACHE_DIR/degraded.log" || CACHE_RC=$?
test "$CACHE_RC" -eq 2
grep -q "result cache disabled" "$CACHE_DIR/degraded.log"
grep -vE '"(elapsed_secs|threads|host_cores|trials_per_sec)":' "$CACHE_DIR/degraded.json" > "$CACHE_DIR/degraded.stripped"
diff "$CACHE_DIR/cold.stripped" "$CACHE_DIR/degraded.stripped"
rm -rf "$CACHE_DIR"

# Flight-recorder smoke: a seeded chaos run (torn cache writes) mirrored
# with --flight must be reconstructible offline — `inspect` parses the log
# into a non-empty timeline — and diffing it against its fault-free twin
# must report zero payload divergence (faults perturb the schedule, never
# the result). Each side writes a fresh cache directory. An unwritable
# --flight path degrades to a warning plus exit code 2 with results
# intact.
FLIGHT_DIR="$(mktemp -d)"
cargo run --release --offline -p mmr-bench --bin experiments -- \
  --quick --seed 20110606 --threads 1 --json "$FLIGHT_DIR/clean.json" \
  --cache "$FLIGHT_DIR/clean-cache" --flight "$FLIGHT_DIR/clean.flight" lem42 thm62
cargo run --release --offline -p mmr-bench --bin experiments -- \
  --quick --seed 20110606 --threads 1 --json "$FLIGHT_DIR/chaos.json" \
  --cache "$FLIGHT_DIR/chaos-cache" --flight "$FLIGHT_DIR/chaos.flight" \
  --chaos 20110606:torn --dossier-dir "$FLIGHT_DIR/dossiers" lem42 thm62
python3 - "$FLIGHT_DIR/chaos.json" <<'EOF2'
import json, sys
chaos = json.load(open(sys.argv[1]))
torn = sum(e["fault_ledger"]["injected_torn_writes"] for e in chaos["experiments"])
assert torn > 0, "the chaos plan tore no cache write"
print(f"flight chaos run: {torn} torn write(s)")
EOF2
cargo run --release --offline -p mmr-bench --bin experiments -- \
  inspect "$FLIGHT_DIR/chaos.flight" > "$FLIGHT_DIR/inspect.txt"
grep -q "flight timeline: " "$FLIGHT_DIR/inspect.txt"
grep -q "chunk_claimed" "$FLIGHT_DIR/inspect.txt"
cargo run --release --offline -p mmr-bench --bin experiments -- \
  inspect "$FLIGHT_DIR/chaos.flight" --diff "$FLIGHT_DIR/clean.flight" \
  > "$FLIGHT_DIR/diff.txt"
grep -q "payload divergence: 0" "$FLIGHT_DIR/diff.txt"
FLIGHT_RC=0
cargo run --release --offline -p mmr-bench --bin experiments -- \
  --quick --seed 20110606 --threads 1 --json "$FLIGHT_DIR/degraded.json" \
  --flight "$FLIGHT_DIR/clean.json/not-a-file" lem42 thm62 \
  2> "$FLIGHT_DIR/degraded.log" || FLIGHT_RC=$?
test "$FLIGHT_RC" -eq 2
grep -q "flight" "$FLIGHT_DIR/degraded.log"
grep -vE '"(elapsed_secs|threads|host_cores|trials_per_sec)":' "$FLIGHT_DIR/clean.json" > "$FLIGHT_DIR/clean.stripped"
grep -vE '"(elapsed_secs|threads|host_cores|trials_per_sec)":' "$FLIGHT_DIR/degraded.json" > "$FLIGHT_DIR/degraded.stripped"
diff "$FLIGHT_DIR/clean.stripped" "$FLIGHT_DIR/degraded.stripped"
rm -rf "$FLIGHT_DIR"

# Size, informational only (no gate): non-test Rust lines of the
# workspace, counting each file up to its first `#[cfg(test)]`.
find crates/*/src crates/*/examples src examples -name '*.rs' | sort |
  xargs awk '/^[[:space:]]*#\[cfg\(test\)\]/{skip[FILENAME]=1} !skip[FILENAME]{n++} END{print "non-test Rust lines:", n}'
