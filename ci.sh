#!/usr/bin/env bash
# Local CI gate, split into named, individually timed stages.
#
#   ./ci.sh                    run every stage in order
#   ./ci.sh --quick            short inner-loop profile: fmt clippy build test
#   ./ci.sh --from <name>      resume a full run at <name> (skip earlier stages)
#   ./ci.sh --stage <name>     run a single stage
#   ./ci.sh --list             list the stage names
#
# Every stage must pass; a run stops at the first failure and ends with a
# per-stage timing table. Multi-stage runs also write the table as
# `ci_timings.json` (schema `lph-ci/1`, checked by `bench-gate
# --validate-ci`) so stage-cost drift is machine-readable.
set -euo pipefail
cd "$(dirname "$0")"

STAGES=(fmt clippy build test compile sat serve e2ebench lint analyze doc trace-smoke bench-smoke bench-gate)
QUICK_STAGES=(fmt clippy build test)

stage_fmt() { cargo fmt --all -- --check; }

stage_clippy() { cargo clippy --workspace --all-targets -- -D warnings; }

stage_build() { cargo build --release; }

stage_test() { cargo test -q --workspace; }

# Compilation-tier health: the bytecode VM and the sentence plan compiler
# are pinned to their interpreters by differential suites (corpus
# machines/sentences plus seeded random tables and sentences), the
# workspace-root gate re-checks the corpus bit for bit with `Auto`
# routing held deterministic, and the experiments binary replays a quick
# interpreted-vs-compiled agreement sweep end to end.
stage_compile() {
  cargo test -q -p lph-machine --test bytecode_differential
  cargo test -q -p lph-logic --test compiled_differential
  cargo test -q --test backend_equivalence
  cargo run --release --bin experiments -- --compile-smoke
}

# SAT backend health: the CDCL-vs-exhaustive differential suite (which
# now replays every logged refutation through the independent RUP
# checker and proves mutated proofs are rejected), then a solver smoke
# through the experiments binary. The smoke is also the proof-check
# gate: its C61 refutation asserts `RefutationEvidence::Checked`, so an
# `Unchecked` verdict anywhere on that path fails this stage.
stage_sat() {
  cargo test -q -p lph-sat --test differential
  cargo run --release --bin experiments -- --sat-smoke
}

# Serving health: the protocol edge-case suite, then PROTOCOL.md's two
# session transcripts replayed against a live stdio-mode server — the
# docs are executable fixtures. Each ```transcript block names its
# server flags on the `$` line; `C:` lines are piped in and the output
# is diffed byte for byte against the `S:` lines.
stage_serve() {
  cargo test -q -p lph-serve
  cargo build --release --bin lph-serve
  mkdir -p target
  rm -f target/transcript_*
  awk '/^```transcript$/{n++; f=sprintf("target/transcript_%d.txt", n); keep=1; next}
       /^```$/{keep=0} keep{print > f}' PROTOCOL.md
  local count=0 block flags
  for block in target/transcript_*.txt; do
    [[ -e "$block" ]] || break
    count=$((count + 1))
    flags=$(sed -n '1s/^\$ lph-serve //p' "$block")
    sed -n 's/^C: //p' "$block" >"$block.in"
    sed -n 's/^S: //p' "$block" >"$block.expected"
    # shellcheck disable=SC2086
    ./target/release/lph-serve $flags <"$block.in" >"$block.actual"
    if ! diff -u "$block.expected" "$block.actual"; then
      echo "serve: transcript $count diverges from PROTOCOL.md" >&2
      return 1
    fi
    echo "serve: transcript $count ok ($(wc -l <"$block.expected") responses)"
  done
  if [[ $count -lt 2 ]]; then
    echo "serve: expected at least 2 transcripts in PROTOCOL.md, found $count" >&2
    return 1
  fi
  rm -f target/transcript_*
}

# The end-to-end benchmark (`lphbench/`, its own Cargo workspace using
# the repo crates by path) must still build and pass its generator tests,
# so a refactor of a public API it calls fails here rather than in a
# later benchmark run.
stage_e2ebench() {
  cargo build --release --offline --manifest-path lphbench/Cargo.toml
  cargo test -q --offline --manifest-path lphbench/Cargo.toml
}

stage_lint() { cargo run --release --bin lph-lint -- --deny warnings; }

# Deep mode: the syntactic rules plus the semantic dataflow tier
# (machine reachability + certified bounds, sentence level/radius
# inference, reduction size-flow).
stage_analyze() { cargo run --release --bin lph-lint -- --analyze --deny warnings; }

stage_doc() { RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet; }

# Runs the whole experiment suite with the lph-trace recorder enabled,
# validates the emitted lph-trace/1 document, and greps the user-facing
# docs for references to registry dependencies the hermetic workspace no
# longer has (they were replaced by the seeded-XorShift suites and the
# lph-bench shim) and to deleted APIs and trace names (the par_find_first
# and par_reduce entry points, EvalBackend, the DPLL solver, the pool's
# queue counters, the per-request unverified-bytecode refusal, the batch
# threshold and its --min-parallel flag, the CDCL restart/decay knobs);
# naming any of them in the docs is a doc rot bug.
stage_trace_smoke() {
  local out="$PWD/trace_smoke.json"
  rm -f "$out"
  cargo run --release --bin experiments -- --trace-out "$out" >/dev/null
  cargo run --release --bin bench-gate -- --validate-trace "$out"
  rm -f "$out"
  local banned
  if banned=$(grep -inE 'criterion|proptest|par_find_first|par_reduce|EvalBackend|dpll_sat|queue_depth|pool/waits|unverified_bytecode|bytecode_findings|admit_compiled|par_map_threshold|min-parallel|min_parallel|restart_unit|var_decay' \
    README.md EXPERIMENTS.md PROTOCOL.md DESIGN.md); then
    echo "trace-smoke: stale references in the docs:" >&2
    echo "$banned" >&2
    return 1
  fi
  echo "trace-smoke: docs are free of stale references"
}

# Runs every bench with a tiny sample count purely to prove the harness
# and the emitted JSON stay healthy; timings from this stage are noise.
# LPH_BENCH_OUT must be absolute: `cargo bench` runs each bench binary
# with the package directory (crates/bench) as its working directory.
stage_bench_smoke() {
  rm -f BENCH_results.json
  LPH_BENCH_SAMPLES=2 LPH_BENCH_OUT="$PWD/BENCH_results.json" \
    cargo bench -p lph-bench
  cargo run --release --bin bench-gate -- --validate BENCH_results.json
  # Load-bearing series must keep emitting: sat_proof is the only
  # measurement of checker cost and logging overhead, and the two
  # *_compiled groups carry the interpreted-vs-compiled pairs the
  # compilation tier's speedup claims rest on.
  # serve_throughput carries the serving-layer seq/par × cache-on/off
  # quadrant the ROADMAP's batching and memoization claims rest on.
  # bytecode_verify prices the translation-validation tier compiled
  # admission trusts. sat_games is the only microbench of the CDCL
  # backend's locality-table build.
  local series
  for series in '"group":"sat_proof"' '"group":"machine_compiled"' '"group":"logic_compiled"' '"group":"serve_throughput"' '"group":"bytecode_verify"' '"group":"sat_games"'; do
    if ! grep -q "$series" BENCH_results.json; then
      echo "bench-smoke: $series series missing from BENCH_results.json" >&2
      return 1
    fi
  done
}

# Compares the results bench-smoke just emitted against the committed
# baseline. No internal retry: rerunning the whole bench harness here
# doubled the cost of every full CI run, and the comparison already
# absorbs runner noise through spin calibration, the 250µs absolute
# floor, and the thread-count warning — a failure that survives all
# three is a real cliff and should fail loudly.
stage_bench_gate() { ./ci_bench_gate.sh; }

run_stage() {
  local name="$1"
  local fn="stage_${name//-/_}"
  if ! declare -F "$fn" >/dev/null; then
    echo "ci: unknown stage '$name' (try --list)" >&2
    exit 2
  fi
  echo "==> stage: $name"
  local t0=$SECONDS
  "$fn"
  local dt=$((SECONDS - t0))
  SUMMARY+=("$(printf '%-12s %4ds' "$name" "$dt")")
  TIMED_NAMES+=("$name")
  TIMED_SECS+=("$dt")
  echo "<== stage: $name ok (${dt}s)"
}

# Writes the timing table of a multi-stage run as `ci_timings.json` and
# re-reads it through the schema validator, so the document the next
# tool consumes is the one this run actually produced.
emit_timings() {
  local profile="$1" out="$PWD/ci_timings.json"
  {
    printf '{"schema":"lph-ci/1","profile":"%s","stages":[' "$profile"
    local i
    for i in "${!TIMED_NAMES[@]}"; do
      [[ $i -gt 0 ]] && printf ','
      printf '{"name":"%s","seconds":%d}' "${TIMED_NAMES[$i]}" "${TIMED_SECS[$i]}"
    done
    printf ']}\n'
  } >"$out"
  cargo run --release --quiet --bin bench-gate -- --validate-ci "$out"
}

run_profile() {
  local profile="$1"
  shift
  for s in "$@"; do run_stage "$s"; done
  emit_timings "$profile"
}

SUMMARY=()
TIMED_NAMES=()
TIMED_SECS=()
case "${1:-}" in
  --list)
    printf '%s\n' "${STAGES[@]}"
    exit 0
    ;;
  --stage)
    [[ $# -eq 2 ]] || { echo "ci: --stage needs exactly one name" >&2; exit 2; }
    run_stage "$2"
    ;;
  --quick)
    run_profile quick "${QUICK_STAGES[@]}"
    ;;
  --from)
    [[ $# -eq 2 ]] || { echo "ci: --from needs exactly one stage name" >&2; exit 2; }
    REST=()
    seen=0
    for s in "${STAGES[@]}"; do
      [[ "$s" == "$2" ]] && seen=1
      [[ $seen -eq 1 ]] && REST+=("$s")
    done
    if [[ $seen -eq 0 ]]; then
      echo "ci: unknown stage '$2' (try --list)" >&2
      exit 2
    fi
    run_profile "from-$2" "${REST[@]}"
    ;;
  "")
    run_profile full "${STAGES[@]}"
    ;;
  *)
    echo "usage: ./ci.sh [--quick | --from <stage> | --stage <name> | --list]" >&2
    exit 2
    ;;
esac

echo
echo "stage summary:"
printf '  %s\n' "${SUMMARY[@]}"
echo "ci: all checks passed"
