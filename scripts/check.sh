#!/usr/bin/env bash
# CI correctness driver: build + test under ASan/UBSan with runtime contracts
# enabled, gate the fault-injection and checkpoint-store suites, lint the
# scenario files, smoke the train/inspect workflow, vet the parallel sweep
# engine and the fleet service under TSan, then run the project lint and
# (when available) clang-tidy. Any finding fails the script. See
# docs/ANALYSIS.md.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

echo "== [1/14] configure (preset: asan-ubsan) =="
cmake --preset asan-ubsan

echo "== [2/14] build =="
cmake --build --preset asan-ubsan -j "${JOBS}"

echo "== [3/14] ctest (ASan+UBSan, RLTHERM_CHECKED=ON) =="
ctest --preset asan-ubsan -j "${JOBS}"

echo "== [4/14] fault suite gate (ctest -L faults) + scenario lint =="
# The full run above includes these, but gate on the label explicitly so a
# test-registration regression (lost LABELS faults) fails loudly instead of
# silently shrinking coverage. -L with no matching tests exits zero, hence
# the -N count check.
FAULT_COUNT="$(ctest --preset asan-ubsan -L faults -N | sed -n 's/^Total Tests: //p')"
if [ "${FAULT_COUNT:-0}" -eq 0 ]; then
  echo "no tests carry the 'faults' label; the fault suite gate is vacuous"
  exit 1
fi
ctest --preset asan-ubsan -L faults -j "${JOBS}"
./build-asan-ubsan/tools/rltherm_cli faults --lint --scenarios scenarios

echo "== [5/14] store suite gate (ctest -L store) =="
# Same vacuity guard as the fault gate: the corruption property tests MUST
# execute under the sanitizers, so a lost 'store' label fails the script.
STORE_COUNT="$(ctest --preset asan-ubsan -L store -N | sed -n 's/^Total Tests: //p')"
if [ "${STORE_COUNT:-0}" -eq 0 ]; then
  echo "no tests carry the 'store' label; the checkpoint-store gate is vacuous"
  exit 1
fi
ctest --preset asan-ubsan -L store -j "${JOBS}"

echo "== [6/14] thermal equivalence gate (ctest -L thermal) =="
# The RC step-kernel property suite (lumped bit-identity to the dense
# oracle, the RK4 and steady-state bounds on random grids, the wrong-weight
# canary, cache semantics) MUST execute under the sanitizers; a lost
# 'thermal' label fails the script like the fault and store gates.
THERMAL_COUNT="$(ctest --preset asan-ubsan -L thermal -N | sed -n 's/^Total Tests: //p')"
if [ "${THERMAL_COUNT:-0}" -eq 0 ]; then
  echo "no tests carry the 'thermal' label; the step-kernel equivalence gate is vacuous"
  exit 1
fi
ctest --preset asan-ubsan -L thermal -j "${JOBS}"

echo "== [7/14] allocation-free tick gate (ctest -L alloc) =="
# The counting-operator-new test pins zero heap allocations per steady-state
# Machine::tick and WorkloadDriver::tick, the driver in each mode:
# sequential, replicated at degrees 1-3 and concurrent. Same vacuity guard
# as the other label gates: a lost 'alloc' label fails the script.
ALLOC_COUNT="$(ctest --preset asan-ubsan -L alloc -N | sed -n 's/^Total Tests: //p')"
if [ "${ALLOC_COUNT:-0}" -eq 0 ]; then
  echo "no tests carry the 'alloc' label; the allocation-free tick gate is vacuous"
  exit 1
fi
ctest --preset asan-ubsan -L alloc -j "${JOBS}"

echo "== [8/14] resilience gate (ctest -L resil) + acceptance campaign =="
# Same vacuity guard as the other label gates: every taint/merge path and
# checkpoint decode in the resilience suite MUST execute under the
# sanitizers, so a lost 'resil' label fails the script.
RESIL_COUNT="$(ctest --preset asan-ubsan -L resil -N | sed -n 's/^Total Tests: //p')"
if [ "${RESIL_COUNT:-0}" -eq 0 ]; then
  echo "no tests carry the 'resil' label; the resilience gate is vacuous"
  exit 1
fi
ctest --preset asan-ubsan -L resil -j "${JOBS}"

# The acceptance criteria, re-asserted on the bench's own JSON so the
# report the repo publishes and the gate the CI enforces can never
# disagree: learned replication must beat the supervisor-only arm on
# delivered work AND cycling MTTF at <= 15% energy overhead. The sanitizer
# preset builds no benches (RLTHERM_BUILD_BENCH=OFF), so like the perf gate
# this runs the plain optimized bench — the ctest suite above already ran
# the identical campaign lanes under ASan/UBSan.
cmake -S . -B build >/dev/null
cmake --build build -j "${JOBS}" --target bench_resilience
RESIL_TMP="$(mktemp /tmp/rltherm_resilience.XXXXXX.json)"
trap 'rm -f "${RESIL_TMP}"' EXIT
./build/bench/bench_resilience --jobs 2 --scenarios . \
  --json "${RESIL_TMP}" >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "${RESIL_TMP}" <<'PY'
import json, sys
path = sys.argv[1]
doc = json.load(open(path))
for key in ("delivered_supervisor", "delivered_replication", "mttf_supervisor",
            "mttf_replication", "energy_ratio"):
    if key not in doc:
        sys.exit(f"{path}: missing acceptance key '{key}'")
if not doc["delivered_replication"] > doc["delivered_supervisor"]:
    sys.exit(f"{path}: replication delivered {doc['delivered_replication']} "
             f"<= supervisor {doc['delivered_supervisor']}")
if not doc["mttf_replication"] > doc["mttf_supervisor"]:
    sys.exit(f"{path}: replication cycling MTTF {doc['mttf_replication']} "
             f"<= supervisor {doc['mttf_supervisor']}")
if not doc["energy_ratio"] <= 1.15:
    sys.exit(f"{path}: energy overhead {doc['energy_ratio']:.4f} exceeds 1.15")
print(f"resilience acceptance: delivered {doc['delivered_supervisor']:.0f} -> "
      f"{doc['delivered_replication']:.0f}, cycling MTTF "
      f"{doc['mttf_supervisor']:.4f} -> {doc['mttf_replication']:.4f} y, "
      f"energy ratio {doc['energy_ratio']:.4f} <= 1.15")
PY
else
  echo "python3 not found on PATH; the ctest acceptance suite above already gated the campaign."
fi

echo "== [9/14] concurrency + fleet tests under TSan (ctest -L concurrency, -L serve) =="
# Fleet tenants run core::Simulation on the service's pool workers, so the
# serve suite runs under TSan next to the parallel-execution tests. Same
# vacuity guard as the other label gates: a lost label fails the script.
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "${JOBS}" \
  --target rltherm_concurrency_tests rltherm_serve_tests
for LABEL in concurrency serve; do
  TSAN_COUNT="$(ctest --preset tsan -L "${LABEL}" -N | sed -n 's/^Total Tests: //p')"
  if [ "${TSAN_COUNT:-0}" -eq 0 ]; then
    echo "no tests carry the '${LABEL}' label under tsan; the TSan gate is vacuous"
    exit 1
  fi
  ctest --preset tsan -L "${LABEL}" -j "${JOBS}"
done

echo "== [10/14] events-JSONL smoke (rltherm_cli --events) =="
EVENTS_TMP="$(mktemp /tmp/rltherm_events.XXXXXX.jsonl)"
trap 'rm -f "${EVENTS_TMP}" "${RESIL_TMP}"' EXIT
./build-asan-ubsan/tools/rltherm_cli run --app mpeg_dec --policy linux-ondemand \
  --events "${EVENTS_TMP}" >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "${EVENTS_TMP}" <<'PY'
import json, sys
path = sys.argv[1]
count = 0
with open(path) as fh:
    for lineno, line in enumerate(fh, 1):
        try:
            json.loads(line)
        except ValueError as err:
            sys.exit(f"{path}:{lineno}: invalid JSONL: {err}")
        count += 1
if count == 0:
    sys.exit(f"{path}: event log is empty")
print(f"events-JSONL smoke: {count} valid lines")
PY
else
  test -s "${EVENTS_TMP}" || { echo "event log is empty"; exit 1; }
  echo "python3 not found on PATH; checked the event log is non-empty only."
fi

echo "== [11/14] checkpoint train/inspect smoke (rltherm_cli train + inspect --json) =="
CKPT_TMP="$(mktemp -d /tmp/rltherm_ckpt.XXXXXX)"
trap 'rm -f "${EVENTS_TMP}" "${RESIL_TMP}"; rm -rf "${CKPT_TMP}"' EXIT
printf '[runner]\nmax_sim_time = 400\nanalysis_warmup = 10\nanalysis_cooldown = 5\n\n[manager]\nsampling_interval = 0.5\ndecision_epoch = 2.0\n' \
  > "${CKPT_TMP}/tiny.ini"
./build-asan-ubsan/tools/rltherm_cli train --config "${CKPT_TMP}/tiny.ini" \
  --out "${CKPT_TMP}/policy.ckpt" >/dev/null
if command -v python3 >/dev/null 2>&1; then
  ./build-asan-ubsan/tools/rltherm_cli inspect "${CKPT_TMP}/policy.ckpt" --json \
    > "${CKPT_TMP}/inspect.json"
  python3 - "${CKPT_TMP}/inspect.json" <<'PY'
import json, sys
with open(sys.argv[1]) as fh:
    doc = json.load(fh)
for key in ("format_version", "fingerprint", "states", "sections"):
    if key not in doc:
        sys.exit(f"inspect --json: missing key '{key}'")
if not doc["sections"]:
    sys.exit("inspect --json: no sections reported")
print(f"checkpoint smoke: {len(doc['sections'])} sections, "
      f"fingerprint {doc['fingerprint']}")
PY
else
  ./build-asan-ubsan/tools/rltherm_cli inspect "${CKPT_TMP}/policy.ckpt" >/dev/null
  echo "python3 not found on PATH; checked inspect runs only."
fi

echo "== [12/14] static analysis =="
# Gate on the committed baseline: pre-existing findings are inventoried in
# tools/lint_baseline.json, anything NEW fails. --json so the finding list
# is machine-readable in CI logs; stale-baseline notes land on stderr.
./build-asan-ubsan/tools/rltherm_lint --json \
  --baseline tools/lint_baseline.json .

# Canary self-test: seed a violation and require the gate to catch it. A
# lint that exits zero on a fresh std::rand() in src/ has failed open (bad
# build, empty scan set, over-wide baseline) — that must fail the script.
CANARY="src/common/lint_canary_delete_me.cpp"
trap 'rm -f "${EVENTS_TMP}" "${CANARY}" "${RESIL_TMP}"; rm -rf "${CKPT_TMP}"' EXIT
printf 'int canary() { return std::rand(); } // 273.15\n' > "${CANARY}"
if ./build-asan-ubsan/tools/rltherm_lint \
    --baseline tools/lint_baseline.json . >/dev/null 2>&1; then
  echo "lint canary FAILED: a seeded std::rand() in src/ was not flagged"
  exit 1
fi
rm -f "${CANARY}"
echo "lint canary: seeded violation caught as expected"

if command -v run-clang-tidy >/dev/null 2>&1; then
  run-clang-tidy -quiet -p build-asan-ubsan "^$(pwd)/(src|tools)/"
elif command -v clang-tidy >/dev/null 2>&1; then
  # Fall back to serial clang-tidy over the library sources.
  find src tools -name '*.cpp' -print0 |
    xargs -0 -n 1 clang-tidy -quiet -p build-asan-ubsan --warnings-as-errors='*'
else
  echo "clang-tidy not found on PATH; skipping (rltherm_lint still ran)."
fi

echo "== [13/14] perf gate (bench_micro_kernels --json vs committed baseline) =="
# Timing happens on the PLAIN optimized build — sanitizer trees distort
# every number (the fingerprint check below refuses them anyway).
cmake -S . -B build >/dev/null
cmake --build build -j "${JOBS}" --target bench_micro_kernels
if ! command -v python3 >/dev/null 2>&1; then
  echo "python3 not found on PATH; the perf gate cannot run"
  exit 1
fi

PERF_TMP="$(mktemp /tmp/rltherm_bench_micro.XXXXXX.json)"
PERF_NOCACHE_TMP="$(mktemp /tmp/rltherm_bench_nocache.XXXXXX.json)"
trap 'rm -f "${EVENTS_TMP}" "${CANARY}" "${RESIL_TMP}" "${PERF_TMP}" "${PERF_NOCACHE_TMP}"; rm -rf "${CKPT_TMP}"' EXIT
PERF_BENCH=(./build/bench/bench_micro_kernels --reps 7)
"${PERF_BENCH[@]}" --json "${PERF_TMP}" >/dev/null
RLTHERM_EXPOP_CACHE=0 ./build/bench/bench_micro_kernels --json "${PERF_NOCACHE_TMP}" \
  --reps 5 >/dev/null

# The step-kernel ratios compare lanes of one run and need no baseline. The
# lane gate compares reference-normalized times, so a host's speed drift
# cancels; a host of another kind may still need a re-record (see
# docs/ARCHITECTURE.md "Baseline refresh workflow").
#
# Lane gate (cached report only): each lane's per_ref, the median over its
# reps of the rep's time in units of perfbench's reference computation timed
# right before it, must not be more than 30% above the same lane in the
# committed baseline.
# A lane over that floor is re-measured by a fresh bench run, up to 3 runs
# in all, and fails if it is over the floor in every run: a slow phase of a
# shared host slows the lanes more than the reference, for seconds at a
# time, while a real regression shows in every run. The baseline must come
# from the same kind of build (build_type, checked, sanitizers) and hold
# exactly the fresh lane set, so a lost lane or an ungated new one fails;
# the one exception is the AVX2 lane on a host without AVX2. Canary
# self-test: the same comparison with every lane's best run made 3x slower
# must flag every lane. A gate that passes a 3x slowdown on any lane has
# failed open (stale baseline, lost normalization).
#
# Step-kernel gate: in the same run, the packed kernel (rc_step_grid64_leaky)
# must beat the dense two-matvec reference (rc_step_grid64_reference) by
# >= 2x on the 64-cell grid with leaky power that changes every tick, with
# the exp-operator cache actually exercised (hits > 0). The baseline entry
# point (rc_step_grid64_baseline) must beat the reference by >= 2x too, so
# that claim never rests on the wide path alone; where step() dispatches to
# a wide kernel ("step_kernel": "avx2" or "avx512"), it must beat the
# baseline by >= 1.3x, and so must the AVX2 entry point
# (rc_step_grid64_avx2), so it stays gated on an AVX-512 host. The report
# taken with the cache disabled via RLTHERM_EXPOP_CACHE=0 must show
# hits == 0 AND the same 2x ratios — proving the kernel cannot fail open
# into stale cached operators, and that its win is the kernel, not the
# cache. The wide-over-baseline ratios are only printed there: all lanes
# prepare the same operator the same way, so the cache cannot favour any,
# and with it off every rep of every lane also pays a cold prepare, which
# dilutes the ratio. Over 10 runs on a 4-vCPU Xeon with the vectorized cold
# build it read 1.84-2.34 (AVX-512) and 1.53-1.95 (AVX2) with the cache off,
# against 1.95-2.76 and 1.92-2.41 with it on; before that build, a cold
# prepare held the cache-off ratio at 1.41-1.47.
check_perf() {
  python3 - "$1" "$2" bench/baselines/BENCH_micro.json "${@:3}" <<'PY'
import json, subprocess, sys, tempfile
path, mode, baseline_path, bench = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
FLOOR = 0.30  # a lane fails when its per_ref is more than 30% above baseline
RUNS = 3      # bench runs a lane gets before it fails
CANARY = 3.0  # the self-test's artificial slowdown
doc = json.load(open(path))
kernels = {k["name"]: k for k in doc["kernels"]}
for name in ("rc_step_grid64_reference", "rc_step_grid64_leaky",
             "rc_step_grid64_baseline", "rc_prepare_grid64_cold",
             "rc_prepare_grid64_warm"):
    if name not in kernels:
        sys.exit(f"{path}: kernel '{name}' missing from the report")
    if kernels[name].get("ops_per_sec", 0.0) <= 0.0:
        sys.exit(f"{path}: kernel '{name}' reports no ops_per_sec")

if mode == "cached":
    base = json.load(open(baseline_path))
    old = {k["name"]: k for k in base["kernels"]}
    if base["fingerprint"]["cpu_model"] != doc["fingerprint"]["cpu_model"]:
        print(f"note: baseline recorded on {base['fingerprint']['cpu_model']!r}, "
              f"this host is {doc['fingerprint']['cpu_model']!r}")

    def lane_ratios(report, where):
        """Each lane's per_ref over the baseline's, once the two compare."""
        if base.get("schema_version") != report.get("schema_version"):
            sys.exit(f"{baseline_path}: schema_version {base.get('schema_version')} "
                     f"!= {report.get('schema_version')} in {where}; re-record the baseline")
        for key in ("build_type", "checked", "sanitizers"):
            if base["fingerprint"][key] != report["fingerprint"][key]:
                sys.exit(f"not comparable: baseline {key}={base['fingerprint'][key]!r}, "
                         f"fresh {key}={report['fingerprint'][key]!r}")
        lanes = {k["name"]: k for k in report["kernels"]}
        expected = set(old)
        if report.get("step_kernel") == "baseline":
            expected.discard("rc_step_grid64_avx2")
        missing = sorted(expected - set(lanes))
        unbaselined = sorted(set(lanes) - set(old))
        if missing or unbaselined:
            sys.exit(f"lane set differs from {baseline_path}: missing {missing}, "
                     f"not in the baseline {unbaselined}")
        for name, lane in lanes.items():
            if lane.get("per_ref", 0.0) <= 0.0 or old[name].get("per_ref", 0.0) <= 0.0:
                sys.exit(f"lane '{name}' has no per_ref in {where} or {baseline_path}")
        return {name: lane["per_ref"] / old[name]["per_ref"] for name, lane in lanes.items()}

    # A lane over the floor gets another bench run, up to RUNS in all, and
    # fails only if it is over the floor in each (see the comment above).
    best = lane_ratios(doc, path)
    runs = 1
    while runs < RUNS and any(ratio - 1.0 > FLOOR for ratio in best.values()):
        with tempfile.NamedTemporaryFile(suffix=".json") as again:
            subprocess.run(bench + ["--json", again.name], check=True,
                           stdout=subprocess.DEVNULL)
            ratios = lane_ratios(json.load(open(again.name)), again.name)
        best = {name: min(ratio, ratios[name]) for name, ratio in best.items()}
        runs += 1
    print(f"{'lane':<26} {'baseline':>9} {'fresh':>9} {'delta':>8}  (best of {runs} runs)")
    for name, ratio in best.items():
        print(f"{name:<26} {old[name]['per_ref']:9.4f} {ratio * old[name]['per_ref']:9.4f} "
              f"{100 * (ratio - 1.0):+7.1f}% {'FAIL' if ratio - 1.0 > FLOOR else 'ok'}")
    slow = [name for name, ratio in best.items() if ratio - 1.0 > FLOOR]
    if slow:
        sys.exit(f"perf gate FAILED: {slow} more than {FLOOR:.0%} slower than "
                 f"the baseline in reference units, in each of {runs} runs")
    missed = [name for name, ratio in best.items() if CANARY * ratio - 1.0 <= FLOOR]
    if missed:
        sys.exit(f"perf canary FAILED: a {CANARY:g}x slowdown was not flagged on {missed}")
    print(f"perf gate: {len(best)} lanes within {FLOOR:.0%} of the baseline; "
          f"canary: a {CANARY:g}x slowdown flagged on {len(best)} of {len(best)}")

# min_ns, not median: CI neighbors inject multi-rep interference bursts
# that inflate whichever kernel they land on; best-of-reps compares the
# two kernels' uncontended cost, which is what the 2x claim is about.
reference = kernels["rc_step_grid64_reference"]["min_ns"]
leaky = kernels["rc_step_grid64_leaky"]["min_ns"]
baseline = kernels["rc_step_grid64_baseline"]["min_ns"]
speedup = reference / leaky if leaky > 0 else 0.0
if speedup < 2.0:
    sys.exit(f"{path}: step kernel speedup {speedup:.2f}x < 2x "
             f"(reference {reference/1e6:.3f} ms vs leaky {leaky/1e6:.3f} ms)")
baseline_speedup = reference / baseline if baseline > 0 else 0.0
if baseline_speedup < 2.0:
    sys.exit(f"{path}: baseline step kernel speedup {baseline_speedup:.2f}x < 2x "
             f"(reference {reference/1e6:.3f} ms vs baseline {baseline/1e6:.3f} ms)")
step_kernel = doc.get("step_kernel")
if step_kernel in ("avx2", "avx512"):
    if "rc_step_grid64_avx2" not in kernels:
        sys.exit(f"{path}: kernel 'rc_step_grid64_avx2' missing on a {step_kernel} host")
    lanes = {f"{step_kernel} (step)": leaky,
             "avx2": kernels["rc_step_grid64_avx2"]["min_ns"]}
    ratios = {lane: baseline / ns if ns > 0 else 0.0 for lane, ns in lanes.items()}
    for lane, ratio in ratios.items():
        if mode == "cached" and ratio < 1.3:
            sys.exit(f"{path}: {lane} step kernel speedup {ratio:.2f}x < 1.3x "
                     f"(baseline {baseline/1e6:.3f} ms vs {lanes[lane]/1e6:.3f} ms)")
    wide = ", " + ", ".join(f"{lane} {ratio:.2f}x" for lane, ratio in ratios.items())
    wide += " over the baseline kernel"
    if mode != "cached":
        wide += " (not gated: each rep also pays a cold prepare)"
elif step_kernel == "baseline":
    wide = ", wide-over-baseline check skipped (no AVX2 on this host)"
else:
    sys.exit(f"{path}: step_kernel is {step_kernel!r}, "
             f"expected 'avx512', 'avx2' or 'baseline'")
cache = doc["expop_cache"]
if mode == "cached":
    if not cache["enabled"]:
        sys.exit(f"{path}: expop cache unexpectedly disabled")
    if cache["hits"] == 0:
        sys.exit(f"{path}: expop cache recorded no hits with the cache enabled")
else:
    if cache["enabled"]:
        sys.exit(f"{path}: RLTHERM_EXPOP_CACHE=0 did not disable the cache")
    if cache["hits"] != 0 or cache["misses"] != 0:
        sys.exit(f"{path}: disabled cache still counted lookups")
print(f"step kernel ({mode}): {speedup:.2f}x over the dense reference, "
      f"baseline kernel {baseline_speedup:.2f}x{wide}, "
      f"cache hits={cache['hits']} enabled={cache['enabled']}")
PY
}
check_perf "${PERF_TMP}" cached "${PERF_BENCH[@]}"
check_perf "${PERF_NOCACHE_TMP}" nocache

echo "== [14/14] fleet-service gate (ctest -L serve) + serve protocol smoke =="
# Same vacuity guard as the other label gates: the protocol golden tests and
# the alone-vs-interleaved bit-identity suite MUST execute under the
# sanitizers, so a lost 'serve' label fails the script.
SERVE_COUNT="$(ctest --preset asan-ubsan -L serve -N | sed -n 's/^Total Tests: //p')"
if [ "${SERVE_COUNT:-0}" -eq 0 ]; then
  echo "no tests carry the 'serve' label; the fleet-service gate is vacuous"
  exit 1
fi
ctest --preset asan-ubsan -L serve -j "${JOBS}"

# End-to-end smoke over the real binary and the real line protocol: admit 50
# tenants across TWO config families via stdin, step, query every tenant, and
# assert (a) the warm-start cache served >= 48 of the 50 admissions and (b)
# every tenant's trace hash is IDENTICAL at --jobs 1 and --jobs 4 — the
# service's determinism guarantee, demonstrated on the shipped CLI.
SERVE_TMP="$(mktemp -d /tmp/rltherm_serve.XXXXXX)"
trap 'rm -f "${EVENTS_TMP:-}" "${CANARY:-}" "${RESIL_TMP:-}" "${PERF_TMP:-}" "${PERF_NOCACHE_TMP:-}"; rm -rf "${CKPT_TMP:-}" "${SERVE_TMP:-}"' EXIT
SERVE_CMDS="${SERVE_TMP}/commands.jsonl"
: > "${SERVE_CMDS}"
for i in $(seq 0 49); do
  if [ $((i % 2)) -eq 0 ]; then GAMMA="0.75"; else GAMMA="0.9"; fi
  if [ $((i % 3)) -eq 0 ]; then FAMILY="mpeg_dec"; else FAMILY="tachyon"; fi
  echo "{\"cmd\":\"admit\",\"tenant\":\"t${i}\",\"family\":\"${FAMILY}\",\"seed\":$((100 + i)),\"gamma\":${GAMMA}}" >> "${SERVE_CMDS}"
done
echo '{"cmd":"step","passes":3}' >> "${SERVE_CMDS}"
for i in $(seq 0 49); do
  echo "{\"cmd\":\"query\",\"tenant\":\"t${i}\"}" >> "${SERVE_CMDS}"
done
echo '{"cmd":"stats"}' >> "${SERVE_CMDS}"
echo '{"cmd":"shutdown"}' >> "${SERVE_CMDS}"

./build-asan-ubsan/tools/rltherm_cli serve --train-time 120 --jobs 1 \
  < "${SERVE_CMDS}" > "${SERVE_TMP}/jobs1.jsonl"
./build-asan-ubsan/tools/rltherm_cli serve --train-time 120 --jobs 4 \
  < "${SERVE_CMDS}" > "${SERVE_TMP}/jobs4.jsonl"
if command -v python3 >/dev/null 2>&1; then
  python3 - "${SERVE_TMP}/jobs1.jsonl" "${SERVE_TMP}/jobs4.jsonl" <<'PY'
import json, sys

def load(path):
    hashes, stats = {}, None
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            doc = json.loads(line)
            if not doc.get("ok"):
                sys.exit(f"{path}:{lineno}: response not ok: {line.strip()}")
            if doc.get("cmd") == "query":
                hashes[doc["tenant"]] = doc["trace_hash"]
            elif doc.get("cmd") == "stats":
                stats = doc
    if stats is None:
        sys.exit(f"{path}: no stats response")
    return hashes, stats

h1, s1 = load(sys.argv[1])
h4, s4 = load(sys.argv[2])
if len(h1) != 50 or len(h4) != 50:
    sys.exit(f"expected 50 query responses, got {len(h1)} and {len(h4)}")
for stats, path in ((s1, sys.argv[1]), (s4, sys.argv[2])):
    if stats["admitted"] != 50:
        sys.exit(f"{path}: admitted {stats['admitted']} != 50")
    if stats["cache_hits"] < 48:
        sys.exit(f"{path}: warm-start cache hits {stats['cache_hits']} < 48")
mismatched = [t for t in h1 if h1[t] != h4[t]]
if mismatched:
    sys.exit(f"trace hashes differ between --jobs 1 and --jobs 4: {mismatched}")
print(f"serve smoke: 50 tenants, cache hits {s1['cache_hits']}/50, "
      f"trainings {s1['trainings']}, per-tenant traces identical at --jobs 1 and 4")
PY
else
  cmp "${SERVE_TMP}/jobs1.jsonl" "${SERVE_TMP}/jobs4.jsonl" || {
    echo "serve smoke: --jobs 1 and --jobs 4 outputs differ"; exit 1; }
  echo "python3 not found on PATH; compared the raw outputs byte-for-byte only."
fi

echo "check.sh: all gates passed."
