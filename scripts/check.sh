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
# Machine::tick and WorkloadDriver::tick. Same vacuity guard as the other
# label gates: a lost 'alloc' label fails the script.
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
# every number (the gate's fingerprint check would refuse them anyway).
cmake -S . -B build >/dev/null
cmake --build build -j "${JOBS}" --target bench_micro_kernels rltherm_perfgate

# Vacuity guard, same shape as the fault/store gates: the perf-library tests
# must actually be registered.
PERF_COUNT="$(ctest --preset asan-ubsan -L perf -N | sed -n 's/^Total Tests: //p')"
if [ "${PERF_COUNT:-0}" -eq 0 ]; then
  echo "no tests carry the 'perf' label; the perf gate is vacuous"
  exit 1
fi

PERF_TMP="$(mktemp /tmp/rltherm_bench_micro.XXXXXX.json)"
trap 'rm -f "${EVENTS_TMP}" "${CANARY}" "${RESIL_TMP}" "${PERF_TMP}"; rm -rf "${CKPT_TMP}"' EXIT
./build/bench/bench_micro_kernels --json "${PERF_TMP}" --reps 7 >/dev/null
# CI neighbors share the machine: a generous floor (30%) keeps the gate
# about real regressions; the committed baseline still records per-kernel
# CVs, so historically noisy kernels widen further on their own.
./build/tools/rltherm_perfgate --baseline bench/baselines/BENCH_micro.json \
  --floor 30 "${PERF_TMP}"

# Canary self-test, mirroring the lint canary: inject an artificial 3x
# slowdown into the fresh side and require the gate to FAIL. A perf gate
# that passes a 3x regression has failed open (stale baseline, empty
# report, thresholds gone permissive) — that must fail the script.
if ./build/tools/rltherm_perfgate --baseline bench/baselines/BENCH_micro.json \
    --floor 30 --canary 3.0 "${PERF_TMP}" >/dev/null 2>&1; then
  echo "perf canary FAILED: a 3x artificial slowdown was not flagged"
  exit 1
fi
echo "perf canary: 3x artificial slowdown caught as expected"

# Step-kernel gate: in the same run, the packed kernel (rc_step_grid64_leaky)
# must beat the dense two-matvec reference (rc_step_grid64_reference) by
# >= 2x on the 64-cell grid with leaky power that changes every tick, with
# the exp-operator cache actually exercised (hits > 0). The baseline entry
# point (rc_step_grid64_baseline) must beat the reference by >= 2x too, so
# that claim never rests on the wide path alone; where step() dispatches to
# the AVX2 kernel ("step_kernel": "avx2"), it must beat the baseline by
# >= 1.3x. Then re-run the bench with the cache disabled via
# RLTHERM_EXPOP_CACHE=0 and require hits == 0 AND the same 2x ratios —
# proving the kernel cannot fail open into stale cached operators, and that
# its win is the kernel, not the cache. The AVX2-over-baseline ratio is only
# printed there: both lanes prepare the same operator the same way, so the
# cache cannot favour either, and with it off every rep of both lanes also
# pays a cold prepare, which holds that ratio at 1.41-1.47 on a 4-vCPU
# Xeon (1.71-1.86 with the cache on), too close to 1.3 to gate on.
# A same-run ratio needs no cross-host baseline.
if command -v python3 >/dev/null 2>&1; then
  check_fast_path() {
    python3 - "$1" "$2" <<'PY'
import json, sys
path, mode = sys.argv[1], sys.argv[2]
doc = json.load(open(path))
kernels = {k["name"]: k for k in doc["kernels"]}
for name in ("rc_step_grid64_reference", "rc_step_grid64_leaky",
             "rc_step_grid64_baseline", "rc_prepare_grid64_cold",
             "rc_prepare_grid64_warm"):
    if name not in kernels:
        sys.exit(f"{path}: kernel '{name}' missing from the report")
    if kernels[name].get("ops_per_sec", 0.0) <= 0.0:
        sys.exit(f"{path}: kernel '{name}' reports no ops_per_sec")
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
if step_kernel == "avx2":
    wide_speedup = baseline / leaky if leaky > 0 else 0.0
    if mode == "cached" and wide_speedup < 1.3:
        sys.exit(f"{path}: AVX2 step kernel speedup {wide_speedup:.2f}x < 1.3x "
                 f"(baseline {baseline/1e6:.3f} ms vs avx2 {leaky/1e6:.3f} ms)")
    wide = f", avx2 {wide_speedup:.2f}x over the baseline kernel"
    if mode != "cached":
        wide += " (not gated: each rep also pays a cold prepare)"
elif step_kernel == "baseline":
    wide = ", avx2-over-baseline check skipped (no AVX2 on this host)"
else:
    sys.exit(f"{path}: step_kernel is {step_kernel!r}, expected 'avx2' or 'baseline'")
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
  check_fast_path "${PERF_TMP}" cached
  PERF_NOCACHE_TMP="$(mktemp /tmp/rltherm_bench_nocache.XXXXXX.json)"
  trap 'rm -f "${EVENTS_TMP}" "${CANARY}" "${RESIL_TMP}" "${PERF_TMP}" "${PERF_NOCACHE_TMP}"; rm -rf "${CKPT_TMP}"' EXIT
  RLTHERM_EXPOP_CACHE=0 ./build/bench/bench_micro_kernels --json "${PERF_NOCACHE_TMP}" \
    --reps 5 >/dev/null
  check_fast_path "${PERF_NOCACHE_TMP}" nocache
else
  echo "python3 not found on PATH; skipping the step-kernel speedup assertions."
fi

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
