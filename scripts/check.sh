#!/usr/bin/env bash
# CI correctness driver: build + test under ASan/UBSan with runtime contracts
# enabled, compile the Release (-O3) tree, gate the fault-injection and
# checkpoint-store suites, lint the scenario files, smoke the train/inspect
# workflow, vet the parallel sweep engine under TSan, then run the project
# lint and (when available) clang-tidy. Any finding fails the script. See
# docs/ANALYSIS.md.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

echo "== [1/15] configure (preset: asan-ubsan) =="
cmake --preset asan-ubsan

echo "== [2/15] build =="
cmake --build --preset asan-ubsan -j "${JOBS}"

echo "== [3/15] Release build (-O3, warnings as errors) + golden pins =="
# Every build type must compile: -O3 enables GCC diagnostics (-Wrestrict,
# -Wstringop-*, -Warray-bounds) that the RelWithDebInfo and sanitizer trees
# never see. The golden pins claim bit-identity in every build type, so the
# -O3 tree runs them too.
cmake -S . -B build-release -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "${JOBS}"
ctest --test-dir build-release -R GoldenPinTest -j "${JOBS}"

echo "== [4/15] ctest (ASan+UBSan, RLTHERM_CHECKED=ON) =="
ctest --preset asan-ubsan -j "${JOBS}"

echo "== [5/15] fault suite gate (ctest -L faults) + scenario lint =="
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

echo "== [6/15] store suite gate (ctest -L store) =="
# Same vacuity guard as the fault gate: the corruption property tests MUST
# execute under the sanitizers, so a lost 'store' label fails the script.
STORE_COUNT="$(ctest --preset asan-ubsan -L store -N | sed -n 's/^Total Tests: //p')"
if [ "${STORE_COUNT:-0}" -eq 0 ]; then
  echo "no tests carry the 'store' label; the checkpoint-store gate is vacuous"
  exit 1
fi
ctest --preset asan-ubsan -L store -j "${JOBS}"

echo "== [7/15] input reader fuzz gate (ctest -L fuzz) =="
# The seeded byte-mutation runs over the shared JSON reader
# (tests/common/json_test.cpp) and the TOML-subset config/scenario reader
# (tests/core/config_io_test.cpp) MUST execute under the sanitizers: every
# mutant either parses or fails cleanly, and ASan/UBSan see every path in
# between. A lost 'fuzz' label fails the script like the other label gates.
FUZZ_COUNT="$(ctest --preset asan-ubsan -L fuzz -N | sed -n 's/^Total Tests: //p')"
if [ "${FUZZ_COUNT:-0}" -eq 0 ]; then
  echo "no tests carry the 'fuzz' label; the input reader fuzz gate is vacuous"
  exit 1
fi
ctest --preset asan-ubsan -L fuzz -j "${JOBS}"

echo "== [8/15] exp-operator cache gate (ctest -L thermal) =="
# The exp-operator cache suite (hit/miss accounting, fingerprint sensitivity,
# warm hits stepping bit-identically to cold prepares) MUST execute under the
# sanitizers; a lost 'thermal' label fails the script like the fault and
# store gates.
THERMAL_COUNT="$(ctest --preset asan-ubsan -L thermal -N | sed -n 's/^Total Tests: //p')"
if [ "${THERMAL_COUNT:-0}" -eq 0 ]; then
  echo "no tests carry the 'thermal' label; the exp-operator cache gate is vacuous"
  exit 1
fi
ctest --preset asan-ubsan -L thermal -j "${JOBS}"

echo "== [9/15] resilience gate (ctest -L resil) + acceptance campaign =="
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
./build/bench/bench_resilience --jobs 2 --scenarios scenarios \
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

echo "== [10/15] concurrency tests under TSan (ctest -L concurrency) =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "${JOBS}" --target rltherm_concurrency_tests
ctest --preset tsan -L concurrency -j "${JOBS}"

echo "== [11/15] events-JSONL smoke (rltherm_cli --events) =="
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

echo "== [12/15] checkpoint train/inspect smoke (rltherm_cli train + inspect --json) =="
CKPT_TMP="$(mktemp -d /tmp/rltherm_ckpt.XXXXXX)"
trap 'rm -f "${EVENTS_TMP}" "${RESIL_TMP}"; rm -rf "${CKPT_TMP}"' EXIT
printf '[runner]\nmax_sim_time = 400\nwarmup = 10\ncooldown = 5\n\n[manager]\nsampling_interval = 0.5\ndecision_epoch = 2.0\n' \
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

echo "== [13/15] static analysis =="
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

echo "== [14/15] perf gate (bench_micro_kernels --json vs committed baseline) =="
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

echo "== [15/15] fleet-service gate (ctest -L serve) + serve protocol smoke =="
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
