#!/usr/bin/env bash
# Per-PR gate: the tier-1 verify command (ROADMAP.md) plus a smoke run of
# the serving path and a quick serving bench, so regressions in the build,
# online serving, or the bench trajectory are caught before merge.
#
# Environment knobs (all optional — defaults reproduce the local gate):
#   BUILD_TYPE=Release|Debug   CMake build type
#   SANITIZE=address,undefined comma list for -fsanitize= (empty = off)
#   USE_CCACHE=1               route compilation through ccache
#   BENCH_JSON=BENCH_serving.json  where the serving-bench artifact lands
#   SIM_JSON=SIM_calibration.json  where the fleetsim calibration report
#                              lands (simulated vs measured staged ramp)
#   SERVE_PRECISION=fp32|int8  serving precision for the smoke run; int8
#                              also routes it through the int8 feature-store
#                              codec + byte-budget LRU cache, and the gate
#                              additionally bounds top-1 disagreement vs
#                              fp32 (>= 99%)
#   SERVE_AUTOSCALE=1          smoke the elastic fleet instead of a fixed
#                              one: serve_cli --autoscale drives the staged
#                              0.5x->2.5x->0.5x ramp over a file store +
#                              LRU caches, so concurrent spawn / cache-warm
#                              / drain / submit paths are exercised (the
#                              tsan-autoscale CI leg runs this under the
#                              race detector); the machine-relative gate
#                              still calibrates this runner's own baseline
#   PPGNN_ISA=scalar|sse2|avx2|avx512vnni
#                              force one arm of the INT8 GEMM kernel ladder
#                              (docs/kernels.md) for the whole gate: ctest,
#                              the serving smokes and the benches all run
#                              with the dispatch pinned to that arm.  If the
#                              runner's CPU cannot execute the requested arm
#                              the leg is skipped (exit 0) rather than
#                              failed — hosted runners do not all ship
#                              AVX-512.  The isa-* CI legs set this.
#   SERVE_TENANTS=N            run the API-v2 smoke multi-tenant: N tenants
#                              with a 2,1,1,1 weight mix through the
#                              registry/DWRR path (src/tenancy/), recorded
#                              tenant ids riding the trace into the fleetsim
#                              replay.  On crossproc legs the tenant id also
#                              crosses the wire and the
#                              replica servers' per-tenant exit lines are
#                              collected into build/tenant-stats.txt.
#                              0 (default) keeps every smoke untenanted.
#   SERVE_CROSSPROC=1          additionally smoke cross-process serving:
#                              serve_cli --remote-replicas=2 spawns two
#                              replica_server_cli processes behind the
#                              socket RPC front (docs/wire-protocol.md),
#                              kill -9s one mid-run, and the gate greps for
#                              "zero lost" + the exact reap codes (137 for
#                              the victim, 0 for the survivor's clean
#                              drain).  A lost envelope hangs the client
#                              drain loop, which the CI job timeout turns
#                              into a failure.  The replica servers' output
#                              lands in build/replica_server.log (uploaded
#                              on failure by the crossproc CI leg).
set -euo pipefail
cd "$(dirname "$0")"

BUILD_TYPE="${BUILD_TYPE:-Release}"
SANITIZE="${SANITIZE:-}"
BENCH_JSON="${BENCH_JSON:-BENCH_serving.json}"
SIM_JSON="${SIM_JSON:-SIM_calibration.json}"
SERVE_PRECISION="${SERVE_PRECISION:-fp32}"
SERVE_AUTOSCALE="${SERVE_AUTOSCALE:-0}"
SERVE_CROSSPROC="${SERVE_CROSSPROC:-0}"
SERVE_TENANTS="${SERVE_TENANTS:-0}"

TENANT_FLAGS=()
if [[ "${SERVE_TENANTS}" != "0" ]]; then
  TENANT_FLAGS=(--tenants="${SERVE_TENANTS}" --tenant-mix=2,1,1,1)
fi

CMAKE_FLAGS=(-DCMAKE_BUILD_TYPE="${BUILD_TYPE}")
if [[ -n "${SANITIZE}" ]]; then
  CMAKE_FLAGS+=(-DSANITIZE="${SANITIZE}")
fi
if [[ "${USE_CCACHE:-0}" == "1" ]] && command -v ccache > /dev/null; then
  CMAKE_FLAGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

echo "== configure + build (${BUILD_TYPE}${SANITIZE:+, sanitize=${SANITIZE}}) =="
cmake -B build -S . "${CMAKE_FLAGS[@]}"
cmake --build build -j "$(nproc)"

if [[ -n "${PPGNN_ISA:-}" ]]; then
  echo "== kernel ladder leg: forcing PPGNN_ISA=${PPGNN_ISA} =="
  # --require exits 3 when the CPU lacks the arm's instructions.  Skip the
  # leg cleanly in that case: a forced-arm leg on a runner that cannot
  # execute the arm proves nothing (resolve_isa would silently degrade the
  # dispatch to a lower arm, so every assertion would test that arm
  # instead).
  if ! ./build/isa_probe_cli --require "${PPGNN_ISA}"; then
    echo "runner CPU lacks ${PPGNN_ISA}; skipping this forced-arm leg"
    exit 0
  fi
  export PPGNN_ISA
fi

echo "== tier-1 tests =="
(cd build && ctest --output-on-failure -j "$(nproc)")

echo "== repository benchmark build + unit tests (perfbench/) =="
# The benchmark (BENCHMARK.json, perfbench/) is its own CMake package over
# this tree's library and replica server.  Building it on every leg makes a
# serving-surface change that breaks the benchmark fail here, not in the
# benchmark run.  Its own Release build: the sanitizer flags above belong
# to the tier-1 tree.
cmake -S perfbench -B build/perfbench
cmake --build build/perfbench -j "$(nproc)"
(cd build/perfbench && ctest --output-on-failure -R perfbench_tests)

if [[ "${SERVE_AUTOSCALE}" == "1" ]]; then
  echo "== serve_cli autoscale smoke (staged ramp, 1..4 replicas) =="
  # The elastic-fleet smoke: a 6s staged load ramp against min=1..max=4
  # replicas over the file store + per-replica LRU caches, so every
  # lifecycle path runs — spawn (with peer cache warm-up), drain, retire —
  # concurrently with 2ms-budget admission.  The gate stays
  # machine-relative: serve_cli calibrates this runner's single-replica
  # saturation and floors the ramp's answered rate against it (scaled by
  # the runner's core budget, so a tiny runner degrades the floor instead
  # of flaking).
  SMOKE_FLAGS=(--nodes=20000 --requests=30000 --gate=relative
               --autoscale --min-replicas 1 --max-replicas 4
               --source=file --cache=lru
               --precision="${SERVE_PRECISION}")
else
  echo "== serve_cli smoke (2 replicas, precision=${SERVE_PRECISION}) =="
  # Machine-relative gate: serve_cli measures this runner's own
  # single-replica throughput first and requires the replicated run to hold
  # >= 90% of it, so a loaded shared runner (or a sanitizer build) moves
  # both sides of the comparison instead of tripping an absolute req/s
  # floor.
  SMOKE_FLAGS=(--nodes=20000 --requests=30000 --replicas=2 --gate=relative
               --precision="${SERVE_PRECISION}")
  if [[ "${SERVE_PRECISION}" == "int8" ]]; then
    # Exercise the whole int8 deployment: quantized checkpoint, int8 row
    # codec on the file store, and the byte-budget cache that holds ~4x
    # more quantized rows.
    SMOKE_FLAGS+=(--source=file --cache=lru)
  fi
fi
./build/serve_cli "${SMOKE_FLAGS[@]}"

if [[ "${SERVE_CROSSPROC}" == "1" ]]; then
  echo "== cross-process crash smoke (2 replica processes, kill -9 one) =="
  # The full cross-process lifecycle under whatever sanitizer this leg
  # builds with: fork/exec two replica_server_cli children, handshake,
  # serve envelopes over ppgnn-wire, SIGKILL one mid-storm (the fleet only
  # learns from the dead socket and re-routes), then SIGTERM-drain and
  # reap the survivor.  gate=none: this run gates envelope accounting and
  # process lifecycle, not throughput — the greps below require every
  # envelope answered ("zero lost") and the exact reap codes (137 = the
  # SIGKILLed victim, 0 = the survivor's clean drain).
  CROSSPROC_OUT=build/crossproc_smoke.out
  ./build/serve_cli --nodes=20000 --requests=20000 --remote-replicas=2 \
    --kill-one-mid-run --source=file --cache=lru --batch-nodes=4 \
    --gate=none --precision="${SERVE_PRECISION}" \
    ${TENANT_FLAGS[@]+"${TENANT_FLAGS[@]}"} \
    --serve-log=build/replica_server.log | tee "${CROSSPROC_OUT}"
  grep -q "zero lost" "${CROSSPROC_OUT}"
  grep -q "rc=137" "${CROSSPROC_OUT}"
  grep -q "rc=0" "${CROSSPROC_OUT}"
  echo "cross-process smoke OK (zero lost, victim reaped 137, survivor 0)"
  # The transport fast-path evidence (frames/writev, pool hit rate,
  # allocs/frame) as its own artifact next to the smoke output.
  grep "rpc fast path" "${CROSSPROC_OUT}" > build/rpc_stats.txt || true
  if [[ "${SERVE_TENANTS}" != "0" ]]; then
    # Tenanted crossproc run: the tenant id crossed the wire on every
    # request, so each replica server reports per-tenant slices at exit —
    # the cross-process half of the per-tenant observability contract.
    # The surviving server's lines land in the log (the SIGKILLed victim
    # never reaches its exit report); require at least one.
    grep "replica_server: tenant" build/replica_server.log \
      > build/tenant-stats.txt || true
    if ! [[ -s build/tenant-stats.txt ]]; then
      echo "tenanted crossproc smoke produced no per-tenant server stats"
      exit 1
    fi
    echo "per-tenant server stats collected:"
    cat build/tenant-stats.txt
  fi
fi

echo "== serve_cli API-v2 smoke (envelopes, deadlines, top-k) =="
# The ServeRequest/ServeResponse path end to end: 4-node envelopes split
# ring-consistently across 2 cache_affinity replicas, a 50ms deadline (so
# the deadline bookkeeping runs without forcing misses), top-3 answers,
# and a 10ms shed budget — CompletionQueue delivery under whatever
# sanitizer this leg builds with.  gate=none: the fixed-fleet smoke above
# already gates throughput; this run gates crashes, races and lost
# completions (a lost envelope hangs the client drain loop, which the CI
# job timeout turns into a failure).
./build/serve_cli --nodes=20000 --requests=20000 --replicas=2 \
  --policy=cache_affinity --batch-nodes=4 --deadline-ms=50 --topk=3 \
  --shed-budget-ms=10 --gate=none --precision="${SERVE_PRECISION}" \
  ${TENANT_FLAGS[@]+"${TENANT_FLAGS[@]}"} \
  --trace-out=build/ci_arrivals.trace

echo "== trace round trip (recorded arrivals -> fleetsim replay) =="
# The live run above recorded its real arrivals; the simulator must load
# and replay that exact trace (same envelopes, deadlines, tenants).  This
# is the record/replay contract between serve_cli --trace-out and
# fleetsim_cli --trace=FILE, exercised on every leg.
./build/fleetsim_cli --trace=build/ci_arrivals.trace --replicas=2 \
  --policy=cache_affinity --nodes=20000

echo "== serving bench (writes ${BENCH_JSON}) =="
# --quick includes section 6, the deadline sweep at 2x saturation whose
# slack-vs-FIFO miss-rate comparison lands in the JSON artifact as the
# machine-relative "deadline_gate" record.
./build/bench_serving_latency --quick --json="${BENCH_JSON}"

echo "== tenant isolation gate (from ${BENCH_JSON}) =="
# Bench section 9 measured the multi-tenant isolation proof: one tenant
# blasting 10x its quota must not move another tenant's admitted p99 more
# than 10% nor cause it a single quota refusal.  The bench stamps ok=false
# when the contract breaks (after one noise retry) — assert it here so
# every leg fails loudly on an isolation regression instead of shipping a
# red field inside a green artifact.
ISO_RECORD=$(grep '"section":"tenant_isolation"' "${BENCH_JSON}" || true)
if [[ -z "${ISO_RECORD}" ]]; then
  echo "no tenant_isolation record in ${BENCH_JSON}"
  exit 1
fi
echo "${ISO_RECORD}"
echo "${ISO_RECORD}" | grep -q '"ok":true' || {
  echo "tenant isolation gate failed: aggressor moved the victim's p99"
  exit 1
}

if [[ "${SERVE_CROSSPROC}" == "1" ]]; then
  echo "== cross-process overhead gate (<= 1.5x from ${BENCH_JSON}) =="
  # Bench section 7 measured the same 2-replica fleet in-process and
  # cross-process; its record's overhead_ratio is the whole RPC tax.  The
  # bench already stamps ok=false past 1.5x — assert it here so the
  # crossproc legs fail loudly on a fast-path regression instead of
  # shipping a red field inside a green artifact.
  XPROC_RECORD=$(grep '"section":"cross_process"' "${BENCH_JSON}" || true)
  if [[ -z "${XPROC_RECORD}" ]]; then
    echo "no cross_process record in ${BENCH_JSON}"
    exit 1
  fi
  echo "${XPROC_RECORD}"
  echo "${XPROC_RECORD}" | grep -q '"ok":true' || {
    echo "cross-process overhead ratio exceeds the 1.5x gate"
    exit 1
  }
  # Keep the bench's transport counters with the serve_cli line.
  echo "${XPROC_RECORD}" >> build/rpc_stats.txt || true
fi

# bench_kernels is only built when google-benchmark is installed; when it
# is, append the self-timed per-ISA GEMM table (the 255x96x32 serving
# shape) into the same artifact so the calibration below — and anyone
# pulling BENCH_serving.json — sees what each kernel-ladder arm measures
# on this runner, not just the arm that happened to dispatch.
if [[ -x build/bench_kernels ]]; then
  echo "== kernel ladder GEMM table (appends to ${BENCH_JSON}) =="
  ./build/bench_kernels --ladder-json="${BENCH_JSON}"
fi

echo "== fleetsim calibration smoke (writes ${SIM_JSON}) =="
# The simulator must reproduce the staged ramp this leg just measured:
# fleetsim_cli rebuilds the service/cache models from the bench's
# autoscale_trace anchors, replays the same ramp on the virtual clock,
# and gates throughput / admitted p99 / spawn-retire sequence per arm
# (tolerances in src/fleetsim/calibrate.h).  A model that drifts from
# the machine fails here — BEFORE anyone plans capacity with it.
./build/fleetsim_cli --calibrate="${BENCH_JSON}" --out="${SIM_JSON}"

echo "CI OK"
