#!/usr/bin/env bash
# Tier-1 verification: the standard build + full test suite, then a
# ThreadSanitizer build running the concurrency-sensitive runtime and fault
# tests (program interpreter waves on the shared executor, channel
# shutdown, checkpoint recovery, cross-backend parity) plus the executor's
# fork-join and nested/concurrent planner tests, the parallel planner-search
# determinism tests, the kernel/pool substrate tests (row-block fan-out,
# concurrent TensorPool), and the plan-service suites (single-flight cache,
# the stage-cost store's single-owner guard, concurrent request
# determinism), then an
# AddressSanitizer + UBSan build running the text codec suites, the plan
# cache and service suites (the request key copies raw double bytes), the
# wave executor's suites (its flat node and done-flag arrays), the
# partitioner suites (the bidirectional DP's dense cost and frontier
# arrays), the schedule builder suites (the one builder body indexes
# executor, queue and slot arrays), the validator and parity suites
# (outside programs, per-device execution logs), the byte
# mutation harness under an allocation cap and the truncated huge-frame
# test under a 16 MB one, ending with a socket-level request-storm smoke of
# dpipe_plan_serve.
# Run from the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier-1: standard build + ctest =="
cmake -B build -S .
cmake --build build -j"$(nproc)"
(cd build && ctest --output-on-failure -j"$(nproc)")

echo "== tier-1: scalar-forced kernel pass (DPIPE_SIMD=scalar) =="
# The portable fallback must stay green on machines without AVX2: force the
# dispatch level to scalar and rerun the kernel, pool, SIMD, and trajectory
# suites against it.
DPIPE_SIMD=scalar ./build/tests/dpipe_tests \
  --gtest_filter='Kernels.*:TensorPool.*:Trajectory.*:RngSeed.*:SimdDispatch.*:SimdParity.*:Roofline.*:Eltwise*'

echo "== tier-1: ThreadSanitizer build (runtime + fault + service tests) =="
cmake -B build-tsan -S . -DDPIPE_SANITIZE=thread
cmake --build build-tsan -j"$(nproc)" --target dpipe_tests
# DPIPE_THREADS=4: the executor gets three workers even on hosts with fewer
# CPUs, so fork-joins recruit real threads and the above-threshold
# WaveWidth.* shapes run their waves on four threads for TSan to check.
TSAN_OPTIONS="halt_on_error=1" DPIPE_THREADS=4 \
  ./build-tsan/tests/dpipe_tests \
  --gtest_filter='Channel.*:PipelineTrainer.*:Equivalence.*:Fault.*:ParallelFor.*:Executor.*:WaveWidth.*:PlannerSearch.*:Kernels.*:TensorPool.*:Trajectory.*:RngSeed.*:SimdDispatch.*:SimdParity.*:Interpreter.*:Parity.*:Interleaved.*:Elastic.*:Reshard.*:CheckpointIo.*:PlanFingerprint.*:StageCostStore.*:PlanCache.*:PlanStore.*:PlanService.*:PlanProtocol.*:Eltwise*'

echo "== tier-1: AddressSanitizer + UBSan build (text codecs, plan cache, wave executor, partitioner, schedule builder, validator) =="
# The canonical writer formats numbers into fixed stack buffers (or, for a
# request key, copies each double's raw bytes) and the span reader parses
# outside bytes: run the request/model/cluster/profiler fingerprint, plan
# cache, plan store, plan service, wire protocol, checkpoint and .dpipe
# serializer suites (golden bytes, edge values, hostile numbers, key versus
# text identity) under ASan + UBSan. The interpreter's static wave order
# indexes flat node, predecessor, done-flag and tensor-slot arrays: its
# width, interpreter and interleaved suites run here too. So do the
# partitioner suites: the bidirectional DP indexes dense (lo, hi) stage-cost
# tables and row-major (down, up) frontier arrays, and its brute-force
# oracle cases use unequal backbones so a swapped stride reads out of
# bounds. So do the schedule builder suites: all four families share one
# body that maps stages to executors, queues and device slots by index,
# and a wrong executor count or slot map reads out of bounds. The
# validator and parity suites run here too: every outside
# .dpipe program the runtime binds passes validate_runtime_bindable, and
# the engine's execution log indexes per-device vectors.
cmake -B build-asan -S . -DDPIPE_SANITIZE=address
cmake --build build-asan -j"$(nproc)" --target dpipe_tests
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="print_stacktrace=1" \
  ./build-asan/tests/dpipe_tests \
  --gtest_filter='PlanFingerprint.*:PlanCache.*:PlanStore.*:PlanService.*:PlanProtocol.*:CheckpointIo.*:Serialize.*:WaveWidth.*:Interpreter.*:Interleaved.*:Bidirectional.*:StageCostCache.*:Partitioner.*:Schedule1F1B.*:ScheduleGPipe.*:ScheduleBidirectional.*:ScheduleBuilder.*:Validator.*:Parity.*'
# A frame header claiming 60 MiB followed by 3 bytes must fail as truncated
# having allocated only for the bytes that came: any allocation above 16 MB
# aborts the run.
ASAN_OPTIONS="halt_on_error=1:max_allocation_size_mb=16:allocator_may_return_null=0" \
  UBSAN_OPTIONS="print_stacktrace=1" \
  ./build-asan/tests/dpipe_tests \
  --gtest_filter='PlanProtocol.TruncatedHugeFrameFailsWithoutAllocating'
# The seeded mutation harness feeds truncated, flipped, spliced and
# line-duplicated/dropped golden inputs to every reader of outside bytes.
# Allocations above 256 MB abort the run instead of returning null, so a
# reader that sizes an allocation by a count read from its input fails here.
ASAN_OPTIONS="halt_on_error=1:max_allocation_size_mb=256:allocator_may_return_null=0" \
  UBSAN_OPTIONS="print_stacktrace=1" \
  ./build-asan/tests/dpipe_tests --gtest_filter='ByteMutation.*'

echo "== tier-1: interleaved schedule smoke (executor widths 1 and 4) =="
# The interleaved family exercises multi-virtual-stage device timelines on
# the functional runtime; it must replay with clean cross-backend op-order
# parity whatever the executor's width.
DPIPE_THREADS=1 ./build/tools/dpipe_run --schedule=interleaved \
  --vstages=2 --backend=real 2 4 8 1 2 | grep -q "parity: OK"
DPIPE_THREADS=4 ./build/tools/dpipe_run --schedule=interleaved \
  --vstages=2 --backend=real 2 4 8 1 2 | grep -q "parity: OK"
./build/tools/dpipe_run --schedule=interleaved --vstages=2 --backend=sim \
  2 4 8 1 2 > /dev/null

echo "== tier-1: plan-server request-storm smoke (socket, concurrent clients) =="
# Three concurrent clients hammer one dpipe_plan_serve over a Unix socket:
# 6 requests over 2 distinct plans, so the summary must show cache hits
# and at most 2 planner runs.
STORM_DIR="$(mktemp -d)"
STORM_SOCK="$STORM_DIR/dpipe.sock"
./build/tools/dpipe_plan_serve --socket "$STORM_SOCK" \
  --store "$STORM_DIR/plans" --max-requests 6 > "$STORM_DIR/serve.log" 2>&1 &
SERVE_PID=$!
for _ in 1 2 3 4 5 6 7 8 9 10; do
  [ -S "$STORM_SOCK" ] && break
  sleep 0.3
done
for client in 1 2 3; do
  (
    ./build/tools/dpipe_plan sd21 1 256 --connect "$STORM_SOCK" &&
    ./build/tools/dpipe_plan controlnet 1 256 --connect "$STORM_SOCK"
  ) > "$STORM_DIR/client$client.log" 2>&1 &
done
wait "$SERVE_PID"
wait  # Reap the client subshells before inspecting their logs.
cat "$STORM_DIR/serve.log"
grep -q "cache hit" "$STORM_DIR/serve.log"
grep -q "served from plan cache\|planned by server" "$STORM_DIR/client1.log"
rm -rf "$STORM_DIR"

echo "tier-1 OK"
