#!/usr/bin/env bash
# Tier-1 gate: full build + full test suite, then a ThreadSanitizer pass
# over the concurrency-bearing tests (thread pool, parallel engines, and
# their heaviest consumer).  Fails on any test failure or reported race.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: plain build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure

echo "== tier-1: DES queue differential (ladder vs reference heap) =="
cmake --build build -j "$(nproc)" --target bench_des_queue
(cd build && ./bench/bench_des_queue --smoke)

echo "== tier-1: PDES differential (parallel engine vs serial loopback) =="
cmake --build build -j "$(nproc)" --target bench_pdes
(cd build && ./bench/bench_pdes --smoke)

echo "== tier-1: multi-region drill smoke (WAN + failover ladder) =="
cmake --build build -j "$(nproc)" --target bench_multiregion
(cd build && ./bench/bench_multiregion --smoke)

echo "== tier-1: gray-failure drill smoke (fail-slow ladder, E34) =="
cmake --build build -j "$(nproc)" --target bench_grayfail
(cd build && ./bench/bench_grayfail --smoke)

echo "== tier-1: power-cap drill smoke (energy contract + policy ladder) =="
cmake --build build -j "$(nproc)" --target bench_power
(cd build && ./bench/bench_power --smoke)

echo "== tier-1: ThreadSanitizer pass =="
cmake -B build-tsan -S . -DARCH21_SAN=thread >/dev/null
cmake --build build-tsan -j "$(nproc)" --target \
  test_thread_pool test_cloud_tail test_parallel_determinism test_resilience \
  test_overload test_grayfail test_multiregion test_pdes test_power \
  bench_des_queue bench_pdes bench_multiregion bench_power bench_grayfail
for t in test_thread_pool test_cloud_tail test_parallel_determinism \
         test_resilience test_overload test_grayfail test_multiregion \
         test_pdes test_power; do
  echo "-- tsan: $t"
  TSAN_OPTIONS="halt_on_error=1" "./build-tsan/tests/$t"
done
# The PDES worker team spins and parks at every window barrier;
# repeating the engine and cluster tests gives TSan many interleavings of
# those hand-offs, not just one.
echo "-- tsan: test_pdes stress (20 repeats)"
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_pdes \
  --gtest_repeat=20 --gtest_filter='PdesEngine.*:ClusterPdes.*'
echo "-- tsan: bench_des_queue --smoke"
(cd build-tsan && TSAN_OPTIONS="halt_on_error=1" ./bench/bench_des_queue --smoke)
echo "-- tsan: bench_pdes --smoke"
(cd build-tsan && TSAN_OPTIONS="halt_on_error=1" ./bench/bench_pdes --smoke)
echo "-- tsan: bench_multiregion --smoke"
(cd build-tsan && TSAN_OPTIONS="halt_on_error=1" ./bench/bench_multiregion --smoke)
# The powercap trials fan out across the pool while each trial's gates
# and window events mutate per-leaf state -- the exact sharing TSan
# proves stays trial-local.
echo "-- tsan: bench_power --smoke"
(cd build-tsan && TSAN_OPTIONS="halt_on_error=1" ./bench/bench_power --smoke)
# The grayfail trials run the detection/mitigation state machine inside
# every pooled trial (EWMA scores, eviction state, adaptive deadline) --
# TSan proves the per-trial detectors never share state across workers.
echo "-- tsan: bench_grayfail --smoke"
(cd build-tsan && TSAN_OPTIONS="halt_on_error=1" ./bench/bench_grayfail --smoke)

echo "== tier-1: AddressSanitizer smoke (overload-protection paths) =="
# The overload layer moves InlineCallbacks through a bounded ring, kills
# jobs mid-service (fail_all), and short-circuits sends through breaker
# state -- exactly the lifetime bugs ASan catches.  bench_overload
# --smoke drives the whole ladder end to end.  test_pdes and test_power
# cover the rest of the one cluster engine's lifetimes: the sharded
# transport's pinned call table, the power-cap gates detached at the
# horizon, and the engine torn down inside the client that owns the
# slabs its pending actions still reference.
cmake -B build-asan -S . -DARCH21_SAN=address >/dev/null
cmake --build build-asan -j "$(nproc)" --target \
  test_des_queue test_resilience test_overload test_grayfail test_pdes \
  test_power bench_overload
for t in test_des_queue test_resilience test_overload test_grayfail \
         test_pdes test_power; do
  echo "-- asan: $t"
  ASAN_OPTIONS="halt_on_error=1" "./build-asan/tests/$t"
done
echo "-- asan: bench_overload --smoke"
(cd build-asan && ASAN_OPTIONS="halt_on_error=1" ./bench/bench_overload --smoke)

echo "== tier-1: UndefinedBehaviorSanitizer smoke (histogram, obs, DES kernel) =="
# Guards the PR4 bugfixes: NaN samples used to reach bucket_of(), where
# log(NaN) -> size_t is UB; the obs suite exercises the metrics shards
# and trace ring end to end under UBSan.  The DES kernel converts
# doubles to ladder bucket indices too, guarded only by its window
# compares; test_des and test_des_queue drive those conversions through
# far-future, clamped and re-fitted placements.  GCC leaves
# float-cast-overflow out of -fsanitize=undefined, so it is named here:
# without it those double -> uint64 casts would run unchecked.
cmake -B build-ubsan -S . -DARCH21_SAN=undefined,float-cast-overflow >/dev/null
cmake --build build-ubsan -j "$(nproc)" --target test_histogram test_obs \
  test_des test_des_queue
for t in test_histogram test_obs test_des test_des_queue; do
  echo "-- ubsan: $t"
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" "./build-ubsan/tests/$t"
done

echo "tier-1 OK"
