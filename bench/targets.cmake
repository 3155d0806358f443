# One binary per reproduced table/figure (DESIGN.md §4). Every binary runs
# in seconds with its defaults; --scale/--inputs grow the workload.
#
# Included from the top-level CMakeLists (not add_subdirectory) so that
# ${CMAKE_BINARY_DIR}/bench holds *only* the bench executables and
# `for b in build/bench/*; do $b; done` works unmodified.

set(FAE_BENCHES
  fig02_hot_sizes
  fig04_minibatch_probability
  fig06_threshold_sweep
  fig07_sampling_profile
  fig08_sampling_latency
  fig09_randem_accuracy
  fig10_randem_latency
  fig11_input_processor_latency
  fig12_accuracy
  fig13_training_time
  fig14_latency_breakdown
  fig15_batch_size_sweep
  tab06_power
  nvopt_comparison
  abl_scheduler_policy
  abl_sample_rate
  abl_sync_strategy
  abl_placements
  ext_multinode
  ext_serving
  abl_popularity_drift
  abl_pipelined
  abl_lookahead_cache
  abl_stale_skip
  abl_mixed_precision
  abl_randem_params
  pipeline_throughput
)

foreach(bench ${FAE_BENCHES})
  add_executable(${bench} ${CMAKE_SOURCE_DIR}/bench/${bench}.cc)
  target_link_libraries(${bench} PRIVATE fae)
  target_include_directories(${bench} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${bench} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()

add_executable(micro_kernels ${CMAKE_SOURCE_DIR}/bench/micro_kernels.cc)
target_link_libraries(micro_kernels PRIVATE fae benchmark::benchmark)
target_include_directories(micro_kernels PRIVATE ${CMAKE_SOURCE_DIR})
set_target_properties(micro_kernels PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
# Kernel timings only compare at the same build type, compiler and flags,
# so BENCH_kernels.json records them.
string(TOUPPER "${CMAKE_BUILD_TYPE}" FAE_BUILD_TYPE_UPPER)
get_directory_property(FAE_DIR_OPTIONS COMPILE_OPTIONS)
list(JOIN FAE_DIR_OPTIONS " " FAE_DIR_OPTIONS)
string(STRIP "${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${FAE_BUILD_TYPE_UPPER}} ${FAE_DIR_OPTIONS}"
  FAE_BUILD_FLAGS)
target_compile_definitions(micro_kernels PRIVATE
  FAE_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
  FAE_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}"
  FAE_BUILD_FLAGS="${FAE_BUILD_FLAGS}")

# Smoke-test the kernel bench under ctest (and under -DFAE_SANITIZE=ON
# builds): tiny sizes, one rep, and the built-in old-vs-new bit-exactness
# checks. Fails if any new kernel disagrees with the seed scalar path.
add_test(NAME bench_smoke
  COMMAND micro_kernels --smoke --out=${CMAKE_BINARY_DIR}/bench/BENCH_kernels_smoke.json)

# Same deal for the data-pipeline bench (seed AoS layout vs flat SoA
# layout): --smoke shrinks the workload and keeps the built-in seed-vs-flat
# bit-exactness checks, which fail the test on any disagreement.
add_test(NAME bench_pipeline_smoke
  COMMAND pipeline_throughput --smoke --out=${CMAKE_BINARY_DIR}/bench/BENCH_pipeline_smoke.json)

# Pipelined-trainer gate: runs the real engine in every --pipeline mode,
# asserts the phase charges are bit-identical across modes, and fails
# unless FAE's overlap mode beats serial FAE by >= 1.3x on the modeled
# wall. Deterministic (simulated time, cost-only), so smoke == full run.
add_test(NAME bench_pipelined_smoke
  COMMAND abl_pipelined --smoke --out=${CMAKE_BINARY_DIR}/bench/BENCH_pipelined_smoke.json)

# Lookahead-oracle-cache gate: pipelined FAE with the cache on vs the PR-4
# overlap baseline. Fails unless the cache cuts the cold steps' effective
# CPU<->GPU bytes >= 2x, beats the overlap baseline >= 1.15x end to end,
# and leaves the phase-charge totals bit-identical cache on/off.
add_test(NAME bench_cache_smoke
  COMMAND abl_lookahead_cache --smoke --out=${CMAKE_BINARY_DIR}/bench/BENCH_cache_smoke.json)

# Stale-update-skipping gate: the real engine (math ON) sweeping freeze
# thresholds. Fails unless --stale-threshold=0 is bit-identical to
# --stale-skip=off, and the best threshold whose final test loss stays
# within 0.5% of the exact run cuts the modeled wall >= 1.15x (modeled
# time-to-accuracy at comparable accuracy).
add_test(NAME bench_stale_skip_smoke
  COMMAND abl_stale_skip --smoke
    --out=${CMAKE_BINARY_DIR}/bench/BENCH_stale_skip_smoke.json)

# Quantized cold-store gate: the dim-64 Terabyte workload through the real
# engine in every --cold-precision mode. Fails unless the int8 cold store
# is >= 3x (fp16 >= 1.9x) smaller than the same rows at fp32, the int8
# error stays under the per-row scale/2 bound, master tables are
# bit-identical across modes when everything is hot, and the reclaimed
# budget fed back to the calibrator buys >= 1.1x on the modeled wall.
add_test(NAME bench_quant_smoke
  COMMAND abl_mixed_precision --smoke --out=${CMAKE_BINARY_DIR}/bench/BENCH_quant_smoke.json)

# Multi-node gate: baseline vs FAE (hot slice replicated on every GPU) for
# the three paper workloads over {1,2,4} nodes. Fails if any workload x
# node row is skipped (preprocessing or training failed), or if FAE's
# modeled seconds are not below the baseline's in every row. Runs the
# committed table's full size (cost-only, about 2 s).
add_test(NAME bench_multinode_smoke
  COMMAND ext_multinode
    --out=${CMAKE_BINARY_DIR}/bench/BENCH_multinode_smoke.json)

# Serving gate: drift-free vs drifting traffic, with and without the
# SLO-triggered recalibration + hot-swap, plus an injected-fault run.
# Fails unless recalibration recovers the hit rate to within 5 points of
# drift-free, p99 stays bounded, and every injected fault degrades to
# stale/fallback service (never an outage) with recoveries counted.
add_test(NAME bench_serving_smoke
  COMMAND ext_serving --smoke
    --out=${CMAKE_BINARY_DIR}/bench/BENCH_serving_smoke.json
    --swap=${CMAKE_BINARY_DIR}/bench/BENCH_serving_swap.faef)

# Every bench binary refuses a flag it does not read (bench::AcceptsOnly),
# so a misspelt knob never runs silently as the default.
add_test(NAME bench_rejects_unknown_flags
  COMMAND ${CMAKE_COMMAND} -DPROGRAM=$<TARGET_FILE:ext_multinode>
    "-DARGS=--shard-inputs=5" -DEXPECT_CODE=2
    "-DEXPECT_STDERR=unknown flag --shard-inputs for `ext_multinode`"
    -P ${CMAKE_SOURCE_DIR}/tools/expect_cli_error.cmake)
