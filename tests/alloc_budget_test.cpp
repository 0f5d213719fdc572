// Heap-allocation budget of the steady-state Xanadu request path.
//
// Per-request scratch -- the MLP estimate, the JIT plan, the branch model's
// pending batches, the policy's request state, the node records -- lives in
// NodeId-indexed buffers whose capacity is reused across requests (the
// engine recycles request contexts, whose vectors keep theirs), and the
// engine's in-flight request table is a ring that stops growing once it
// spans the requests in flight.  Once a replay is warm, a JIT chain request
// makes about one heap allocation: the result's node-record vector.  This
// executable replaces the global operator new with a counting one (as
// perfbench/alloc_count.cpp does) and gates the count per request: a
// deterministic work counter, where a wall-clock budget would be noise.
// Each budget is the measured count rounded up to the next quarter.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "core/dispatch_manager.hpp"
#include "workflow/builders.hpp"
#include "workload/arrivals.hpp"
#include "workload/case_studies.hpp"
#include "workload/runner.hpp"
#include "workload/traffic_mix.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      ((size == 0 ? 1 : size) + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace xanadu {
namespace {

using sim::Duration;

core::DispatchManager make_manager(core::PlatformKind kind, std::size_t hosts,
                                   bool control_bus) {
  core::DispatchManagerOptions options;
  options.kind = kind;
  options.cluster.host_count = hosts;
  platform::PlatformCalibration calibration = core::preset_calibration(kind);
  calibration.control_bus.enabled = control_bus;
  options.calibration = calibration;
  return core::DispatchManager{options};
}

/// Replays `mix` twice on `manager` with results dropped: a warm-up that
/// leaves its workers pooled, then the counted replay.  Returns the heap
/// allocations per request of the counted replay.
double allocations_per_request(core::DispatchManager& manager,
                               const workload::TrafficMix& mix) {
  workload::RunOptions options;
  options.retain_results = false;
  options.flush_at_end = false;
  (void)workload::run_mixed_schedule(manager, mix, options);

  g_allocations.store(0);
  g_counting.store(true);
  const workload::MixedOutcome outcome =
      workload::run_mixed_schedule(manager, mix, options);
  g_counting.store(false);
  EXPECT_EQ(outcome.aggregate.completed_count(), mix.total_requests());
  return static_cast<double>(g_allocations.load()) /
         static_cast<double>(mix.total_requests());
}

TEST(AllocBudget, JitChainRequestMakesAtMostOneAndAQuarterAllocations) {
  core::DispatchManager manager =
      make_manager(core::PlatformKind::XanaduJit, 1, false);
  workflow::BuildOptions build;
  build.exec_time = Duration::from_millis(5);
  build.edge_delay = Duration::from_millis(5);
  build.sandbox = workflow::SandboxKind::Container;
  const auto wf = manager.deploy(workflow::linear_chain(4, build));
  (void)workload::run_cold_trials(manager, wf, 2);

  workload::TrafficMix mix;
  mix.add_source(wf, "chain",
                 workload::fixed_interval(2'000, Duration::from_millis(20)));
  const double per_request = allocations_per_request(manager, mix);
  RecordProperty("allocs_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, 1.25);  // measured 1.016
}

TEST(AllocBudget, SpeculativeMixRequestMakesAtMostSixAndAQuarterAllocations) {
  core::DispatchManager manager =
      make_manager(core::PlatformKind::XanaduSpeculative, 4, true);
  const common::WorkflowId image = manager.deploy(workload::image_pipeline());
  const common::WorkflowId checkout =
      manager.deploy(workload::ecommerce_checkout());
  const common::WorkflowId xor_dag = manager.deploy(workflow::xor_cast_dag());
  for (const common::WorkflowId wf : {image, checkout, xor_dag}) {
    (void)workload::run_cold_trials(manager, wf, 2);
  }

  common::Rng rng{7};
  const workload::TrafficMix mix = workload::poisson_mix(
      {{image, "image-pipeline", 5.0},
       {checkout, "ecommerce", 3.0},
       {xor_dag, "xor-cast", 2.0}},
      Duration::from_millis(1000), Duration::from_minutes(40), rng);
  const double per_request = allocations_per_request(manager, mix);
  RecordProperty("allocs_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, 6.25);  // measured 6.247
}

}  // namespace
}  // namespace xanadu
