// Seed-replay determinism and invariant-audit tests.
//
// The repository's core reproducibility contract: two runs with the same
// seed produce bit-identical traces (same digests), different seeds produce
// different ones, and learned state survives a MetadataStore dump/parse
// round-trip without perturbing replay.  Alongside, the runtime audit
// subsystem (sim/audit.hpp) is pinned down: XANADU_INVARIANT stays active in
// every build type, fail-fast vs record modes behave as documented, and a
// healthy end-to-end run trips zero invariants.

#include <gtest/gtest.h>

#include <vector>

#include "cluster/worker.hpp"
#include "common/hash.hpp"
#include "core/dispatch_manager.hpp"
#include "core/metadata_store.hpp"
#include "metrics/trace.hpp"
#include "sim/audit.hpp"
#include "workflow/builders.hpp"

namespace xanadu {
namespace {

using core::DispatchManager;
using core::DispatchManagerOptions;
using core::MetadataStore;
using core::PlatformKind;
using metrics::trace_digest;
using platform::RequestResult;
using sim::audit::AuditLog;
using sim::audit::InvariantViolation;
using sim::audit::Mode;

/// Restores the global audit log's mode and contents on scope exit so tests
/// cannot leak state into each other.
class AuditGuard {
 public:
  AuditGuard() : saved_mode_(sim::audit::log().mode()) {
    sim::audit::log().clear();
  }
  ~AuditGuard() {
    sim::audit::log().set_mode(saved_mode_);
    sim::audit::log().clear();
  }

 private:
  Mode saved_mode_;
};

workflow::WorkflowDag conditional_dag() {
  workflow::XorCastOptions options;
  options.levels = 3;
  options.fan = 3;
  return workflow::xor_cast_dag(options);
}

/// Runs `requests` invocations of the Figure-8 conditional DAG on a fresh
/// manager and returns the digest of the full trace.
std::uint64_t run_digest(std::uint64_t seed, PlatformKind kind,
                         int requests = 6) {
  DispatchManagerOptions options;
  options.kind = kind;
  options.seed = seed;
  DispatchManager manager{options};
  const workflow::WorkflowDag dag = conditional_dag();
  const auto wf = manager.deploy(conditional_dag());
  std::vector<RequestResult> results;
  results.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) results.push_back(manager.invoke(wf));
  return trace_digest(results, dag);
}

// ---------------------------------------------------------------------------
// Seed replay.
// ---------------------------------------------------------------------------

TEST(determinism, SameSeedSameDigest) {
  for (const PlatformKind kind :
       {PlatformKind::XanaduJit, PlatformKind::XanaduSpeculative,
        PlatformKind::KnativeLike}) {
    EXPECT_EQ(run_digest(42, kind), run_digest(42, kind))
        << "platform " << core::to_string(kind);
  }
}

TEST(determinism, DifferentSeedDifferentDigest) {
  // Dispatch jitter and XOR sampling both consume seeded randomness, so
  // distinct seeds must yield distinct timelines (collision odds over a
  // 64-bit digest are negligible).
  EXPECT_NE(run_digest(1, PlatformKind::XanaduJit),
            run_digest(2, PlatformKind::XanaduJit));
}

TEST(determinism, DigestCoversTimingsNotJustStructure) {
  // One request vs two: the prefix rows are identical, so inequality shows
  // the digest really extends over all emitted records.
  EXPECT_NE(run_digest(42, PlatformKind::XanaduJit, 1),
            run_digest(42, PlatformKind::XanaduJit, 2));
}

TEST(determinism, DigestHexRendersFixedWidth) {
  EXPECT_EQ(metrics::digest_hex(0), "0000000000000000");
  EXPECT_EQ(metrics::digest_hex(0xdeadbeefULL), "00000000deadbeef");
  EXPECT_EQ(common::fnv1a(""), common::kFnvOffsetBasis);
  // Published FNV-1a 64-bit test vector.
  EXPECT_EQ(common::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(determinism, GoldenDigestGuard) {
  // Digests re-pinned ONCE for the RNG stream-discipline fix: provision
  // cold-start jitter now comes from a per-provision stream forked with the
  // stable key (function, worker) instead of the shared cluster stream, and
  // each request's stream is fork_stream(request id) -- removing the
  // speculative-batch order dependence the race detector pinned (the
  // intentional trace change this PR exists for).  If another intentional
  // trace change ever lands, update these constants in the same commit and
  // say why in the message.
  EXPECT_EQ(metrics::digest_hex(run_digest(42, PlatformKind::XanaduJit)),
            "c2afc5031706210f");
  EXPECT_EQ(metrics::digest_hex(run_digest(42, PlatformKind::KnativeLike)),
            "8afd89010356a979");
  EXPECT_EQ(metrics::digest_hex(run_digest(7, PlatformKind::XanaduJit)),
            "09474c8bf1617704");
  EXPECT_EQ(metrics::digest_hex(run_digest(7, PlatformKind::KnativeLike)),
            "cfd4f2f832e32645");
}

TEST(determinism, FaultedRunSameSeedSameDigest) {
  // The seed-replay contract extends over fault injection: the same seed and
  // the same FaultPlanOptions must reproduce the same faults at the same
  // decision points, hence the same trace.  (The per-class scenario matrix
  // lives in fault_injection_test.cpp; this pins the headline property next
  // to the fault-free one above.)
  auto faulted_digest = [](std::uint64_t seed) {
    DispatchManagerOptions options;
    options.kind = PlatformKind::XanaduJit;
    options.seed = seed;
    platform::PlatformCalibration calibration = platform::xanadu_calibration();
    calibration.control_bus.enabled = true;
    options.calibration = calibration;
    options.faults.bus_drop_rate = 0.1;
    options.faults.bus_delay_rate = 0.2;
    options.faults.provision_failure_rate = 0.2;
    options.faults.worker_crash_rate = 0.2;
    DispatchManager manager{options};
    const workflow::WorkflowDag dag = conditional_dag();
    const auto wf = manager.deploy(conditional_dag());
    std::vector<RequestResult> results;
    for (int i = 0; i < 6; ++i) results.push_back(manager.invoke(wf));
    return trace_digest(results, dag);
  };
  EXPECT_EQ(faulted_digest(42), faulted_digest(42));
  EXPECT_NE(faulted_digest(1), faulted_digest(2));
  // Golden faulted digests, re-pinned once with the RNG stream-discipline
  // fix (see GoldenDigestGuard): per-provision jitter and per-request
  // streams are now keyed fork_stream() children, which shifts every draw
  // sequence -- including the fault layer's decision points downstream of
  // engine setup.
  EXPECT_EQ(metrics::digest_hex(faulted_digest(42)), "ac86df31b658c914");
  EXPECT_EQ(metrics::digest_hex(faulted_digest(7)), "1e879155d145937d");
}

// ---------------------------------------------------------------------------
// MetadataStore round-trip.
// ---------------------------------------------------------------------------

TEST(determinism, MetadataDumpParseRoundTripIsStable) {
  // Train a branch model, persist it, and require dump -> parse -> dump to
  // reproduce the exact document text (hence the exact digest).
  DispatchManagerOptions options;
  options.kind = PlatformKind::XanaduJit;
  options.seed = 7;
  DispatchManager manager{options};
  const auto wf = manager.deploy(conditional_dag());
  for (int i = 0; i < 10; ++i) (void)manager.invoke(wf);

  MetadataStore store;
  ASSERT_TRUE(manager.xanadu_policy()->persist(wf, store, "conditional"));
  const std::string text1 = store.dump();

  const auto reparsed = MetadataStore::parse(text1);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
  const std::string text2 = reparsed.value().dump();

  EXPECT_EQ(text1, text2);
  EXPECT_EQ(common::fnv1a(text1), common::fnv1a(text2));
}

TEST(determinism, ReplayFromReparsedMetadataMatchesOriginal) {
  // A control plane restored from a re-parsed document must speculate
  // exactly like one restored from the original: same seed, same trace.
  DispatchManagerOptions train_options;
  train_options.kind = PlatformKind::XanaduJit;
  train_options.seed = 7;
  DispatchManager trainer{train_options};
  const auto trained = trainer.deploy(conditional_dag());
  for (int i = 0; i < 10; ++i) (void)trainer.invoke(trained);
  MetadataStore store;
  ASSERT_TRUE(trainer.xanadu_policy()->persist(trained, store, "conditional"));

  const auto reparsed = MetadataStore::parse(store.dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;

  auto replay = [](const MetadataStore& source) {
    DispatchManagerOptions options;
    options.kind = PlatformKind::XanaduJit;
    options.seed = 99;
    DispatchManager manager{options};
    const workflow::WorkflowDag dag = conditional_dag();
    const auto wf = manager.deploy(conditional_dag());
    const auto restored =
        manager.xanadu_policy()->restore(wf, dag, source, "conditional");
    EXPECT_TRUE(restored.ok() && restored.value());
    std::vector<RequestResult> results;
    for (int i = 0; i < 6; ++i) results.push_back(manager.invoke(wf));
    return trace_digest(results, dag);
  };

  EXPECT_EQ(replay(store), replay(reparsed.value()));
}

// ---------------------------------------------------------------------------
// Invariant audit subsystem.
// ---------------------------------------------------------------------------

TEST(determinism, InvariantThrowsInFailFastMode) {
  AuditGuard guard;
  sim::audit::log().set_mode(Mode::FailFast);
  EXPECT_THROW(XANADU_INVARIANT(1 == 2, "forced failure"), InvariantViolation);
  // InvariantViolation is a logic_error so pre-audit contract tests hold.
  EXPECT_THROW(XANADU_INVARIANT(false, "forced failure"), std::logic_error);
  EXPECT_EQ(sim::audit::log().total(), 2u);
}

TEST(determinism, InvariantCountsInRecordMode) {
  AuditGuard guard;
  sim::audit::log().set_mode(Mode::Record);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NO_THROW(XANADU_INVARIANT(i > 10, "recorded, not thrown"));
  }
  EXPECT_EQ(sim::audit::log().total(), 3u);
  ASSERT_EQ(sim::audit::log().site_count(), 1u);  // one site, three hits
  EXPECT_EQ(sim::audit::log().sites().front().count, 3u);
  EXPECT_NE(sim::audit::log().summary().find("recorded, not thrown"),
            std::string::npos);
}

TEST(determinism, AuditNeverThrows) {
  AuditGuard guard;
  sim::audit::log().set_mode(Mode::FailFast);
  EXPECT_NO_THROW(XANADU_AUDIT(false, "soft check"));
  EXPECT_EQ(sim::audit::log().total(), 1u);
  EXPECT_FALSE(sim::audit::log().sites().front().fatal);
}

TEST(determinism, PassingChecksRecordNothing) {
  AuditGuard guard;
  XANADU_INVARIANT(true, "never recorded");
  XANADU_AUDIT(true, "never recorded");
  EXPECT_EQ(sim::audit::log().total(), 0u);
  EXPECT_EQ(sim::audit::log().site_count(), 0u);
}

TEST(determinism, HealthyEndToEndRunTripsNoInvariants) {
  AuditGuard guard;
  // Full JIT run across a conditional workflow: every engine-step invariant
  // (clock monotonicity, lifecycle legality, counter non-underflow) is
  // evaluated live and none may fire.
  (void)run_digest(42, PlatformKind::XanaduJit);
  EXPECT_EQ(sim::audit::log().total(), 0u) << sim::audit::log().summary();
}

TEST(determinism, WorkerLifecycleViolationIsRecordedInRecordMode) {
  AuditGuard guard;
  cluster::ResourceLedger ledger;
  cluster::SandboxProfile profile;
  cluster::Worker worker{common::WorkerId{1}, common::FunctionId{1},
                         common::HostId{0},  workflow::SandboxKind::Container,
                         256.0,              profile,
                         ledger,             sim::TimePoint{}};
  worker.mark_ready(sim::TimePoint{} + sim::Duration::from_seconds(1));

  // FailFast (default): an illegal transition throws at the site.
  EXPECT_THROW(worker.end_execution(sim::TimePoint{} +
                                    sim::Duration::from_seconds(2)),
               InvariantViolation);

  // Record mode: the same illegal transition is counted instead of thrown
  // and execution continues -- the census is the product.
  sim::audit::log().set_mode(Mode::Record);
  sim::audit::log().clear();
  EXPECT_NO_THROW(worker.end_execution(sim::TimePoint{} +
                                       sim::Duration::from_seconds(3)));
  EXPECT_EQ(sim::audit::log().total(), 1u);
  EXPECT_NE(sim::audit::log().summary().find("end_execution"),
            std::string::npos);
}

}  // namespace
}  // namespace xanadu
