#include "core/dispatch_manager.hpp"

#include <stdexcept>
#include <utility>

namespace xanadu::core {

const char* to_string(PlatformKind kind) {
  switch (kind) {
    case PlatformKind::XanaduCold: return "xanadu-cold";
    case PlatformKind::XanaduSpeculative: return "xanadu-speculative";
    case PlatformKind::XanaduJit: return "xanadu-jit";
    case PlatformKind::KnativeLike: return "knative";
    case PlatformKind::OpenWhiskLike: return "openwhisk";
    case PlatformKind::AsfLike: return "asf";
    case PlatformKind::AdfLike: return "adf";
    case PlatformKind::PrewarmAll: return "prewarm-all";
    case PlatformKind::WarmPool: return "warm-pool";
    case PlatformKind::MpcHorizon: return "mpc-horizon";
  }
  return "unknown";
}

platform::PlatformCalibration preset_calibration(PlatformKind kind) {
  switch (kind) {
    case PlatformKind::XanaduCold:
    case PlatformKind::XanaduSpeculative:
    case PlatformKind::XanaduJit:
    case PlatformKind::PrewarmAll:
    case PlatformKind::WarmPool:
    case PlatformKind::MpcHorizon:
      // The competitor policies run on Xanadu's platform mechanics so the
      // tournament isolates the provisioning decision, not the overheads.
      return platform::xanadu_calibration();
    case PlatformKind::KnativeLike:
      return platform::knative_like_calibration();
    case PlatformKind::OpenWhiskLike:
      return platform::openwhisk_like_calibration();
    case PlatformKind::AsfLike:
      return platform::asf_like_calibration();
    case PlatformKind::AdfLike:
      return platform::adf_like_calibration();
  }
  throw std::invalid_argument{"preset_calibration: unknown platform kind"};
}

namespace {

SpeculationMode mode_for(PlatformKind kind) {
  switch (kind) {
    case PlatformKind::XanaduSpeculative: return SpeculationMode::Speculative;
    case PlatformKind::XanaduJit: return SpeculationMode::Jit;
    default: return SpeculationMode::Off;
  }
}

}  // namespace

DispatchManager::DispatchManager(DispatchManagerOptions options)
    : options_(std::move(options)) {
  common::Rng seed_rng{options_.seed};
  cluster_ = std::make_unique<cluster::Cluster>(options_.cluster,
                                                seed_rng.fork());

  platform::ProvisionPolicy* policy = nullptr;
  switch (options_.kind) {
    case PlatformKind::XanaduCold:
    case PlatformKind::XanaduSpeculative:
    case PlatformKind::XanaduJit: {
      XanaduOptions xo = options_.xanadu;
      xo.mode = mode_for(options_.kind);
      xanadu_policy_ = std::make_unique<XanaduPolicy>(xo);
      policy = xanadu_policy_.get();
      break;
    }
    case PlatformKind::PrewarmAll:
      prewarm_policy_ = std::make_unique<platform::PrewarmAllPolicy>();
      policy = prewarm_policy_.get();
      break;
    case PlatformKind::WarmPool:
      pool_policy_ = std::make_unique<platform::PoolPolicy>(options_.pool);
      policy = pool_policy_.get();
      break;
    case PlatformKind::MpcHorizon:
      mpc_policy_ = std::make_unique<platform::MpcHorizonPolicy>(options_.mpc);
      policy = mpc_policy_.get();
      break;
    default:
      break;  // Baselines run the engine's pure on-trigger path.
  }

  platform::PlatformCalibration calibration =
      options_.calibration ? *options_.calibration
                           : preset_calibration(options_.kind);
  if (options_.faults.any_enabled()) {
    calibration.faults = options_.faults;
    calibration.recovery = options_.recovery;
  }
  engine_ = std::make_unique<platform::PlatformEngine>(
      sim_, *cluster_, calibration, policy, seed_rng.fork());
  engine_->register_probes(probes_);
}

common::WorkflowId DispatchManager::deploy(workflow::WorkflowDag dag) {
  return engine_->register_workflow(std::move(dag));
}

platform::RequestResult DispatchManager::invoke(common::WorkflowId workflow) {
  return engine_->run_one(workflow);
}

common::RequestId DispatchManager::submit(common::WorkflowId workflow,
                                          platform::CompletionCallback cb) {
  return engine_->submit(workflow, std::move(cb));
}

void DispatchManager::force_cold_start() {
  engine_->flush_all_warm_workers();
}

void DispatchManager::idle_for(sim::Duration duration) {
  sim_.run_until(sim_.now() + duration);
}

}  // namespace xanadu::core
