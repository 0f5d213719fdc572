#include "platform/worker_state.hpp"

#include <stdexcept>
#include <variant>

namespace xanadu::platform {

WorkerStateTracker::WorkerStateTracker(MessageBus& bus) : bus_(bus) {
  subscription_ = bus_.subscribe(
      bus_.intern(kWorkerStateTopic), [this](const BusMessage& m) {
        const auto* event = std::get_if<WorkerEvent>(&m.payload);
        if (event == nullptr) {
          throw std::invalid_argument{
              "WorkerStateTracker: a non-WorkerEvent message on its topic"};
        }
        apply(*event);
      });
}

WorkerStateTracker::~WorkerStateTracker() { bus_.unsubscribe(subscription_); }

void WorkerStateTracker::apply(const WorkerEvent& event) {
  ++events_;
  if (event.kind == WorkerEventKind::Dead) {
    workers_.erase(event.worker);
    return;
  }
  workers_[event.worker] = Entry{event.kind, event.function};
}

std::size_t WorkerStateTracker::live_count() const { return workers_.size(); }

std::size_t WorkerStateTracker::count(WorkerEventKind state) const {
  std::size_t total = 0;
  // Commutative integer count: iteration order cannot affect the result.
  for (const auto& [id, entry] : workers_) {  // lint:allow(unordered-iteration)
    (void)id;
    if (entry.state == state) ++total;
  }
  return total;
}

std::size_t WorkerStateTracker::function_count(common::FunctionId fn) const {
  std::size_t total = 0;
  // Commutative integer count: iteration order cannot affect the result.
  for (const auto& [id, entry] : workers_) {  // lint:allow(unordered-iteration)
    (void)id;
    if (entry.function == fn) ++total;
  }
  return total;
}

}  // namespace xanadu::platform
