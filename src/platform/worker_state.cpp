#include "platform/worker_state.hpp"

#include <memory>
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
  const Entry entry{event.kind, event.function};
  if (Entry* known = workers_.find(event.worker)) {
    *known = entry;
  } else {
    workers_.insert(event.worker, std::make_unique<Entry>(entry));
  }
}

std::size_t WorkerStateTracker::live_count() const { return workers_.size(); }

std::size_t WorkerStateTracker::count(WorkerEventKind state) const {
  std::size_t total = 0;
  workers_.for_each([&](common::WorkerId, const Entry& entry) {
    if (entry.state == state) ++total;
  });
  return total;
}

std::size_t WorkerStateTracker::function_count(common::FunctionId fn) const {
  std::size_t total = 0;
  workers_.for_each([&](common::WorkerId, const Entry& entry) {
    if (entry.function == fn) ++total;
  });
  return total;
}

}  // namespace xanadu::platform
