#include "sim/sharded.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

namespace xanadu::sim {

void fork_join(std::size_t count, unsigned threads,
               const std::function<void(std::size_t)>& task) {
  if (threads == 0) {
    throw std::invalid_argument{"fork_join: threads must be >= 1"};
  }
  const std::size_t participants = std::min<std::size_t>(threads, count);
  // One slot per task, written only by the thread that runs the task and
  // read only after the join.
  std::vector<std::exception_ptr> errors(count);
  const auto run_stripe = [&](std::size_t participant) {
    for (std::size_t i = participant; i < count; i += participants) {
      try {
        task(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    // jthreads join on destruction, so a failed spawn still waits for the
    // stripes already running before the error leaves.
    std::vector<std::jthread> workers;
    workers.reserve(participants > 0 ? participants - 1 : 0);
    for (std::size_t p = 1; p < participants; ++p) {
      workers.emplace_back(run_stripe, p);
    }
    run_stripe(0);
  }
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) std::rethrow_exception(error);
  }
}

}  // namespace xanadu::sim
