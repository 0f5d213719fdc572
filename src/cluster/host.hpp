#pragma once

// Host: one machine in the simulated cluster, with finite memory and a count
// of in-flight provisioning operations used by the Docker concurrent-start
// bottleneck model.

#include <stdexcept>

#include "common/ids.hpp"

namespace xanadu::cluster {

using common::HostId;

class Host {
 public:
  Host(HostId id, double memory_mb) : id_(id), memory_mb_(memory_mb) {
    if (memory_mb <= 0) throw std::invalid_argument{"Host: non-positive memory"};
  }

  [[nodiscard]] HostId id() const { return id_; }
  [[nodiscard]] double memory_mb() const { return memory_mb_; }
  [[nodiscard]] double memory_used_mb() const { return memory_used_mb_; }
  [[nodiscard]] double memory_free_mb() const { return memory_mb_ - memory_used_mb_; }
  [[nodiscard]] unsigned inflight_provisions() const { return inflight_provisions_; }
  /// False while the host is down (fault-injected outage).  Down hosts are
  /// skipped by placement; their memory accounting is untouched so workers
  /// killed by the outage release resources through the normal paths.
  [[nodiscard]] bool available() const { return available_; }
  void set_available(bool available) { available_ = available; }

  /// Reserves memory for a new worker; returns false if it does not fit.
  [[nodiscard]] bool try_reserve_memory(double mb) {
    if (mb < 0) throw std::invalid_argument{"Host: negative reservation"};
    if (memory_used_mb_ + mb > memory_mb_) return false;
    memory_used_mb_ += mb;
    return true;
  }

  void release_memory(double mb) {
    if (mb < 0) throw std::invalid_argument{"Host: negative release"};
    if (mb > memory_used_mb_ + 1e-9) {
      throw std::logic_error{"Host: releasing more memory than reserved"};
    }
    memory_used_mb_ -= mb;
    if (memory_used_mb_ < 0) memory_used_mb_ = 0;
  }

  void provisioning_started() { ++inflight_provisions_; }
  void provisioning_finished() {
    if (inflight_provisions_ == 0) {
      throw std::logic_error{"Host: provisioning_finished with none in flight"};
    }
    --inflight_provisions_;
  }

 private:
  HostId id_;
  double memory_mb_;
  double memory_used_mb_ = 0.0;
  unsigned inflight_provisions_ = 0;
  bool available_ = true;
};

}  // namespace xanadu::cluster
