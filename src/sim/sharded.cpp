#include "sim/sharded.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

namespace xanadu::sim {
namespace {

// Fork-join pool for the rounds.  The caller participates, so the pool
// holds threads-1 workers.  Work items are striped over the participants --
// participant p runs items p, p + P, p + 2P, ... -- so a shard runs on the
// same thread every round and keeps its working set in that core's caches
// (and its allocations in that thread's malloc arena).  All inter-thread
// visibility flows through mutex_ (job handoff and completion); the round
// barrier the ShardedSimulator needs *is* Pool::run() returning.
class Pool {
 public:
  explicit Pool(unsigned workers) {
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
      threads_.emplace_back([this, i] { worker_loop(i + 1); });
    }
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

  /// Runs task(i) for every i in [0, count); returns when all are done.
  /// A task that throws poisons the batch: the first exception is rethrown
  /// here after every participant has run its stripe.
  void run(std::size_t count, const std::function<void(std::size_t)>& task) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      task_ = &task;
      count_ = count;
      active_ = threads_.size();
      error_ = nullptr;
      ++generation_;
    }
    work_cv_.notify_all();
    run_stripe(0, task, count);
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return active_ == 0; });
    if (error_ != nullptr) {
      std::exception_ptr error = std::exchange(error_, nullptr);
      lock.unlock();
      std::rethrow_exception(error);
    }
  }

 private:
  void run_stripe(std::size_t participant,
                  const std::function<void(std::size_t)>& task,
                  std::size_t count) {
    const std::size_t stride = threads_.size() + 1;
    for (std::size_t i = participant; i < count; i += stride) {
      try {
        task(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (error_ == nullptr) error_ = std::current_exception();
      }
    }
  }

  void worker_loop(std::size_t participant) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t)>* task = nullptr;
      std::size_t count = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        task = task_;
        count = count_;
      }
      run_stripe(participant, *task, count);
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        --active_;
        if (active_ == 0) done_cv_.notify_one();
      }
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t count_ = 0;
  std::size_t active_ = 0;  // Workers still running the current batch.
  std::exception_ptr error_ = nullptr;
};


/// "No bound": the time of a shard that can no longer fire in this run.
constexpr TimePoint kNever{std::numeric_limits<std::int64_t>::max()};

TimePoint saturating_add(TimePoint t, Duration d) {
  return t.micros() > kNever.micros() - d.micros() ? kNever : t + d;
}

}  // namespace

void LogicalProcess::send(ShardId to, TimePoint when, EventFn fn,
                          const char* label) {
  ShardMessage message;
  message.when = when;
  message.source = id_;
  message.index = next_index_++;
  message.label = label;
  message.fn = std::move(fn);
  owner_->enqueue(id_, to, std::move(message));
}

void LogicalProcess::halt() {
  if (!owner_->running_) return;
  halted_ = true;
  sim_->interrupt();
}

ShardedSimulator::~ShardedSimulator() = default;

LogicalProcess& ShardedSimulator::add_shard(Simulator& sim) {
  if (running_ || !channels_.empty()) {
    throw std::logic_error{
        "ShardedSimulator::add_shard: shards must be added before the first "
        "connect, send or run"};
  }
  const auto id = static_cast<ShardId>(shards_.size());
  shards_.push_back(
      std::unique_ptr<LogicalProcess>(new LogicalProcess(*this, sim, id)));
  return *shards_.back();
}

void ShardedSimulator::ensure_channels() {
  const std::size_t shard_total = shards_.size();
  if (channels_.size() == shard_total * shard_total) return;
  channels_.resize(shard_total * shard_total);
  scratch_.resize(shard_total);
  plan_.resize(shard_total);
  fired_per_shard_.resize(shard_total, 0);
  delivered_per_shard_.resize(shard_total, 0);
}

void ShardedSimulator::connect(ShardId from, ShardId to,
                               Duration min_latency) {
  if (running_) {
    throw std::logic_error{"ShardedSimulator::connect: not during run()"};
  }
  if (from >= shards_.size() || to >= shards_.size()) {
    throw std::out_of_range{"ShardedSimulator::connect: unknown shard"};
  }
  if (from == to) {
    throw std::invalid_argument{
        "ShardedSimulator::connect: a shard schedules onto itself directly"};
  }
  if (min_latency <= Duration::zero()) {
    // A zero-latency channel would pin the target's bound to the source's
    // clock, so neither could ever get ahead of the other.
    throw std::invalid_argument{
        "ShardedSimulator::connect: channel latency must be positive"};
  }
  ensure_channels();
  Channel& c = channel(from, to);
  if (c.latency == Duration::zero() || min_latency < c.latency) {
    c.latency = min_latency;
  }
}

void ShardedSimulator::enqueue(ShardId from, ShardId to,
                               ShardMessage message) {
  if (to >= shards_.size()) {
    throw std::out_of_range{"LogicalProcess::send: unknown target shard"};
  }
  if (!message.fn) {
    throw std::invalid_argument{"LogicalProcess::send: empty callback"};
  }
  if (channels_.empty() || channel(from, to).latency == Duration::zero()) {
    throw std::logic_error{
        "LogicalProcess::send: no channel declared to the target shard"};
  }
  Channel& c = channel(from, to);
  if (!running_) {
    c.outbox.push_back(std::move(message));
    return;
  }
  Simulator& sim = shards_[from]->simulator();
  if (message.when < sim.now() + c.latency) {
    // The conservative contract: the target's bound assumed nothing on this
    // channel lands sooner than `latency` past the sender's clock.
    throw std::logic_error{
        "LogicalProcess::send: delivery time is below the channel latency"};
  }
  c.outbox.push_back(std::move(message));
  if (c.budget > 0) --c.budget;
  if (c.budget == 0) sim.interrupt();  // At the cap: yield.
}

bool ShardedSimulator::plan_round() {
  const std::size_t shard_total = shards_.size();

  // Mail sent last round becomes visible to its target.  The leftovers
  // join the new mail in the outbox's buffer, which then becomes the inbox:
  // the source sent at most the cap minus those leftovers, so the two fit
  // one buffer and neither buffer grows from round to round.
  for (Channel& c : channels_) {
    if (c.outbox.empty()) continue;
    for (ShardMessage& message : c.inbox) {
      c.outbox.push_back(std::move(message));
    }
    c.inbox.clear();
    std::swap(c.inbox, c.outbox);
  }

  // T_j: the earliest event shard j could still fire -- its queue head or
  // its earliest undelivered mail.  Halted shards fire nothing more.
  std::vector<TimePoint> earliest(shard_total, kNever);
  for (std::size_t j = 0; j < shard_total; ++j) {
    if (shards_[j]->halted_) continue;
    earliest[j] = shards_[j]->simulator().peek_next_time().value_or(kNever);
    for (std::size_t i = 0; i < shard_total; ++i) {
      for (const ShardMessage& message : channels_[i * shard_total + j].inbox) {
        earliest[j] = std::min(earliest[j], message.when);
      }
    }
  }

  // B_j = min over channels (i -> j, L) of (min(T_i, B_i) + L): a
  // shortest-path fixpoint, which positive latencies make converge within
  // shard_total passes even on cyclic channel graphs.
  std::vector<TimePoint> bound(shard_total, kNever);
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < shard_total; ++i) {
      if (shards_[i]->halted_) continue;
      const TimePoint from = std::min(earliest[i], bound[i]);
      for (std::size_t j = 0; j < shard_total; ++j) {
        const Duration latency = channels_[i * shard_total + j].latency;
        if (latency == Duration::zero()) continue;
        const TimePoint candidate = saturating_add(from, latency);
        if (candidate < bound[j]) {
          bound[j] = candidate;
          changed = true;
        }
      }
    }
  }

  bool any_work = false;
  for (std::size_t j = 0; j < shard_total; ++j) {
    const LogicalProcess& lp = *shards_[j];
    RoundPlan& plan = plan_[j];
    plan.bound = bound[j];
    plan.held = false;
    // Work: mail to merge or events to fire below the bound, or a horizon
    // the bound has passed, so the shard can settle there and halt.
    plan.work = !lp.halted_ &&
                (earliest[j] < bound[j] ||
                 (lp.horizon_.has_value() && bound[j] > *lp.horizon_));
    any_work = any_work || plan.work;
  }
  if (!any_work) return false;

  // In-flight cap, from counts taken here: the mail each target will not
  // consume this round stays in flight, and the source may add only up to
  // the cap.  A source with a full channel sits the round out.
  bool any_free = false;
  for (std::size_t i = 0; i < shard_total; ++i) {
    for (std::size_t j = 0; j < shard_total; ++j) {
      Channel& c = channels_[i * shard_total + j];
      if (c.latency == Duration::zero()) continue;
      std::uint64_t remaining = 0;
      for (const ShardMessage& message : c.inbox) {
        if (shards_[j]->halted_ || message.when >= bound[j]) ++remaining;
      }
      c.budget = remaining >= kChannelCap ? 0 : kChannelCap - remaining;
      if (c.budget == 0) plan_[i].held = true;
    }
    any_free = any_free || (plan_[i].work && !plan_[i].held);
  }
  if (!any_free) {
    // Every shard with work is held at the cap, and no target can consume
    // the mail holding it there: grant each full channel one more cap's
    // worth for this round, so the run moves on with memory still bounded.
    for (Channel& c : channels_) {
      if (c.budget == 0) c.budget = kChannelCap;
    }
    for (RoundPlan& plan : plan_) plan.held = false;
  }
  ++rounds_;
  return true;
}

void ShardedSimulator::merge_into(ShardId target, TimePoint bound) {
  const std::size_t shard_total = shards_.size();
  // Sort light keys, not the messages: the callbacks move once, straight
  // from the inbox into the target's queue.
  std::vector<MergeKey>& keys = scratch_[target];
  keys.clear();
  for (std::size_t source = 0; source < shard_total; ++source) {
    for (ShardMessage& message :
         channels_[source * shard_total + target].inbox) {
      if (message.when < bound) {
        keys.push_back(MergeKey{message.when, message.source, message.index,
                                &message});
      }
    }
  }
  if (keys.empty()) return;
  // (when, source, index) is a total order -- index is unique per source --
  // so even an unstable sort yields one well-defined sequence.
  std::sort(keys.begin(), keys.end(),
            [](const MergeKey& a, const MergeKey& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.source != b.source) return a.source < b.source;
              return a.index < b.index;
            });
  Simulator& sim = shards_[target]->simulator();
  for (const MergeKey& key : keys) {
    // Mail sent outside run() (setup wiring, teardown publishes) may target
    // a shard whose clock already passed the modeled delivery time -- shard
    // clocks drift apart between run() calls.  It is delivered "now", like
    // a consumer reading a bus backlog; the clamp is a pure function of
    // virtual clocks, so it cannot vary with thread count.  Mail sent
    // inside run() never needs it: it lands at or past the target's bound.
    sim.schedule_at(std::max(key.when, sim.now()), std::move(key.message->fn),
                    key.message->label);
  }
  for (std::size_t source = 0; source < shard_total; ++source) {
    std::erase_if(channels_[source * shard_total + target].inbox,
                  [bound](const ShardMessage& m) { return m.when < bound; });
  }
  delivered_per_shard_[target] += keys.size();
}

void ShardedSimulator::run_shard(ShardId id) {
  const RoundPlan& plan = plan_[id];
  if (!plan.work) return;
  merge_into(id, plan.bound);
  if (plan.held) return;

  LogicalProcess& lp = *shards_[id];
  Simulator& sim = lp.simulator();
  TimePoint drain_to = plan.bound;
  if (lp.horizon_.has_value() && *lp.horizon_ < drain_to) {
    drain_to = *lp.horizon_ + Duration{1};  // Events at the horizon fire.
  }
  fired_per_shard_[id] += sim.run_before(drain_to);
  if (lp.halted_ || !lp.horizon_.has_value() || plan.bound <= *lp.horizon_) {
    return;
  }
  // No mail can land at or before the horizon any more; once every event
  // up to it has fired, the shard settles there and halts.
  const std::optional<TimePoint> next = sim.peek_next_time();
  if (next.has_value() && *next <= *lp.horizon_) return;  // Yielded early.
  if (sim.now() < *lp.horizon_) sim.run_until(*lp.horizon_);
  lp.halted_ = true;
}

std::uint64_t ShardedSimulator::messages_delivered() const {
  std::uint64_t total = 0;
  for (const std::uint64_t delivered : delivered_per_shard_) {
    total += delivered;
  }
  return total;
}

void ShardedSimulator::end_run() {
  running_ = false;
  for (const std::unique_ptr<LogicalProcess>& lp : shards_) {
    lp->halted_ = false;
    lp->horizon_.reset();
  }
}

std::size_t ShardedSimulator::run(unsigned threads) {
  if (threads == 0) {
    throw std::invalid_argument{"ShardedSimulator::run: threads must be >= 1"};
  }
  if (running_) {
    throw std::logic_error{"ShardedSimulator::run: not re-entrant"};
  }
  if (shards_.empty()) return 0;
  ensure_channels();

  const std::size_t shard_total = shards_.size();
  std::size_t fired_before = 0;
  for (const std::size_t fired : fired_per_shard_) fired_before += fired;

  running_ = true;
  try {
    const unsigned useful =
        static_cast<unsigned>(std::min<std::size_t>(threads, shard_total));
    std::unique_ptr<Pool> pool;
    if (useful > 1) pool = std::make_unique<Pool>(useful - 1);
    const std::function<void(std::size_t)> task = [this](std::size_t s) {
      run_shard(static_cast<ShardId>(s));
    };
    // One barrier per round: plan on this thread, then every shard drains
    // to its own bound.  Each shard's task touches only that shard, its
    // inbound inboxes and its outbound outboxes, so tasks share no mutable
    // state.
    while (plan_round()) {
      if (pool == nullptr) {
        for (std::size_t s = 0; s < shard_total; ++s) task(s);
      } else {
        pool->run(shard_total, task);
      }
    }
  } catch (...) {
    end_run();  // A throw must not wedge the driver or leak limits.
    throw;
  }
  end_run();

  std::size_t fired_after = 0;
  for (const std::size_t fired : fired_per_shard_) fired_after += fired;
  return fired_after - fired_before;
}

}  // namespace xanadu::sim
