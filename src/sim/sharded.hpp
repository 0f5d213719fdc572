#pragma once

// fork_join: runs independent per-shard tasks on a handful of OS threads.
//
// A sharded run (workload::run_sharded_mix) is N tenant deployments that
// share nothing: each owns its Simulator, cluster, engine and control bus,
// and no event or message ever crosses from one shard to another.  So each
// shard runs its whole lifecycle as one task, and the join at the end is
// the only synchronisation.
//
// Determinism: a task touches only its own shard, so every shard fires the
// same events in the same order whichever thread runs it, and thread count
// buys wall-clock time only.  threads == 1 runs every task on the calling
// thread, in index order -- the sequential oracle the parallel runs must
// reproduce bit-for-bit (tests/sharded_determinism_test.cpp).

#include <cstddef>
#include <functional>

namespace xanadu::sim {

/// Runs task(i) for every i in [0, count) on min(threads, count)
/// participants, the calling thread included.  Participant p runs tasks
/// p, p + P, p + 2P, ... in order.  Tasks must share no mutable state.  A
/// task that throws does not stop the others: once every task has finished,
/// the exception of the lowest-index task that threw is rethrown here.
/// threads == 0 throws std::invalid_argument.
void fork_join(std::size_t count, unsigned threads,
               const std::function<void(std::size_t)>& task);

}  // namespace xanadu::sim
