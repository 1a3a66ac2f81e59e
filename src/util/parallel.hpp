#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

/// Host-side parallel helpers.
///
/// Construction utilities (graph generation, CSR building, validation) run on
/// the host and want simple fork-join parallelism.  The *traversal* itself
/// deliberately does not use this: each simulated GPU owns one thread (see
/// sim::Cluster) so that the communication substrate sees genuine
/// concurrency between devices.
namespace dsbfs::util {

/// Number of worker threads used by parallel_for (defaults to hardware).
std::size_t parallel_worker_count() noexcept;

/// Override worker count (0 = hardware concurrency).  For tests.
void set_parallel_worker_count(std::size_t n) noexcept;

/// Invoke fn(begin, end) on disjoint chunks of [begin, end) across threads.
/// Blocks until all chunks complete.  Falls back to serial for small ranges.
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn);

/// Invoke fn(b) once for every block b in [0, blocks), on up to
/// parallel_worker_count() threads (the caller included) that take blocks
/// from a shared counter.  Unlike parallel_for_chunks there is no item
/// cutoff: each block is taken to be heavy, so even two blocks run
/// concurrently.  Blocks until every block completes; the first exception
/// thrown by a block is rethrown to the caller after all threads joined.
void parallel_for_blocks(std::size_t blocks,
                         const std::function<void(std::size_t)>& fn);

/// Element-wise parallel for.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
  parallel_for_chunks(begin, end, [&fn](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace dsbfs::util
