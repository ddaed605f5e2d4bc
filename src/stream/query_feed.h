// QueryFeed — the bridge from the streaming layer's arrival model to
// the query stack's epoch model.
//
// StreamingSkyline consumes arrivals one at a time; QueryService
// consumes batched ApplyUpdate(inserts, removes) calls, each of which
// bumps the dataset epoch and sweeps the cuboid cache. Feeding the
// service one-point batches would pay one cache sweep per arrival;
// QueryFeed buffers arrivals (and removals) and flushes them as one
// update per `batch_size` events, amortizing the sweep the same way the
// server's batcher amortizes dispatch.
//
// Id contract: the feed assigns ids in arrival order starting from the
// service's construction-time point count — exactly the ids
// ApplyUpdate will assign on flush, so Push() can return the point's
// final PointId immediately, before it is flushed. When a mirrored
// StreamingSkyline is attached (mirror constructor), every Push is also
// forwarded to it; since the stream numbers arrivals the same way, a
// point's stream external id equals its service id minus the service's
// initial point count. The mirror is insert-only — StreamingSkyline
// does not support deletions — so Remove() affects the service alone.
//
// Not thread-safe: one producer (or an external lock) drives the feed;
// the QueryService underneath stays safe for concurrent readers
// throughout, including during Flush().
#ifndef SKYLINE_STREAM_QUERY_FEED_H_
#define SKYLINE_STREAM_QUERY_FEED_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/dataset.h"
#include "src/query/query_service.h"
#include "src/stream/streaming_skyline.h"

namespace skyline {

/// Tuning knobs for QueryFeed.
struct QueryFeedOptions {
  /// Buffered events (inserts + removes) that trigger an automatic
  /// flush. 1 flushes every event (one epoch per arrival); larger
  /// values trade staleness of the served dataset for fewer cache
  /// sweeps. Must be at least 1.
  std::size_t batch_size = 64;
};

/// Buffers dataset mutations and flushes them into a QueryService as
/// batched epoch updates.
class QueryFeed {
 public:
  /// Feeds `service` alone.
  explicit QueryFeed(QueryService& service, QueryFeedOptions options = {});

  /// Feeds `service` and mirrors every insert into `stream` (which must
  /// have the same dimensionality and start empty so arrival numbering
  /// lines up).
  QueryFeed(QueryService& service, StreamingSkyline& stream,
            QueryFeedOptions options = {});

  QueryFeed(const QueryFeed&) = delete;
  QueryFeed& operator=(const QueryFeed&) = delete;

  /// Buffers one arriving point (`point` must have num_dims values) and
  /// returns the PointId it will carry in the service — valid before
  /// the flush that installs it. Auto-flushes when the buffer reaches
  /// batch_size.
  PointId Push(std::span<const Value> point);

  /// Buffers the removal of `id`, which must name a point not removed
  /// yet: one the service already knows or one still buffered (the
  /// feed flushes first in that case — ApplyUpdate cannot remove an id
  /// from its own batch). Auto-flushes when the buffer reaches
  /// batch_size.
  void Remove(PointId id);

  /// Applies every buffered event as one ApplyUpdate and returns the
  /// resulting epoch (the current one if nothing was buffered). A batch
  /// the service refuses (a broken Push or Remove contract) is a
  /// contract violation in every build type.
  std::uint64_t Flush();

  /// Buffered, not-yet-applied events.
  std::size_t pending() const {
    return pending_inserts_.size() / num_dims_ + pending_removes_.size();
  }

  /// Id the next Push() will return.
  PointId next_id() const { return next_id_; }

  /// Total events ever flushed into the service.
  std::uint64_t flushed_inserts() const { return flushed_inserts_; }
  std::uint64_t flushed_removes() const { return flushed_removes_; }

 private:
  QueryService& service_;
  StreamingSkyline* stream_;  // optional mirror, insert-only
  const QueryFeedOptions options_;
  const Dim num_dims_;

  std::vector<Value> pending_inserts_;    // row-major block
  std::vector<PointId> pending_removes_;  // already-flushed ids only
  PointId next_id_;
  PointId flushed_through_;  // ids below this are in the service
  std::uint64_t flushed_inserts_ = 0;
  std::uint64_t flushed_removes_ = 0;
};

}  // namespace skyline

#endif  // SKYLINE_STREAM_QUERY_FEED_H_
