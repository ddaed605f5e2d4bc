#include "src/stream/query_feed.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/core/contracts.h"

namespace skyline {

QueryFeed::QueryFeed(QueryService& service, QueryFeedOptions options)
    : service_(service),
      stream_(nullptr),
      options_(options),
      num_dims_(service.data().num_dims()),
      next_id_(static_cast<PointId>(service.current_version()->data.num_points())),
      flushed_through_(next_id_) {
  SKYLINE_ASSERT(options_.batch_size >= 1,
                 "QueryFeed: batch_size must be at least 1");
}

QueryFeed::QueryFeed(QueryService& service, StreamingSkyline& stream,
                     QueryFeedOptions options)
    : QueryFeed(service, options) {
  SKYLINE_ASSERT(stream.num_dims() == num_dims_,
                 "QueryFeed: stream dimensionality must match the service");
  SKYLINE_ASSERT(stream.num_points() == 0,
                 "QueryFeed: mirrored stream must start empty so arrival "
                 "numbering lines up");
  stream_ = &stream;
}

PointId QueryFeed::Push(std::span<const Value> point) {
  SKYLINE_ASSERT(point.size() == num_dims_,
                 "QueryFeed::Push: point has wrong dimensionality");
  const PointId id = next_id_++;
  pending_inserts_.insert(pending_inserts_.end(), point.begin(), point.end());
  if (stream_ != nullptr) stream_->Insert(point);
  if (pending() >= options_.batch_size) Flush();
  return id;
}

void QueryFeed::Remove(PointId id) {
  SKYLINE_ASSERT(id < next_id_, "QueryFeed::Remove: unknown id");
  // ApplyUpdate applies inserts before removes but asserts every removed
  // id predates the batch's own inserts; a remove of a still-buffered
  // point must therefore ship in a later update than its insert.
  if (id >= flushed_through_) Flush();
  pending_removes_.push_back(id);
  if (pending() >= options_.batch_size) Flush();
}

std::uint64_t QueryFeed::Flush() {
  if (pending_inserts_.empty() && pending_removes_.empty()) {
    return service_.epoch();
  }
  flushed_inserts_ += pending_inserts_.size() / num_dims_;
  flushed_removes_ += pending_removes_.size();
  const std::optional<std::uint64_t> epoch =
      service_.ApplyUpdate(pending_inserts_, pending_removes_);
  if (!epoch) {  // a Push or Remove broke its contract
    SKYLINE_CONTRACT_VIOLATION(
        "QueryFeed::Flush: the service refused the batch");
  }
  flushed_through_ = next_id_;
  pending_inserts_.clear();
  pending_removes_.clear();
  return *epoch;
}

}  // namespace skyline
