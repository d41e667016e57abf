#ifndef MODB_INDEX_LINEAR_SCAN_INDEX_H_
#define MODB_INDEX_LINEAR_SCAN_INDEX_H_

#include <unordered_map>

#include "geo/route_network.h"
#include "index/object_index.h"

namespace modb::index {

/// Baseline access method: examine every object (the paper's strawman the
/// sublinear index is measured against). Returns each object whose current
/// uncertainty-interval bounding box intersects the query region's box.
///
/// Satisfies the `ObjectIndex` thread-compatibility contract: the const
/// query paths only read `attrs_`, so concurrent readers are safe under a
/// shared lock.
class LinearScanIndex final : public ObjectIndex {
 public:
  /// `network` must outlive the index.
  explicit LinearScanIndex(const geo::RouteNetwork* network)
      : network_(network) {}

  util::Status ApplyDeltaBatch(const std::vector<IndexDelta>& deltas) override;
  using ObjectIndex::BulkUpsert;
  util::Status BulkUpsert(const std::vector<IndexDelta>& rows) override;
  std::vector<core::ObjectId> Candidates(const geo::Polygon& region,
                                         core::Time t) const override;
  std::vector<core::ObjectId> CandidatesInWindow(const geo::Polygon& region,
                                                 core::Time t1,
                                                 core::Time t2) const override;
  std::string_view name() const override { return "scan"; }
  std::size_t num_objects() const override { return attrs_.size(); }
  std::size_t num_entries() const override { return attrs_.size(); }

 private:
  const geo::RouteNetwork* network_;
  std::unordered_map<core::ObjectId, core::PositionAttribute> attrs_;
};

}  // namespace modb::index

#endif  // MODB_INDEX_LINEAR_SCAN_INDEX_H_
