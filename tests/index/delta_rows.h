#ifndef MODB_TESTS_INDEX_DELTA_ROWS_H_
#define MODB_TESTS_INDEX_DELTA_ROWS_H_

#include "core/position_attribute.h"
#include "core/types.h"
#include "index/object_index.h"
#include "util/status.h"

namespace modb::index {

/// One-row `ApplyDeltaBatch`: installs `attr` as the motion model of `id`,
/// replacing `before` (null for an object the index does not hold).
inline util::Status UpsertRow(ObjectIndex& index, core::ObjectId id,
                              const core::PositionAttribute& attr,
                              const core::PositionAttribute* before = nullptr) {
  return index.ApplyDeltaBatch({IndexDelta{id, &attr, before}});
}

/// One-row `ApplyDeltaBatch`: removes `id`, whose model is `before` (a
/// no-op for an id the index does not hold).
inline util::Status RemoveRow(ObjectIndex& index, core::ObjectId id,
                              const core::PositionAttribute* before = nullptr) {
  return index.ApplyDeltaBatch({IndexDelta{id, nullptr, before}});
}

}  // namespace modb::index

#endif  // MODB_TESTS_INDEX_DELTA_ROWS_H_
