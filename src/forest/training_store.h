// TrainingStore: compact row-major copy of the training data that a forest
// (and all its clones) share. Leaf instance lists and update requests refer
// to rows of this store by RowId.
//
// The store is append-only: AddData grows it with new rows (for DaRE's
// incremental addition) but existing rows are never mutated or removed, so
// every forest sharing the store keeps valid references — a forest simply
// never points at rows it has not added.
//
// Storage is segmented (doubling segments off a fixed pointer table) rather
// than a single contiguous vector so that Append never relocates existing
// rows. That makes the store *append-stable*: a reader that learned about
// rows [0, n) through a release/acquire edge (e.g. an atomically published
// CoW snapshot) may keep reading those rows while a single writer appends
// more — the bytes it reads are never moved or rewritten. Append itself is
// still single-writer; only published rows are safe to read concurrently.

#ifndef FUME_FOREST_TRAINING_STORE_H_
#define FUME_FOREST_TRAINING_STORE_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "util/check.h"

namespace fume {

/// Training-set row index. Training sets are bounded well below 2^31.
using RowId = int32_t;

/// \brief Append-only snapshot of an all-categorical training set.
class TrainingStore {
 public:
  /// Builds a snapshot; `data` must be all-categorical.
  static std::shared_ptr<TrainingStore> Make(const Dataset& data);

  int64_t num_rows() const { return num_rows_.load(std::memory_order_acquire); }
  int num_attrs() const { return num_attrs_; }
  int32_t cardinality(int attr) const { return cards_[attr]; }

  int32_t code(RowId row, int attr) const {
    return row_codes(row)[attr];
  }
  /// The row's codes, one per attribute. Loops that read several
  /// attributes of one row resolve its segment once through this.
  const int32_t* row_codes(RowId row) const {
    const int seg = SegmentOf(row);
    const size_t off = static_cast<size_t>(row) - SegmentStart(seg);
    return code_segs_[static_cast<size_t>(seg)].get() +
           off * static_cast<size_t>(num_attrs_);
  }
  int label(RowId row) const {
    const int seg = SegmentOf(row);
    return label_segs_[static_cast<size_t>(seg)]
                      [static_cast<size_t>(row) - SegmentStart(seg)];
  }

  /// Appends one row and returns its id. Codes must respect the store's
  /// cardinalities; label must be 0/1. Single writer only; concurrent
  /// readers of already-published rows stay valid (see header comment).
  RowId Append(const std::vector<int32_t>& codes, int label);

  /// Reassembles a store from deserialized parts (forest/serialize.cc).
  /// `codes` is row-major with cards.size() columns.
  static std::shared_ptr<TrainingStore> FromParts(
      std::vector<int32_t> cards, std::vector<int32_t> codes,
      std::vector<uint8_t> labels);

 private:
  // Segment 0 holds kBaseRows rows; segment s holds kBaseRows << s. With
  // RowId an int32, 21 doubling segments cover every addressable row, so
  // the pointer table never grows (and never relocates) either.
  static constexpr int kSegmentShift = 11;  // 2048 rows in segment 0
  static constexpr int64_t kBaseRows = int64_t{1} << kSegmentShift;
  static constexpr int kMaxSegments = 21;

  static int SegmentOf(RowId row) {
    return std::bit_width((static_cast<uint64_t>(row) >> kSegmentShift) + 1) -
           1;
  }
  static size_t SegmentStart(int seg) {
    return static_cast<size_t>((kBaseRows << seg) - kBaseRows);
  }
  static size_t SegmentRows(int seg) {
    return static_cast<size_t>(kBaseRows) << seg;
  }

  void AppendRowUnchecked(const int32_t* codes, uint8_t label);

  std::atomic<int64_t> num_rows_{0};
  int num_attrs_ = 0;
  std::vector<int32_t> cards_;
  std::array<std::unique_ptr<int32_t[]>, kMaxSegments> code_segs_;
  std::array<std::unique_ptr<uint8_t[]>, kMaxSegments> label_segs_;
};

}  // namespace fume

#endif  // FUME_FOREST_TRAINING_STORE_H_
