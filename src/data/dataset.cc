#include "data/dataset.h"

#include <mutex>
#include <unordered_set>
#include <utility>

#include "util/check.h"
#include "util/string_util.h"

namespace fume {

Dataset::Dataset(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(static_cast<size_t>(schema_.num_attributes()));
}

Dataset::Dataset(const Dataset& other)
    : schema_(other.schema_),
      columns_(other.columns_),
      labels_(other.labels_) {}

Dataset& Dataset::operator=(const Dataset& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  columns_ = other.columns_;
  labels_ = other.labels_;
  ResetPacked();
  return *this;
}

Dataset::Dataset(Dataset&& other) noexcept
    : schema_(std::move(other.schema_)),
      columns_(std::move(other.columns_)),
      labels_(std::move(other.labels_)) {}

Dataset& Dataset::operator=(Dataset&& other) noexcept {
  if (this == &other) return *this;
  schema_ = std::move(other.schema_);
  columns_ = std::move(other.columns_);
  labels_ = std::move(other.labels_);
  ResetPacked();
  return *this;
}

void Dataset::ResetPacked() {
  std::lock_guard<std::mutex> lock(packed_mu_);
  packed_.reset();
}

std::shared_ptr<const PackedCodes> Dataset::packed_codes() const {
  // Called once per batch traversal, never per row, so the lock is cheap;
  // concurrent first callers wait for one build.
  std::lock_guard<std::mutex> lock(packed_mu_);
  if (packed_ != nullptr) return packed_;
  FUME_CHECK(schema_.AllCategorical());
  auto packed = std::make_shared<PackedCodes>();
  const int p = schema_.num_attributes();
  const int64_t n = num_rows();
  packed->num_attrs = p;
  packed->codes.resize(static_cast<size_t>(n) * static_cast<size_t>(p));
  for (int j = 0; j < p; ++j) {
    const std::vector<int32_t>& col = columns_[static_cast<size_t>(j)].codes;
    int32_t* out = packed->codes.data() + j;
    for (int64_t r = 0; r < n; ++r) {
      out[static_cast<size_t>(r) * static_cast<size_t>(p)] =
          col[static_cast<size_t>(r)];
    }
  }
  packed_ = packed;
  return packed;
}

Status Dataset::AppendRow(const std::vector<int32_t>& codes, int label) {
  return AppendRowMixed(codes, {}, label);
}

Status Dataset::AppendRowMixed(const std::vector<int32_t>& codes,
                               const std::vector<double>& numerics,
                               int label) {
  const int p = schema_.num_attributes();
  if (static_cast<int>(codes.size()) != p) {
    return Status::Invalid("row has " + std::to_string(codes.size()) +
                           " codes, schema has " + std::to_string(p) +
                           " attributes");
  }
  if (label != 0 && label != 1) {
    return Status::Invalid("label must be 0 or 1, got " +
                           std::to_string(label));
  }
  for (int j = 0; j < p; ++j) {
    const Attribute& a = schema_.attribute(j);
    if (a.type == AttributeType::kCategorical) {
      const int32_t code = codes[j];
      if (code < 0 || code >= a.cardinality()) {
        return Status::Invalid("code " + std::to_string(code) +
                               " out of range for attribute '" + a.name + "'");
      }
    } else {
      if (static_cast<int>(numerics.size()) != p) {
        return Status::Invalid("numeric attribute '" + a.name +
                               "' requires a numerics vector of full width");
      }
    }
  }
  for (int j = 0; j < p; ++j) {
    const Attribute& a = schema_.attribute(j);
    if (a.type == AttributeType::kCategorical) {
      columns_[j].codes.push_back(codes[j]);
    } else {
      columns_[j].numeric.push_back(numerics[j]);
    }
  }
  labels_.push_back(static_cast<uint8_t>(label));
  ResetPacked();  // the packed snapshot no longer covers all rows
  return Status::OK();
}

double Dataset::PositiveRate() const {
  if (labels_.empty()) return 0.0;
  int64_t pos = 0;
  for (uint8_t y : labels_) pos += y;
  return static_cast<double>(pos) / static_cast<double>(labels_.size());
}

double Dataset::BaseRate(int attr, int32_t code) const {
  int64_t in_group = 0;
  int64_t pos = 0;
  const auto& col = columns_[attr].codes;
  for (int64_t i = 0; i < num_rows(); ++i) {
    if (col[i] == code) {
      ++in_group;
      pos += labels_[i];
    }
  }
  if (in_group == 0) return 0.0;
  return static_cast<double>(pos) / static_cast<double>(in_group);
}

double Dataset::GroupFraction(int attr, int32_t code) const {
  if (num_rows() == 0) return 0.0;
  int64_t in_group = 0;
  for (int32_t c : columns_[attr].codes) {
    if (c == code) ++in_group;
  }
  return static_cast<double>(in_group) / static_cast<double>(num_rows());
}

Dataset Dataset::Select(const std::vector<int64_t>& rows) const {
  Dataset out(schema_);
  const int p = schema_.num_attributes();
  for (int j = 0; j < p; ++j) {
    const ColumnData& src = columns_[j];
    ColumnData& dst = out.columns_[j];
    if (schema_.attribute(j).type == AttributeType::kCategorical) {
      dst.codes.reserve(rows.size());
      for (int64_t r : rows) dst.codes.push_back(src.codes[r]);
    } else {
      dst.numeric.reserve(rows.size());
      for (int64_t r : rows) dst.numeric.push_back(src.numeric[r]);
    }
  }
  out.labels_.reserve(rows.size());
  for (int64_t r : rows) out.labels_.push_back(labels_[r]);
  return out;
}

Dataset Dataset::DropRows(const std::vector<int64_t>& rows) const {
  std::vector<uint8_t> drop(static_cast<size_t>(num_rows()), 0);
  for (int64_t r : rows) {
    FUME_CHECK(r >= 0 && r < num_rows());
    drop[static_cast<size_t>(r)] = 1;
  }
  std::vector<int64_t> keep;
  keep.reserve(static_cast<size_t>(num_rows()));
  for (int64_t i = 0; i < num_rows(); ++i) {
    if (!drop[static_cast<size_t>(i)]) keep.push_back(i);
  }
  return Select(keep);
}

Dataset Dataset::WithPermutedColumn(int attr,
                                    const std::vector<int64_t>& perm) const {
  FUME_CHECK_EQ(static_cast<int64_t>(perm.size()), num_rows());
  Dataset out = *this;
  ColumnData& col = out.columns_[attr];
  if (schema_.attribute(attr).type == AttributeType::kCategorical) {
    const std::vector<int32_t>& src = columns_[attr].codes;
    for (int64_t i = 0; i < num_rows(); ++i) {
      col.codes[static_cast<size_t>(i)] =
          src[static_cast<size_t>(perm[static_cast<size_t>(i)])];
    }
  } else {
    const std::vector<double>& src = columns_[attr].numeric;
    for (int64_t i = 0; i < num_rows(); ++i) {
      col.numeric[static_cast<size_t>(i)] =
          src[static_cast<size_t>(perm[static_cast<size_t>(i)])];
    }
  }
  return out;
}

std::string Dataset::CellToString(int64_t row, int attr) const {
  const Attribute& a = schema_.attribute(attr);
  if (a.type == AttributeType::kCategorical) {
    return a.categories[static_cast<size_t>(Code(row, attr))];
  }
  return FormatDouble(Numeric(row, attr), 4);
}

Status Dataset::Validate() const {
  const int p = schema_.num_attributes();
  if (static_cast<int>(columns_.size()) != p) {
    return Status::Internal("column count does not match schema");
  }
  for (int j = 0; j < p; ++j) {
    const Attribute& a = schema_.attribute(j);
    const ColumnData& col = columns_[j];
    if (a.type == AttributeType::kCategorical) {
      if (static_cast<int64_t>(col.codes.size()) != num_rows()) {
        return Status::Internal("length mismatch in column '" + a.name + "'");
      }
      for (int32_t c : col.codes) {
        if (c < 0 || c >= a.cardinality()) {
          return Status::Internal("code out of range in column '" + a.name +
                                  "'");
        }
      }
    } else {
      if (static_cast<int64_t>(col.numeric.size()) != num_rows()) {
        return Status::Internal("length mismatch in column '" + a.name + "'");
      }
    }
  }
  return Status::OK();
}

}  // namespace fume
