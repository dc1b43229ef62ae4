#include "subset/predicate.h"

#include <algorithm>

namespace fume {

Predicate::Predicate(std::vector<Literal> literals)
    : literals_(std::move(literals)) {
  std::sort(literals_.begin(), literals_.end());
  literals_.erase(std::unique(literals_.begin(), literals_.end()),
                  literals_.end());
}

Predicate Predicate::Of(Literal literal) { return Predicate({literal}); }

Predicate Predicate::With(Literal literal) const {
  std::vector<Literal> lits = literals_;
  lits.push_back(literal);
  return Predicate(std::move(lits));
}

bool Predicate::MatchesRow(const Dataset& data, int64_t row) const {
  for (const Literal& lit : literals_) {
    if (!lit.Matches(data.Code(row, lit.attr))) return false;
  }
  return true;
}

Bitmap Predicate::Match(const Dataset& data) const {
  Bitmap out(data.num_rows());
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    if (MatchesRow(data, r)) out.Set(r);
  }
  return out;
}

std::vector<int32_t> Predicate::MatchingRows(const Dataset& data) const {
  std::vector<int32_t> out;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    if (MatchesRow(data, r)) out.push_back(static_cast<int32_t>(r));
  }
  return out;
}

double Predicate::Support(const Dataset& data) const {
  if (data.num_rows() == 0) return 0.0;
  int64_t matched = 0;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    if (MatchesRow(data, r)) ++matched;
  }
  return static_cast<double>(matched) / static_cast<double>(data.num_rows());
}

bool Predicate::IsSatisfiable(const Schema& schema) const {
  // Per attribute, some code must satisfy every literal on that attribute;
  // otherwise the conjunction is a contradiction like
  // (Age < 50) AND (Age > 70). Scanning codes directly keeps this correct
  // for any cardinality (no 64-bit mask limit).
  for (size_t i = 0; i < literals_.size();) {
    const int attr = literals_[i].attr;
    const int32_t card = schema.attribute(attr).cardinality();
    size_t j = i;
    while (j < literals_.size() && literals_[j].attr == attr) ++j;
    bool some_code_fits = false;
    for (int32_t code = 0; code < card && !some_code_fits; ++code) {
      some_code_fits = true;
      for (size_t t = i; t < j; ++t) {
        if (!literals_[t].Matches(code)) {
          some_code_fits = false;
          break;
        }
      }
    }
    if (!some_code_fits) return false;
    i = j;
  }
  return true;
}

bool Predicate::IsSubsetOf(const Predicate& other) const {
  return std::includes(other.literals_.begin(), other.literals_.end(),
                       literals_.begin(), literals_.end());
}

std::string Predicate::ToString(const Schema& schema) const {
  if (literals_.empty()) return "(true)";
  std::string out;
  for (size_t i = 0; i < literals_.size(); ++i) {
    if (i > 0) out += " AND ";
    out.append("(").append(literals_[i].ToString(schema)).append(")");
  }
  return out;
}

}  // namespace fume
