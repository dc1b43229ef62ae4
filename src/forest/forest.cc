#include "forest/forest.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace fume {

void TrainingStore::AppendRowUnchecked(const int32_t* codes, uint8_t label) {
  const int64_t row = num_rows_.load(std::memory_order_relaxed);
  const int seg = SegmentOf(static_cast<RowId>(row));
  auto& code_seg = code_segs_[static_cast<size_t>(seg)];
  auto& label_seg = label_segs_[static_cast<size_t>(seg)];
  if (code_seg == nullptr) {
    code_seg = std::make_unique<int32_t[]>(SegmentRows(seg) *
                                           static_cast<size_t>(num_attrs_));
    label_seg = std::make_unique<uint8_t[]>(SegmentRows(seg));
  }
  const size_t off = static_cast<size_t>(row) - SegmentStart(seg);
  std::copy(codes, codes + num_attrs_,
            code_seg.get() + off * static_cast<size_t>(num_attrs_));
  label_seg[off] = label;
  // Release so a reader that acquires the new count also sees the row bytes.
  num_rows_.store(row + 1, std::memory_order_release);
}

std::shared_ptr<TrainingStore> TrainingStore::Make(const Dataset& data) {
  FUME_CHECK(data.schema().AllCategorical());
  auto store = std::make_shared<TrainingStore>();
  store->num_attrs_ = data.num_attributes();
  store->cards_.resize(static_cast<size_t>(store->num_attrs_));
  for (int j = 0; j < store->num_attrs_; ++j) {
    store->cards_[static_cast<size_t>(j)] =
        data.schema().attribute(j).cardinality();
  }
  std::vector<int32_t> row_codes(static_cast<size_t>(store->num_attrs_));
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    for (int j = 0; j < store->num_attrs_; ++j) {
      row_codes[static_cast<size_t>(j)] = data.Code(r, j);
    }
    store->AppendRowUnchecked(row_codes.data(),
                              static_cast<uint8_t>(data.Label(r)));
  }
  return store;
}

std::shared_ptr<TrainingStore> TrainingStore::FromParts(
    std::vector<int32_t> cards, std::vector<int32_t> codes,
    std::vector<uint8_t> labels) {
  auto store = std::make_shared<TrainingStore>();
  store->num_attrs_ = static_cast<int>(cards.size());
  FUME_CHECK(store->num_attrs_ > 0);
  FUME_CHECK_EQ(codes.size() % cards.size(), 0u);
  FUME_CHECK_EQ(codes.size(),
                labels.size() * static_cast<size_t>(store->num_attrs_));
  store->cards_ = std::move(cards);
  for (size_t r = 0; r < labels.size(); ++r) {
    store->AppendRowUnchecked(
        codes.data() + r * static_cast<size_t>(store->num_attrs_), labels[r]);
  }
  return store;
}

RowId TrainingStore::Append(const std::vector<int32_t>& codes, int label) {
  FUME_CHECK_EQ(static_cast<int>(codes.size()), num_attrs_);
  FUME_CHECK(label == 0 || label == 1);
  for (int j = 0; j < num_attrs_; ++j) {
    FUME_CHECK(codes[static_cast<size_t>(j)] >= 0 &&
               codes[static_cast<size_t>(j)] < cards_[static_cast<size_t>(j)]);
  }
  const auto id = static_cast<RowId>(num_rows());
  AppendRowUnchecked(codes.data(), static_cast<uint8_t>(label));
  return id;
}

Result<DareForest> DareForest::Train(const Dataset& train,
                                     const ForestConfig& config) {
  obs::TraceSpan span("forest.train", {{"rows", train.num_rows()},
                                       {"trees", config.num_trees}});
  FUME_ASSIGN_OR_RETURN(DareForest forest, TrainUntreed(train, config));
  forest.trees_.reserve(static_cast<size_t>(config.num_trees));
  for (int t = 0; t < config.num_trees; ++t) {
    forest.trees_.push_back(forest.BuildTree(t));
  }
  return forest;
}

Result<DareForest> DareForest::TrainUntreed(const Dataset& train,
                                            const ForestConfig& config) {
  if (!train.schema().AllCategorical()) {
    return Status::Invalid(
        "DareForest requires an all-categorical dataset; discretize numeric "
        "attributes first");
  }
  if (train.num_rows() == 0) {
    return Status::Invalid("cannot train on an empty dataset");
  }
  if (train.num_attributes() == 0) {
    // Every split draw is a keyed hash modulo the attribute count.
    return Status::Invalid("cannot train on a dataset with no attributes");
  }
  if (config.num_trees < 1 || config.max_depth < 1) {
    return Status::Invalid("num_trees and max_depth must be positive");
  }
  if (config.random_depth < 0 || config.random_depth > config.max_depth) {
    return Status::Invalid("random_depth must lie in [0, max_depth]");
  }
  if (config.lazy_unlearn && config.max_lazy_rows < 1) {
    return Status::Invalid("lazy staleness budget must be positive");
  }
  static obs::Counter* trains = obs::GetCounter("forest.train.calls");
  trains->Inc();
  DareForest forest;
  forest.config_ = config;
  forest.store_ = TrainingStore::Make(train);
  return forest;
}

DareTree DareForest::BuildTree(int t) const {
  std::vector<RowId> all_rows(static_cast<size_t>(store_->num_rows()));
  for (size_t r = 0; r < all_rows.size(); ++r) {
    all_rows[r] = static_cast<RowId>(r);
  }
  return DareTree::Build(store_, all_rows, t, config_);
}

namespace {

struct DeletionBatchMetrics {
  obs::Counter* batches = obs::GetCounter("forest.unlearn.batches");
  obs::Counter* rows_deleted = obs::GetCounter("forest.unlearn.rows_deleted");
  obs::Histogram* batch_rows = obs::GetHistogram("forest.unlearn.batch_rows");
  obs::Counter* scratch_reuse =
      obs::GetCounter("forest.unlearn.scratch_reuse");

  static DeletionBatchMetrics& Get() {
    static DeletionBatchMetrics metrics;
    return metrics;
  }

  void Count(size_t rows) {
    batches->Inc();
    rows_deleted->Inc(static_cast<int64_t>(rows));
    batch_rows->Record(static_cast<int64_t>(rows));
  }
};

Status RowOutOfRange(RowId r) {
  return Status::IndexError("row id " + std::to_string(r) + " out of range");
}

Status DuplicateRow(RowId r) {
  return Status::Invalid("duplicate row id " + std::to_string(r) +
                         " in deletion batch");
}

}  // namespace

Status DareForest::BeginDeletionBatch(const std::vector<RowId>& rows,
                                      DeletionScratch* scratch) const {
  DeletionBatchMetrics& m = DeletionBatchMetrics::Get();
  m.Count(rows.size());
  // Duplicate/range validation doubles as the one batch-wide doomed-row
  // marking pass every tree then shares — no per-batch unordered_set.
  if (scratch->BeginBatch(store_->num_rows())) m.scratch_reuse->Inc();
  for (RowId r : rows) {
    if (r < 0 || r >= store_->num_rows()) return RowOutOfRange(r);
    if (!scratch->MarkDoomed(r)) return DuplicateRow(r);
  }
  return Status::OK();
}

Status DareForest::DeleteRows(const std::vector<RowId>& rows,
                              std::vector<DeletionStats>* per_tree,
                              DeletionScratch* scratch) {
  if (per_tree != nullptr) {
    per_tree->assign(trees_.size(), DeletionStats{});
  }
  if (rows.empty()) return Status::OK();
  obs::TraceSpan span("forest.delete",
                      {{"rows", static_cast<int64_t>(rows.size())},
                       {"trees", static_cast<int>(trees_.size())}});
  DeletionScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  FUME_RETURN_NOT_OK(BeginDeletionBatch(rows, scratch));
  for (int t = 0; t < num_trees(); ++t) {
    AddTreeWork(t, DeleteFromTree(t, rows, scratch), per_tree);
  }
  // Staleness budget exceeded: retire the deferred work now rather than
  // letting an unbounded burst pile up retrain debt. The flush retrains
  // land in per_tree, so the report covers all of this call's work.
  if (LazyBudgetExceeded()) FlushAll(per_tree, scratch);
  return Status::OK();
}

DeletionStats DareForest::DeleteFromTree(int t, const std::vector<RowId>& rows,
                                         DeletionScratch* scratch) {
  DeletionStats work;
  trees_[static_cast<size_t>(t)].DeleteRows(rows, &work, scratch);
  return work;
}

bool DareForest::LazyBudgetExceeded() const {
  if (!config_.lazy_unlearn || (lazy_rows() <= config_.max_lazy_rows &&
                                lazy_nodes() <= ForestConfig::kMaxLazyNodes)) {
    return false;
  }
  static obs::Counter* budget_flushes =
      obs::GetCounter("forest.lazy.budget_flushes");
  budget_flushes->Inc();
  return true;
}

void DareForest::AddTreeWork(int t, const DeletionStats& work,
                             std::vector<DeletionStats>* per_tree) {
  deletion_stats_.Add(work);
  if (per_tree != nullptr) (*per_tree)[static_cast<size_t>(t)].Add(work);
}

void DareForest::FlushAll(std::vector<DeletionStats>* per_tree,
                          DeletionScratch* scratch) {
  if (!HasLazyTags()) return;
  obs::TraceSpan span("forest.lazy_flush",
                      {{"rows", lazy_rows()}, {"tags", lazy_nodes()}});
  DeletionScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  if (per_tree != nullptr && per_tree->empty()) {
    per_tree->assign(trees_.size(), DeletionStats{});
  }
  for (int t = 0; t < num_trees(); ++t) {
    if (trees_[static_cast<size_t>(t)].has_lazy_tags()) {
      AddTreeWork(t, FlushTree(t, scratch), per_tree);
    }
  }
}

DeletionStats DareForest::FlushTree(int t, DeletionScratch* scratch) {
  DeletionStats work;
  trees_[static_cast<size_t>(t)].FlushLazy(&work, scratch);
  return work;
}

bool DareForest::HasLazyTags() const {
  for (const auto& tree : trees_) {
    if (tree.has_lazy_tags()) return true;
  }
  return false;
}

int64_t DareForest::lazy_rows() const {
  int64_t total = 0;
  for (const auto& tree : trees_) total += tree.lazy_rows();
  return total;
}

int64_t DareForest::lazy_nodes() const {
  int64_t total = 0;
  for (const auto& tree : trees_) total += tree.lazy_nodes();
  return total;
}

void DareForest::EnsureFlushed() const {
  if (!config_.lazy_unlearn || !HasLazyTags()) return;
  // Logically const (see forest.h): a tagged forest is thread-confined, so
  // this cannot race with another reader.
  const_cast<DareForest*>(this)->FlushAll();
}

void DareForest::SetLazyUnlearn(bool on) {
  if (!on) FlushAll();
  config_.lazy_unlearn = on;
  for (auto& tree : trees_) tree.SetLazyUnlearn(on);
}

Result<std::vector<RowId>> DareForest::AddData(
    const Dataset& rows, std::vector<DeletionStats>* per_tree,
    DeletionScratch* scratch) {
  if (per_tree != nullptr) {
    per_tree->assign(trees_.size(), DeletionStats{});
  }
  obs::TraceSpan span("forest.add", {{"rows", rows.num_rows()}});
  FUME_ASSIGN_OR_RETURN(std::vector<RowId> new_ids, AppendRows(rows));
  DeletionScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  for (int t = 0; t < num_trees(); ++t) {
    AddTreeWork(t, AddToTree(t, new_ids, scratch), per_tree);
  }
  return new_ids;
}

Result<std::vector<RowId>> DareForest::AppendRows(const Dataset& rows) {
  static obs::Counter* adds = obs::GetCounter("forest.add.batches");
  static obs::Counter* added_rows = obs::GetCounter("forest.add.rows_added");
  adds->Inc();
  added_rows->Inc(rows.num_rows());
  FUME_RETURN_NOT_OK(CheckCompatible(rows));
  for (int j = 0; j < rows.num_attributes(); ++j) {
    if (rows.schema().attribute(j).cardinality() >
        store_->cardinality(j)) {
      return Status::Invalid("attribute '" + rows.schema().attribute(j).name +
                             "' has categories unseen at training time");
    }
  }
  std::vector<RowId> new_ids;
  new_ids.reserve(static_cast<size_t>(rows.num_rows()));
  std::vector<int32_t> codes(static_cast<size_t>(rows.num_attributes()));
  for (int64_t r = 0; r < rows.num_rows(); ++r) {
    for (int j = 0; j < rows.num_attributes(); ++j) {
      codes[static_cast<size_t>(j)] = rows.Code(r, j);
    }
    new_ids.push_back(store_->Append(codes, rows.Label(r)));
  }
  return new_ids;
}

DeletionStats DareForest::AddToTree(int t, const std::vector<RowId>& ids,
                                    DeletionScratch* scratch) {
  DareTree& tree = trees_[static_cast<size_t>(t)];
  // Additions route through every level of the tree, so pending lazy tags
  // (stale split decisions below them) must be rebuilt first. The flush
  // work is reported alongside the add work.
  DeletionStats work;
  if (tree.has_lazy_tags()) tree.FlushLazy(&work, scratch);
  tree.AddRows(ids, &work, scratch);
  return work;
}

Status DareForest::CheckCompatible(const Dataset& data) const {
  if (!data.schema().AllCategorical()) {
    return Status::Invalid("prediction data must be all-categorical");
  }
  if (data.num_attributes() != store_->num_attrs()) {
    return Status::Invalid("prediction data has wrong attribute count");
  }
  return Status::OK();
}

double DareForest::PredictProb(const Dataset& data, int64_t row) const {
  FUME_DCHECK(CheckCompatible(data).ok());
  EnsureFlushed();  // first query descent retires any deferred retrains
  double sum = 0.0;
  for (const auto& tree : trees_) {
    sum += tree.PredictProb([&](int attr) { return data.Code(row, attr); });
  }
  return sum / static_cast<double>(trees_.size());
}

int DareForest::Predict(const Dataset& data, int64_t row) const {
  return PredictProb(data, row) >= 0.5 ? 1 : 0;
}

std::vector<double> DareForest::PredictProbAll(const Dataset& data) const {
  FUME_CHECK(CheckCompatible(data).ok());
  EnsureFlushed();  // arenas must never be compiled from a tagged tree
  const std::shared_ptr<const PackedCodes> packed = data.packed_codes();
  const int64_t n_rows = data.num_rows();
  std::vector<double> sums(static_cast<size_t>(n_rows), 0.0);
  for (const auto& tree : trees_) {
    // Tree-outer accumulation adds per-row leaf probabilities in tree
    // order — the same summation PredictProb performs per row, so the
    // means below are byte-identical to the pointer walk.
    tree.arena()->AccumulateProbs(packed->codes.data(), packed->num_attrs,
                                  n_rows, sums.data());
  }
  const double tree_count = static_cast<double>(trees_.size());
  for (double& s : sums) s /= tree_count;
  return sums;
}

std::vector<int> DareForest::PredictAll(const Dataset& data) const {
  std::vector<double> probs = PredictProbAll(data);
  std::vector<int> out(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) out[i] = probs[i] >= 0.5 ? 1 : 0;
  return out;
}

double DareForest::Accuracy(const Dataset& data) const {
  if (data.num_rows() == 0) return 0.0;
  const std::vector<int> preds = PredictAll(data);
  int64_t correct = 0;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    if (preds[static_cast<size_t>(r)] == data.Label(r)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.num_rows());
}

DareForest::~DareForest() {
#ifndef NDEBUG
  for (const auto& tree : trees_) tree.DebugCheckCowConsistency();
#endif
}

DareForest DareForest::Clone() const {
  DareForest out;
  out.store_ = store_;
  out.config_ = config_;
  // deletion_stats_ intentionally not copied: the counters describe work
  // performed on this instance.
  out.trees_.reserve(trees_.size());
  for (const auto& tree : trees_) out.trees_.push_back(tree.Clone());
  return out;
}

bool DareForest::StructurallyEquals(const DareForest& other) const {
  if (trees_.size() != other.trees_.size()) return false;
  for (size_t i = 0; i < trees_.size(); ++i) {
    if (!trees_[i].StructurallyEquals(other.trees_[i])) return false;
  }
  return true;
}

bool DareForest::ValidateStats() const {
  for (const auto& tree : trees_) {
    if (!tree.ValidateStats()) return false;
  }
  return true;
}

DareForest DareForest::FromParts(std::shared_ptr<TrainingStore> store,
                                 const ForestConfig& config,
                                 std::vector<DareTree> trees,
                                 const DeletionStats& stats) {
  DareForest forest;
  forest.store_ = std::move(store);
  forest.config_ = config;
  forest.trees_ = std::move(trees);
  forest.deletion_stats_ = stats;
  return forest;
}

int64_t DareForest::num_nodes() const {
  int64_t total = 0;
  for (const auto& tree : trees_) total += tree.num_nodes();
  return total;
}

int64_t DareForest::num_training_rows() const {
  return trees_.empty() ? 0 : trees_.front().num_training_rows();
}

}  // namespace fume
