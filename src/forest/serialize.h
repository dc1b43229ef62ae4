// Binary serialization of trained DaRE forests. The saved artifact contains
// the training snapshot, the configuration and every node's cached
// statistics, so a loaded forest supports further exact unlearning and
// addition — an audit can train once and debug many times.
//
// Format (util/binary_io.h): header "FUMEDARE" version 2, config block,
// deletion-stats block, training store block, then each tree pre-order.
// Version 1 files are refused.

#ifndef FUME_FOREST_SERIALIZE_H_
#define FUME_FOREST_SERIALIZE_H_

#include <iosfwd>
#include <string>

#include "forest/forest.h"
#include "util/binary_io.h"
#include "util/result.h"

namespace fume {

Status SaveForest(const DareForest& forest, std::ostream& out);
Result<DareForest> LoadForest(std::istream& in);
/// Reads one forest from `in`, which may already have consumed an
/// enclosing format's fields (ShardedForest::Load).
Result<DareForest> LoadForest(util::BinaryReader& in);

Status SaveForestToFile(const DareForest& forest, const std::string& path);
Result<DareForest> LoadForestFromFile(const std::string& path);

}  // namespace fume

#endif  // FUME_FOREST_SERIALIZE_H_
