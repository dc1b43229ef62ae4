#include "util/binary_io.h"

#include <cstring>

namespace fume {
namespace util {

bool BinaryReader::Header(const char (&magic)[8], uint32_t version,
                          std::string_view format, std::string_view retired) {
  if (!ok()) return false;
  const std::string name(format);
  char got[sizeof(magic)];
  if (!Raw(got, sizeof(got)) || std::memcmp(got, magic, sizeof(got)) != 0) {
    failure_ = "not a FUME " + name + " (bad magic)";
    return false;
  }
  uint32_t found = 0;
  if (!Pod(&found)) {
    failure_ = name + " header: " + failure_;
    return false;
  }
  if (found == version) return true;
  std::string failure =
      "unsupported " + name + " version " + std::to_string(found);
  if (found < version) failure.append(retired);
  return Fail(std::move(failure));
}

Status BinaryReader::status() const {
  return ok() ? Status::OK() : Status::IOError(failure_);
}

Status BinaryReader::Error(std::string_view what) const {
  std::string message(what);
  if (!ok()) message.append(": ").append(failure_);
  return Status::IOError(std::move(message));
}

bool BinaryReader::Raw(void* dst, size_t bytes) {
  if (!ok()) return false;
  in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
  consumed_ += static_cast<uint64_t>(in_.gcount());
  if (static_cast<size_t>(in_.gcount()) == bytes) return true;
  return Fail("truncated at byte " + std::to_string(consumed_));
}

bool BinaryReader::Fail(std::string failure) {
  if (ok()) failure_ = std::move(failure);
  return false;
}

}  // namespace util
}  // namespace fume
