// The binary codec under every saved format: FUMEDARE forests, FUMESHRD
// shard containers and FUMESTRM engine checkpoints. A file is a header
// (8 magic bytes, a u32 version) followed by PODs in native little-endian
// byte order, vectors (a u64 element count, then the elements) and raw
// blocks whose element count an earlier field gave.
//
// Saved files are input from outside the program. BinaryReader therefore
// never sizes memory from a length whose bytes have not arrived: it fills a
// vector or block in kChunkBytes chunks under the kMaxElements bound, so a
// forged length prefix on a short file costs at most one chunk beyond the
// bytes that were there. The reader keeps its first failure and fails
// every later read, so a caller may check a group of reads once.

#ifndef FUME_UTIL_BINARY_IO_H_
#define FUME_UTIL_BINARY_IO_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace fume {
namespace util {

/// Writes a binary format straight to a std::ostream.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out) : out_(out) {}

  /// The format header: `magic`, then `version` as a u32.
  void Header(const char (&magic)[8], uint32_t version) {
    out_.write(magic, sizeof(magic));
    Pod(version);
  }

  template <typename T>
  void Pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.write(reinterpret_cast<const char*>(&value), sizeof(T));
  }

  /// `count` elements with no length prefix.
  template <typename T>
  void Block(const T* data, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count == 0) return;
    out_.write(reinterpret_cast<const char*>(data),
               static_cast<std::streamsize>(count * sizeof(T)));
  }

  /// The element count as a u64, then the elements.
  template <typename T>
  void Vec(const std::vector<T>& v) {
    Pod(static_cast<uint64_t>(v.size()));
    Block(v.data(), v.size());
  }

  /// False once any write failed.
  bool ok() const { return static_cast<bool>(out_); }

 private:
  std::ostream& out_;
};

/// Reads a binary format from a std::istream, bounded by the bytes present.
class BinaryReader {
 public:
  /// The most elements any vector or block may hold.
  static constexpr uint64_t kMaxElements = uint64_t{1} << 30;
  /// A vector or block grows by at most this many bytes per read.
  static constexpr size_t kChunkBytes = size_t{1} << 16;

  explicit BinaryReader(std::istream& in) : in_(in) {}

  /// Reads a header and fails unless it holds `magic` and `version`.
  /// `format` names the format in the failure ("not a FUME <format> (bad
  /// magic)", "unsupported <format> version N"); `retired` is appended when
  /// the file's version is older than `version`.
  bool Header(const char (&magic)[8], uint32_t version,
              std::string_view format, std::string_view retired = {});

  template <typename T>
  bool Pod(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Raw(value, sizeof(T));
  }

  template <typename... T>
  bool Pods(T*... values) {
    return (Pod(values) && ...);
  }

  /// Replaces `*v` with `count` elements, read a chunk at a time.
  template <typename T>
  bool Block(std::vector<T>* v, uint64_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    v->clear();
    if (!ok()) return false;
    if (count > kMaxElements) {
      return Fail("length " + std::to_string(count) +
                  " over the 2^30-element bound");
    }
    constexpr size_t kChunk = std::max<size_t>(1, kChunkBytes / sizeof(T));
    while (v->size() < count) {
      const size_t done = v->size();
      const size_t n = static_cast<size_t>(
          std::min<uint64_t>(kChunk, count - done));
      v->resize(done + n);
      if (!Raw(v->data() + done, n * sizeof(T))) return false;
    }
    return true;
  }

  /// A u64 element count, then that many elements.
  template <typename T>
  bool Vec(std::vector<T>* v) {
    uint64_t count = 0;
    return Pod(&count) && Block(v, count);
  }

  bool ok() const { return failure_.empty(); }
  /// OK, or an IOError holding the first failure.
  Status status() const;
  /// The IOError for a failed group of reads: "<what>: <first failure>".
  Status Error(std::string_view what) const;
  /// Bytes consumed so far.
  uint64_t consumed() const { return consumed_; }

 private:
  bool Raw(void* dst, size_t bytes);
  /// Keeps `failure` unless an earlier one is kept; returns false.
  bool Fail(std::string failure);

  std::istream& in_;
  uint64_t consumed_ = 0;
  std::string failure_;
};

}  // namespace util
}  // namespace fume

#endif  // FUME_UTIL_BINARY_IO_H_
