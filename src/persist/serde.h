// Binary serialization for checkpointable state (the persist subsystem's
// lowest layer). Everything the classification-view stack must carry across
// a process restart — linear models, kernel expansions, random-feature maps,
// water lines, replay logs, per-architecture incremental state — is written
// through a StateWriter and read back through a StateReader.
//
// The format is the storage layer's little-endian fixed-width coding plus
// 4-byte section tags. Tags make a truncated or mis-ordered blob fail fast
// with Corruption instead of silently mis-restoring a model; they are the
// state-blob analogue of the page-level magic numbers.

#ifndef HAZY_PERSIST_SERDE_H_
#define HAZY_PERSIST_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "ml/kernel_model.h"
#include "ml/model.h"
#include "ml/vector.h"
#include "storage/coding.h"

namespace hazy::persist {

/// Builds a 4-byte section tag from a 4-character literal.
constexpr uint32_t MakeTag(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<unsigned char>(a)) |
         (static_cast<uint32_t>(static_cast<unsigned char>(b)) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(c)) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(d)) << 24);
}

/// \brief Appends typed values to a byte buffer.
class StateWriter {
 public:
  explicit StateWriter(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutU32(uint32_t v) { storage::PutFixed32(out_, v); }
  void PutU64(uint64_t v) { storage::PutFixed64(out_, v); }
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v) { storage::PutDouble(out_, v); }
  void PutString(std::string_view s) { storage::PutLengthPrefixed(out_, s); }
  void PutTag(uint32_t tag) { PutU32(tag); }

  void PutDoubleVec(const std::vector<double>& v);
  void PutU64Vec(const std::vector<uint64_t>& v);
  void PutFeatureVector(const ml::FeatureVector& f);
  void PutModel(const ml::LinearModel& m);
  void PutKernelModel(const ml::KernelModel& m);

  std::string* out() { return out_; }

 private:
  std::string* out_;
};

/// \brief Cursor over a serialized blob; every getter fails with Corruption
/// on truncation, and ExpectTag fails on a section mismatch.
class StateReader {
 public:
  explicit StateReader(std::string_view data) : data_(data) {}

  Status GetU8(uint8_t* v);
  Status GetBool(bool* v);
  Status GetU32(uint32_t* v);
  Status GetU64(uint64_t* v);
  Status GetI32(int32_t* v);
  Status GetI64(int64_t* v);
  Status GetDouble(double* v);
  Status GetString(std::string* v);
  /// Takes the next `n` bytes as a view into the blob (no copy).
  Status GetBytes(size_t n, std::string_view* v);
  Status ExpectTag(uint32_t tag);

  Status GetDoubleVec(std::vector<double>* v);
  Status GetU64Vec(std::vector<uint64_t>* v);
  Status GetFeatureVector(ml::FeatureVector* f);
  Status GetModel(ml::LinearModel* m);
  Status GetKernelModel(ml::KernelModel* m);

  /// Validates an element count against the bytes left in the blob: every
  /// element occupies at least `min_bytes`, so a larger count is provably
  /// corrupt. Call before reserve()-ing count-sized containers — it turns a
  /// bit-flipped length prefix into Corruption instead of std::bad_alloc.
  Status CheckCount(uint64_t n, size_t min_bytes = 1) const;

  size_t remaining() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

 private:
  Status Truncated(const char* what);

  std::string_view data_;
};

}  // namespace hazy::persist

#endif  // HAZY_PERSIST_SERDE_H_
