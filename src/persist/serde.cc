#include "persist/serde.h"

#include "common/strings.h"

namespace hazy::persist {

void StateWriter::PutDoubleVec(const std::vector<double>& v) {
  PutU64(v.size());
  for (double d : v) PutDouble(d);
}

void StateWriter::PutU64Vec(const std::vector<uint64_t>& v) {
  PutU64(v.size());
  for (uint64_t u : v) PutU64(u);
}

void StateWriter::PutFeatureVector(const ml::FeatureVector& f) { f.EncodeTo(out_); }

void StateWriter::PutModel(const ml::LinearModel& m) {
  PutDoubleVec(m.w);
  PutDouble(m.b);
}

void StateWriter::PutKernelModel(const ml::KernelModel& m) {
  PutU8(static_cast<uint8_t>(m.kind));
  PutDouble(m.gamma);
  PutU64(m.support.size());
  for (const auto& s : m.support) PutFeatureVector(s);
  PutDoubleVec(m.coeffs);
}

Status StateReader::Truncated(const char* what) {
  return Status::Corruption(StrFormat("state blob truncated reading %s", what));
}

Status StateReader::GetU8(uint8_t* v) {
  if (data_.empty()) return Truncated("u8");
  *v = static_cast<uint8_t>(data_[0]);
  data_.remove_prefix(1);
  return Status::OK();
}

Status StateReader::GetBool(bool* v) {
  uint8_t b = 0;
  HAZY_RETURN_NOT_OK(GetU8(&b));
  *v = b != 0;
  return Status::OK();
}

Status StateReader::GetU32(uint32_t* v) {
  if (!storage::GetFixed32(&data_, v)) return Truncated("u32");
  return Status::OK();
}

Status StateReader::GetU64(uint64_t* v) {
  if (!storage::GetFixed64(&data_, v)) return Truncated("u64");
  return Status::OK();
}

Status StateReader::GetI32(int32_t* v) {
  uint32_t u = 0;
  HAZY_RETURN_NOT_OK(GetU32(&u));
  *v = static_cast<int32_t>(u);
  return Status::OK();
}

Status StateReader::GetI64(int64_t* v) {
  uint64_t u = 0;
  HAZY_RETURN_NOT_OK(GetU64(&u));
  *v = static_cast<int64_t>(u);
  return Status::OK();
}

Status StateReader::GetDouble(double* v) {
  if (!storage::GetDouble(&data_, v)) return Truncated("double");
  return Status::OK();
}

Status StateReader::GetString(std::string* v) {
  std::string_view s;
  if (!storage::GetLengthPrefixed(&data_, &s)) return Truncated("string");
  v->assign(s.data(), s.size());
  return Status::OK();
}

Status StateReader::GetBytes(size_t n, std::string_view* v) {
  if (data_.size() < n) return Truncated("bytes");
  *v = data_.substr(0, n);
  data_.remove_prefix(n);
  return Status::OK();
}

Status StateReader::CheckCount(uint64_t n, size_t min_bytes) const {
  if (min_bytes == 0) min_bytes = 1;
  if (n > data_.size() / min_bytes) {
    return Status::Corruption(
        StrFormat("state blob count %llu exceeds remaining %zu bytes",
                  static_cast<unsigned long long>(n), data_.size()));
  }
  return Status::OK();
}

Status StateReader::ExpectTag(uint32_t tag) {
  uint32_t got = 0;
  HAZY_RETURN_NOT_OK(GetU32(&got));
  if (got != tag) {
    return Status::Corruption(
        StrFormat("state blob section tag mismatch: expected %08x, found %08x", tag, got));
  }
  return Status::OK();
}

Status StateReader::GetDoubleVec(std::vector<double>* v) {
  uint64_t n = 0;
  HAZY_RETURN_NOT_OK(GetU64(&n));
  HAZY_RETURN_NOT_OK(CheckCount(n, sizeof(double)));
  v->clear();
  v->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    double d = 0.0;
    HAZY_RETURN_NOT_OK(GetDouble(&d));
    v->push_back(d);
  }
  return Status::OK();
}

Status StateReader::GetU64Vec(std::vector<uint64_t>* v) {
  uint64_t n = 0;
  HAZY_RETURN_NOT_OK(GetU64(&n));
  HAZY_RETURN_NOT_OK(CheckCount(n, sizeof(uint64_t)));
  v->clear();
  v->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t u = 0;
    HAZY_RETURN_NOT_OK(GetU64(&u));
    v->push_back(u);
  }
  return Status::OK();
}

Status StateReader::GetFeatureVector(ml::FeatureVector* f) {
  HAZY_ASSIGN_OR_RETURN(*f, ml::FeatureVector::DecodeFrom(&data_));
  return Status::OK();
}

Status StateReader::GetModel(ml::LinearModel* m) {
  HAZY_RETURN_NOT_OK(GetDoubleVec(&m->w));
  return GetDouble(&m->b);
}

Status StateReader::GetKernelModel(ml::KernelModel* m) {
  uint8_t kind = 0;
  HAZY_RETURN_NOT_OK(GetU8(&kind));
  m->kind = static_cast<ml::KernelKind>(kind);
  HAZY_RETURN_NOT_OK(GetDouble(&m->gamma));
  uint64_t n = 0;
  HAZY_RETURN_NOT_OK(GetU64(&n));
  HAZY_RETURN_NOT_OK(CheckCount(n));
  m->support.clear();
  m->support.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ml::FeatureVector f;
    HAZY_RETURN_NOT_OK(GetFeatureVector(&f));
    m->support.push_back(std::move(f));
  }
  return GetDoubleVec(&m->coeffs);
}

}  // namespace hazy::persist
