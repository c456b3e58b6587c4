#include "sql/result_set.h"

#include <cstring>
#include <sstream>

#include "common/logging.h"
#include "common/strings.h"

namespace hazy::sql {

// INT and REAL blocks are the columns' own bytes, so the host's byte order
// must be the wire's (storage/coding.h makes the same assumption).
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "ResultSet v2 copies 8-byte values as little-endian bytes");

namespace {

constexpr uint32_t kResultSetTag = persist::MakeTag('R', 'S', 'E', 'T');
// Version 2 is columnar. Version 1 (a tagged value per cell) is not read.
constexpr uint8_t kResultSetVersion = 2;

// Column block flags.
constexpr uint8_t kHasNullMask = 1;

// Value kind tags of EncodeValue (wire-frozen, like the status codes).
constexpr uint8_t kValNull = 0;
constexpr uint8_t kValInt64 = 1;
constexpr uint8_t kValDouble = 2;
constexpr uint8_t kValText = 3;

Status CellError(const char* what, size_t row, size_t col) {
  return Status::InvalidArgument(
      StrFormat("%s at result cell (%zu, %zu)", what, row, col));
}

bool HasCell(const std::vector<ColumnValues>& cols, size_t row, size_t col) {
  return col < cols.size() && row < cols[col].size();
}

/// Bytes every row takes in a column block of this type: an 8-byte value,
/// or a TEXT value's 4-byte length.
size_t MinRowBytes(storage::ColumnType type) {
  return type == storage::ColumnType::kText ? 4 : 8;
}

const char* ValueKindName(const storage::Value& v) {
  if (std::holds_alternative<int64_t>(v)) return "INT";
  if (std::holds_alternative<double>(v)) return "REAL";
  return "TEXT";
}

// An empty vector's data() may be null, which memcpy must not be given.
template <typename T>
void AppendFixed(const std::vector<T>& values, std::string* out) {
  if (values.empty()) return;
  out->append(reinterpret_cast<const char*>(values.data()), values.size() * sizeof(T));
}

template <typename T>
Status ReadFixed(persist::StateReader* r, uint64_t n, std::vector<T>* out) {
  std::string_view bytes;
  HAZY_RETURN_NOT_OK(r->GetBytes(n * sizeof(T), &bytes));
  if (n == 0) return Status::OK();
  out->resize(n);
  std::memcpy(out->data(), bytes.data(), bytes.size());
  return Status::OK();
}

}  // namespace

void EncodeValue(persist::StateWriter* w, const storage::Value& v) {
  if (std::holds_alternative<std::monostate>(v)) {
    w->PutU8(kValNull);
  } else if (const auto* i = std::get_if<int64_t>(&v)) {
    w->PutU8(kValInt64);
    w->PutI64(*i);
  } else if (const auto* d = std::get_if<double>(&v)) {
    w->PutU8(kValDouble);
    w->PutDouble(*d);
  } else {
    w->PutU8(kValText);
    w->PutString(std::get<std::string>(v));
  }
}

Status DecodeValue(persist::StateReader* r, storage::Value* v) {
  uint8_t kind = 0;
  HAZY_RETURN_NOT_OK(r->GetU8(&kind));
  switch (kind) {
    case kValNull:
      *v = std::monostate{};
      return Status::OK();
    case kValInt64: {
      int64_t i = 0;
      HAZY_RETURN_NOT_OK(r->GetI64(&i));
      *v = i;
      return Status::OK();
    }
    case kValDouble: {
      double d = 0;
      HAZY_RETURN_NOT_OK(r->GetDouble(&d));
      *v = d;
      return Status::OK();
    }
    case kValText: {
      std::string s;
      HAZY_RETURN_NOT_OK(r->GetString(&s));
      *v = std::move(s);
      return Status::OK();
    }
    default:
      return Status::Corruption(StrFormat("unknown value kind %u", kind));
  }
}

ColumnValues::ColumnValues(storage::ColumnType type) {
  switch (type) {
    case storage::ColumnType::kInt64:
      values_.emplace<Ints>();
      break;
    case storage::ColumnType::kDouble:
      values_.emplace<Reals>();
      break;
    case storage::ColumnType::kText:
      values_.emplace<Texts>();
      break;
  }
}

size_t ColumnValues::size() const {
  return std::visit([](const auto& v) { return v.size(); }, values_);
}

void ColumnValues::NoteAppend(bool null) {
  if (null) {
    if (nulls_.empty()) nulls_.resize(size() - 1, 0);
    nulls_.push_back(1);
  } else if (!nulls_.empty()) {
    nulls_.push_back(0);
  }
}

void ColumnValues::AppendInt(int64_t v) {
  std::get<Ints>(values_).push_back(v);
  NoteAppend(false);
}

void ColumnValues::AppendReal(double v) {
  std::get<Reals>(values_).push_back(v);
  NoteAppend(false);
}

void ColumnValues::AppendText(std::string v) {
  text_bytes_ += v.size();
  std::get<Texts>(values_).push_back(std::move(v));
  NoteAppend(false);
}

void ColumnValues::AppendNull() {
  std::visit([](auto& v) { v.emplace_back(); }, values_);
  NoteAppend(true);
}

Status ColumnValues::Append(const storage::Value& v) {
  if (std::holds_alternative<std::monostate>(v)) {
    AppendNull();
    return Status::OK();
  }
  switch (type()) {
    case storage::ColumnType::kInt64:
      if (const auto* i = std::get_if<int64_t>(&v)) {
        AppendInt(*i);
        return Status::OK();
      }
      break;
    case storage::ColumnType::kDouble:
      if (const auto* d = std::get_if<double>(&v)) {
        AppendReal(*d);
        return Status::OK();
      }
      if (const auto* i = std::get_if<int64_t>(&v)) {
        AppendReal(static_cast<double>(*i));
        return Status::OK();
      }
      break;
    case storage::ColumnType::kText:
      if (const auto* s = std::get_if<std::string>(&v)) {
        AppendText(*s);
        return Status::OK();
      }
      break;
  }
  return Status::InvalidArgument(StrFormat("a %s value does not fit a %s result column",
                                           ValueKindName(v), ColumnTypeToString(type())));
}

void ColumnValues::SetInts(std::vector<int64_t> ids) {
  HAZY_DCHECK(size() == 0);
  std::get<Ints>(values_) = std::move(ids);
}

void ColumnValues::Reserve(size_t n) {
  std::visit([n](auto& v) { v.reserve(n); }, values_);
}

storage::Value ColumnValues::ValueAt(size_t row) const {
  if (IsNull(row)) return std::monostate{};
  return std::visit([row](const auto& v) { return storage::Value(v[row]); }, values_);
}

ColumnValues& ResultSet::AddColumn(std::string name, storage::ColumnType type) {
  columns.push_back({std::move(name), type});
  return rows.columns_.emplace_back(type);
}

Status ResultSet::AppendRow(const storage::Row& row) {
  if (row.size() != rows.columns_.size()) {
    return Status::Internal(StrFormat("result row has %zu values for %zu columns",
                                      row.size(), rows.columns_.size()));
  }
  for (size_t c = 0; c < row.size(); ++c) {
    HAZY_RETURN_NOT_OK(rows.columns_[c].Append(row[c]));
  }
  return Status::OK();
}

bool ResultSet::IsNull(size_t row, size_t col) const {
  return HasCell(rows.columns_, row, col) && rows.columns_[col].IsNull(row);
}

StatusOr<int64_t> ResultSet::Int64At(size_t row, size_t col) const {
  if (!HasCell(rows.columns_, row, col)) return CellError("no value", row, col);
  const ColumnValues& c = rows.columns_[col];
  if (c.type() == storage::ColumnType::kInt64 && !c.IsNull(row)) return c.ints()[row];
  return CellError("not an INT value", row, col);
}

StatusOr<double> ResultSet::DoubleAt(size_t row, size_t col) const {
  if (!HasCell(rows.columns_, row, col)) return CellError("no value", row, col);
  const ColumnValues& c = rows.columns_[col];
  if (!c.IsNull(row)) {
    if (c.type() == storage::ColumnType::kDouble) return c.reals()[row];
    // An INT widens losslessly enough for typed reads of COUNT-style columns.
    if (c.type() == storage::ColumnType::kInt64) return static_cast<double>(c.ints()[row]);
  }
  return CellError("not a REAL value", row, col);
}

StatusOr<std::string> ResultSet::TextAt(size_t row, size_t col) const {
  if (!HasCell(rows.columns_, row, col)) return CellError("no value", row, col);
  const ColumnValues& c = rows.columns_[col];
  if (c.type() == storage::ColumnType::kText && !c.IsNull(row)) return c.texts()[row];
  return CellError("not a TEXT value", row, col);
}

// Layout (persist/serde conventions, little-endian):
//   u32 tag 'RSET', u8 version = 2, u32 column count,
//   per column: u32-length-prefixed name, u8 type,
//   i64 affected rows, u32-length-prefixed message, u64 row count,
//   per column, one block: u8 flags (bit 0: a null mask follows), the null
//   mask (one byte per row, 1 = NULL), then the values: INT and REAL as
//   8 bytes per row, TEXT as a u32 length plus the bytes per row. A NULL
//   slot holds 0 or the empty string.
StatusOr<uint64_t> ResultSet::EncodedSize() const {
  const std::vector<ColumnValues>& cols = rows.columns_;
  if (cols.size() != columns.size()) {
    return Status::Internal(StrFormat("result describes %zu columns but holds %zu",
                                      columns.size(), cols.size()));
  }
  const uint64_t n = rows.size();
  uint64_t bytes = 4 + 1 + 4 + 8 + 4 + message.size() + 8;
  for (size_t c = 0; c < cols.size(); ++c) {
    if (cols[c].type() != columns[c].type) {
      return Status::Internal(
          StrFormat("result column %zu holds %s values but is declared %s", c,
                    ColumnTypeToString(cols[c].type()), ColumnTypeToString(columns[c].type)));
    }
    if (cols[c].size() != n) {
      return Status::Internal(StrFormat("result column %zu holds %zu values for %llu rows",
                                        c, cols[c].size(),
                                        static_cast<unsigned long long>(n)));
    }
    bytes += 4 + columns[c].name.size() + 1;
    bytes += 1 + (cols[c].has_nulls() ? n : 0);
    bytes += cols[c].type() == storage::ColumnType::kText ? 4 * n + cols[c].text_bytes_
                                                          : 8 * n;
  }
  return bytes;
}

Status ResultSet::Encode(std::string* out) const {
  HAZY_ASSIGN_OR_RETURN(const uint64_t size, EncodedSize());
  const size_t start = out->size();
  out->reserve(start + size);
  persist::StateWriter w(out);
  w.PutTag(kResultSetTag);
  w.PutU8(kResultSetVersion);
  w.PutU32(static_cast<uint32_t>(columns.size()));
  for (const auto& col : columns) {
    w.PutString(col.name);
    w.PutU8(static_cast<uint8_t>(col.type));
  }
  w.PutI64(affected_rows);
  w.PutString(message);
  w.PutU64(rows.size());
  for (const ColumnValues& c : rows.columns_) {
    w.PutU8(c.has_nulls() ? kHasNullMask : 0);
    AppendFixed(c.nulls_, out);
    switch (c.type()) {
      case storage::ColumnType::kInt64:
        AppendFixed(c.ints(), out);
        break;
      case storage::ColumnType::kDouble:
        AppendFixed(c.reals(), out);
        break;
      case storage::ColumnType::kText:
        for (const std::string& s : c.texts()) w.PutString(s);
        break;
    }
  }
  if (out->size() - start != size) {
    return Status::Internal(StrFormat("ResultSet encoded to %zu bytes, sized %llu",
                                      out->size() - start,
                                      static_cast<unsigned long long>(size)));
  }
  return Status::OK();
}

StatusOr<ResultSet> ResultSet::Decode(std::string_view data) {
  persist::StateReader r(data);
  HAZY_RETURN_NOT_OK(r.ExpectTag(kResultSetTag));
  uint8_t version = 0;
  HAZY_RETURN_NOT_OK(r.GetU8(&version));
  if (version != kResultSetVersion) {
    return Status::Corruption(StrFormat("ResultSet version %u; this build reads version %u",
                                        version, kResultSetVersion));
  }
  ResultSet rs;
  uint32_t ncols = 0;
  HAZY_RETURN_NOT_OK(r.GetU32(&ncols));
  HAZY_RETURN_NOT_OK(r.CheckCount(ncols, 5));  // name len prefix + type byte
  rs.columns.reserve(ncols);
  rs.rows.columns_.reserve(ncols);
  size_t row_bytes = 0;
  for (uint32_t i = 0; i < ncols; ++i) {
    std::string name;
    HAZY_RETURN_NOT_OK(r.GetString(&name));
    uint8_t type = 0;
    HAZY_RETURN_NOT_OK(r.GetU8(&type));
    if (type > static_cast<uint8_t>(storage::ColumnType::kText)) {
      return Status::Corruption(StrFormat("unknown column type %u", type));
    }
    row_bytes += MinRowBytes(static_cast<storage::ColumnType>(type));
    rs.AddColumn(std::move(name), static_cast<storage::ColumnType>(type));
  }
  HAZY_RETURN_NOT_OK(r.GetI64(&rs.affected_rows));
  HAZY_RETURN_NOT_OK(r.GetString(&rs.message));
  uint64_t nrows = 0;
  HAZY_RETURN_NOT_OK(r.GetU64(&nrows));
  if (ncols == 0 && nrows != 0) {
    return Status::Corruption(StrFormat("%llu result rows without a column",
                                        static_cast<unsigned long long>(nrows)));
  }
  // Bounds every allocation below by the bytes actually present.
  if (ncols > 0) HAZY_RETURN_NOT_OK(r.CheckCount(nrows, row_bytes));
  for (ColumnValues& c : rs.rows.columns_) {
    uint8_t flags = 0;
    HAZY_RETURN_NOT_OK(r.GetU8(&flags));
    if ((flags & ~kHasNullMask) != 0) {
      return Status::Corruption(StrFormat("unknown result column flags 0x%02x", flags));
    }
    if ((flags & kHasNullMask) != 0) {
      std::string_view mask;
      HAZY_RETURN_NOT_OK(r.GetBytes(nrows, &mask));
      for (char b : mask) {
        if (b != 0 && b != 1) {
          return Status::Corruption("null mask byte is neither 0 nor 1");
        }
      }
      c.nulls_.assign(mask.begin(), mask.end());
    }
    switch (c.type()) {
      case storage::ColumnType::kInt64:
        HAZY_RETURN_NOT_OK(ReadFixed(&r, nrows, &std::get<ColumnValues::Ints>(c.values_)));
        break;
      case storage::ColumnType::kDouble:
        HAZY_RETURN_NOT_OK(ReadFixed(&r, nrows, &std::get<ColumnValues::Reals>(c.values_)));
        break;
      case storage::ColumnType::kText: {
        auto& texts = std::get<ColumnValues::Texts>(c.values_);
        texts.reserve(nrows);
        for (uint64_t i = 0; i < nrows; ++i) {
          uint32_t len = 0;
          std::string_view s;
          HAZY_RETURN_NOT_OK(r.GetU32(&len));
          HAZY_RETURN_NOT_OK(r.GetBytes(len, &s));
          texts.emplace_back(s);
          c.text_bytes_ += len;
        }
        break;
      }
    }
  }
  if (r.remaining() != 0) {
    return Status::Corruption("trailing bytes after encoded ResultSet");
  }
  return rs;
}

std::string ResultSet::ToString() const {
  std::ostringstream out;
  if (!columns.empty()) {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (i > 0) out << " | ";
      out << columns[i].name;
    }
    out << "\n";
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t c = 0; c < rows.columns_.size(); ++c) {
        if (c > 0) out << " | ";
        out << storage::ValueToString(rows[r][c]);
      }
      out << "\n";
    }
    out << "(" << rows.size() << (rows.size() == 1 ? " row)" : " rows)");
  }
  if (!message.empty()) {
    if (!columns.empty()) out << "\n";
    out << message;
  }
  return out.str();
}

}  // namespace hazy::sql
