// Typed statement results — the unit of data the engine hands back to every
// client, local or remote.
//
// A ResultSet is columnar: each result column keeps its values in one typed
// vector (INT as int64_t, REAL as double, TEXT as std::string), with a null
// mask only in a column that holds a NULL. An All Members answer is then one
// id vector, moved in from the epoch scan as is, not one heap-allocated row
// per id. `rows` keeps the row-wise read surface (`rows.size()`,
// `rows[i][c]` as a storage::Value) on top of the columns.
//
// The wire format (ResultSet v2) mirrors the columns: one block per column,
// INT and REAL as fixed 8-byte little-endian values, so an id column encodes
// and decodes as one copy. The columns give the encoded size up front
// (EncodedSize), so the server refuses an over-cap result before encoding
// it and encodes the rest straight into the reply frame. The same bytes
// travel over a socket and through the in-process loopback transport.

#ifndef HAZY_SQL_RESULT_SET_H_
#define HAZY_SQL_RESULT_SET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"
#include "persist/serde.h"
#include "storage/schema.h"

namespace hazy::sql {

/// One result column: name plus the value type every row holds in it.
struct ColumnDesc {
  std::string name;
  storage::ColumnType type = storage::ColumnType::kText;
};

/// \brief The values of one result column, in one vector of the column's
/// type. A NULL slot holds 0, 0.0 or "" and is flagged in the null mask,
/// which exists only once the column holds a NULL.
class ColumnValues {
 public:
  explicit ColumnValues(storage::ColumnType type);

  storage::ColumnType type() const {
    return static_cast<storage::ColumnType>(values_.index());
  }
  size_t size() const;
  bool has_nulls() const { return !nulls_.empty(); }
  bool IsNull(size_t row) const { return !nulls_.empty() && nulls_[row] != 0; }

  /// The values, for a column of the matching type (std::bad_variant_access
  /// otherwise).
  const std::vector<int64_t>& ints() const { return std::get<Ints>(values_); }
  const std::vector<double>& reals() const { return std::get<Reals>(values_); }
  const std::vector<std::string>& texts() const { return std::get<Texts>(values_); }

  // Typed appends, for a column of the matching type.
  void AppendInt(int64_t v);
  void AppendReal(double v);
  void AppendText(std::string v);
  void AppendNull();

  /// Appends NULL or a value of the column's type (an INT widens into a
  /// REAL column); InvalidArgument for any other value.
  Status Append(const storage::Value& v);

  /// Fills an empty INT column with `ids`, taking the vector as is.
  void SetInts(std::vector<int64_t> ids);

  void Reserve(size_t n);

  /// The value at `row` (monostate for NULL).
  storage::Value ValueAt(size_t row) const;

 private:
  friend struct ResultSet;
  using Ints = std::vector<int64_t>;
  using Reals = std::vector<double>;
  using Texts = std::vector<std::string>;

  /// Marks the slot just appended as NULL or not.
  void NoteAppend(bool null);

  /// Alternative i holds storage::ColumnType i.
  std::variant<Ints, Reals, Texts> values_;
  /// Sum of the TEXT values' lengths (sizes the encoding up front).
  uint64_t text_bytes_ = 0;
  std::vector<uint8_t> nulls_;  // empty, or 1 = NULL per row
};

/// \brief Row-wise reads over a ResultSet's columns.
class ResultRows {
 public:
  /// One row: row[c] is column c's value there.
  class RowRef {
   public:
    RowRef(const std::vector<ColumnValues>* columns, size_t row)
        : columns_(columns), row_(row) {}
    storage::Value operator[](size_t col) const {
      return (*columns_)[col].ValueAt(row_);
    }

   private:
    const std::vector<ColumnValues>* columns_;
    size_t row_;
  };

  /// Rows held by the first column (a result with no columns has none).
  size_t size() const { return columns_.empty() ? 0 : columns_[0].size(); }
  bool empty() const { return size() == 0; }
  RowRef operator[](size_t row) const { return RowRef(&columns_, row); }

 private:
  friend struct ResultSet;
  std::vector<ColumnValues> columns_;
};

/// \brief Result of one statement.
///
/// Queries populate `columns` (through AddColumn) and their values; DML/DDL
/// populate `affected_rows` and a human-readable `message` ("2 rows
/// updated"). Executor paths always give every column its real type, so
/// remote clients get typed accessors instead of string parsing.
struct ResultSet {
  std::vector<ColumnDesc> columns;
  /// The column values, read row by row.
  ResultRows rows;
  /// Rows written by DML (0 for queries/DDL).
  int64_t affected_rows = 0;
  /// For DDL/DML: a human-readable confirmation ("1 row inserted").
  std::string message;

  /// Appends an empty column; the reference is valid until the next
  /// AddColumn.
  ColumnValues& AddColumn(std::string name, storage::ColumnType type);

  /// The values of column `col`.
  const ColumnValues& column(size_t col) const { return rows.columns_[col]; }
  ColumnValues& column(size_t col) { return rows.columns_[col]; }

  /// Appends one row, one value per column (see ColumnValues::Append).
  Status AppendRow(const storage::Row& row);

  // Typed row accessors (bounds- and type-checked; NULL is InvalidArgument
  // for the typed getters — check IsNull first).
  bool IsNull(size_t row, size_t col) const;
  StatusOr<int64_t> Int64At(size_t row, size_t col) const;
  StatusOr<double> DoubleAt(size_t row, size_t col) const;
  StatusOr<std::string> TextAt(size_t row, size_t col) const;

  /// Exact byte count Encode appends; Internal when the columns disagree
  /// with `columns` or with each other in length.
  StatusOr<uint64_t> EncodedSize() const;

  /// Serializes to the wire format (appends to *out). Deterministic: equal
  /// ResultSets encode to equal bytes.
  Status Encode(std::string* out) const;

  /// Parses an encoded ResultSet; Corruption on truncation/garbage, or on
  /// any version but the current one.
  static StatusOr<ResultSet> Decode(std::string_view data);

  /// Shell rendering: header row, value rows, "(N rows)", then the message.
  std::string ToString() const;
};

/// Wire codec for a single storage::Value (prepared-statement parameter
/// lists): u8 kind tag + payload.
void EncodeValue(persist::StateWriter* w, const storage::Value& v);
Status DecodeValue(persist::StateReader* r, storage::Value* v);

}  // namespace hazy::sql

#endif  // HAZY_SQL_RESULT_SET_H_
