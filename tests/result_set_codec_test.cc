// ResultSet v2, the columnar wire format: typed columns round-trip with and
// without NULLs, an id column encodes as 8 bytes a row, EncodedSize is the
// exact size Encode appends, and every malformed payload (a truncated
// prefix, a row count past the bytes left, a version-1 payload) decodes to
// Corruption. A protocol-1 HELLO is refused with NotSupported.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "engine/database.h"
#include "persist/serde.h"
#include "rpc/protocol.h"
#include "server/session.h"
#include "sql/result_set.h"

namespace hazy::sql {
namespace {

using storage::ColumnType;
using storage::Value;

/// One column of each type, `n` rows, and the given message.
ResultSet MixedResult(size_t n, bool with_nulls) {
  ResultSet rs;
  rs.AddColumn("id", ColumnType::kInt64);
  rs.AddColumn("score", ColumnType::kDouble);
  rs.AddColumn("title", ColumnType::kText);
  for (size_t i = 0; i < n; ++i) {
    const bool null = with_nulls && i % 3 == 1;
    if (null) {
      rs.column(0).AppendNull();
    } else {
      rs.column(0).AppendInt(static_cast<int64_t>(i) * 1000003 - 7);
    }
    rs.column(1).AppendReal(0.25 * static_cast<double>(i) - 3.5);
    if (with_nulls && i % 4 == 2) {
      rs.column(2).AppendNull();
    } else {
      rs.column(2).AppendText(std::string(i % 5, static_cast<char>('a' + i % 26)));
    }
  }
  return rs;
}

std::string MustEncode(const ResultSet& rs) {
  std::string out;
  EXPECT_TRUE(rs.Encode(&out).ok());
  auto size = rs.EncodedSize();
  EXPECT_TRUE(size.ok());
  if (size.ok()) {
    EXPECT_EQ(out.size(), *size);
  }
  return out;
}

/// Same columns, same values cell by cell, same DML fields.
void ExpectSameResult(const ResultSet& want, const ResultSet& got) {
  ASSERT_EQ(got.columns.size(), want.columns.size());
  for (size_t c = 0; c < want.columns.size(); ++c) {
    EXPECT_EQ(got.columns[c].name, want.columns[c].name);
    EXPECT_EQ(got.columns[c].type, want.columns[c].type);
    EXPECT_EQ(got.column(c).has_nulls(), want.column(c).has_nulls()) << "column " << c;
  }
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (size_t r = 0; r < want.rows.size(); ++r) {
    for (size_t c = 0; c < want.columns.size(); ++c) {
      EXPECT_EQ(got.rows[r][c], want.rows[r][c]) << "cell (" << r << ", " << c << ")";
    }
  }
  EXPECT_EQ(got.affected_rows, want.affected_rows);
  EXPECT_EQ(got.message, want.message);
}

void ExpectRoundTrip(const ResultSet& rs) {
  const std::string bytes = MustEncode(rs);
  auto decoded = ResultSet::Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameResult(rs, *decoded);
  // Equal results encode to equal bytes.
  EXPECT_EQ(MustEncode(*decoded), bytes);
}

TEST(ResultSetCodecTest, RoundTripsTypedColumnsWithoutNulls) {
  ResultSet rs = MixedResult(40, /*with_nulls=*/false);
  for (size_t c = 0; c < 3; ++c) EXPECT_FALSE(rs.column(c).has_nulls());
  ExpectRoundTrip(rs);
}

TEST(ResultSetCodecTest, RoundTripsTypedColumnsWithNulls) {
  ResultSet rs = MixedResult(40, /*with_nulls=*/true);
  EXPECT_TRUE(rs.column(0).has_nulls());
  EXPECT_FALSE(rs.column(1).has_nulls());  // a mask only where a NULL is
  EXPECT_TRUE(rs.column(2).has_nulls());
  ExpectRoundTrip(rs);

  auto decoded = ResultSet::Decode(MustEncode(rs));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->IsNull(1, 0));
  EXPECT_TRUE(std::holds_alternative<std::monostate>(decoded->rows[1][0]));
  EXPECT_TRUE(decoded->Int64At(1, 0).status().IsInvalidArgument());
  EXPECT_FALSE(decoded->IsNull(0, 0));
  EXPECT_EQ(decoded->Int64At(0, 0).ValueOrDie(), -7);
  EXPECT_TRUE(decoded->IsNull(2, 2));
  EXPECT_TRUE(decoded->TextAt(2, 2).status().IsInvalidArgument());
  EXPECT_EQ(decoded->TextAt(3, 2).ValueOrDie(), "ddd");
  EXPECT_DOUBLE_EQ(decoded->DoubleAt(2, 1).ValueOrDie(), -3.0);
}

TEST(ResultSetCodecTest, RoundTripsExtremeValues) {
  ResultSet rs;
  rs.AddColumn("i", ColumnType::kInt64);
  rs.AddColumn("d", ColumnType::kDouble);
  for (int64_t v : {std::numeric_limits<int64_t>::min(), int64_t{-1}, int64_t{0},
                    std::numeric_limits<int64_t>::max()}) {
    ASSERT_TRUE(rs.AppendRow({v, static_cast<double>(v) / 3.0}).ok());
  }
  ASSERT_TRUE(rs.AppendRow({Value{}, -0.0}).ok());
  ExpectRoundTrip(rs);
}

TEST(ResultSetCodecTest, RoundTripsZeroRows) {
  ResultSet rs = MixedResult(0, /*with_nulls=*/false);
  EXPECT_TRUE(rs.rows.empty());
  ExpectRoundTrip(rs);
  auto decoded = ResultSet::Decode(MustEncode(rs));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->columns.size(), 3u);
  EXPECT_EQ(decoded->rows.size(), 0u);
}

TEST(ResultSetCodecTest, RoundTripsDmlResultWithoutColumns) {
  ResultSet rs;
  rs.affected_rows = 9;
  rs.message = "9 rows deleted";
  ExpectRoundTrip(rs);
  auto decoded = ResultSet::Decode(MustEncode(rs));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->columns.empty());
  EXPECT_TRUE(decoded->rows.empty());
  EXPECT_EQ(decoded->ToString(), "9 rows deleted");
}

TEST(ResultSetCodecTest, IdColumnEncodesAsEightBytesPerRow) {
  std::vector<int64_t> ids(15000);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i * 2);
  ResultSet rs;
  rs.AddColumn("id", ColumnType::kInt64).SetInts(ids);
  ResultSet empty;
  empty.AddColumn("id", ColumnType::kInt64);
  // One flags byte per column block, then the values and nothing else.
  EXPECT_EQ(MustEncode(rs).size(), MustEncode(empty).size() + 8 * ids.size());
  auto decoded = ResultSet::Decode(MustEncode(rs));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->column(0).ints(), ids);
}

TEST(ResultSetCodecTest, AppendChecksTypes) {
  ResultSet rs;
  rs.AddColumn("x", ColumnType::kInt64);
  rs.AddColumn("y", ColumnType::kDouble);
  EXPECT_TRUE(rs.AppendRow({int64_t{1}, int64_t{2}}).ok());  // INT widens into REAL
  EXPECT_DOUBLE_EQ(rs.DoubleAt(0, 1).ValueOrDie(), 2.0);
  EXPECT_TRUE(rs.AppendRow({std::string("no"), 1.0}).IsInvalidArgument());
  EXPECT_TRUE(rs.AppendRow({int64_t{1}}).IsInternal());
}

TEST(ResultSetCodecTest, MismatchedColumnLengthsAreInternal) {
  ResultSet rs;
  rs.AddColumn("a", ColumnType::kInt64).AppendInt(1);
  rs.AddColumn("b", ColumnType::kInt64);
  std::string out;
  EXPECT_TRUE(rs.EncodedSize().status().IsInternal());
  EXPECT_TRUE(rs.Encode(&out).IsInternal());
}

TEST(ResultSetCodecTest, EveryTruncatedPrefixIsCorruption) {
  ResultSet dml;
  dml.affected_rows = 3;
  dml.message = "3 rows updated";
  for (const ResultSet& rs :
       {MixedResult(6, false), MixedResult(6, true), MixedResult(0, false), dml}) {
    const std::string bytes = MustEncode(rs);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      auto decoded = ResultSet::Decode(std::string_view(bytes).substr(0, cut));
      ASSERT_FALSE(decoded.ok()) << "prefix of " << cut << " of " << bytes.size();
      EXPECT_TRUE(decoded.status().IsCorruption())
          << "prefix of " << cut << ": " << decoded.status().ToString();
    }
    std::string longer = bytes + '\0';
    EXPECT_TRUE(ResultSet::Decode(longer).status().IsCorruption());
  }
}

/// Offset of the u64 row count in an encoding of `rs`: the bytes before it
/// are the header, the column descriptions, the affected rows and the
/// message.
size_t RowCountOffset(const ResultSet& rs) {
  size_t off = 4 + 1 + 4;
  for (const auto& col : rs.columns) off += 4 + col.name.size() + 1;
  return off + 8 + 4 + rs.message.size();
}

TEST(ResultSetCodecTest, RowCountBeyondTheBytesLeftIsCorruption) {
  ResultSet dml;
  dml.message = "ok";
  for (const ResultSet& rs : {MixedResult(4, false), MixedResult(4, true), dml}) {
    const std::string bytes = MustEncode(rs);
    for (uint64_t rows : {uint64_t{5}, uint64_t{1} << 40, ~uint64_t{0}}) {
      std::string bad = bytes;
      storage::EncodeFixed64(bad.data() + RowCountOffset(rs), rows);
      StatusOr<ResultSet> decoded = Status::Internal("not decoded");
      ASSERT_NO_THROW(decoded = ResultSet::Decode(bad));
      EXPECT_TRUE(decoded.status().IsCorruption())
          << rows << " rows: " << decoded.status().ToString();
    }
  }
}

TEST(ResultSetCodecTest, VersionOnePayloadIsCorruptionNamingItsVersion) {
  // A version-1 payload: the same header, then one tagged value per cell.
  std::string v1;
  persist::StateWriter w(&v1);
  w.PutTag(persist::MakeTag('R', 'S', 'E', 'T'));
  w.PutU8(1);
  w.PutU32(1);
  w.PutString("id");
  w.PutU8(static_cast<uint8_t>(ColumnType::kInt64));
  w.PutI64(0);
  w.PutString("");
  w.PutU64(1);
  EncodeValue(&w, Value{int64_t{42}});
  auto decoded = ResultSet::Decode(v1);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());
  EXPECT_NE(decoded.status().message().find("version 1"), std::string::npos)
      << decoded.status().ToString();
}

TEST(ResultSetCodecTest, ProtocolOneHelloIsNotSupported) {
  engine::Database db;
  ASSERT_TRUE(db.Open().ok());
  server::Session session(/*id=*/1, &db);
  for (uint32_t version : {uint32_t{1}, rpc::kProtocolVersion + 1}) {
    std::string payload;
    rpc::EncodeHelloPayload(version, "old_client", &payload);
    bool close_after = false;
    const std::string reply = session.HandleFrame(
        rpc::FrameView{rpc::Opcode::kHello, 7, payload}, &close_after);
    rpc::FrameView frame;
    size_t frame_bytes = 0;
    ASSERT_EQ(rpc::TryDecodeFrame(reply, &frame, &frame_bytes, nullptr),
              rpc::FrameDecode::kFrame);
    EXPECT_EQ(frame.opcode, rpc::Opcode::kError);
    const Status refused = rpc::DecodeErrorPayload(frame.payload);
    EXPECT_TRUE(refused.IsNotSupported()) << refused.ToString();
    EXPECT_NE(refused.message().find("protocol " + std::to_string(version)),
              std::string::npos)
        << refused.ToString();
  }
  std::string payload;
  rpc::EncodeHelloPayload(rpc::kProtocolVersion, "client", &payload);
  bool close_after = false;
  const std::string reply = session.HandleFrame(
      rpc::FrameView{rpc::Opcode::kHello, 8, payload}, &close_after);
  rpc::FrameView frame;
  size_t frame_bytes = 0;
  ASSERT_EQ(rpc::TryDecodeFrame(reply, &frame, &frame_bytes, nullptr),
            rpc::FrameDecode::kFrame);
  EXPECT_EQ(frame.opcode, rpc::Opcode::kHelloOk);
}

}  // namespace
}  // namespace hazy::sql
