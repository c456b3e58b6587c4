#include "sql/metrics_result.h"

#include "obs/metrics.h"

namespace hazy::sql {

ResultSet MetricsResultSet(const std::string& like) {
  ResultSet rs;
  rs.AddColumn("metric", storage::ColumnType::kText);
  rs.AddColumn("labels", storage::ColumnType::kText);
  rs.AddColumn("kind", storage::ColumnType::kText);
  rs.AddColumn("value", storage::ColumnType::kDouble);
  ColumnValues& metric = rs.column(0);
  ColumnValues& labels = rs.column(1);
  ColumnValues& kind = rs.column(2);
  ColumnValues& value = rs.column(3);
  for (const obs::Sample& s : obs::Registry::Global().Snapshot()) {
    if (!like.empty() && s.name.find(like) == std::string::npos) continue;
    metric.AppendText(s.name);
    labels.AppendText(s.labels);
    kind.AppendText(obs::SampleKindName(s.kind));
    value.AppendReal(s.value);
  }
  return rs;
}

ResultSet TraceResultSet(const std::vector<obs::TraceRow>& rows) {
  ResultSet rs;
  rs.AddColumn("depth", storage::ColumnType::kInt64);
  rs.AddColumn("span", storage::ColumnType::kText);
  rs.AddColumn("count", storage::ColumnType::kInt64);
  rs.AddColumn("total_ms", storage::ColumnType::kDouble);
  ColumnValues& depth = rs.column(0);
  ColumnValues& span = rs.column(1);
  ColumnValues& count = rs.column(2);
  ColumnValues& total_ms = rs.column(3);
  for (const obs::TraceRow& row : rows) {
    depth.AppendInt(row.depth);
    span.AppendText(row.span);
    count.AppendInt(static_cast<int64_t>(row.count));
    total_ms.AppendReal(row.total_ms);
  }
  return rs;
}

}  // namespace hazy::sql
