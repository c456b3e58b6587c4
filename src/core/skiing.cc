#include "core/skiing.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace hazy::core {

double SkiingStrategy::OptimalAlpha(double sigma) {
  return (-sigma + std::sqrt(sigma * sigma + 4.0)) / 2.0;
}

std::unique_ptr<MaintenanceStrategy> MakeStrategy(StrategyKind kind, double alpha,
                                                  int period) {
  switch (kind) {
    case StrategyKind::kSkiing:
      return std::make_unique<SkiingStrategy>(alpha);
    case StrategyKind::kNever:
      return std::make_unique<NeverReorganize>();
    case StrategyKind::kAlways:
      return std::make_unique<AlwaysReorganize>();
    case StrategyKind::kPeriodic:
      return std::make_unique<PeriodicReorganize>(period);
  }
  return std::make_unique<SkiingStrategy>(alpha);
}

double EvaluateSchedule(const std::vector<int>& reorg_rounds, const CostFn& cost,
                        double reorg_cost, int num_rounds) {
  double total = 0.0;
  size_t next = 0;
  int last = 0;
  for (int i = 1; i <= num_rounds; ++i) {
    if (next < reorg_rounds.size() && reorg_rounds[next] == i) {
      total += reorg_cost;
      last = i;
      ++next;
    } else {
      total += cost(last, i);
    }
  }
  return total;
}

ScheduleResult OptimalSchedule(const CostFn& cost, double reorg_cost, int num_rounds) {
  const double kInf = std::numeric_limits<double>::infinity();
  // dp[s] = min cost through the current round with last reorganization at
  // round s (s = 0 means "never reorganized; initial organization only").
  std::vector<double> dp(static_cast<size_t>(num_rounds) + 1, kInf);
  // parent[i] = last reorganization round before a reorganization at i.
  std::vector<int> parent(static_cast<size_t>(num_rounds) + 1, -1);
  dp[0] = 0.0;

  for (int i = 1; i <= num_rounds; ++i) {
    // Option (2): reorganize at round i. Best over all predecessor states
    // as of round i-1.
    double best = kInf;
    int best_s = -1;
    for (int s = 0; s < i; ++s) {
      if (dp[static_cast<size_t>(s)] < best) {
        best = dp[static_cast<size_t>(s)];
        best_s = s;
      }
    }
    // Option (1): stay on each existing state and pay c(s, i).
    for (int s = 0; s < i; ++s) {
      if (dp[static_cast<size_t>(s)] < kInf) {
        dp[static_cast<size_t>(s)] += cost(s, i);
      }
    }
    dp[static_cast<size_t>(i)] = best + reorg_cost;
    parent[static_cast<size_t>(i)] = best_s;
  }

  int best_s = 0;
  for (int s = 1; s <= num_rounds; ++s) {
    if (dp[static_cast<size_t>(s)] < dp[static_cast<size_t>(best_s)]) best_s = s;
  }
  ScheduleResult result;
  result.cost = dp[static_cast<size_t>(best_s)];
  for (int s = best_s; s > 0; s = parent[static_cast<size_t>(s)]) {
    result.reorg_rounds.push_back(s);
  }
  std::reverse(result.reorg_rounds.begin(), result.reorg_rounds.end());
  return result;
}

ScheduleResult SimulateStrategy(MaintenanceStrategy* strategy, const CostFn& cost,
                                double reorg_cost, int num_rounds) {
  ScheduleResult result;
  int last = 0;
  for (int i = 1; i <= num_rounds; ++i) {
    if (strategy->ShouldReorganize(reorg_cost)) {
      result.cost += reorg_cost;
      strategy->OnReorganize();
      last = i;
      result.reorg_rounds.push_back(i);
    } else {
      double c = cost(last, i);
      result.cost += c;
      strategy->OnIncrementalCost(c);
    }
  }
  return result;
}

}  // namespace hazy::core
