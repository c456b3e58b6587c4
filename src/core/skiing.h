// The Skiing strategy (Section 3.2.1, Figure 7) and its comparators.
//
// At each round a maintenance strategy either (1) performs an incremental
// step paying an a-priori-unknown cost c(i), or (2) reorganizes the data
// paying the known cost S. Skiing accumulates incremental costs into a and
// reorganizes when a >= alpha * S; with alpha the positive root of
// x^2 + sigma x - 1 it is optimal among deterministic online strategies and
// a (1 + alpha + sigma)-approximation of the offline optimum (Lemma 3.2) —
// asymptotically 2 as sigma -> 0 (Theorem 3.3).
//
// This file also provides the offline-optimal dynamic program over the cost
// matrix c(s, i), so tests and benchmarks can measure Skiing's empirical
// competitive ratio against the true optimum.

#ifndef HAZY_CORE_SKIING_H_
#define HAZY_CORE_SKIING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>


namespace hazy::core {

/// \brief Online policy deciding when to reorganize.
class MaintenanceStrategy {
 public:
  virtual ~MaintenanceStrategy() = default;

  /// Called at the start of a round with the current (known) reorganization
  /// cost S; true means "reorganize now".
  virtual bool ShouldReorganize(double reorg_cost) = 0;

  /// Reports the measured cost of the incremental step just taken.
  virtual void OnIncrementalCost(double cost) = 0;

  /// Reports that a reorganization was performed.
  virtual void OnReorganize() = 0;

  virtual const char* name() const = 0;
};

/// Skiing (Figure 7): reorganize when accumulated cost a >= alpha * S.
class SkiingStrategy : public MaintenanceStrategy {
 public:
  explicit SkiingStrategy(double alpha = 1.0) : alpha_(alpha) {}

  bool ShouldReorganize(double reorg_cost) override {
    return accumulated_ >= alpha_ * reorg_cost;
  }
  void OnIncrementalCost(double cost) override { accumulated_ += cost; }
  void OnReorganize() override { accumulated_ = 0.0; }
  const char* name() const override { return "skiing"; }

  double accumulated() const { return accumulated_; }
  double alpha() const { return alpha_; }

  /// The analysis-optimal alpha for a given sigma (scan/reorg ratio): the
  /// positive root of x^2 + sigma*x - 1.
  static double OptimalAlpha(double sigma);

 private:
  double alpha_;
  double accumulated_ = 0.0;
};

/// Baseline: never reorganize (pure incremental decay).
class NeverReorganize : public MaintenanceStrategy {
 public:
  bool ShouldReorganize(double) override { return false; }
  void OnIncrementalCost(double) override {}
  void OnReorganize() override {}
  const char* name() const override { return "never"; }
};

/// Baseline: reorganize every round (the "eager re-cluster" extreme).
class AlwaysReorganize : public MaintenanceStrategy {
 public:
  bool ShouldReorganize(double) override { return true; }
  void OnIncrementalCost(double) override {}
  void OnReorganize() override {}
  const char* name() const override { return "always"; }
};

/// Baseline: reorganize every k rounds regardless of observed costs.
class PeriodicReorganize : public MaintenanceStrategy {
 public:
  explicit PeriodicReorganize(int period) : period_(period) {}
  bool ShouldReorganize(double) override { return rounds_since_ >= period_; }
  void OnIncrementalCost(double) override { ++rounds_since_; }
  void OnReorganize() override { rounds_since_ = 0; }
  const char* name() const override { return "periodic"; }

 private:
  int period_;
  int rounds_since_ = 0;
};

/// Which strategy a view uses (set in ViewOptions).
enum class StrategyKind { kSkiing, kNever, kAlways, kPeriodic };

/// Constructs a strategy. `alpha` applies to Skiing, `period` to Periodic.
std::unique_ptr<MaintenanceStrategy> MakeStrategy(StrategyKind kind, double alpha = 1.0,
                                                  int period = 100);

// ---------------------------------------------------------------------------
// Offline schedule analysis (Section 3.3).
// ---------------------------------------------------------------------------

/// c(s, i): incremental cost at round i (1-based) when the last
/// reorganization happened at round s (0 = the initial organization).
/// For the Lemma 3.2 guarantees to apply the costs must satisfy the
/// paper's assumptions: c(s,i) <= c(s',i) for s >= s' (reorganizing more
/// recently never raises the cost), and c(s,i) <= sigma*S where sigma*S is
/// the time to scan H — an incremental step never costs more than a scan.
using CostFn = std::function<double(int s, int i)>;

/// A schedule's total cost and its reorganization rounds.
struct ScheduleResult {
  double cost = 0.0;
  std::vector<int> reorg_rounds;
};

/// Cost of a given schedule: sum_i c(last_reorg(i), i) + S * #reorgs, where
/// a reorganization at round i replaces that round's incremental cost.
double EvaluateSchedule(const std::vector<int>& reorg_rounds, const CostFn& cost,
                        double reorg_cost, int num_rounds);

/// The offline optimum Opt(c) via O(N^2) dynamic programming.
ScheduleResult OptimalSchedule(const CostFn& cost, double reorg_cost, int num_rounds);

/// Runs an online strategy over the same cost model, returning its total
/// cost and reorganization rounds. The strategy sees costs only after
/// paying them (deterministic online setting).
ScheduleResult SimulateStrategy(MaintenanceStrategy* strategy, const CostFn& cost,
                                double reorg_cost, int num_rounds);

}  // namespace hazy::core

#endif  // HAZY_CORE_SKIING_H_
