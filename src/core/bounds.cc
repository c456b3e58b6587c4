#include "core/bounds.h"

#include <algorithm>

namespace hazy::core {

void WaterLineTracker::Reorganize(const ml::LinearModel& stored) {
  stored_ = stored;
  lw_ = hw_ = 0.0;
  prev_low_ = prev_high_ = 0.0;
}

void WaterLineTracker::Advance(const ml::LinearModel& current) {
  const double delta = ml::LinearModel::DeltaNorm(current, stored_, p_);
  const double db = current.b - stored_.b;
  const double eps_high = m_ * delta + db;
  const double eps_low = -m_ * delta + db;
  if (monotone_) {
    hw_ = std::max(hw_, eps_high);
    lw_ = std::min(lw_, eps_low);
  } else {
    // Appendix B.3: only the last two rounds' instantaneous bounds.
    hw_ = std::max(prev_high_, eps_high);
    lw_ = std::min(prev_low_, eps_low);
    prev_high_ = eps_high;
    prev_low_ = eps_low;
  }
}

}  // namespace hazy::core
