// The Hölder water-line machinery of Section 3.2.2 (Lemma 3.1, Eq. 2).
//
// Fix Hölder conjugates p, q (p⁻¹ + q⁻¹ = 1) and M = max over entities of
// ‖f(t)‖_q. After the last reorganization at round s (stored model
// (w(s), b(s))), each later round j contributes
//     ε_high(s,j) =  M·‖w(j) − w(s)‖_p + (b(j) − b(s))
//     ε_low(s,j)  = −M·‖w(j) − w(s)‖_p + (b(j) − b(s))
// and the running water lines are lw = min_j ε_low, hw = max_j ε_high.
//
// Soundness (the property the tests verify exhaustively): for a tuple whose
// *stored* eps = w(s)·f − b(s),
//     eps >= hw  ⇒  the tuple is positive under the current model,
//     eps <  lw  ⇒  the tuple is negative under the current model,
// so only tuples with eps ∈ [lw, hw) can have flipped since round s.
// (The strict `<` on the low side keeps the sign(0) = +1 boundary exact.)

#ifndef HAZY_CORE_BOUNDS_H_
#define HAZY_CORE_BOUNDS_H_

#include "ml/model.h"
#include "ml/vector.h"

namespace hazy::core {

/// \brief Tracks low/high water relative to the last reorganization.
class WaterLineTracker {
 public:
  /// \param p        norm for the model delta ‖δw‖_p (paper: ∞ for ℓ1-
  ///                 normalized text with q = 1, or 2 for ℓ2 data)
  /// \param monotone true for the running min/max of Eq. 2; false for the
  ///                 non-monotone two-round variant of Appendix B.3
  explicit WaterLineTracker(double p = ml::kInf, bool monotone = true)
      : p_(p), monotone_(monotone) {}

  /// Sets M = max_t ‖f(t)‖_q. Must cover every entity in the view.
  void SetM(double m) { m_ = m; }
  double M() const { return m_; }
  double p() const { return p_; }

  /// Snapshot the stored model at a reorganization: water lines collapse
  /// to 0 (no drift yet).
  void Reorganize(const ml::LinearModel& stored);

  /// Folds the current round's model into the water lines.
  void Advance(const ml::LinearModel& current);

  double low_water() const { return lw_; }
  double high_water() const { return hw_; }

  /// eps >= hw: certainly positive under the current model.
  bool CertainPositive(double eps) const { return eps >= hw_; }
  /// eps < lw: certainly negative under the current model.
  bool CertainNegative(double eps) const { return eps < lw_; }
  /// Neither bound applies: the tuple must be reclassified.
  bool InWindow(double eps) const { return !CertainPositive(eps) && !CertainNegative(eps); }

  const ml::LinearModel& stored_model() const { return stored_; }

 private:
  double p_;
  bool monotone_;
  double m_ = 0.0;
  ml::LinearModel stored_;
  double lw_ = 0.0, hw_ = 0.0;
  // Previous round's instantaneous bounds (non-monotone variant).
  double prev_low_ = 0.0, prev_high_ = 0.0;
};

}  // namespace hazy::core

#endif  // HAZY_CORE_BOUNDS_H_
