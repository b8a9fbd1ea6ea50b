#include "core/vd.hpp"

namespace rbs {

EdfVdResult edf_vd_schedulable(const ImplicitSet& set) { return edf_vd_schedulable(set, 1.0); }

EdfVdResult edf_vd_schedulable(const ImplicitSet& set, double s) {
  EdfVdResult result;
  const double u_lo_lo = set.u_lo_lo();
  double u_hi_lo = 0.0;
  for (const ImplicitTask& t : set.tasks())
    if (t.criticality == Criticality::HI) u_hi_lo += t.u_lo();
  const double u_hi_hi = set.u_hi_hi();

  // Plain EDF suffices when even the pessimistic WCETs fit at unit speed.
  if (u_lo_lo + u_hi_hi <= 1.0) {
    result.schedulable = true;
    result.x = 1.0;
    return result;
  }

  // LO mode requires U_LO(LO) + U_HI(LO)/x <= 1, i.e. x >= u_hi_lo/(1-u_lo_lo).
  // The HI-mode left side x*U_LO(LO) + U_HI(HI) grows with x, so the smallest
  // LO-feasible x is also HI-mode optimal.
  if (u_lo_lo >= 1.0) return result;  // not schedulable in LO mode at all
  const double x = u_hi_lo / (1.0 - u_lo_lo);
  if (x > 1.0) return result;
  if (x * u_lo_lo + u_hi_hi <= s) {
    result.schedulable = true;
    result.x = x;
  }
  return result;
}

}  // namespace rbs
