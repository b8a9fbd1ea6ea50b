// EDF-VD baseline (Baruah et al., ECRTS 2012, ref. [4] of the paper).
//
// The classic mixed-criticality EDF with Virtual Deadlines for
// implicit-deadline dual-criticality sets that *terminate* LO tasks in HI
// mode. HI tasks run with virtual deadline x*T in LO mode. The standard
// sufficient conditions are
//
//   LO mode:  U_LO(LO) + U_HI(LO) / x <= 1
//   HI mode:  x * U_LO(LO) + U_HI(HI) <= s        (s = 1 classically)
//
// which we also expose with the HI-mode processor speedup s of this paper, so
// Fig. 7 can compare "speedup + demand-bound analysis" against both plain
// EDF-VD and speedup-augmented EDF-VD.
#pragma once

#include "core/closed_form.hpp"

namespace rbs {

struct EdfVdResult {
  bool schedulable = false;
  /// The virtual-deadline scaling factor certifying schedulability (when
  /// schedulable); 1.0 when plain EDF suffices (no virtual deadlines needed).
  double x = 1.0;
};

/// EDF-VD schedulability at unit HI-mode speed.
EdfVdResult edf_vd_schedulable(const ImplicitSet& set);

/// EDF-VD schedulability when HI mode may run at speedup factor `s`.
EdfVdResult edf_vd_schedulable(const ImplicitSet& set, double s);

}  // namespace rbs
