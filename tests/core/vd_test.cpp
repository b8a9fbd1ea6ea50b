// Tests for the EDF-VD baseline (ref. [4]).
#include "core/vd.hpp"

#include <gtest/gtest.h>

namespace rbs {
namespace {

ImplicitSet easy_set() {
  // U_LO(LO)=0.2, U_HI(LO)=0.2, U_HI(HI)=0.4: trivially schedulable.
  return ImplicitSet({
      {"h", Criticality::HI, 10, 2, 4},
      {"l", Criticality::LO, 10, 2, 2},
  });
}

ImplicitSet tight_set() {
  // U_LO(LO)=0.3, U_HI(LO)=0.3, U_HI(HI)=0.8: needs virtual deadlines.
  return ImplicitSet({
      {"h", Criticality::HI, 10, 3, 8},
      {"l", Criticality::LO, 10, 3, 3},
  });
}

TEST(EdfVdTest, PlainEdfWhenTotalFits) {
  const EdfVdResult r = edf_vd_schedulable(easy_set());
  EXPECT_TRUE(r.schedulable);
  EXPECT_DOUBLE_EQ(r.x, 1.0);
}

TEST(EdfVdTest, VirtualDeadlinesCertifyTightSet) {
  const EdfVdResult r = edf_vd_schedulable(tight_set());
  // x = 0.3 / (1 - 0.3) = 3/7; HI check: (3/7)*0.3 + 0.8 = 0.9285... <= 1.
  ASSERT_TRUE(r.schedulable);
  EXPECT_NEAR(r.x, 3.0 / 7.0, 1e-12);
}

TEST(EdfVdTest, OverloadedSetRejected) {
  const ImplicitSet set({
      {"h", Criticality::HI, 10, 5, 10},
      {"l", Criticality::LO, 10, 5, 5},
  });
  // x = 0.5/(1-0.5) = 1 and HI check: 1*0.5 + 1.0 = 1.5 > 1.
  EXPECT_FALSE(edf_vd_schedulable(set).schedulable);
}

TEST(EdfVdTest, SpeedupRescuesOverloadedSet) {
  const ImplicitSet set({
      {"h", Criticality::HI, 10, 5, 10},
      {"l", Criticality::LO, 10, 5, 5},
  });
  EXPECT_TRUE(edf_vd_schedulable(set, 1.5).schedulable);
  EXPECT_FALSE(edf_vd_schedulable(set, 1.49).schedulable);
}

TEST(EdfVdTest, LoModeSaturationIsHopeless) {
  // U_LO(LO) >= 1: no speedup in HI mode fixes LO mode.
  const ImplicitSet set({
      {"h", Criticality::HI, 10, 2, 4},
      {"l", Criticality::LO, 10, 10, 10},
  });
  EXPECT_FALSE(edf_vd_schedulable(set, 100.0).schedulable);
}

TEST(EdfVdTest, XAboveOneIsRejected) {
  // U_HI(LO)/(1 - U_LO(LO)) > 1: LO-mode condition unsatisfiable.
  const ImplicitSet set({
      {"h", Criticality::HI, 10, 8, 9},
      {"l", Criticality::LO, 10, 3, 3},
  });
  EXPECT_FALSE(edf_vd_schedulable(set, 100.0).schedulable);
}

TEST(EdfVdTest, HiOnlySet) {
  const ImplicitSet set({{"h", Criticality::HI, 10, 3, 9}});
  const EdfVdResult r = edf_vd_schedulable(set);
  EXPECT_TRUE(r.schedulable);  // U_HI(HI) = 0.9 <= 1 via plain EDF
}

}  // namespace
}  // namespace rbs
