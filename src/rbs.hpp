// Umbrella header for the Run-and-Be-Safe analysis library.
//
// Reproduction of: P. Huang, P. Kumar, G. Giannopoulou, L. Thiele,
// "Run and Be Safe: Mixed-Criticality Scheduling with Temporary Processor
// Speedup", DATE 2015.
//
// Typical use -- one analyze() call per task set (docs/api.md):
//
//   rbs::TaskSet set({
//       rbs::McTask::hi("control", /*c_lo=*/2, /*c_hi=*/4, /*d_lo=*/5,
//                       /*deadline=*/10, /*period=*/10),
//       rbs::McTask::lo("logging", /*c=*/3, /*deadline=*/12, /*period=*/12),
//   });
//   const auto report = rbs::Analyzer().analyze(set, /*speed=*/2.0);
//   report.value().s_min;                // Theorem 2
//   report.value().delta_r;              // Corollary 5 at speed 2
//   report.value().system_schedulable;   // LO @ unit speed && HI @ speed 2
//
// Batched/parallel campaigns over many sets: campaign/supervisor.hpp.
// Simulating a set: sim/simulate.hpp.
#pragma once

#include "core/adb.hpp"
#include "core/analysis.hpp"
#include "core/analysis_storage.hpp"
#include "core/amc.hpp"
#include "core/budget.hpp"
#include "core/closed_form.hpp"
#include "core/dbf.hpp"
#include "core/dvfs.hpp"
#include "core/edf.hpp"
#include "core/overhead.hpp"
#include "core/partition.hpp"
#include "core/reset.hpp"
#include "core/sensitivity.hpp"
#include "core/speedup.hpp"
#include "core/task.hpp"
#include "core/tuning.hpp"
#include "core/types.hpp"
#include "core/vd.hpp"
#include "support/status.hpp"
#include "support/tolerance.hpp"
