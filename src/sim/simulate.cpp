#include "sim/simulate.hpp"

#include "support/det_annotations.hpp"

namespace rbs::sim {

// RBS_DET_PATH: traces and reports feed the differential corpus's
// EXPECT_EQ-on-doubles and the SIGKILL/resume byte-compares, so the whole
// event-kernel tree underneath must be bit-for-bit reproducible.
RBS_DET_PATH Expected<SimReport> Simulator::run(const TaskSet& set, const SimConfig& config,
                                                const SimLimits& limits) {
  if (Status status = validate_config(set, config); !status) return status;
  if (Status status = validate_limits(limits); !status) return status;
  return kernel_.run(set, config, limits);
}

}  // namespace rbs::sim
