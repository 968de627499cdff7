#pragma once

/// \file explain.hpp
/// Human-readable feasibility verdicts. The broker never silently drops a
/// candidate: every one that misses a constraint gets a sentence saying
/// which constraint, by how much — the "explainable rejection" half of the
/// automated selection the paper leaves as future work.

#include <string>

#include "broker/predictor.hpp"

namespace hetero::broker {

/// Why this prediction violates the request ("" = feasible). Multiple
/// violations are joined with "; ".
std::string rejection_reason(const Prediction& prediction,
                             const JobRequest& request);

}  // namespace hetero::broker
