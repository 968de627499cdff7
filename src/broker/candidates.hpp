#pragma once

/// \file candidates.hpp
/// Deployment-candidate enumeration: every builtin platform crossed with
/// the feasible rank counts, plus the EC2-specific acquisition strategies
/// (on-demand in a single placement group, spot mix over 1–4 groups, and a
/// checkpointed spot campaign). Launch limits (ellipse's >512-rank mpiexec
/// failure, lagrange's IB cap above 343 ranks) and problem-split
/// feasibility are applied here so every surviving candidate can at least
/// be predicted; constraint filtering happens later, with reasons.

#include <string>
#include <vector>

#include "broker/job_request.hpp"

namespace hetero::broker {

/// How an EC2 assembly is acquired; kNone for the fixed platforms.
enum class Ec2Strategy { kNone, kOnDemand, kSpotMix, kSpotCampaign };

struct Candidate {
  std::string platform;
  int ranks = 1;
  /// Elements per axis per rank of this split.
  int cells_per_rank_axis = 20;
  Ec2Strategy strategy = Ec2Strategy::kNone;
  /// Spot mix: placement groups the request is spread over (1–4).
  int placement_groups = 1;
  /// Spot campaign: iterations between checkpoints.
  int checkpoint_interval = 25;
  double spot_bid_usd = 1.20;

  /// "lagrange @343" / "ec2/spot-mix x4 @1000" — stable display key.
  std::string label() const;
};

/// Rank counts the broker sweeps when the request does not fix one: the
/// paper's cubic process counts 1..1000.
std::vector<int> candidate_rank_counts(const JobRequest& request);

/// Elements per axis per rank when `total_elements` are split over `ranks`
/// cubic subdomains (rounded; never below 1). Returns
/// request.cells_per_rank_axis when the request has no total size.
int split_cells_per_rank_axis(const JobRequest& request, int ranks);

/// All candidates worth predicting for this request. Platform launch
/// limits are respected (a platform never appears at a rank count its
/// scheduler cannot start) and splits finer than 2 cells per rank axis are
/// dropped; everything else survives so that constraint violations can be
/// *explained* rather than silently hidden.
std::vector<Candidate> enumerate_candidates(const JobRequest& request);

}  // namespace hetero::broker
