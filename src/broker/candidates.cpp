#include "broker/candidates.hpp"

#include <cmath>

#include "core/report.hpp"
#include "platform/platform_spec.hpp"
#include "support/error.hpp"

namespace hetero::broker {

std::string Candidate::label() const {
  std::string s = platform;
  if (strategy == Ec2Strategy::kSpotMix) {
    s += "/spot-mix x" + std::to_string(placement_groups);
  } else if (strategy == Ec2Strategy::kSpotCampaign) {
    s += "/spot-ckpt" + std::to_string(checkpoint_interval);
  } else if (strategy == Ec2Strategy::kOnDemand) {
    s += "/on-demand";
  }
  return s + " @" + std::to_string(ranks);
}

std::vector<int> candidate_rank_counts(const JobRequest& request) {
  if (request.ranks > 0) {
    return {request.ranks};
  }
  return core::paper_process_counts();
}

int split_cells_per_rank_axis(const JobRequest& request, int ranks) {
  if (request.total_elements <= 0) {
    return request.cells_per_rank_axis;
  }
  const double global_axis =
      std::cbrt(static_cast<double>(request.total_elements));
  const double k = std::cbrt(static_cast<double>(ranks));
  const int cells = static_cast<int>(std::lround(global_axis / k));
  return cells < 1 ? 1 : cells;
}

std::vector<Candidate> enumerate_candidates(const JobRequest& request) {
  HETERO_REQUIRE(request.iterations >= 1, "job request needs iterations >= 1");
  HETERO_REQUIRE(request.total_elements > 0 || request.cells_per_rank_axis > 0,
                 "job request needs a problem size");
  std::vector<Candidate> out;
  for (int p : candidate_rank_counts(request)) {
    const int cells = split_cells_per_rank_axis(request, p);
    if (cells < 2) {
      continue;  // split finer than the discretization can represent
    }
    for (const auto* spec : platform::all_platforms()) {
      if (!spec->can_launch(p)) {
        continue;  // the paper's launch limits: never even a candidate
      }
      Candidate base;
      base.platform = spec->name;
      base.ranks = p;
      base.cells_per_rank_axis = cells;
      if (spec->name != "ec2") {
        out.push_back(base);
        continue;
      }
      // EC2 splits into acquisition strategies instead of one candidate.
      base.strategy = Ec2Strategy::kOnDemand;
      base.placement_groups = 1;
      out.push_back(base);
      for (int groups = 1; groups <= 4; ++groups) {
        Candidate mix = base;
        mix.strategy = Ec2Strategy::kSpotMix;
        mix.placement_groups = groups;
        out.push_back(mix);
      }
      Candidate campaign = base;
      campaign.strategy = Ec2Strategy::kSpotCampaign;
      campaign.spot_bid_usd = 0.70;
      out.push_back(campaign);
    }
  }
  return out;
}

}  // namespace hetero::broker
