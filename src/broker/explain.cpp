#include "broker/explain.hpp"

#include "support/table.hpp"
#include "support/units.hpp"

namespace hetero::broker {

namespace {

void append(std::string* reasons, const std::string& reason) {
  if (!reasons->empty()) {
    *reasons += "; ";
  }
  *reasons += reason;
}

}  // namespace

std::string rejection_reason(const Prediction& prediction,
                             const JobRequest& request) {
  std::string reasons;
  if (!prediction.launched) {
    append(&reasons, "cannot launch: " + prediction.failure_reason);
    return reasons;  // nothing below is meaningful without a run
  }
  const auto& c = prediction.candidate;
  if (c.strategy == Ec2Strategy::kSpotMix &&
      request.risk_tolerance < kSpotMixRisk) {
    append(&reasons,
           "uninsured spot mix needs risk tolerance >= " +
               fmt_double(kSpotMixRisk, 1) + " (request has " +
               fmt_double(request.risk_tolerance, 1) + ")");
  }
  if (c.strategy == Ec2Strategy::kSpotCampaign &&
      request.risk_tolerance < kSpotCampaignRisk) {
    append(&reasons,
           "spot campaign needs risk tolerance >= " +
               fmt_double(kSpotCampaignRisk, 1) + " (request has " +
               fmt_double(request.risk_tolerance, 1) + ")");
  }
  if (request.deadline_h &&
      prediction.effective_s > *request.deadline_h * kSecondsPerHour) {
    append(&reasons, "misses deadline: needs " +
                         format_seconds(prediction.effective_s) + " > " +
                         fmt_double(*request.deadline_h, 1) + " h");
  }
  if (request.budget_usd && prediction.cost_usd > *request.budget_usd) {
    append(&reasons, "over budget: " + fmt_usd(prediction.cost_usd) + " > " +
                         fmt_usd(*request.budget_usd));
  }
  if (request.risk_budget_usd &&
      prediction.risk_usd > *request.risk_budget_usd) {
    append(&reasons, "exceeds risk budget: predicted failure cost " +
                         fmt_usd(prediction.risk_usd) + " > " +
                         fmt_usd(*request.risk_budget_usd));
  }
  return reasons;
}

}  // namespace hetero::broker
