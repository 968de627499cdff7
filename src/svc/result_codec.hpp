#pragma once

/// \file result_codec.hpp
/// Bit-exact binary codec for core::ExperimentResult — the value format of
/// the experiment-level entries in the persistent memo store. It walks
/// core::visit_fields(ExperimentResult) over support/byte_codec.hpp, so
/// doubles are stored as their IEEE-754 bit patterns (little-endian): a
/// result replayed from disk is indistinguishable from the freshly computed
/// one and every downstream number (predictions, response records) stays
/// byte-identical across a daemon restart.

#include <string>

#include "core/campaign_engine.hpp"
#include "core/experiment.hpp"

namespace hetero::svc {

class MemoStore;

/// Version tag of the encoding below; bumped on layout changes so a store
/// written by an older build is simply missed (MemoResultStore::load
/// returns false), never misread.
/// v2 appended the rebroker::Outcome block (online re-brokering ledger).
/// v3 appended the lb::BalanceOutcome block (load-balancing ledger) — the
/// multi-process campaign backend ships whole results through this codec,
/// so every ledger the CLI summarises must survive the round trip.
inline constexpr unsigned char kResultCodecVersion = 3;

std::string encode_result(const core::ExperimentResult& result);

/// Throws hetero::Error on a malformed or version-mismatched payload.
core::ExperimentResult decode_result(const std::string& bytes);

/// Adapts a MemoStore onto the engine's persistence hook: experiment
/// results ride the checksummed log under the `exp|` key prefix, encoded
/// bit-exactly by the result codec. Used by the advisory daemon and by the
/// CLI's `--store` flag (incremental campaign restarts).
class MemoResultStore final : public core::ExperimentResultStore {
 public:
  explicit MemoResultStore(MemoStore& store) : store_(store) {}

  bool load(const std::string& key, core::ExperimentResult& out) override;
  void save(const std::string& key,
            const core::ExperimentResult& result) override;

 private:
  MemoStore& store_;
};

}  // namespace hetero::svc
