#include "svc/result_codec.hpp"

#include "support/byte_codec.hpp"
#include "support/error.hpp"
#include "svc/memo_store.hpp"

namespace hetero::svc {

namespace {

/// Keeps experiment-result entries apart from request payloads in a store
/// log shared with the advisory service.
const std::string kExperimentKeyPrefix = "exp|";

}  // namespace

std::string encode_result(const core::ExperimentResult& r) {
  return support::encode_fields(kResultCodecVersion, r);
}

core::ExperimentResult decode_result(const std::string& bytes) {
  return support::decode_fields<core::ExperimentResult>(
      bytes, kResultCodecVersion, "result codec");
}

bool MemoResultStore::load(const std::string& key,
                           core::ExperimentResult& out) {
  std::string bytes;
  if (!store_.lookup(kExperimentKeyPrefix + key, &bytes)) {
    return false;
  }
  try {
    out = decode_result(bytes);
  } catch (const Error&) {
    // Another codec version wrote it: a miss, never a misread. The engine
    // recomputes, and the store keeps its first record for the key.
    return false;
  }
  return true;
}

void MemoResultStore::save(const std::string& key,
                           const core::ExperimentResult& result) {
  store_.append(kExperimentKeyPrefix + key, encode_result(result));
}

}  // namespace hetero::svc
