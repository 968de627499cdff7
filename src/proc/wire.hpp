#pragma once

/// \file wire.hpp
/// Supervisor <-> worker wire protocol of the multi-process campaign
/// backend: length-prefixed binary frames over pipes, plus a bit-exact
/// Experiment codec (the job payload) on the same byte codec as
/// svc::result_codec — doubles travel as IEEE-754 bit patterns so a worker
/// computes exactly the experiment the supervisor described.
///
/// Frame layout (little-endian):
///
///   [magic u32 "HPF1"][type u32][job_id u64][attempt u32][len u32][payload]
///
/// Frames are written with a single EINTR-safe write_all (worker heartbeats
/// ride a separate pipe precisely so a SIGALRM never interleaves bytes into
/// a result frame). A short read mid-frame means the peer died; recv_frame
/// reports that as false rather than throwing, because worker death is a
/// routine event the supervisor handles.

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/experiment.hpp"

namespace hetero::proc {

enum class FrameType : std::uint32_t {
  kJob = 1,       ///< supervisor -> worker: payload = encoded Experiment
  kDone = 2,      ///< worker -> supervisor: payload = encoded ExperimentResult
  kFail = 3,      ///< worker -> supervisor: payload = error message (the
                  ///< experiment threw; an app error, not a worker crash)
  kShutdown = 4,  ///< supervisor -> worker: drain and exit(0)
};

/// Bytes of the frame header that precedes the payload.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 8 + 4 + 4;

/// recv_frame grows the payload one read at a time, each read at most
/// max(this, bytes read so far): a corrupt length field cannot make it
/// allocate more than has arrived plus one read.
inline constexpr std::size_t kFrameChunkBytes = 64 * 1024;

struct Frame {
  FrameType type = FrameType::kJob;
  std::uint64_t job_id = 0;
  std::uint32_t attempt = 0;
  std::string payload;
};

/// True on success; false on a write error (e.g. EPIPE after the peer
/// died — the caller's poll loop will see the death separately).
bool send_frame(int fd, const Frame& frame);

/// True and fills `out` when a whole frame arrived; false on EOF, a torn
/// frame (peer died mid-write), or a corrupt header (bad magic, a type
/// outside FrameType, or a length the stream does not deliver).
bool recv_frame(int fd, Frame* out);

/// Version tag of the experiment encoding; bumped on layout changes so a
/// mixed-build supervisor/worker pair fails loudly instead of misreading.
/// v2 added Experiment::element_order.
/// v3 walks core::visit_fields (the cache key's order: the rebroker block
/// moved after balance) and drops trace_path and metrics_path, which are
/// never shipped. A frame never outlives the supervisor and the workers it
/// forked, so nothing on disk changes with this version.
inline constexpr unsigned char kExperimentCodecVersion = 3;

/// Every field of core::visit_fields, in its order (support/byte_codec.hpp
/// gives the per-type layout). Throws hetero::Error when the experiment
/// writes trace or metrics files: such runs execute in-process only.
std::string encode_experiment(const core::Experiment& experiment);

/// Throws hetero::Error on a malformed or version-mismatched payload.
core::Experiment decode_experiment(const std::string& bytes);

}  // namespace hetero::proc
