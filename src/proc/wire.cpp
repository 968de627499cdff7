#include "proc/wire.hpp"

#include <algorithm>

#include "support/byte_codec.hpp"
#include "support/error.hpp"
#include "support/io_util.hpp"

namespace hetero::proc {

namespace {

using support::get_u32;
using support::get_u64;
using support::put_u32;
using support::put_u64;

constexpr std::uint32_t kFrameMagic = 0x48504631;  // "HPF1"

}  // namespace

bool send_frame(int fd, const Frame& frame) {
  std::string buf;
  buf.reserve(kFrameHeaderBytes + frame.payload.size());
  put_u32(buf, kFrameMagic);
  put_u32(buf, static_cast<std::uint32_t>(frame.type));
  put_u64(buf, frame.job_id);
  put_u32(buf, frame.attempt);
  put_u32(buf, static_cast<std::uint32_t>(frame.payload.size()));
  buf += frame.payload;
  return support::write_all(fd, buf.data(), buf.size());
}

bool recv_frame(int fd, Frame* out) {
  char header[kFrameHeaderBytes];
  if (support::read_full(fd, header, sizeof(header)) !=
      static_cast<ssize_t>(sizeof(header))) {
    return false;
  }
  const std::uint32_t type = get_u32(header + 4);
  if (get_u32(header) != kFrameMagic ||
      type < static_cast<std::uint32_t>(FrameType::kJob) ||
      type > static_cast<std::uint32_t>(FrameType::kShutdown)) {
    return false;
  }
  out->type = static_cast<FrameType>(type);
  out->job_id = get_u64(header + 8);
  out->attempt = get_u32(header + 16);
  const std::size_t len = get_u32(header + 20);
  out->payload.clear();
  while (out->payload.size() < len) {
    const std::size_t have = out->payload.size();
    const std::size_t want =
        std::min(len - have, std::max(kFrameChunkBytes, have));
    out->payload.resize(have + want);
    if (support::read_full(fd, out->payload.data() + have, want) !=
        static_cast<ssize_t>(want)) {
      return false;
    }
  }
  return true;
}

std::string encode_experiment(const core::Experiment& e) {
  HETERO_REQUIRE(!core::writes_output_files(e),
                 "experiment codec: a run that writes trace or metrics "
                 "files executes in-process and is never shipped");
  return support::encode_fields(kExperimentCodecVersion, e);
}

core::Experiment decode_experiment(const std::string& bytes) {
  return support::decode_fields<core::Experiment>(
      bytes, kExperimentCodecVersion, "experiment codec");
}

}  // namespace hetero::proc
