#include "support/byte_codec.hpp"

#include "support/error.hpp"

namespace hetero::support {

void ByteReader::fail(std::string_view what) const {
  std::string message(codec_);
  message += ": ";
  message += what;
  throw Error(message);
}

}  // namespace hetero::support
