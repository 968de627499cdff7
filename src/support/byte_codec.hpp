#pragma once

/// \file byte_codec.hpp
/// The little-endian byte codec under every binary format of the tree: the
/// HPF1 frame header (proc/wire), RecordLog records, and the two payloads
/// that walk a struct's `visit_fields` list — the worker's core::Experiment
/// (proc/wire) and the memo store's core::ExperimentResult
/// (svc/result_codec) — plus the text of the cache keys.
///
/// One payload field (put_field / get_field):
///   * ints and enums: 8 bytes, the value as a two's-complement i64;
///   * doubles: 8 bytes, the IEEE-754 bit pattern, so values round-trip
///     bit-exactly;
///   * bools: one byte, 0 or 1;
///   * strings: u64 length, then the bytes;
///   * string lists: u64 count, then each string.
///
/// Decoding is strict, so that decode∘encode is the identity on every
/// payload that decodes at all: a length or count larger than the bytes
/// left, an integer outside its field's type, a bool byte other than 0 or
/// 1, a wrong version byte and trailing bytes all throw hetero::Error.

#include <bit>
#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace hetero::support {

inline void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) {
    b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out.append(b, sizeof(b));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out.append(b, sizeof(b));
}

inline std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

inline std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

/// Bounds-checked cursor over one payload. Every failure throws
/// hetero::Error naming the codec ("result codec: truncated payload").
class ByteReader {
 public:
  ByteReader(std::string_view bytes, const char* codec)
      : bytes_(bytes), codec_(codec) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }

  std::uint8_t u8() {
    need(1);
    return static_cast<unsigned char>(bytes_[pos_++]);
  }

  std::uint64_t u64() {
    need(8);
    const std::uint64_t v = get_u64(bytes_.data() + pos_);
    pos_ += 8;
    return v;
  }

  std::string_view take(std::uint64_t n) {
    need(n);
    const std::string_view s = bytes_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  /// Throws unless every byte was consumed.
  void finish() const {
    if (pos_ != bytes_.size()) [[unlikely]] {
      fail("trailing bytes in payload");
    }
  }

  /// Out of line, so building the message stays off the decode path.
  [[noreturn]] void fail(std::string_view what) const;

 private:
  /// Compares with the bytes left, so no length can wrap the position.
  void need(std::uint64_t n) const {
    if (n > remaining()) [[unlikely]] {
      fail("truncated payload");
    }
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  const char* codec_;
};

template <class T>
inline constexpr bool kNoByteEncoding = false;

template <class T>
void put_field(std::string& out, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    out.push_back(v ? '\1' : '\0');
  } else if constexpr (std::is_same_v<T, double>) {
    put_u64(out, std::bit_cast<std::uint64_t>(v));
  } else if constexpr (std::is_enum_v<T> || std::is_integral_v<T>) {
    put_u64(out, static_cast<std::uint64_t>(v));
  } else if constexpr (std::is_same_v<T, std::string>) {
    put_u64(out, v.size());
    out += v;
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    put_u64(out, v.size());
    for (const std::string& s : v) {
      put_field(out, s);
    }
  } else {
    static_assert(kNoByteEncoding<T>, "no payload encoding for this type");
  }
}

template <class T>
void get_field(ByteReader& in, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    const std::uint8_t b = in.u8();
    if (b > 1) [[unlikely]] {
      in.fail("bool byte out of range");
    }
    v = b == 1;
  } else if constexpr (std::is_same_v<T, double>) {
    v = std::bit_cast<double>(in.u64());
  } else if constexpr (std::is_enum_v<T>) {
    std::underlying_type_t<T> raw{};
    get_field(in, raw);
    v = static_cast<T>(raw);
  } else if constexpr (std::is_unsigned_v<T> && sizeof(T) == 8) {
    v = in.u64();
  } else if constexpr (std::is_integral_v<T>) {
    const auto raw = static_cast<std::int64_t>(in.u64());
    if (!std::in_range<T>(raw)) [[unlikely]] {
      in.fail("integer out of range");
    }
    v = static_cast<T>(raw);
  } else if constexpr (std::is_same_v<T, std::string>) {
    v.assign(in.take(in.u64()));
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    const std::uint64_t n = in.u64();
    // Every string costs at least its 8-byte length: a larger count is a
    // lie, and rejecting it here keeps reserve() from throwing bad_alloc.
    if (n > in.remaining() / 8) [[unlikely]] {
      in.fail("string count exceeds payload");
    }
    v.clear();
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      get_field(in, v.emplace_back());
    }
  } else {
    static_assert(kNoByteEncoding<T>, "no payload encoding for this type");
  }
}

/// `version`, then every field of `obj` in its visit_fields order (found by
/// argument-dependent lookup next to the struct).
template <class T>
std::string encode_fields(unsigned char version, const T& obj) {
  std::string out;
  out.reserve(512);
  out.push_back(static_cast<char>(version));
  visit_fields(obj, [&out](const auto& field) { put_field(out, field); });
  return out;
}

/// Inverse of encode_fields; throws hetero::Error (prefixed with `codec`)
/// on any payload encode_fields could not have produced.
template <class T>
T decode_fields(std::string_view bytes, unsigned char version,
                const char* codec) {
  ByteReader in(bytes, codec);
  const unsigned got = in.u8();
  if (got != version) {
    in.fail("unsupported version " + std::to_string(got));
  }
  T obj;
  visit_fields(obj, [&in](auto& field) { get_field(in, field); });
  in.finish();
  return obj;
}

/// Appends one field to a cache-key text, then '|': ints, enums and bools
/// as decimal i64, doubles as the decimal of their bit pattern (0.02 and
/// 0.020000001 never alias), strings verbatim.
template <class T>
void append_key_field(std::string& key, const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    key += v;
  } else {
    char buf[24];
    std::to_chars_result r{};
    if constexpr (std::is_same_v<T, double>) {
      r = std::to_chars(buf, buf + sizeof(buf),
                        std::bit_cast<std::uint64_t>(v));
    } else if constexpr (std::is_enum_v<T> || std::is_integral_v<T>) {
      r = std::to_chars(buf, buf + sizeof(buf), static_cast<std::int64_t>(v));
    } else {
      static_assert(kNoByteEncoding<T>, "no key encoding for this type");
    }
    key.append(buf, static_cast<std::size_t>(r.ptr - buf));
  }
  key.push_back('|');
}

}  // namespace hetero::support
