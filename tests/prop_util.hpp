#pragma once

/// \file prop_util.hpp
/// Seed-deterministic generators and oracles for the property-based
/// numeric tests (la_prop_test.cpp), and byte mutators for the codec
/// mutation tests. Every case is reproduced exactly by its case number:
/// the generator is a self-contained splitmix64, so a failure report like
/// "case 37" replays identically on any platform, independent of the
/// standard library's distribution implementations.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "la/csr_matrix.hpp"
#include "support/error.hpp"

namespace hetero::test {

/// splitmix64: tiny, fast, and fully specified by its seed.
class PropRng {
 public:
  explicit PropRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next_u64() {
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    const double u = static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
  }

  /// Uniform integer in [lo, hi] (inclusive; hi >= lo).
  int uniform_int(int lo, int hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<int>(next_u64() % span);
  }

 private:
  std::uint64_t state_;
};

/// Random vector with entries in [lo, hi).
inline std::vector<double> random_vector(PropRng& rng, int n, double lo,
                                         double hi) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) {
    x = rng.uniform(lo, hi);
  }
  return v;
}

/// Random sparse matrix: every row gets 1..max_row_nnz entries at distinct
/// columns (always including the clamped diagonal, so no row is empty),
/// values in [lo, hi). Built through the same from_triplets path the
/// assembly uses, which sorts and merges duplicates.
inline la::CsrMatrix random_csr(PropRng& rng, int rows, int cols,
                                int max_row_nnz, double lo, double hi) {
  std::vector<la::Triplet> triplets;
  for (int i = 0; i < rows; ++i) {
    const int want = rng.uniform_int(1, max_row_nnz);
    triplets.push_back({i, std::min(i, cols - 1), rng.uniform(lo, hi)});
    for (int k = 1; k < want; ++k) {
      triplets.push_back({i, rng.uniform_int(0, cols - 1),
                          rng.uniform(lo, hi)});
    }
  }
  return la::CsrMatrix::from_triplets(rows, cols, triplets);
}

/// Dense triple-loop SpMV oracle: expands the matrix to dense storage and
/// accumulates every column in ascending order. CSR rows are column-sorted,
/// and adding the zero entries in between does not perturb the partial sums
/// (x + 0.0 == x), so this oracle reproduces the sparse kernel's exact
/// accumulation chain — the ULP budget only absorbs ±0 sign artifacts.
/// When `y0` is given, each row's chain starts from y0[i] (multiply_add).
inline std::vector<double> dense_spmv_oracle(
    const la::CsrMatrix& a, const std::vector<double>& x,
    const std::vector<double>* y0 = nullptr) {
  const int rows = a.rows();
  const int cols = a.cols();
  std::vector<double> dense(static_cast<std::size_t>(rows) *
                                static_cast<std::size_t>(cols),
                            0.0);
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  for (int i = 0; i < rows; ++i) {
    for (auto k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      dense[static_cast<std::size_t>(i) * static_cast<std::size_t>(cols) +
            static_cast<std::size_t>(col_idx[static_cast<std::size_t>(k)])] =
          values[static_cast<std::size_t>(k)];
    }
  }
  std::vector<double> y(static_cast<std::size_t>(rows), 0.0);
  for (int i = 0; i < rows; ++i) {
    double acc = y0 ? (*y0)[static_cast<std::size_t>(i)] : 0.0;
    for (int j = 0; j < cols; ++j) {
      acc += dense[static_cast<std::size_t>(i) * static_cast<std::size_t>(cols) +
                   static_cast<std::size_t>(j)] *
             x[static_cast<std::size_t>(j)];
    }
    y[static_cast<std::size_t>(i)] = acc;
  }
  return y;
}

/// ULP distance between two finite doubles (0 when a == b, including
/// -0 vs +0). Monotone bit distance on the sign-magnitude number line.
inline std::uint64_t ulp_distance(double a, double b) {
  if (a == b) {
    return 0;
  }
  if (std::isnan(a) || std::isnan(b)) {
    return ~0ull;
  }
  auto to_ordered = [](double v) {
    std::int64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits < 0 ? std::int64_t(0x8000000000000000ull) - bits : bits;
  };
  const std::int64_t ia = to_ordered(a);
  const std::int64_t ib = to_ordered(b);
  return static_cast<std::uint64_t>(ia > ib ? ia - ib : ib - ia);
}

// --- byte mutators ------------------------------------------------------
// Each takes a non-empty payload and returns a copy with one seeded defect.

inline std::string flip_bit(PropRng& rng, std::string bytes) {
  const std::uint64_t bit = rng.next_u64() % (bytes.size() * 8);
  bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
  return bytes;
}

/// A strict prefix (possibly empty).
inline std::string truncate_bytes(PropRng& rng, std::string bytes) {
  bytes.resize(rng.next_u64() % bytes.size());
  return bytes;
}

inline std::string overwrite_byte(PropRng& rng, std::string bytes) {
  bytes[rng.next_u64() % bytes.size()] = static_cast<char>(rng.next_u64());
  return bytes;
}

/// `bytes` with the little-endian 8-byte word at `at` replaced by `word`.
inline std::string with_word(std::string bytes, std::size_t at,
                             std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<char>(word >> (8 * i));
  }
  return bytes;
}

/// Overwrites the 8-byte word at a random offset with a length, count or
/// integer lie: 2^64-1, 2^63, 2^32+3, 2^40 or a random word.
inline std::string lie_word(PropRng& rng, std::string bytes) {
  if (bytes.size() < 8) {
    return overwrite_byte(rng, bytes);
  }
  constexpr std::uint64_t kLies[] = {~0ull, 1ull << 63, (1ull << 32) + 3,
                                     1ull << 40};
  const std::uint64_t pick = rng.next_u64() % 5;
  const std::uint64_t word = pick < 4 ? kLies[pick] : rng.next_u64();
  const std::size_t at = rng.next_u64() % (bytes.size() - 7);
  return with_word(std::move(bytes), at, word);
}

/// One of the four mutators above, chosen by the generator.
inline std::string mutate(PropRng& rng, const std::string& bytes) {
  switch (rng.next_u64() % 4) {
    case 0:
      return flip_bit(rng, bytes);
    case 1:
      return truncate_bytes(rng, bytes);
    case 2:
      return overwrite_byte(rng, bytes);
    default:
      return lie_word(rng, bytes);
  }
}

/// How a codec fared against a batch of mutants.
struct MutantTally {
  int rejected = 0;  ///< raised hetero::Error
  int decoded = 0;   ///< decoded and re-encoded to the same bytes
  int misread = 0;   ///< decoded, but re-encoded to different bytes
  int foreign = 0;   ///< raised something other than hetero::Error
};

/// Feeds `count` seeded mutants of `payload` through `decode`. The codec
/// contract: every mutant either raises hetero::Error or decodes to a value
/// that `encode` turns back into exactly the mutant's bytes.
template <class Decode, class Encode>
MutantTally run_mutants(std::uint64_t seed, const std::string& payload,
                        int count, Decode decode, Encode encode) {
  PropRng rng(seed);
  MutantTally tally;
  for (int i = 0; i < count; ++i) {
    const std::string mutant = mutate(rng, payload);
    try {
      if (encode(decode(mutant)) == mutant) {
        ++tally.decoded;
      } else {
        ++tally.misread;
      }
    } catch (const Error&) {
      ++tally.rejected;
    } catch (const std::exception&) {
      ++tally.foreign;
    }
  }
  return tally;
}

}  // namespace hetero::test
