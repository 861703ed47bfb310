// Fixed-length binary strings: the input alphabet of every problem in the
// paper (EQ, GT, Hamming distance, XOR functions, ...).
//
// A Bitstring is a value type holding n bits (n up to millions); it supports
// the operations the protocols need: Hamming weight/distance, bitwise XOR,
// prefix extraction x[i] (used by the GT protocol of Sec. 5), integer
// comparison under the paper's big-endian convention (x = x_0 2^{n-1} + ...),
// and conversion to/from unsigned integers for small n.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace dqma::util {

/// Immutable-size, mutable-content binary string of length n.
class Bitstring {
 public:
  /// Zero string of length n (n may be 0: the empty string, used as the
  /// "bottom" fingerprint input |⊥> in the GT protocol when the index is 0).
  explicit Bitstring(int n = 0);

  /// From a character string of '0'/'1'.
  static Bitstring from_string(const std::string& bits);

  /// Big-endian encoding of `value` into exactly n bits. Requires that
  /// value < 2^n.
  static Bitstring from_integer(std::uint64_t value, int n);

  /// Uniformly random n-bit string.
  static Bitstring random(int n, Rng& rng);

  /// Random string at exact Hamming distance d from `base`.
  static Bitstring random_at_distance(const Bitstring& base, int d, Rng& rng);

  int size() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Bit accessors; index 0 is the most significant bit (paper convention
  /// x = x_0 x_1 ... x_{n-1} with x_0 weighted 2^{n-1}).
  bool get(int i) const;
  void set(int i, bool value);
  void flip(int i);

  /// Number of ones.
  int weight() const;

  /// Hamming distance to another string of the same length.
  int distance(const Bitstring& other) const;

  /// Bitwise XOR and AND (same length required).
  Bitstring operator^(const Bitstring& other) const;
  Bitstring operator&(const Bitstring& other) const;

  /// Prefix x[i] = x_0 ... x_{i-1} (the paper's notation in Sec. 5.1).
  /// Requires 0 <= i <= size(). x[0] is the empty string.
  Bitstring prefix(int i) const;

  /// Value as an unsigned integer (requires size() <= 64).
  std::uint64_t to_integer() const;

  /// Numeric comparison under the big-endian convention. Works for any n
  /// (lexicographic comparison of equal-length strings equals numeric).
  int compare(const Bitstring& other) const;

  bool operator==(const Bitstring& other) const;
  bool operator!=(const Bitstring& other) const { return !(*this == other); }
  bool operator<(const Bitstring& other) const { return compare(other) < 0; }
  bool operator>(const Bitstring& other) const { return compare(other) > 0; }
  bool operator<=(const Bitstring& other) const { return compare(other) <= 0; }
  bool operator>=(const Bitstring& other) const { return compare(other) >= 0; }

  std::string to_string() const;

  /// Stable 64-bit hash (FNV-1a over the packed words), used by fooling-set
  /// tables and deduplication in the lower-bound searches.
  std::uint64_t hash() const;

  /// Packed words: bit i lives in words()[i / 64] at position i % 64; bits
  /// beyond size() are zero. Word-level consumers (Gf2Matrix::from_bits)
  /// read these instead of probing bit by bit.
  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  int n_ = 0;
  std::vector<std::uint64_t> words_;  // bit i lives in words_[i/64] bit (i%64)

  int word_count() const { return static_cast<int>(words_.size()); }
  void mask_tail();
};

}  // namespace dqma::util
