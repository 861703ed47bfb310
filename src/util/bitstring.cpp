#include "util/bitstring.hpp"

#include <algorithm>
#include <bit>

#include "util/require.hpp"

namespace dqma::util {

Bitstring::Bitstring(int n) : n_(n) {
  require(n >= 0, "Bitstring: length must be non-negative");
  words_.assign(static_cast<std::size_t>((n + 63) / 64), 0);
}

Bitstring Bitstring::from_string(const std::string& bits) {
  Bitstring out(static_cast<int>(bits.size()));
  for (int i = 0; i < out.n_; ++i) {
    const char c = bits[static_cast<std::size_t>(i)];
    require(c == '0' || c == '1', "Bitstring::from_string: invalid character");
    out.set(i, c == '1');
  }
  return out;
}

Bitstring Bitstring::from_integer(std::uint64_t value, int n) {
  require(n >= 0 && n <= 64, "Bitstring::from_integer: n must be in [0,64]");
  if (n < 64) {
    require(value < (1ULL << n), "Bitstring::from_integer: value needs more than n bits");
  }
  Bitstring out(n);
  for (int i = 0; i < n; ++i) {
    // Bit 0 is most significant.
    out.set(i, ((value >> (n - 1 - i)) & 1ULL) != 0);
  }
  return out;
}

Bitstring Bitstring::random(int n, Rng& rng) {
  Bitstring out(n);
  for (auto& w : out.words_) {
    w = rng.next_u64();
  }
  out.mask_tail();
  return out;
}

Bitstring Bitstring::random_at_distance(const Bitstring& base, int d, Rng& rng) {
  require(d >= 0 && d <= base.size(),
          "Bitstring::random_at_distance: d out of range");
  Bitstring out = base;
  // Floyd's algorithm for sampling d distinct positions.
  std::vector<int> chosen;
  chosen.reserve(static_cast<std::size_t>(d));
  for (int j = base.size() - d; j < base.size(); ++j) {
    const int t = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(j) + 1));
    if (std::find(chosen.begin(), chosen.end(), t) == chosen.end()) {
      chosen.push_back(t);
    } else {
      chosen.push_back(j);
    }
  }
  for (const int pos : chosen) {
    out.flip(pos);
  }
  return out;
}

bool Bitstring::get(int i) const {
  require(i >= 0 && i < n_, "Bitstring::get: index out of range");
  return (words_[static_cast<std::size_t>(i / 64)] >> (i % 64)) & 1ULL;
}

void Bitstring::set(int i, bool value) {
  require(i >= 0 && i < n_, "Bitstring::set: index out of range");
  const std::uint64_t mask = 1ULL << (i % 64);
  auto& w = words_[static_cast<std::size_t>(i / 64)];
  if (value) {
    w |= mask;
  } else {
    w &= ~mask;
  }
}

void Bitstring::flip(int i) {
  require(i >= 0 && i < n_, "Bitstring::flip: index out of range");
  words_[static_cast<std::size_t>(i / 64)] ^= 1ULL << (i % 64);
}

int Bitstring::weight() const {
  int total = 0;
  for (const auto w : words_) {
    total += std::popcount(w);
  }
  return total;
}

int Bitstring::distance(const Bitstring& other) const {
  require(n_ == other.n_, "Bitstring::distance: length mismatch");
  int total = 0;
  for (std::size_t k = 0; k < words_.size(); ++k) {
    total += std::popcount(words_[k] ^ other.words_[k]);
  }
  return total;
}

Bitstring Bitstring::operator^(const Bitstring& other) const {
  require(n_ == other.n_, "Bitstring::operator^: length mismatch");
  Bitstring out(n_);
  for (std::size_t k = 0; k < words_.size(); ++k) {
    out.words_[k] = words_[k] ^ other.words_[k];
  }
  return out;
}

Bitstring Bitstring::operator&(const Bitstring& other) const {
  require(n_ == other.n_, "Bitstring::operator&: length mismatch");
  Bitstring out(n_);
  for (std::size_t k = 0; k < words_.size(); ++k) {
    out.words_[k] = words_[k] & other.words_[k];
  }
  return out;
}

Bitstring Bitstring::prefix(int i) const {
  require(i >= 0 && i <= n_, "Bitstring::prefix: length out of range");
  Bitstring out(i);
  for (int k = 0; k < i; ++k) {
    out.set(k, get(k));
  }
  return out;
}

std::uint64_t Bitstring::to_integer() const {
  require(n_ <= 64, "Bitstring::to_integer: string longer than 64 bits");
  std::uint64_t value = 0;
  for (int i = 0; i < n_; ++i) {
    value = (value << 1) | static_cast<std::uint64_t>(get(i));
  }
  return value;
}

int Bitstring::compare(const Bitstring& other) const {
  require(n_ == other.n_, "Bitstring::compare: length mismatch");
  for (int i = 0; i < n_; ++i) {
    const bool a = get(i);
    const bool b = other.get(i);
    if (a != b) {
      return a ? 1 : -1;
    }
  }
  return 0;
}

bool Bitstring::operator==(const Bitstring& other) const {
  return n_ == other.n_ && words_ == other.words_;
}

std::string Bitstring::to_string() const {
  std::string out(static_cast<std::size_t>(n_), '0');
  for (int i = 0; i < n_; ++i) {
    if (get(i)) {
      out[static_cast<std::size_t>(i)] = '1';
    }
  }
  return out;
}

std::uint64_t Bitstring::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ static_cast<std::uint64_t>(n_);
  for (const auto w : words_) {
    h ^= w;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void Bitstring::mask_tail() {
  const int tail = n_ % 64;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (1ULL << tail) - 1;
  }
}

}  // namespace dqma::util
