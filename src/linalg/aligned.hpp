// 64-byte-aligned storage for the dense kernels. Complex amplitude arrays
// aligned to a cache line let the compiler emit aligned vector loads in the
// auto-vectorized inner loops (GEMM panels, stride gathers, reductions) and
// keep parallel chunks from sharing a line at their boundaries.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace dqma::linalg {

/// Minimal aligned allocator: std::allocator semantics with a fixed
/// over-alignment for buffers large enough to be streamed. Small buffers
/// (below kAlignThresholdBytes) take the plain operator new fast path —
/// the aligned path measured ~3x slower per allocation, which dominates
/// the small-matrix-heavy code (eigh sweeps, tensor temporaries) while
/// alignment only pays off on multi-cache-line streams. The branch is on
/// the byte count, which allocate and deallocate both receive, so the two
/// always agree. All instances are interchangeable (stateless).
template <typename T, std::size_t Alignment>
class AlignedAllocator {
 public:
  using value_type = T;

  static_assert(Alignment >= alignof(T), "alignment below the type's own");
  static_assert((Alignment & (Alignment - 1)) == 0,
                "alignment must be a power of two");

  /// Buffers at least this large get the over-aligned path.
  static constexpr std::size_t kAlignThresholdBytes = 4096;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kAlignThresholdBytes) {
      return static_cast<T*>(::operator new(bytes));
    }
    return static_cast<T*>(
        ::operator new(bytes, std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kAlignThresholdBytes) {
      ::operator delete(p);
      return;
    }
    ::operator delete(p, std::align_val_t(Alignment));
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

/// Cache-line width the amplitude buffers align to.
inline constexpr std::size_t kVectorAlignment = 64;

/// A std::vector whose buffer starts on a 64-byte boundary.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, kVectorAlignment>>;

/// The aligned allocator with a no-op value-initializing construct: a
/// vector grown by resize(n) leaves the new entries as its storage holds
/// them instead of writing zeros, so regrowing a reused buffer costs
/// nothing. Only for implicit-lifetime element types (std::complex<double>)
/// in containers whose growers write every new entry before reading it;
/// construction from a value or a copy is unaffected.
template <typename T>
class OverwriteAllocator : public AlignedAllocator<T, kVectorAlignment> {
 public:
  template <typename U>
  struct rebind {
    using other = OverwriteAllocator<U>;
  };

  OverwriteAllocator() noexcept = default;
  template <typename U>
  OverwriteAllocator(const OverwriteAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U*) noexcept {}
};

/// Split-complex (structure-of-arrays) storage: the real and imaginary
/// parts of a complex buffer in two separate aligned double arrays. This is
/// the layout the explicitly vectorized kernels in linalg/simd.hpp want —
/// a split complex multiply is four pure FMAs with no shuffles, where the
/// interleaved std::complex layout needs permutes on every vector. Consumers
/// never touch re()/im() directly in kernel code: they hand the buffer to a
/// kernel as a ComplexView (linalg/complex_view.hpp), which carries the
/// layout tag.
class SplitBuffer {
 public:
  SplitBuffer() = default;

  /// Zero-initialized flat buffer of `n` complex entries.
  explicit SplitBuffer(long long n)
      : re_(static_cast<std::size_t>(n), 0.0),
        im_(static_cast<std::size_t>(n), 0.0) {}

  /// Zero-initialized matrix-shaped buffer (row-major, rows x cols); the
  /// shape rides into views created from it.
  SplitBuffer(long long rows, long long cols)
      : re_(static_cast<std::size_t>(rows * cols), 0.0),
        im_(static_cast<std::size_t>(rows * cols), 0.0),
        cols_(cols) {}

  long long size() const { return static_cast<long long>(re_.size()); }
  /// 0 for flat buffers; the row length for matrix-shaped ones.
  long long cols() const { return cols_; }

  double* re() { return re_.data(); }
  double* im() { return im_.data(); }
  const double* re() const { return re_.data(); }
  const double* im() const { return im_.data(); }

 private:
  AlignedVector<double> re_;
  AlignedVector<double> im_;
  long long cols_ = 0;
};

}  // namespace dqma::linalg
