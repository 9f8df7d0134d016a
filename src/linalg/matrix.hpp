// Host-side dense matrix type used as the source/target of simulated device
// transfers and as the reference for correctness checks.
//
// Storage is row-major with an explicit leading dimension so sub-views map
// directly onto the pointer arithmetic the simulated kernels perform.
#pragma once

#include <cstddef>
#include <new>
#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ctb {

/// Non-owning view of a row-major matrix block. Mirrors (ptr, ld) device
/// addressing: element (i, j) lives at data[i * ld + j].
template <typename T>
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(T* data, std::size_t rows, std::size_t cols, std::size_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    CTB_DCHECK(ld >= cols);
  }

  T* data() const noexcept { return data_; }
  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t ld() const noexcept { return ld_; }
  bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  T& operator()(std::size_t i, std::size_t j) const {
    CTB_DCHECK(i < rows_ && j < cols_);
    return data_[i * ld_ + j];
  }

  /// Sub-block view; clamps are the caller's job, out-of-range asserts.
  MatrixView block(std::size_t i0, std::size_t j0, std::size_t r,
                   std::size_t c) const {
    CTB_DCHECK(i0 + r <= rows_ && j0 + c <= cols_);
    return MatrixView(data_ + i0 * ld_ + j0, r, c, ld_);
  }

 private:
  T* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t ld_ = 0;
};

/// Bytes of one cache line: Matrix storage starts on one.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Allocator of Matrix storage: every buffer starts on a cache line. glibc
/// returns large blocks at 16 mod 64, so without it no row of a matrix
/// whose rows are whole lines would start on a line, and the executor's
/// streamed tile store (DESIGN.md §9) needs every C row to.
template <typename T>
struct LineAlignedAllocator {
  using value_type = T;

  LineAlignedAllocator() = default;
  template <typename U>
  LineAlignedAllocator(const LineAlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }

  friend bool operator==(const LineAlignedAllocator&,
                         const LineAlignedAllocator&) {
    return true;
  }
};

/// Owning row-major matrix; its data() starts on a cache line.
template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }

  T* data() noexcept { return data_.data(); }
  const T* data() const noexcept { return data_.data(); }
  std::span<T> flat() noexcept { return data_; }
  std::span<const T> flat() const noexcept { return data_; }

  T& operator()(std::size_t i, std::size_t j) {
    CTB_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  const T& operator()(std::size_t i, std::size_t j) const {
    CTB_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  MatrixView<T> view() noexcept {
    return MatrixView<T>(data_.data(), rows_, cols_, cols_);
  }
  MatrixView<const T> view() const noexcept {
    return MatrixView<const T>(data_.data(), rows_, cols_, cols_);
  }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T, LineAlignedAllocator<T>> data_;
};

using Matrixf = Matrix<float>;

/// Fills with uniform values in [lo, hi) from the given deterministic RNG.
void fill_random(Matrixf& m, Rng& rng, float lo = -1.0f, float hi = 1.0f);

/// Fills element (i, j) with a value derived from its coordinates; handy in
/// tests because wrong indexing produces loud mismatches.
void fill_pattern(Matrixf& m);

/// max_ij |a - b|; matrices must have identical shape.
float max_abs_diff(const Matrixf& a, const Matrixf& b);

/// True when every |a-b| <= atol + rtol * |b| (numpy-style allclose).
bool allclose(const Matrixf& a, const Matrixf& b, float rtol = 1e-4f,
              float atol = 1e-5f);

}  // namespace ctb
