// Small dense linear-algebra kit for the RC thermal network.
//
// The thermal networks in this library are tiny (a handful of nodes per
// core plus package nodes), so a simple row-major dense matrix with LU
// factorization and a scaling-and-squaring matrix exponential is both
// sufficient and easy to verify. The related-work section of the paper notes
// that RC thermal models are "difficult to solve using direct mathematical
// techniques such as LU decomposition" at scale; at our node counts LU is
// exact and cheap, and the precomputed matrix exponential makes each
// simulation step a single matrix-vector product.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace rltherm {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// Zero-initialized rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols);

  /// Construct from nested initializer lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] static Matrix identity(std::size_t n);
  [[nodiscard]] static Matrix diagonal(std::span<const double> entries);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool square() const noexcept { return rows_ == cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<const double> data() const noexcept { return data_; }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar) noexcept;

  [[nodiscard]] Matrix operator+(const Matrix& other) const;
  [[nodiscard]] Matrix operator-(const Matrix& other) const;
  [[nodiscard]] Matrix operator*(const Matrix& other) const;
  [[nodiscard]] Matrix operator*(double scalar) const;

  /// Matrix-vector product; v.size() must equal cols().
  [[nodiscard]] std::vector<double> operator*(std::span<const double> v) const;

  /// Allocation-free matrix-vector product into a caller-provided buffer,
  /// with the same per-row accumulation order as operator* (so the two are
  /// bit-identical), summing four rows at a time. out.size() must equal
  /// rows(); out must not alias v.
  void multiplyInto(std::span<const double> v, std::span<double> out) const;

  [[nodiscard]] Matrix transposed() const;

  /// Maximum absolute row sum (the induced infinity norm).
  [[nodiscard]] double normInf() const noexcept;

  /// Element-wise comparison within tolerance (absolute).
  [[nodiscard]] bool approxEquals(const Matrix& other, double tol) const noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting (Doolittle). Factors once, solves
/// many right-hand sides; used for steady-state thermal solves G*T = P.
class LuFactorization {
 public:
  /// Factorizes a square matrix. Throws PreconditionError if not square and
  /// InvariantError if (numerically) singular.
  explicit LuFactorization(const Matrix& a);

  /// Solve A x = b for x. b.size() must equal the matrix dimension.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

  /// Solve A X = B column-by-column.
  [[nodiscard]] Matrix solve(const Matrix& b) const;

  /// Determinant (product of U diagonal with pivot sign).
  [[nodiscard]] double determinant() const noexcept;

 private:
  std::size_t n_ = 0;
  Matrix lu_;                    // packed L (unit diag, below) and U (on/above)
  std::vector<std::size_t> perm_;  // row permutation
  int pivotSign_ = 1;
};

/// Matrix inverse via LU (only used for small package matrices).
[[nodiscard]] Matrix inverse(const Matrix& a);

/// Matrix exponential e^A via scaling-and-squaring with a Pade(6) approximant.
/// Accurate to ~1e-12 for the well-conditioned, diagonally dominant matrices
/// arising from RC thermal networks.
[[nodiscard]] Matrix expm(const Matrix& a);

}  // namespace rltherm
