#ifndef MIP_STATS_MATRIX_H_
#define MIP_STATS_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"

namespace mip::stats {

/// \brief Dense row-major matrix of doubles.
///
/// This is the numeric workhorse under the federated algorithms: Gram
/// matrices (X'X), covariance matrices, Hessians. It is intentionally simple
/// — contiguous storage, no expression templates — because all heavy lifting
/// in MIP happens inside the vectorized engine; the matrices that reach the
/// Master node are small aggregates (p x p for p features).
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds a matrix from nested initializer data (row major).
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  /// Identity matrix of size n.
  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Pointer to the start of row r.
  double* row(size_t r) { return data_.data() + r * cols_; }
  const double* row(size_t r) const { return data_.data() + r * cols_; }

  Matrix Transpose() const;

  /// Matrix product this * other. Dimension mismatch is a TypeError.
  Result<Matrix> MatMul(const Matrix& other) const;

  /// this + other (elementwise).
  Result<Matrix> Add(const Matrix& other) const;

  /// this - other (elementwise).
  Result<Matrix> Sub(const Matrix& other) const;

  /// Scales every element by s.
  Matrix Scale(double s) const;

  /// Adds `other` into this matrix in place. Dimension mismatch is an error.
  Status AddInPlace(const Matrix& other);

  /// Column c as a vector.
  std::vector<double> Column(size_t c) const;

  /// Maximum absolute elementwise difference against `other` (inf if shapes
  /// differ).
  double MaxAbsDiff(const Matrix& other) const;

  /// Serializes to/from flat vectors (used by the federation transfer layer).
  std::vector<double> Flatten() const { return data_; }
  static Result<Matrix> FromFlat(size_t rows, size_t cols,
                                 std::vector<double> flat);

  std::string ToString(int precision = 4) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// Dot product of equal-length vectors.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// Euclidean norm.
double Norm2(const std::vector<double>& v);

/// Matrix-vector product A*x.
Result<std::vector<double>> MatVec(const Matrix& a,
                                   const std::vector<double>& x);

}  // namespace mip::stats

#endif  // MIP_STATS_MATRIX_H_
