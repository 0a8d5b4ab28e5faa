#include "stats/matrix.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>

namespace mip::stats {

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    assert(rows[r].size() == m.cols_);
    for (size_t c = 0; c < m.cols_; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Result<Matrix> Matrix::MatMul(const Matrix& other) const {
  if (cols_ != other.rows_) {
    return Status::TypeError("matmul dimension mismatch: (" +
                             std::to_string(rows_) + "x" +
                             std::to_string(cols_) + ") * (" +
                             std::to_string(other.rows_) + "x" +
                             std::to_string(other.cols_) + ")");
  }
  Matrix out(rows_, other.cols_);
  // i-k-j loop order for cache friendliness on row-major storage.
  for (size_t i = 0; i < rows_; ++i) {
    const double* arow = row(i);
    double* orow = out.row(i);
    for (size_t k = 0; k < cols_; ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = other.row(k);
      for (size_t j = 0; j < other.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Result<Matrix> Matrix::Add(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    return Status::TypeError("matrix add dimension mismatch");
  }
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] += other.data_[i];
  return out;
}

Result<Matrix> Matrix::Sub(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    return Status::TypeError("matrix sub dimension mismatch");
  }
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] -= other.data_[i];
  return out;
}

Matrix Matrix::Scale(double s) const {
  Matrix out = *this;
  for (double& v : out.data_) v *= s;
  return out;
}

Status Matrix::AddInPlace(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    return Status::TypeError("matrix add-in-place dimension mismatch");
  }
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return Status::OK();
}

std::vector<double> Matrix::Column(size_t c) const {
  std::vector<double> out(rows_);
  for (size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    return std::numeric_limits<double>::infinity();
  }
  double m = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::fabs(data_[i] - other.data_[i]));
  }
  return m;
}

Result<Matrix> Matrix::FromFlat(size_t rows, size_t cols,
                                std::vector<double> flat) {
  if (flat.size() != rows * cols) {
    return Status::TypeError("flat size does not match matrix shape");
  }
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = std::move(flat);
  return m;
}

std::string Matrix::ToString(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed;
  for (size_t r = 0; r < rows_; ++r) {
    os << "[";
    for (size_t c = 0; c < cols_; ++c) {
      if (c > 0) os << ", ";
      os << (*this)(r, c);
    }
    os << "]\n";
  }
  return os.str();
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double Norm2(const std::vector<double>& v) { return std::sqrt(Dot(v, v)); }

Result<std::vector<double>> MatVec(const Matrix& a,
                                   const std::vector<double>& x) {
  if (a.cols() != x.size()) {
    return Status::TypeError("matvec dimension mismatch");
  }
  std::vector<double> out(a.rows(), 0.0);
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* arow = a.row(r);
    double s = 0.0;
    for (size_t c = 0; c < a.cols(); ++c) s += arow[c] * x[c];
    out[r] = s;
  }
  return out;
}

}  // namespace mip::stats
