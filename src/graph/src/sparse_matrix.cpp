#include "greedcolor/graph/sparse_matrix.hpp"

#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "csr_build.hpp"

namespace gcol {

namespace {

struct CsArrays {
  std::vector<eid_t> ptr;
  std::vector<vid_t> idx;
  std::vector<double> val;
};

/// One side of a sorted, deduplicated COO: list k holds `values[i]` and
/// `vals[i]` of every entry i with keys[i] == k, in COO order (the bucket
/// is stable).
CsArrays build_side(vid_t num_keys, const std::vector<vid_t>& keys,
                    const std::vector<vid_t>& values,
                    const std::vector<double>& vals) {
  CsArrays out;
  out.idx.resize(keys.size());
  out.val.resize(keys.size());
  out.ptr = detail::counting_sort(
      num_keys,
      [&](const auto& visit) {
        for (std::size_t i = 0; i < keys.size(); ++i) visit(keys[i], i);
      },
      [&](eid_t slot, std::size_t i) {
        const auto s = static_cast<std::size_t>(slot);
        out.idx[s] = values[i];
        out.val[s] = vals.empty() ? 1.0 : vals[i];
      });
  return out;
}

}  // namespace

CsrMatrix CsrMatrix::from_coo(Coo coo) {
  coo.sort_and_dedup();
  CsrMatrix m;
  m.rows_ = coo.num_rows;
  m.cols_ = coo.num_cols;
  auto side = build_side(coo.num_rows, coo.rows, coo.cols, coo.vals);
  m.ptr_ = std::move(side.ptr);
  m.idx_ = std::move(side.idx);
  m.val_ = std::move(side.val);
  return m;
}

void CsrMatrix::multiply(std::span<const double> x,
                         std::vector<double>& y) const {
  if (x.size() != static_cast<std::size_t>(cols_))
    throw std::invalid_argument("CsrMatrix::multiply: x size mismatch");
  y.assign(static_cast<std::size_t>(rows_), 0.0);
  for (vid_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (eid_t k = ptr_[static_cast<std::size_t>(r)];
         k < ptr_[static_cast<std::size_t>(r) + 1]; ++k)
      acc += val_[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(idx_[static_cast<std::size_t>(k)])];
    y[static_cast<std::size_t>(r)] = acc;
  }
}

void CsrMatrix::multiply_transpose(std::span<const double> x,
                                   std::vector<double>& y) const {
  if (x.size() != static_cast<std::size_t>(rows_))
    throw std::invalid_argument(
        "CsrMatrix::multiply_transpose: x size mismatch");
  y.assign(static_cast<std::size_t>(cols_), 0.0);
  for (vid_t r = 0; r < rows_; ++r) {
    const double xr = x[static_cast<std::size_t>(r)];
    for (eid_t k = ptr_[static_cast<std::size_t>(r)];
         k < ptr_[static_cast<std::size_t>(r) + 1]; ++k)
      y[static_cast<std::size_t>(idx_[static_cast<std::size_t>(k)])] +=
          val_[static_cast<std::size_t>(k)] * xr;
  }
}

Coo CsrMatrix::to_coo() const {
  Coo coo;
  coo.num_rows = rows_;
  coo.num_cols = cols_;
  coo.reserve(nnz());
  for (vid_t r = 0; r < rows_; ++r)
    for (eid_t k = ptr_[static_cast<std::size_t>(r)];
         k < ptr_[static_cast<std::size_t>(r) + 1]; ++k)
      coo.add(r, idx_[static_cast<std::size_t>(k)],
              val_[static_cast<std::size_t>(k)]);
  return coo;
}

CscMatrix CscMatrix::from_coo(Coo coo) {
  coo.sort_and_dedup();
  CscMatrix m;
  m.rows_ = coo.num_rows;
  m.cols_ = coo.num_cols;
  auto side = build_side(coo.num_cols, coo.cols, coo.rows, coo.vals);
  m.ptr_ = std::move(side.ptr);
  m.idx_ = std::move(side.idx);
  m.val_ = std::move(side.val);
  return m;
}

double CscMatrix::column_sqnorm(vid_t c) const {
  double s = 0.0;
  for (const double v : col_values(c)) s += v * v;
  return s;
}

void CscMatrix::multiply(std::span<const double> x,
                         std::vector<double>& y) const {
  if (x.size() != static_cast<std::size_t>(cols_))
    throw std::invalid_argument("CscMatrix::multiply: x size mismatch");
  y.assign(static_cast<std::size_t>(rows_), 0.0);
  for (vid_t c = 0; c < cols_; ++c) {
    const double xc = x[static_cast<std::size_t>(c)];
    if (xc == 0.0) continue;
    for (eid_t k = ptr_[static_cast<std::size_t>(c)];
         k < ptr_[static_cast<std::size_t>(c) + 1]; ++k)
      y[static_cast<std::size_t>(idx_[static_cast<std::size_t>(k)])] +=
          val_[static_cast<std::size_t>(k)] * xc;
  }
}

std::vector<double> compress_columns(const CsrMatrix& a,
                                     const std::vector<color_t>& colors,
                                     color_t p) {
  if (colors.size() != static_cast<std::size_t>(a.num_cols()))
    throw std::invalid_argument("compress_columns: colors size mismatch");
  std::vector<double> b(
      static_cast<std::size_t>(a.num_rows()) * static_cast<std::size_t>(p),
      0.0);
  for (vid_t r = 0; r < a.num_rows(); ++r) {
    const auto idx = a.row_indices(r);
    const auto val = a.row_values(r);
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const color_t c = colors[static_cast<std::size_t>(idx[k])];
      if (c < 0 || c >= p)
        throw std::out_of_range("compress_columns: color out of range");
      b[static_cast<std::size_t>(r) * static_cast<std::size_t>(p) +
        static_cast<std::size_t>(c)] += val[k];
    }
  }
  return b;
}

double recovery_error(const CsrMatrix& a, const std::vector<color_t>& colors,
                      color_t p, std::span<const double> compressed) {
  double max_err = 0.0;
  for (vid_t r = 0; r < a.num_rows(); ++r) {
    const auto idx = a.row_indices(r);
    const auto val = a.row_values(r);
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const auto c = static_cast<std::size_t>(
          colors[static_cast<std::size_t>(idx[k])]);
      const double got =
          compressed[static_cast<std::size_t>(r) *
                         static_cast<std::size_t>(p) +
                     c];
      max_err = std::max(max_err, std::abs(got - val[k]));
    }
  }
  return max_err;
}

}  // namespace gcol
