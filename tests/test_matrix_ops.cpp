// Tests for the matrix substrate and dense kernels.

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"

namespace dlcomp {
namespace {

Matrix make_random(Rng& rng, std::size_t r, std::size_t c) {
  return Matrix::rand_uniform(rng, r, c, -1.0f, 1.0f);
}

TEST(Matrix, ShapeAndAccess) {
  Matrix m(3, 4, 1.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_EQ(m(2, 3), 1.5f);
  m(1, 2) = 7.0f;
  EXPECT_EQ(m.row(1)[2], 7.0f);
}

TEST(Matrix, RowViewWritesThrough) {
  Matrix m(2, 3);
  auto row = m.row(1);
  row[0] = 5.0f;
  EXPECT_EQ(m(1, 0), 5.0f);
}

TEST(Matrix, UnaddressableShapeThrows) {
  // 2^62 x 16 wraps to 0 elements in size_t: a wrapped buffer would let
  // row(r) reach far past the allocation. 2^62 x 1 does not wrap but is
  // still larger than any float buffer can be.
  constexpr std::size_t kRows = std::size_t{1} << 62;
  EXPECT_THROW(Matrix(kRows, 16), Error);
  EXPECT_THROW(Matrix(kRows, 1), Error);
  EXPECT_NO_THROW(Matrix(kRows, 0));

  Matrix m(2, 3, 1.0f);
  EXPECT_THROW(m.resize(kRows, 16), Error);
  EXPECT_EQ(m.rows(), 2u);  // a failed resize leaves the matrix as it was
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
}

TEST(Matrix, RandnMoments) {
  Rng rng(1);
  const Matrix m = Matrix::randn(rng, 200, 200, 1.0, 2.0);
  double sum = 0.0;
  for (const float v : m.flat()) sum += v;
  EXPECT_NEAR(sum / static_cast<double>(m.size()), 1.0, 0.05);
}

TEST(MatmulNT, MatchesManual) {
  // Y = X * W^T with X 2x3, W 4x3 -> Y 2x4.
  Matrix x(2, 3);
  Matrix w(4, 3);
  float k = 1.0f;
  for (auto& v : x.flat()) v = k++;
  for (auto& v : w.flat()) v = 0.1f * k++;
  Matrix y(2, 4);
  matmul_nt(x, w, y);
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t o = 0; o < 4; ++o) {
      float expect = 0.0f;
      for (std::size_t i = 0; i < 3; ++i) expect += x(b, i) * w(o, i);
      ASSERT_FLOAT_EQ(y(b, o), expect);
    }
  }
}

TEST(MatmulNN, IsAdjointOfNT) {
  // For random X, W, G: <G, X W^T> == <G W, X>.
  Rng rng(2);
  const Matrix x = make_random(rng, 5, 7);
  const Matrix w = make_random(rng, 4, 7);
  const Matrix g = make_random(rng, 5, 4);

  Matrix y(5, 4);
  matmul_nt(x, w, y);
  double lhs = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) lhs += g.flat()[i] * y.flat()[i];

  Matrix gw(5, 7);
  matmul_nn(g, w, gw);
  double rhs = 0.0;
  for (std::size_t i = 0; i < gw.size(); ++i) rhs += gw.flat()[i] * x.flat()[i];

  EXPECT_NEAR(lhs, rhs, 1e-4);
}

TEST(MatmulTNAccum, AccumulatesWeightGradient) {
  Rng rng(3);
  const Matrix x = make_random(rng, 6, 3);
  const Matrix dy = make_random(rng, 6, 2);
  Matrix dw(2, 3);
  matmul_tn_accum(dy, x, dw);
  // Manual check of one entry.
  float expect = 0.0f;
  for (std::size_t b = 0; b < 6; ++b) expect += dy(b, 1) * x(b, 2);
  EXPECT_NEAR(dw(1, 2), expect, 1e-5);

  // Accumulation: calling again doubles.
  matmul_tn_accum(dy, x, dw);
  EXPECT_NEAR(dw(1, 2), 2.0f * expect, 1e-5);
}

TEST(Bias, AddAndGradient) {
  Matrix y(3, 2, 1.0f);
  const std::vector<float> b = {0.5f, -0.5f};
  add_bias(y, b);
  EXPECT_FLOAT_EQ(y(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y(2, 1), 0.5f);

  std::vector<float> db(2, 0.0f);
  bias_grad_accum(y, db);
  EXPECT_FLOAT_EQ(db[0], 4.5f);
  EXPECT_FLOAT_EQ(db[1], 1.5f);
}

TEST(Relu, ForwardAndBackward) {
  Matrix x(1, 4);
  x(0, 0) = -1.0f;
  x(0, 1) = 2.0f;
  x(0, 2) = 0.0f;
  x(0, 3) = -0.5f;
  relu_inplace(x);
  EXPECT_FLOAT_EQ(x(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(x(0, 1), 2.0f);

  Matrix dy(1, 4, 1.0f);
  relu_bwd(x, dy);
  EXPECT_FLOAT_EQ(dy(0, 0), 0.0f);  // was negative
  EXPECT_FLOAT_EQ(dy(0, 1), 1.0f);  // was positive
  EXPECT_FLOAT_EQ(dy(0, 2), 0.0f);  // zero blocks gradient
}

TEST(Axpy, Accumulates) {
  std::vector<float> x = {1.0f, 2.0f};
  std::vector<float> y = {10.0f, 20.0f};
  axpy(0.5f, x, y);
  EXPECT_FLOAT_EQ(y[0], 10.5f);
  EXPECT_FLOAT_EQ(y[1], 21.0f);
}

TEST(ErrorMetrics, MseAndMaxAbs) {
  const std::vector<float> a = {1.0f, 2.0f, 3.0f};
  const std::vector<float> b = {1.0f, 2.5f, 2.0f};
  EXPECT_NEAR(mean_squared_error(a, b), (0.25 + 1.0) / 3.0, 1e-9);
  EXPECT_NEAR(max_abs_error(a, b), 1.0, 1e-9);
}

TEST(OpsShapeChecks, MismatchesThrow) {
  Matrix x(2, 3);
  Matrix w(4, 5);  // wrong inner dim
  Matrix y(2, 4);
  EXPECT_THROW(matmul_nt(x, w, y), Error);
  EXPECT_THROW(mean_squared_error(std::vector<float>{1.0f},
                                  std::vector<float>{1.0f, 2.0f}),
               Error);
}

}  // namespace
}  // namespace dlcomp
