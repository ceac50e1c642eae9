// Unit + property tests for the matrix container, the packed row layout,
// and the gather / GEMM kernels (scalar vs AVX2).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <tuple>

#include "common/rng.hpp"
#include "tensor/activations.hpp"
#include "tensor/gather.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"
#include "tensor/packed_rows.hpp"

namespace microrec {
namespace {

MatrixF RandomMatrix(std::size_t rows, std::size_t cols, Rng& rng) {
  MatrixF m(rows, cols);
  for (float& v : m.flat()) v = rng.NextFloat(-1.0f, 1.0f);
  return m;
}

// ---------------------------------------------------------------- Matrix

TEST(MatrixTest, DefaultIsEmpty) {
  MatrixF m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(MatrixTest, ConstructZeroInitializes) {
  MatrixF m(3, 4);
  EXPECT_EQ(m.size(), 12u);
  for (float v : m.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(MatrixTest, ElementAccessRowMajor) {
  MatrixF m(2, 3);
  m(0, 0) = 1.0f;
  m(1, 2) = 6.0f;
  EXPECT_EQ(m.data()[0], 1.0f);
  EXPECT_EQ(m.data()[5], 6.0f);
  EXPECT_EQ(m.row(1)[2], 6.0f);
}

TEST(MatrixTest, StorageIsCacheLineAligned) {
  MatrixF m(7, 13);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % kCacheLineBytes, 0u);
}

TEST(MatrixTest, CopyIsDeep) {
  MatrixF a(2, 2);
  a(0, 0) = 5.0f;
  MatrixF b = a;
  b(0, 0) = 9.0f;
  EXPECT_EQ(a(0, 0), 5.0f);
  EXPECT_EQ(b(0, 0), 9.0f);
}

TEST(MatrixTest, MoveTransfersOwnership) {
  MatrixF a(2, 2);
  a(1, 1) = 3.0f;
  const float* ptr = a.data();
  MatrixF b = std::move(a);
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(b(1, 1), 3.0f);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): documented state
}

TEST(MatrixTest, FillSetsAll) {
  MatrixF m(3, 3);
  m.Fill(2.5f);
  for (float v : m.flat()) EXPECT_EQ(v, 2.5f);
}

TEST(MatrixTest, ResizeDiscardsOldContents) {
  MatrixF m(2, 2);
  m.Fill(7.0f);
  m.Resize(4, 4);
  EXPECT_EQ(m.rows(), 4u);
  for (float v : m.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(MatrixCapacityTest, ResizeUninitReusesStorageWhenShrinking) {
  MatrixF m(8, 8);
  const float* ptr = m.data();
  m.ResizeUninit(4, 4);
  EXPECT_EQ(m.data(), ptr);
  EXPECT_EQ(m.rows(), 4u);
  m.ResizeUninit(2, 31);  // 62 <= 64: still fits the original capacity
  EXPECT_EQ(m.data(), ptr);
  m.ResizeUninit(9, 8);  // 72 > 64: must grow
  EXPECT_EQ(m.rows(), 9u);
  EXPECT_EQ(m.cols(), 8u);
}

TEST(MatrixCapacityTest, ResizeZeroesEvenWhenReusingStorage) {
  MatrixF m(4, 4);
  m.Fill(7.0f);
  m.Resize(2, 2);  // shrink: reuses storage, must still zero the elements
  for (float v : m.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(MatrixCapacityTest, CopyAssignIntoLargerBufferKeepsContents) {
  MatrixF big(10, 10);
  big.Fill(1.0f);
  MatrixF small(2, 3);
  small.Fill(4.0f);
  big = small;
  EXPECT_EQ(big.rows(), 2u);
  EXPECT_EQ(big.cols(), 3u);
  for (float v : big.flat()) EXPECT_EQ(v, 4.0f);
}

// ---------------------------------------------------------- Packed rows

TEST(PackedRowTest, StridePadsToVectorWidth) {
  EXPECT_EQ(PackedRowStride(1), 8u);
  EXPECT_EQ(PackedRowStride(8), 8u);
  EXPECT_EQ(PackedRowStride(9), 16u);
  EXPECT_EQ(PackedRowStride(48), 48u);
  EXPECT_EQ(PackedRowStride(63), 64u);
}

TEST(PackedRowTest, PaddingLanesStayZero) {
  PackedRowBuffer buf(3, 5);
  for (std::uint64_t r = 0; r < 3; ++r) {
    for (float& v : buf.row(r)) v = 9.0f;
  }
  const PackedTableView view = buf.view();
  ASSERT_EQ(view.stride, 8u);
  for (std::uint64_t r = 0; r < 3; ++r) {
    for (std::uint32_t d = 0; d < 5; ++d) EXPECT_EQ(view.row(r)[d], 9.0f);
    for (std::uint32_t d = 5; d < 8; ++d) EXPECT_EQ(view.row(r)[d], 0.0f);
  }
}

TEST(PackedRowTest, ViewRowsAreStrideApart) {
  PackedRowBuffer buf(4, 12);
  const PackedTableView view = buf.view();
  EXPECT_EQ(view.stride, 16u);
  EXPECT_EQ(view.row(3), view.data + 3 * 16);
}

// -------------------------------------------------------------- Gather

/// Independent reference mirroring the documented contract: copy the first
/// wrapped row, then add the rest in lookup order.
std::vector<float> NaiveGather(const PackedTableView& view,
                               std::span<const std::uint64_t> indices) {
  std::vector<float> out(view.dim);
  const float* first = view.row(indices[0] % view.rows);
  for (std::uint32_t d = 0; d < view.dim; ++d) out[d] = first[d];
  for (std::size_t l = 1; l < indices.size(); ++l) {
    const float* vec = view.row(indices[l] % view.rows);
    for (std::uint32_t d = 0; d < view.dim; ++d) out[d] += vec[d];
  }
  return out;
}

class GatherShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GatherShapeTest, ScalarAndAvx2MatchNaiveBitExact) {
  const auto [rows, dim, lookups] = GetParam();
  Rng rng(1000 + rows + dim * 7 + lookups);
  PackedRowBuffer buf(rows, dim);
  for (int r = 0; r < rows; ++r) {
    for (float& v : buf.row(r)) v = rng.NextFloat(-2.0f, 2.0f);
  }
  const PackedTableView view = buf.view();
  // Half the indices exceed `rows` to exercise the modulo wrap.
  std::vector<std::uint64_t> indices(lookups);
  for (std::size_t l = 0; l < indices.size(); ++l) {
    indices[l] = rng.NextBounded(l % 2 == 0 ? rows : 5 * rows);
  }
  const std::vector<float> expected = NaiveGather(view, indices);
  std::vector<float> scalar(dim);
  GatherSumPoolScalar(view, indices, scalar);
  EXPECT_EQ(scalar, expected);  // pure adds in one order: bit-exact
  if (CpuSupportsAvx2()) {
    std::vector<float> avx2(dim, -1.0f);
    GatherSumPoolAvx2(view, indices, avx2);
    EXPECT_EQ(avx2, expected);
  }
  std::vector<float> autod(dim);
  GatherSumPoolAuto(view, indices, autod);
  EXPECT_EQ(autod, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GatherShapeTest,
    ::testing::Combine(/*rows=*/::testing::Values(96, 128),
                       /*dim (multiples and non-multiples of 8, above and
                          below the 64-float register-resident path)=*/
                       ::testing::Values(1, 3, 8, 13, 48, 64, 72),
                       /*lookups=*/::testing::Values(1, 2, 80)));

TEST(GatherTest, SingleLookupCopiesWrappedRow) {
  PackedRowBuffer buf(4, 6);
  for (std::uint64_t r = 0; r < 4; ++r) {
    for (float& v : buf.row(r)) v = static_cast<float>(r);
  }
  const std::uint64_t idx[] = {9};  // 9 % 4 == 1
  std::vector<float> out(6);
  GatherSumPoolAuto(buf.view(), idx, out);
  for (float v : out) EXPECT_EQ(v, 1.0f);
}

TEST(GatherTest, BytesCountsLogicalRowData) {
  EXPECT_EQ(GatherBytes(80, 64), 80ull * 64 * 4);
  EXPECT_EQ(GatherBytes(1, 5), 20u);  // logical dim, not the padded stride
}

// ---------------------------------------------------------------- GEMM

TEST(GemmTest, ReferenceOnHandComputedCase) {
  MatrixF a(2, 3), b(3, 2), c;
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  GemmReference(a, b, c);
  EXPECT_EQ(c(0, 0), 58.0f);
  EXPECT_EQ(c(0, 1), 64.0f);
  EXPECT_EQ(c(1, 0), 139.0f);
  EXPECT_EQ(c(1, 1), 154.0f);
}

TEST(GemmTest, IdentityIsNeutral) {
  Rng rng(31);
  MatrixF a = RandomMatrix(5, 5, rng);
  MatrixF eye(5, 5);
  for (std::size_t i = 0; i < 5; ++i) eye(i, i) = 1.0f;
  MatrixF c;
  GemmBlocked(a, eye, c);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) EXPECT_FLOAT_EQ(c(i, j), a(i, j));
  }
}

// Property sweep: blocked GEMM must agree with the reference kernel across
// shapes including non-multiples of the block sizes.
class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, BlockedMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(100 + m + k + n);
  MatrixF a = RandomMatrix(m, k, rng);
  MatrixF b = RandomMatrix(k, n, rng);
  MatrixF ref, blocked;
  GemmReference(a, b, ref);
  GemmBlocked(a, b, blocked);
  ASSERT_EQ(blocked.rows(), ref.rows());
  ASSERT_EQ(blocked.cols(), ref.cols());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(blocked.data()[i], ref.data()[i],
                1e-4f * static_cast<float>(k));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 352, 64),
                      std::make_tuple(3, 5, 7), std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 129, 257),
                      std::make_tuple(17, 200, 33),
                      std::make_tuple(128, 100, 300),
                      std::make_tuple(2, 1024, 512)));

TEST(GemmAvx2Test, MatchesReferenceWhenSupported) {
  if (!CpuSupportsAvx2()) {
    GTEST_SKIP() << "host lacks AVX2/FMA";
  }
  for (auto [m, k, n] : {std::make_tuple(1, 352, 1024),
                         std::make_tuple(7, 13, 9),      // non-multiple of 8
                         std::make_tuple(33, 100, 257),
                         std::make_tuple(64, 64, 8)}) {
    Rng rng(500 + m + k + n);
    MatrixF a = RandomMatrix(m, k, rng);
    MatrixF b = RandomMatrix(k, n, rng);
    MatrixF ref, vec;
    GemmReference(a, b, ref);
    GemmAvx2Ex(a, PanelMatrix(b), vec, {});
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(vec.data()[i], ref.data()[i], 1e-4f * static_cast<float>(k))
          << m << "x" << k << "x" << n << " at " << i;
    }
  }
}

TEST(GemmAutoTest, AlwaysMatchesReference) {
  Rng rng(42);
  MatrixF a = RandomMatrix(17, 120, rng);
  MatrixF b = RandomMatrix(120, 45, rng);
  MatrixF ref, autod;
  GemmReference(a, b, ref);
  GemmAuto(a, b, autod);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(autod.data()[i], ref.data()[i], 1e-2f);
  }
}

TEST(GemvTest, MatchesGemmRow) {
  Rng rng(32);
  MatrixF x(1, 20);
  for (float& v : x.flat()) v = rng.NextFloat(-1.0f, 1.0f);
  MatrixF b = RandomMatrix(20, 30, rng);
  MatrixF ref;
  GemmReference(x, b, ref);
  std::vector<float> y(30);
  Gemv(x.row(0), b, y);
  for (std::size_t j = 0; j < 30; ++j) {
    EXPECT_NEAR(y[j], ref(0, j), 1e-4f);
  }
}

// ------------------------------------------------------- Fused epilogue

/// Reference epilogue: bias add then ReLU, applied after a plain GEMM.
void SeparateEpilogue(MatrixF& c, std::span<const float> bias, bool relu) {
  for (std::size_t i = 0; i < c.rows(); ++i) {
    auto row = c.row(i);
    for (std::size_t j = 0; j < row.size(); ++j) {
      float v = row[j];
      if (!bias.empty()) v += bias[j];
      if (relu && v < 0.0f) v = 0.0f;
      row[j] = v;
    }
  }
}

class GemmFusedShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmFusedShapeTest, FusedMatchesSeparateEpilogue) {
  const auto [m, k, n] = GetParam();
  Rng rng(900 + m + 3 * k + 7 * n);
  MatrixF a = RandomMatrix(m, k, rng);
  MatrixF b = RandomMatrix(k, n, rng);
  std::vector<float> bias(n);
  for (float& v : bias) v = rng.NextFloat(-0.5f, 0.5f);
  const GemmEpilogue ep{.bias = bias, .relu = true};

  // Blocked: fused must be bit-equal to unfused + separate sweep (same
  // accumulation order, the epilogue adds are identical operations).
  MatrixF unfused, fused;
  GemmBlocked(a, b, unfused);
  SeparateEpilogue(unfused, bias, true);
  GemmBlockedEx(a, b, fused, ep);
  ASSERT_EQ(fused.rows(), unfused.rows());
  ASSERT_EQ(fused.cols(), unfused.cols());
  for (std::size_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(fused.data()[i], unfused.data()[i]) << "element " << i;
  }

  if (CpuSupportsAvx2()) {
    // AVX2: fused must be bit-equal to unfused AVX2 + separate sweep, and
    // within FMA-rounding distance of the blocked kernel.
    MatrixF vec_unfused, vec_fused;
    const PanelMatrix packed(b);
    GemmAvx2Ex(a, packed, vec_unfused, {});
    SeparateEpilogue(vec_unfused, bias, true);
    GemmAvx2Ex(a, packed, vec_fused, ep);
    for (std::size_t i = 0; i < vec_fused.size(); ++i) {
      ASSERT_EQ(vec_fused.data()[i], vec_unfused.data()[i])
          << "element " << i;
    }
    for (std::size_t i = 0; i < vec_fused.size(); ++i) {
      EXPECT_NEAR(vec_fused.data()[i], fused.data()[i],
                  1e-4f * static_cast<float>(std::max(k, 1)));
    }
  }

  // Dispatch wrapper agrees with whichever kernel it picked.
  MatrixF autod;
  GemmAutoEx(a, b, autod, ep);
  for (std::size_t i = 0; i < autod.size(); ++i) {
    EXPECT_NEAR(autod.data()[i], fused.data()[i],
                1e-4f * static_cast<float>(std::max(k, 1)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmFusedShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1),
                      std::make_tuple(1, 0, 5),    // k == 0: epilogue of 0
                      std::make_tuple(6, 8, 16),   // exact 6x16 tile
                      std::make_tuple(7, 9, 17),   // every remainder path
                      std::make_tuple(13, 64, 23),
                      std::make_tuple(5, 31, 8),
                      std::make_tuple(64, 352, 40),
                      std::make_tuple(3, 7, 1000),
                      std::make_tuple(2, 5, 15),    // one partial panel
                      std::make_tuple(4, 0, 33),    // k == 0, n % 16 == 1
                      std::make_tuple(13, 20, 31),  // 6 + 6 + 1 rows
                      std::make_tuple(12, 3, 1)));

TEST(GemmFusedTest, BiasOnlyAndReluOnly) {
  Rng rng(77);
  MatrixF a = RandomMatrix(4, 9, rng);
  MatrixF b = RandomMatrix(9, 11, rng);
  std::vector<float> bias(11);
  for (float& v : bias) v = rng.NextFloat(-1.0f, 1.0f);

  MatrixF expect, got;
  GemmAuto(a, b, expect);
  SeparateEpilogue(expect, bias, false);
  GemmAutoEx(a, b, got, {.bias = bias});
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.data()[i], expect.data()[i]);
  }

  GemmAuto(a, b, expect);
  SeparateEpilogue(expect, {}, true);
  GemmAutoEx(a, b, got, {.relu = true});
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.data()[i], expect.data()[i]);
  }
}

TEST(GemmFusedTest, EmptyEpilogueIsPlainGemm) {
  Rng rng(78);
  MatrixF a = RandomMatrix(5, 12, rng);
  MatrixF b = RandomMatrix(12, 19, rng);
  MatrixF plain, ex;
  GemmAuto(a, b, plain);
  GemmAutoEx(a, b, ex, {});
  for (std::size_t i = 0; i < ex.size(); ++i) {
    EXPECT_EQ(ex.data()[i], plain.data()[i]);
  }
}

class GemvFusedTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GemvFusedTest, MatchesGemmRowAndScalar) {
  const auto [k, n] = GetParam();
  Rng rng(800 + k + n);
  MatrixF x = RandomMatrix(1, k, rng);
  MatrixF b = RandomMatrix(k, n, rng);
  std::vector<float> bias(n);
  for (float& v : bias) v = rng.NextFloat(-0.5f, 0.5f);
  const GemmEpilogue ep{.bias = bias, .relu = true};

  // Scalar GEMV fused == scalar GEMV + separate sweep (bit-equal).
  std::vector<float> scalar(n), scalar_fused(n);
  Gemv(x.row(0), b, scalar);
  for (std::size_t j = 0; j < scalar.size(); ++j) {
    float v = scalar[j] + bias[j];
    scalar[j] = v < 0.0f ? 0.0f : v;
  }
  GemvEx(x.row(0), b, scalar_fused, ep);
  EXPECT_EQ(scalar_fused, scalar);

  if (CpuSupportsAvx2()) {
    // The batch-1 GEMM tile and the GEMV use the same p-ascending
    // single-accumulator order, so they are bit-identical per element.
    const PanelMatrix packed(b);
    MatrixF c;
    GemmAvx2Ex(x, packed, c, ep);
    std::vector<float> y(n);
    GemvAvx2Ex(x.row(0), packed, y, ep);
    for (std::size_t j = 0; j < y.size(); ++j) {
      EXPECT_EQ(y[j], c(0, j)) << "column " << j;
      EXPECT_NEAR(y[j], scalar[j],
                  1e-4f * static_cast<float>(std::max(k, 1)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemvFusedTest,
                         ::testing::Values(std::make_tuple(1, 1),
                                           std::make_tuple(352, 1024),
                                           std::make_tuple(13, 9),
                                           std::make_tuple(100, 8),
                                           std::make_tuple(64, 17),
                                           std::make_tuple(0, 5),
                                           std::make_tuple(9, 16),
                                           std::make_tuple(40, 33),
                                           std::make_tuple(512, 256),
                                           std::make_tuple(7, 1000)));

/// C = A * B + bias, ReLU, with one std::fma accumulator per element over p
/// in ascending order: the AVX2 kernel's exact arithmetic, lane by lane.
MatrixF FmaLoopReference(const MatrixF& a, const MatrixF& b,
                         std::span<const float> bias) {
  MatrixF c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < a.cols(); ++p) {
        acc = std::fma(a(i, p), b(p, j), acc);
      }
      acc += bias[j];
      c(i, j) = acc < 0.0f ? 0.0f : acc;
    }
  }
  return c;
}

// Every row remainder of the 6-row block (m = 1..7, 13), every width of the
// last 16-column panel (n % 16 = 0..15, n up to 1000) and k = 0: GEMM and
// GEMV are bit-identical to the p-ascending FMA loop.
TEST(GemmAvx2Test, PanelKernelIsBitIdenticalToFmaLoopOnEveryShape) {
  if (!CpuSupportsAvx2()) GTEST_SKIP() << "host lacks AVX2/FMA";
  std::vector<int> widths;
  for (int n = 1; n <= 17; ++n) widths.push_back(n);
  for (int n : {31, 33, 1000}) widths.push_back(n);
  for (int k : {0, 1, 9}) {
    for (int n : widths) {
      Rng rng(1000 + 7 * k + n);
      const MatrixF b = RandomMatrix(k, n, rng);
      const PanelMatrix packed(b);
      std::vector<float> bias(n);
      for (float& v : bias) v = rng.NextFloat(-0.5f, 0.5f);
      const GemmEpilogue ep{.bias = bias, .relu = true};
      for (int m : {1, 2, 3, 4, 5, 6, 7, 13}) {
        const MatrixF a = RandomMatrix(m, k, rng);
        const MatrixF expect = FmaLoopReference(a, b, bias);
        MatrixF c;
        GemmAvx2Ex(a, packed, c, ep);
        ASSERT_EQ(c.rows(), expect.rows());
        ASSERT_EQ(c.cols(), expect.cols());
        for (std::size_t i = 0; i < c.size(); ++i) {
          ASSERT_EQ(c.data()[i], expect.data()[i])
              << m << "x" << k << "x" << n << " element " << i;
        }
        // The last panel's masked store must not touch past column n.
        std::vector<float> y(n + PanelMatrix::kWidth, 7.0f);
        GemvAvx2Ex(a.row(m - 1), packed, std::span(y).first(n), ep);
        for (int j = 0; j < n; ++j) {
          ASSERT_EQ(y[j], expect(m - 1, j))
              << "GEMV " << k << "x" << n << " column " << j;
        }
        for (std::size_t j = n; j < y.size(); ++j) ASSERT_EQ(y[j], 7.0f);
      }
    }
  }
}

TEST(PanelMatrixTest, PacksColumnsIntoPanelsWithZeroPadding) {
  Rng rng(61);
  const MatrixF b = RandomMatrix(5, 35, rng);  // panels of 16, 16 and 3
  const PanelMatrix packed(b);
  EXPECT_EQ(packed.rows(), 5u);
  EXPECT_EQ(packed.cols(), 35u);
  ASSERT_EQ(packed.panels(), 3u);
  for (std::size_t q = 0; q < packed.panels(); ++q) {
    const float* panel = packed.panel(q);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(panel) % kCacheLineBytes, 0u);
    for (std::size_t p = 0; p < 5; ++p) {
      for (std::size_t l = 0; l < PanelMatrix::kWidth; ++l) {
        const std::size_t j = q * PanelMatrix::kWidth + l;
        const float want = j < b.cols() ? b(p, j) : 0.0f;
        EXPECT_EQ(panel[p * PanelMatrix::kWidth + l], want)
            << "panel " << q << " row " << p << " lane " << l;
      }
    }
  }
  EXPECT_EQ(PanelMatrix(MatrixF(3, 16)).panels(), 1u);
  EXPECT_EQ(PanelMatrix(MatrixF(3, 0)).panels(), 0u);
}

TEST(GemmOpsTest, CountsTwoOpsPerMac) {
  EXPECT_EQ(GemmOps(1, 352, 1024), 2ull * 352 * 1024);
  EXPECT_EQ(GemmOps(0, 10, 10), 0u);
}

// ---------------------------------------------------------------- Activations

TEST(ActivationsTest, ReluClampsNegatives) {
  std::vector<float> v = {-2.0f, -0.1f, 0.0f, 0.5f, 3.0f};
  ReluInPlace(v);
  EXPECT_EQ(v, (std::vector<float>{0.0f, 0.0f, 0.0f, 0.5f, 3.0f}));
}

TEST(ActivationsTest, SigmoidProperties) {
  EXPECT_FLOAT_EQ(Sigmoid(0.0f), 0.5f);
  EXPECT_NEAR(Sigmoid(10.0f), 1.0f, 1e-4);
  EXPECT_NEAR(Sigmoid(-10.0f), 0.0f, 1e-4);
  // Symmetry: sigmoid(-x) == 1 - sigmoid(x).
  for (float x : {0.3f, 1.7f, 4.2f}) {
    EXPECT_NEAR(Sigmoid(-x), 1.0f - Sigmoid(x), 1e-6);
  }
}

TEST(ActivationsTest, SigmoidMonotone) {
  float prev = Sigmoid(-5.0f);
  for (float x = -4.5f; x <= 5.0f; x += 0.5f) {
    const float cur = Sigmoid(x);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
}

}  // namespace
}  // namespace microrec
