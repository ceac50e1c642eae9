// Tests for the float MLP reference and the quantized (fixed-point) MLP
// that models the FPGA datapath.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/mlp.hpp"
#include "nn/quantized_mlp.hpp"

namespace microrec {
namespace {

MlpSpec SmallSpec() {
  MlpSpec spec;
  spec.input_dim = 32;
  spec.hidden = {64, 32, 16};
  return spec;
}

std::vector<float> RandomInput(std::uint32_t dim, Rng& rng) {
  std::vector<float> input(dim);
  for (float& v : input) v = rng.NextFloat(-0.25f, 0.25f);
  return input;
}

// ---------------------------------------------------------------- MlpSpec

TEST(MlpSpecTest, OpsCountMatchesPaperAccounting) {
  MlpSpec spec;
  spec.input_dim = 352;
  spec.hidden = {1024, 512, 256};
  // 2 * (352*1024 + 1024*512 + 512*256) = 2,031,616 ops/item; multiplied by
  // the paper's 3.05e5 items/s this gives its published 619.5 GOP/s.
  EXPECT_EQ(spec.OpsPerItem(), 2031616u);

  spec.input_dim = 876;
  EXPECT_EQ(spec.OpsPerItem(), 3104768u);
}

TEST(MlpSpecTest, LayerDims) {
  const MlpSpec spec = SmallSpec();
  EXPECT_EQ(spec.LayerInputDim(0), 32u);
  EXPECT_EQ(spec.LayerInputDim(1), 64u);
  EXPECT_EQ(spec.LayerInputDim(2), 32u);
  EXPECT_EQ(spec.LayerMacs(0), 32u * 64);
  EXPECT_EQ(spec.LayerMacs(2), 32u * 16);
}

TEST(MlpSpecTest, ValidationCatchesBadSpecs) {
  MlpSpec spec;
  EXPECT_FALSE(spec.Validate().ok());  // input_dim == 0
  spec.input_dim = 8;
  spec.hidden = {};
  EXPECT_FALSE(spec.Validate().ok());  // no layers
  spec.hidden = {16, 0};
  EXPECT_FALSE(spec.Validate().ok());  // zero-width layer
  spec.hidden = {16, 8};
  EXPECT_TRUE(spec.Validate().ok());
}

// ---------------------------------------------------------------- MlpModel

TEST(MlpModelTest, DeterministicForSeed) {
  const MlpSpec spec = SmallSpec();
  const MlpModel a = MlpModel::Create(spec, 5);
  const MlpModel b = MlpModel::Create(spec, 5);
  Rng rng(1);
  const auto input = RandomInput(spec.input_dim, rng);
  EXPECT_EQ(a.Forward(input), b.Forward(input));
}

TEST(MlpModelTest, DifferentSeedsGiveDifferentModels) {
  const MlpSpec spec = SmallSpec();
  const MlpModel a = MlpModel::Create(spec, 5);
  const MlpModel b = MlpModel::Create(spec, 6);
  Rng rng(1);
  const auto input = RandomInput(spec.input_dim, rng);
  EXPECT_NE(a.Forward(input), b.Forward(input));
}

TEST(MlpModelTest, OutputIsProbability) {
  const MlpSpec spec = SmallSpec();
  const MlpModel model = MlpModel::Create(spec, 7);
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const float p = model.Forward(RandomInput(spec.input_dim, rng));
    EXPECT_GT(p, 0.0f);
    EXPECT_LT(p, 1.0f);
  }
}

TEST(MlpModelTest, BatchMatchesSingle) {
  const MlpSpec spec = SmallSpec();
  const MlpModel model = MlpModel::Create(spec, 9);
  Rng rng(3);
  const std::size_t batch = 17;
  MatrixF inputs(batch, spec.input_dim);
  for (float& v : inputs.flat()) v = rng.NextFloat(-0.25f, 0.25f);
  const std::vector<float> batched = model.ForwardBatch(inputs);
  ASSERT_EQ(batched.size(), batch);
  for (std::size_t i = 0; i < batch; ++i) {
    const float single = model.Forward(inputs.row(i));
    EXPECT_NEAR(batched[i], single, 1e-5f) << "row " << i;
  }
}

TEST(MlpModelTest, ScratchForwardBatchMatchesWrapper) {
  const MlpSpec spec = SmallSpec();
  const MlpModel model = MlpModel::Create(spec, 9);
  Rng rng(13);
  MatrixF inputs(11, spec.input_dim);
  for (float& v : inputs.flat()) v = rng.NextFloat(-0.25f, 0.25f);
  const std::vector<float> wrapper = model.ForwardBatch(inputs);
  MlpScratch scratch;
  std::vector<float> probs(inputs.rows());
  model.ForwardBatch(inputs, scratch, probs);
  ASSERT_EQ(probs.size(), wrapper.size());
  for (std::size_t i = 0; i < probs.size(); ++i) {
    EXPECT_EQ(probs[i], wrapper[i]) << "row " << i;  // same code path
  }
  // A second pass through the warm scratch is bit-identical too.
  std::vector<float> again(inputs.rows());
  model.ForwardBatch(inputs, scratch, again);
  EXPECT_EQ(again, probs);
}

TEST(MlpModelTest, ForwardOneMatchesForward) {
  const MlpSpec spec = SmallSpec();
  const MlpModel model = MlpModel::Create(spec, 21);
  Rng rng(14);
  MlpScratch scratch;
  for (int i = 0; i < 10; ++i) {
    const auto input = RandomInput(spec.input_dim, rng);
    EXPECT_EQ(model.ForwardOne(input, scratch), model.Forward(input));
  }
}

// Both forward paths keep one p-ascending accumulator per output, so the
// batch-1 GEMV and every row block of the batched GEMM agree bit for bit,
// including widths that leave a partial last panel.
TEST(MlpModelTest, ForwardOneIsBitIdenticalToItsBatchRow) {
  MlpSpec odd;
  odd.input_dim = 37;
  odd.hidden = {45, 19, 7};
  for (const MlpSpec& spec : {SmallSpec(), odd}) {
    const MlpModel model = MlpModel::Create(spec, 23);
    Rng rng(15);
    MatrixF inputs(13, spec.input_dim);  // two 6-row blocks + a 1-row block
    for (float& v : inputs.flat()) v = rng.NextFloat(-0.25f, 0.25f);
    const std::vector<float> batched = model.ForwardBatch(inputs);
    MlpScratch scratch;
    for (std::size_t i = 0; i < inputs.rows(); ++i) {
      EXPECT_EQ(model.ForwardOne(inputs.row(i), scratch), batched[i])
          << "input_dim " << spec.input_dim << " row " << i;
    }
  }
}

TEST(MlpModelTest, ForwardBatchHandlesEmptyBatch) {
  const MlpSpec spec = SmallSpec();
  const MlpModel model = MlpModel::Create(spec, 9);
  MatrixF inputs(0, spec.input_dim);
  MlpScratch scratch;
  std::vector<float> probs;
  model.ForwardBatch(inputs, scratch, probs);
  EXPECT_TRUE(probs.empty());
  EXPECT_TRUE(model.ForwardBatch(inputs).empty());
}

TEST(MlpModelTest, PaperSizedModelRuns) {
  MlpSpec spec;
  spec.input_dim = 352;
  spec.hidden = {1024, 512, 256};
  const MlpModel model = MlpModel::Create(spec, 11);
  Rng rng(4);
  const float p = model.Forward(RandomInput(spec.input_dim, rng));
  EXPECT_GT(p, 0.0f);
  EXPECT_LT(p, 1.0f);
}

// ---------------------------------------------------------------- QuantizedMlp

template <typename Fixed>
double MaxQuantizedError(const MlpSpec& spec, std::uint64_t seed, int trials) {
  const MlpModel model = MlpModel::Create(spec, seed);
  const auto qmlp = QuantizedMlp<Fixed>::FromFloat(model);
  Rng rng(seed + 1);
  double worst = 0.0;
  for (int i = 0; i < trials; ++i) {
    const auto input = RandomInput(spec.input_dim, rng);
    worst = std::max(
        worst, std::abs(static_cast<double>(qmlp.Forward(input)) -
                        static_cast<double>(model.Forward(input))));
  }
  return worst;
}

TEST(QuantizedMlpTest, Fixed32TracksFloatClosely) {
  EXPECT_LT(MaxQuantizedError<Fixed32>(SmallSpec(), 21, 50), 1e-3);
}

TEST(QuantizedMlpTest, Fixed16TracksFloatLoosely) {
  EXPECT_LT(MaxQuantizedError<Fixed16>(SmallSpec(), 22, 50), 0.05);
}

TEST(QuantizedMlpTest, Fixed32MoreAccurateThanFixed16) {
  const MlpSpec spec = SmallSpec();
  EXPECT_LT(MaxQuantizedError<Fixed32>(spec, 23, 30),
            MaxQuantizedError<Fixed16>(spec, 23, 30));
}

TEST(QuantizedMlpTest, OutputIsProbability) {
  const MlpSpec spec = SmallSpec();
  const MlpModel model = MlpModel::Create(spec, 25);
  const auto q = QuantizedMlp<Fixed16>::FromFloat(model);
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    const float p = q.Forward(RandomInput(spec.input_dim, rng));
    EXPECT_GT(p, 0.0f);
    EXPECT_LT(p, 1.0f);
  }
}

TEST(QuantizedMlpTest, DeterministicForward) {
  const MlpSpec spec = SmallSpec();
  const MlpModel model = MlpModel::Create(spec, 26);
  const auto q = QuantizedMlp<Fixed32>::FromFloat(model);
  Rng rng(6);
  const auto input = RandomInput(spec.input_dim, rng);
  EXPECT_EQ(q.Forward(input), q.Forward(input));
}

TEST(QuantizedMlpTest, PaperSizedFixed32ErrorBounded) {
  MlpSpec spec;
  spec.input_dim = 352;
  spec.hidden = {1024, 512, 256};
  EXPECT_LT(MaxQuantizedError<Fixed32>(spec, 27, 10), 2e-3);
}

}  // namespace
}  // namespace microrec
