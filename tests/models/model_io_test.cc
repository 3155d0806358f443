#include "models/model_io.h"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "data/minibatch.h"
#include "data/synthetic.h"
#include "models/factory.h"
#include "util/file_io.h"
#include "test_util.h"

namespace fae {
namespace {

struct Fixture {
  Fixture()
      : schema(MakeKaggleLikeSchema(DatasetScale::kTiny)),
        dataset(SyntheticGenerator(schema, {.seed = 23}).Generate(64)) {}

  MiniBatch Batch() const {
    std::vector<uint64_t> ids(16);
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    return AssembleBatch(dataset, ids);
  }

  DatasetSchema schema;
  Dataset dataset;
};

TEST(ModelIoTest, RoundTripReproducesLogitsExactly) {
  Fixture f;
  auto original = MakeModel(f.schema, false, 5);
  // Perturb from initialization with one training step so the checkpoint
  // carries non-trivial state.
  original->ForwardBackward(f.Batch());
  const std::string path = TempPath("fae_ckpt.faem");
  ASSERT_TRUE(ModelIo::Save(path, *original).ok());

  auto restored = MakeModel(f.schema, false, 999);  // different init seed
  ASSERT_TRUE(ModelIo::Load(path, *restored).ok());
  MiniBatch batch = f.Batch();
  EXPECT_EQ(MaxAbsDiff(original->EvalLogits(batch),
                       restored->EvalLogits(batch)),
            0.0f);
  (void)RemoveFile(path);
}

TEST(ModelIoTest, RoundTripTbsm) {
  DatasetSchema schema = MakeTaobaoLikeSchema(DatasetScale::kTiny);
  Dataset d = SyntheticGenerator(schema, {.seed = 29}).Generate(64);
  auto original = MakeModel(schema, false, 5);
  const std::string path = TempPath("fae_ckpt_tbsm.faem");
  ASSERT_TRUE(ModelIo::Save(path, *original).ok());
  auto restored = MakeModel(schema, false, 999);
  ASSERT_TRUE(ModelIo::Load(path, *restored).ok());
  std::vector<uint64_t> ids = {0, 1, 2, 3};
  MiniBatch batch = AssembleBatch(d, ids);
  EXPECT_EQ(MaxAbsDiff(original->EvalLogits(batch),
                       restored->EvalLogits(batch)),
            0.0f);
  (void)RemoveFile(path);
}

TEST(ModelIoTest, RejectsArchitectureMismatch) {
  Fixture f;
  auto dlrm = MakeModel(f.schema, false, 5);
  const std::string path = TempPath("fae_ckpt_mismatch.faem");
  ASSERT_TRUE(ModelIo::Save(path, *dlrm).ok());

  // A full-size model has different layer shapes.
  auto other = MakeModel(f.schema, /*full_size=*/true, 5);
  const Status status = ModelIo::Load(path, *other);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  (void)RemoveFile(path);
}

TEST(ModelIoTest, RejectsGarbageAndTruncation) {
  Fixture f;
  auto model = MakeModel(f.schema, false, 5);
  const std::string garbage = TempPath("fae_ckpt_garbage.faem");
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "not a checkpoint";
  }
  EXPECT_EQ(ModelIo::Load(garbage, *model).code(), StatusCode::kDataLoss);
  (void)RemoveFile(garbage);

  const std::string truncated = TempPath("fae_ckpt_trunc.faem");
  ASSERT_TRUE(ModelIo::Save(truncated, *model).ok());
  std::filesystem::resize_file(truncated,
                               std::filesystem::file_size(truncated) - 5);
  EXPECT_EQ(ModelIo::Load(truncated, *model).code(), StatusCode::kDataLoss);
  (void)RemoveFile(truncated);
}

TEST(ModelIoTest, SingleBitFlipsAnywhereAreRejected) {
  // Fuzz-style corruption sweep: whatever byte a crash or bad disk flips,
  // Load must report DataLoss (the whole-file CRC front-runs all parsing)
  // and never touch the destination model.
  Fixture f;
  auto model = MakeModel(f.schema, false, 5);
  const std::string path = TempPath("fae_ckpt_bitflip.faem");
  ASSERT_TRUE(ModelIo::Save(path, *model).ok());
  const auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, 16u);

  auto victim = MakeModel(f.schema, false, 999);
  for (const double frac : {0.0, 0.1, 0.33, 0.5, 0.77, 0.999}) {
    const auto offset = static_cast<std::streamoff>(
        frac * static_cast<double>(size - 1));
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    file.seekg(offset);
    file.read(&byte, 1);
    const char flipped = static_cast<char>(byte ^ 0x40);
    file.seekp(offset);
    file.write(&flipped, 1);
    file.close();

    const Status status = ModelIo::Load(path, *victim);
    ASSERT_FALSE(status.ok()) << "byte " << offset << " of " << size;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();

    // Restore the byte so each iteration tests exactly one flip.
    std::fstream undo(path, std::ios::in | std::ios::out | std::ios::binary);
    undo.seekp(offset);
    undo.write(&byte, 1);
  }
  ASSERT_TRUE(ModelIo::Load(path, *victim).ok());  // pristine again
  (void)RemoveFile(path);
}

TEST(ModelIoTest, MissingFileIsNotFound) {
  Fixture f;
  auto model = MakeModel(f.schema, false, 5);
  EXPECT_EQ(ModelIo::Load(TempPath("fae_ckpt_missing.faem"), *model).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace fae
