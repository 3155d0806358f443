// Robustness fuzzing for the three on-disk formats: random single-byte
// corruptions must never crash a loader — every outcome is either a clean
// Status error or a successfully-validated load (payload bytes such as
// float values can legitimately survive a flip).

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fae_format.h"
#include "core/fae_pipeline.h"
#include "data/dataset_io.h"
#include "data/synthetic.h"
#include "embedding/embedding_table.h"
#include "models/factory.h"
#include "models/model_io.h"
#include "serve/serve_config.h"
#include "util/file_io.h"
#include "util/random.h"
#include "test_util.h"

namespace fae {
namespace {

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Applies `trials` random single-byte flips to `pristine` and feeds each
// mutant to `load`, which must not crash and must report validity.
template <typename LoadFn>
void FuzzByteFlips(const std::vector<char>& pristine,
                   const std::string& mutant_path, int trials,
                   uint64_t seed, LoadFn load) {
  Xoshiro256 rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<char> mutant = pristine;
    const size_t offset = rng.NextBounded(mutant.size());
    const char flip = static_cast<char>(1 + rng.NextBounded(255));
    mutant[offset] ^= flip;
    WriteAll(mutant_path, mutant);
    load();  // must not crash; return value checked inside
  }
  (void)RemoveFile(mutant_path);
}

TEST(FuzzFormatsTest, DatasetLoaderSurvivesByteFlips) {
  DatasetSchema schema = MakeTaobaoLikeSchema(DatasetScale::kTiny);
  Dataset dataset = SyntheticGenerator(schema, {.seed = 3}).Generate(60);
  const std::string path = TempPath("fuzz_ds.faed");
  ASSERT_TRUE(DatasetIo::Save(path, dataset).ok());
  const std::vector<char> pristine = ReadAll(path);

  FuzzByteFlips(pristine, path, 120, 17, [&] {
    auto loaded = DatasetIo::Load(path);
    if (loaded.ok()) {
      // A survivable flip must still satisfy the format's invariants.
      EXPECT_EQ(loaded->schema().num_tables(),
                loaded->sample(0).indices.size());
      for (size_t i = 0; i < loaded->size(); ++i) {
        for (size_t t = 0; t < loaded->schema().num_tables(); ++t) {
          for (uint32_t row : loaded->sample(i).indices[t]) {
            EXPECT_LT(row, loaded->schema().table_rows[t]);
          }
        }
      }
    }
  });
}

TEST(FuzzFormatsTest, PlanLoaderSurvivesByteFlips) {
  DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  Dataset dataset = SyntheticGenerator(schema, {.seed = 5}).Generate(1200);
  std::vector<uint64_t> ids(dataset.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  FaeConfig config;
  config.sample_rate = 0.3;
  config.gpu_memory_budget = 384ULL << 10;
  config.large_table_bytes = 1ULL << 12;
  FaePipeline pipeline(config);
  const std::string path = TempPath("fuzz_plan.faef");
  auto plan = pipeline.PrepareCached(dataset, ids, path);
  ASSERT_TRUE(plan.ok());
  const std::vector<char> pristine = ReadAll(path);

  FuzzByteFlips(pristine, path, 120, 19, [&] {
    auto loaded = FaeFormat::Load(path, dataset);
    if (loaded.ok()) {
      EXPECT_EQ(loaded->hot_set.num_tables(), dataset.schema().num_tables());
      EXPECT_LE(loaded->hot_ids.size() + loaded->cold_ids.size(),
                dataset.size() + 1);
    }
  });
}

TEST(FuzzFormatsTest, CheckpointLoaderSurvivesByteFlips) {
  DatasetSchema schema = MakeTaobaoLikeSchema(DatasetScale::kTiny);
  auto model = MakeModel(schema, false, 7);
  const std::string path = TempPath("fuzz_ckpt.faem");
  ASSERT_TRUE(ModelIo::Save(path, *model).ok());
  const std::vector<char> pristine = ReadAll(path);

  auto target = MakeModel(schema, false, 8);
  FuzzByteFlips(pristine, path, 120, 23, [&] {
    // Load mutates the target in place before detecting some corruptions;
    // any Status is acceptable, crashing is not.
    (void)ModelIo::Load(path, *target);
  });
}

TEST(FuzzFormatsTest, QuantizedCheckpointRejectsSectionFlips) {
  // A compressed model's quantized sections — slot map, int8 codes, the
  // per-row scale/zero-point arrays — live under the same whole-file CRC
  // as everything else, so any single-byte flip must be rejected up
  // front, never silently dequantized into the target model.
  DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  auto model = MakeModel(schema, false, 7);
  EmbeddingTable& big = model->tables().front();
  std::vector<uint8_t> mask(big.rows(), 0);
  for (uint64_t r = 0; r < big.rows(); r += 4) mask[r] = 1;
  big.CompressCold(mask, ColdPrecision::kInt8);
  const std::string path = TempPath("fuzz_quant_ckpt.faem");
  ASSERT_TRUE(ModelIo::Save(path, *model).ok());
  const std::vector<char> pristine = ReadAll(path);

  auto target = MakeModel(schema, false, 8);
  Xoshiro256 rng(37);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<char> mutant = pristine;
    // Half the trials land anywhere; the other half target the back half
    // of the file, where the quantized payloads live.
    const size_t half = mutant.size() / 2;
    const size_t offset = trial % 2 == 0
                              ? rng.NextBounded(mutant.size())
                              : half + rng.NextBounded(mutant.size() - half);
    mutant[offset] ^= static_cast<char>(1 + rng.NextBounded(255));
    WriteAll(path, mutant);
    EXPECT_FALSE(ModelIo::Load(path, *target).ok())
        << "flip at offset " << offset << " accepted";
  }
  (void)RemoveFile(path);
}

TEST(FuzzFormatsTest, ServeConfigParserSurvivesByteFlips) {
  // The serving config is text, so fuzz the text directly: any single-byte
  // corruption must yield either a clean InvalidArgument or an options
  // struct that still passes Validate (Parse runs it, so a parse that
  // "succeeds" into out-of-range values would be a bug).
  const std::string pristine = ServeOptions().Serialize();
  Xoshiro256 rng(31);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutant = pristine;
    const size_t offset = rng.NextBounded(mutant.size());
    const char flip = static_cast<char>(1 + rng.NextBounded(255));
    mutant[offset] ^= flip;
    auto parsed = ServeOptions::Parse(mutant);
    if (parsed.ok()) {
      EXPECT_TRUE(parsed->Validate().ok());
    }
  }
}

TEST(FuzzFormatsTest, ServeConfigParserSurvivesTruncation) {
  // Prefixes may be valid (keys are optional; defaults fill in) but must
  // never crash, and whatever parses must validate.
  const std::string pristine = ServeOptions().Serialize();
  for (size_t len = 0; len < pristine.size(); ++len) {
    auto parsed = ServeOptions::Parse(pristine.substr(0, len));
    if (parsed.ok()) {
      EXPECT_TRUE(parsed->Validate().ok());
    }
  }
}

TEST(FuzzFormatsTest, LoadersRejectTruncationAtEveryPrefix) {
  // Every strict prefix of a valid file must be rejected cleanly.
  DatasetSchema schema = MakeTaobaoLikeSchema(DatasetScale::kTiny);
  Dataset dataset = SyntheticGenerator(schema, {.seed = 9}).Generate(10);
  const std::string path = TempPath("fuzz_prefix.faed");
  ASSERT_TRUE(DatasetIo::Save(path, dataset).ok());
  const std::vector<char> pristine = ReadAll(path);

  Xoshiro256 rng(29);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t len = rng.NextBounded(pristine.size());  // strict prefix
    WriteAll(path, std::vector<char>(pristine.begin(),
                                     pristine.begin() + len));
    auto loaded = DatasetIo::Load(path);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << len << " bytes accepted";
  }
  (void)RemoveFile(path);
}

}  // namespace
}  // namespace fae
