#include "core/skill_model.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "dist/categorical.h"
#include "exec/backend.h"
#include "dist/gamma.h"
#include "dist/poisson.h"

namespace upskill {
namespace {

FeatureSchema MakeSchema() {
  FeatureSchema schema;
  EXPECT_TRUE(schema.AddIdFeature(4).ok());
  EXPECT_TRUE(schema.AddCount("steps").ok());
  EXPECT_TRUE(schema.AddReal("abv").ok());
  return schema;
}

ItemTable MakeItems() {
  ItemTable items(MakeSchema());
  for (int i = 0; i < 4; ++i) {
    const double row[] = {-1.0, static_cast<double>(i), 1.0 + i};
    EXPECT_TRUE(items.AddItem(row).ok());
  }
  return items;
}

TEST(SkillModelTest, CreateBuildsComponentGrid) {
  SkillModelConfig config;
  config.num_levels = 3;
  const auto model = SkillModel::Create(MakeSchema(), config);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model.value().num_levels(), 3);
  EXPECT_EQ(model.value().num_features(), 3);
  EXPECT_EQ(model.value().component(0, 1).kind(),
            DistributionKind::kCategorical);
  EXPECT_EQ(model.value().component(1, 2).kind(), DistributionKind::kPoisson);
  EXPECT_EQ(model.value().component(2, 3).kind(), DistributionKind::kGamma);
}

TEST(SkillModelTest, CreateValidatesInputs) {
  SkillModelConfig config;
  config.num_levels = 0;
  EXPECT_FALSE(SkillModel::Create(MakeSchema(), config).ok());
  config.num_levels = 3;
  EXPECT_FALSE(SkillModel::Create(FeatureSchema(), config).ok());
  config.smoothing = -1.0;
  EXPECT_FALSE(SkillModel::Create(MakeSchema(), config).ok());
}

TEST(SkillModelTest, CategoricalComponentsUseConfiguredSmoothing) {
  SkillModelConfig config;
  config.num_levels = 2;
  config.smoothing = 0.5;
  const auto model = SkillModel::Create(MakeSchema(), config);
  ASSERT_TRUE(model.ok());
  const auto& categorical =
      static_cast<const Categorical&>(model.value().component(0, 1));
  EXPECT_DOUBLE_EQ(categorical.smoothing(), 0.5);
}

TEST(SkillModelTest, ItemLogProbSumsComponents) {
  SkillModelConfig config;
  config.num_levels = 2;
  auto created = SkillModel::Create(MakeSchema(), config);
  ASSERT_TRUE(created.ok());
  SkillModel model = std::move(created).value();
  const ItemTable items = MakeItems();

  const double expected = model.component(0, 1).LogProb(2.0) +
                          model.component(1, 1).LogProb(2.0) +
                          model.component(2, 1).LogProb(3.0);
  EXPECT_NEAR(model.ItemLogProb(items, 2, 1), expected, 1e-12);
}

TEST(SkillModelTest, ItemLogProbCacheMatchesDirectComputation) {
  SkillModelConfig config;
  config.num_levels = 3;
  auto created = SkillModel::Create(MakeSchema(), config);
  ASSERT_TRUE(created.ok());
  SkillModel model = std::move(created).value();
  const ItemTable items = MakeItems();
  const std::vector<double> cache = model.ItemLogProbCache(items);
  ASSERT_EQ(cache.size(), 4u * 3u);
  for (ItemId i = 0; i < 4; ++i) {
    for (int s = 1; s <= 3; ++s) {
      EXPECT_NEAR(cache[static_cast<size_t>(i) * 3 + static_cast<size_t>(s - 1)],
                  model.ItemLogProb(items, i, s), 1e-12);
    }
  }
}

TEST(SkillModelTest, CacheParallelMatchesSequential) {
  SkillModelConfig config;
  config.num_levels = 3;
  auto created = SkillModel::Create(MakeSchema(), config);
  ASSERT_TRUE(created.ok());
  SkillModel model = std::move(created).value();
  const ItemTable items = MakeItems();
  exec::Backend pool(4);
  EXPECT_EQ(model.ItemLogProbCache(items),
            model.ItemLogProbCache(items, &pool));
}

TEST(SkillModelTest, CopyIsDeep) {
  SkillModelConfig config;
  config.num_levels = 2;
  auto created = SkillModel::Create(MakeSchema(), config);
  ASSERT_TRUE(created.ok());
  SkillModel model = std::move(created).value();
  SkillModel copy = model;  // deep copy
  const std::vector<double> values = {9.0, 9.0};
  copy.mutable_component(1, 1)->Fit(values);
  const auto& original = static_cast<const Poisson&>(model.component(1, 1));
  const auto& changed = static_cast<const Poisson&>(copy.component(1, 1));
  EXPECT_DOUBLE_EQ(changed.rate(), 9.0);
  EXPECT_NE(original.rate(), 9.0);
}

TEST(SkillModelTest, SaveLoadRoundTrip) {
  SkillModelConfig config;
  config.num_levels = 2;
  auto created = SkillModel::Create(MakeSchema(), config);
  ASSERT_TRUE(created.ok());
  SkillModel model = std::move(created).value();
  const std::vector<double> poisson_values = {3.0, 5.0};
  model.mutable_component(1, 2)->Fit(poisson_values);
  const std::vector<double> gamma_values = {1.0, 2.0, 4.0};
  model.mutable_component(2, 1)->Fit(gamma_values);

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("upskill_model_" + std::to_string(::getpid()) + ".csv"))
          .string();
  ASSERT_TRUE(model.Save(path).ok());
  const auto loaded = SkillModel::Load(path, MakeSchema(), config);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (int f = 0; f < model.num_features(); ++f) {
    for (int s = 1; s <= 2; ++s) {
      EXPECT_EQ(loaded.value().component(f, s).Parameters(),
                model.component(f, s).Parameters())
          << "f=" << f << " s=" << s;
    }
  }
  std::filesystem::remove(path);
}

TEST(SkillModelTest, SaveLoadRoundTripsAWideIdFeature) {
  // 50,000 categories: each level's row is over a megabyte, past the CSV
  // scanner's default line bound, so Load sizes its bound from the schema.
  constexpr int kItems = 50000;
  FeatureSchema schema;
  ASSERT_TRUE(schema.AddIdFeature(kItems).ok());
  SkillModelConfig config;
  config.num_levels = 2;
  SkillModel model = SkillModel::Create(schema, config).value();
  std::vector<double> ids;
  for (int i = 0; i < kItems; i += 7) ids.push_back(i);
  model.mutable_component(0, 1)->Fit(ids);

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("upskill_model_wide_" + std::to_string(::getpid()) + ".csv"))
          .string();
  ASSERT_TRUE(model.Save(path).ok());
  EXPECT_GT(std::filesystem::file_size(path), size_t{2} << 20);
  const auto loaded = SkillModel::Load(path, schema, config);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (int s = 1; s <= 2; ++s) {
    EXPECT_EQ(loaded.value().component(0, s).Parameters(),
              model.component(0, s).Parameters())
        << "s=" << s;
  }
  std::filesystem::remove(path);
}

TEST(SkillModelTest, LoadFromADirectoryIsAnIoError) {
  SkillModelConfig config;
  config.num_levels = 2;
  const auto loaded = SkillModel::Load(
      std::filesystem::temp_directory_path().string(), MakeSchema(), config);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("Is a directory"), std::string::npos)
      << loaded.status().ToString();
}

TEST(SkillModelTest, LoadRejectsWrongShape) {
  SkillModelConfig config;
  config.num_levels = 2;
  auto created = SkillModel::Create(MakeSchema(), config);
  ASSERT_TRUE(created.ok());
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("upskill_model_bad_" + std::to_string(::getpid()) + ".csv"))
          .string();
  ASSERT_TRUE(created.value().Save(path).ok());
  // Loading with a different level count must fail (component mismatch).
  SkillModelConfig other = config;
  other.num_levels = 3;
  EXPECT_FALSE(SkillModel::Load(path, MakeSchema(), other).ok());
  // A malformed row, and a row whose kind contradicts the schema (feature
  // 1 is a count, so Poisson), cite path:line (byte N); the 30-byte
  // header puts row 2 at byte 30.
  for (const char* bad_row : {"0,1,categorical\n", "1,1,gamma,1|1\n"}) {
    std::ofstream(path) << "feature,level,kind,parameters\n" << bad_row;
    const auto loaded = SkillModel::Load(path, MakeSchema(), config);
    ASSERT_FALSE(loaded.ok()) << bad_row;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    EXPECT_NE(loaded.status().message().find(path + ":2 (byte 30): "),
              std::string::npos)
        << loaded.status().ToString();
  }
  // A saved file cut 9 bytes short of its end: the cut lands inside the
  // last row's last parameter, so that row still parses, but Save ends
  // every row in a newline and this one has none. Header plus 3 features
  // x 2 levels puts the row on line 7.
  const double long_params[] = {2.718281828459045, 0.5772156649015329};
  ASSERT_TRUE(
      created.value().mutable_component(2, 2)->SetParameters(long_params).ok());
  ASSERT_TRUE(created.value().Save(path).ok());
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 9);
  const auto cut = SkillModel::Load(path, MakeSchema(), config);
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), StatusCode::kCorruption);
  EXPECT_NE(cut.status().message().find(path + ":7 "), std::string::npos)
      << cut.status().ToString();
  std::filesystem::remove(path);
}

TEST(AssignmentsAreMonotoneTest, AcceptsAndRejects) {
  EXPECT_TRUE(AssignmentsAreMonotone({{1, 1, 2, 3}, {2, 3}}, 3));
  EXPECT_TRUE(AssignmentsAreMonotone({{}, {3}}, 3));
  EXPECT_FALSE(AssignmentsAreMonotone({{1, 3}}, 3));   // skipped a level
  EXPECT_FALSE(AssignmentsAreMonotone({{2, 1}}, 3));   // decreased
  EXPECT_FALSE(AssignmentsAreMonotone({{0, 1}}, 3));   // below range
  EXPECT_FALSE(AssignmentsAreMonotone({{1, 4}}, 3));   // above range
}

}  // namespace
}  // namespace upskill
