#include "data/io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>

namespace upskill {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("upskill_io_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

Dataset MakeRichDataset() {
  FeatureSchema schema;
  EXPECT_TRUE(schema.AddIdFeature(3).ok());
  EXPECT_TRUE(schema.AddCategorical("style", 2, {"lager, pale", "ipa"}).ok());
  EXPECT_TRUE(schema.AddCount("steps").ok());
  EXPECT_TRUE(schema.AddReal("abv").ok());
  EXPECT_TRUE(schema.AddReal("pct", DistributionKind::kLogNormal).ok());
  ItemTable items(std::move(schema));
  const double rows[3][5] = {{-1.0, 0.0, 4.0, 5.5, 10.0},
                             {-1.0, 1.0, 2.0, 8.25, 20.0},
                             {-1.0, 0.0, 7.0, 6.125, 30.0}};
  EXPECT_TRUE(items.AddItem(rows[0], "first \"quoted\"").ok());
  EXPECT_TRUE(items.AddItem(rows[1], "second, with comma").ok());
  EXPECT_TRUE(items.AddItem(rows[2]).ok());
  EXPECT_TRUE(items.SetMetadata("year", {1990.0, 2000.5, 2010.0}).ok());

  Dataset dataset(std::move(items));
  const UserId u0 = dataset.AddUser("alice");
  const UserId u1 = dataset.AddUser("");
  EXPECT_TRUE(dataset.AddAction(u0, 1, 0).ok());
  EXPECT_TRUE(dataset.AddAction(u0, 2, 1, 4.25).ok());
  EXPECT_TRUE(dataset.AddAction(u1, 7, 2).ok());
  return dataset;
}

TEST_F(DatasetIoTest, RoundTrip) {
  const Dataset original = MakeRichDataset();
  ASSERT_TRUE(SaveDataset(original, dir_.string()).ok());
  const auto loaded = LoadDataset(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Dataset& copy = loaded.value();

  // Schema round-trips.
  ASSERT_EQ(copy.schema().num_features(), original.schema().num_features());
  EXPECT_EQ(copy.schema().id_feature(), original.schema().id_feature());
  for (int f = 0; f < original.schema().num_features(); ++f) {
    EXPECT_EQ(copy.schema().feature(f).name, original.schema().feature(f).name);
    EXPECT_EQ(copy.schema().feature(f).type, original.schema().feature(f).type);
    EXPECT_EQ(copy.schema().feature(f).distribution,
              original.schema().feature(f).distribution);
    EXPECT_EQ(copy.schema().feature(f).cardinality,
              original.schema().feature(f).cardinality);
    EXPECT_EQ(copy.schema().feature(f).labels,
              original.schema().feature(f).labels);
  }

  // Items round-trip, including names, exact values, and metadata.
  ASSERT_EQ(copy.items().num_items(), original.items().num_items());
  for (ItemId i = 0; i < original.items().num_items(); ++i) {
    EXPECT_EQ(copy.items().name(i), original.items().name(i));
    for (int f = 0; f < original.schema().num_features(); ++f) {
      EXPECT_DOUBLE_EQ(copy.items().value(i, f), original.items().value(i, f));
    }
  }
  const auto metadata = copy.items().Metadata("year");
  ASSERT_TRUE(metadata.ok());
  EXPECT_DOUBLE_EQ(metadata.value()[1], 2000.5);

  // Users and actions round-trip.
  ASSERT_EQ(copy.num_users(), original.num_users());
  EXPECT_EQ(copy.user_name(0), "alice");
  ASSERT_EQ(copy.num_actions(), original.num_actions());
  EXPECT_EQ(copy.sequence(0)[1].item, 1);
  EXPECT_DOUBLE_EQ(copy.sequence(0)[1].rating, 4.25);
  EXPECT_FALSE(copy.sequence(0)[0].has_rating());
  EXPECT_EQ(copy.sequence(1)[0].time, 7);
}

TEST_F(DatasetIoTest, LoadFromMissingDirectoryFails) {
  const auto loaded = LoadDataset((dir_ / "nope").string());
  EXPECT_FALSE(loaded.ok());
}

TEST_F(DatasetIoTest, CorruptActionsFileFails) {
  const Dataset original = MakeRichDataset();
  ASSERT_TRUE(SaveDataset(original, dir_.string()).ok());
  // Truncate a row of actions.csv.
  const std::string path = (dir_ / "actions.csv").string();
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("user,time,item,rating\n0,1\n", f);
  std::fclose(f);
  EXPECT_FALSE(LoadDataset(dir_.string()).ok());
}

TEST_F(DatasetIoTest, ActionReferencingUnknownItemFails) {
  const Dataset original = MakeRichDataset();
  ASSERT_TRUE(SaveDataset(original, dir_.string()).ok());
  const std::string path = (dir_ / "actions.csv").string();
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("user,time,item,rating\n0,1,99,\n", f);
  std::fclose(f);
  EXPECT_FALSE(LoadDataset(dir_.string()).ok());
}

// Rows may interleave users, but each user's own rows must come in time
// order: the load fails at the first row that goes back in time.
TEST_F(DatasetIoTest, ActionsOutOfTimeOrderFailAtTheRow) {
  const Dataset original = MakeRichDataset();
  ASSERT_TRUE(SaveDataset(original, dir_.string()).ok());
  const std::string path = (dir_ / "actions.csv").string();
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("user,time,item,rating\n0,5,0,\n1,3,2,\n0,4,1,\n", f);
  std::fclose(f);
  const auto loaded = LoadDataset(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  const std::string& message = loaded.status().message();
  EXPECT_NE(message.find("actions.csv:4 "), std::string::npos) << message;
  EXPECT_NE(message.find("time order"), std::string::npos) << message;
  EXPECT_EQ(message.find("SortSequences"), std::string::npos) << message;
}

}  // namespace
}  // namespace upskill
