#include "data/log_builder.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

namespace upskill {
namespace {

TEST(ActionLogBuilderTest, BuildsFromFeaturedItems) {
  ActionLogBuilder builder;
  ASSERT_TRUE(builder.DeclareCount("steps").ok());
  ASSERT_TRUE(builder.DeclareReal("abv").ok());
  const double easy[] = {2.0, 4.5};
  const double hard[] = {9.0, 9.5};
  ASSERT_TRUE(builder.AddItem("easy", easy).ok());
  ASSERT_TRUE(builder.AddItem("hard", hard).ok());
  ASSERT_TRUE(builder.AddEvent("alice", 10, "easy").ok());
  ASSERT_TRUE(builder.AddEvent("bob", 5, "hard", 4.5).ok());
  ASSERT_TRUE(builder.AddEvent("alice", 20, "hard").ok());

  const auto dataset = std::move(builder).Build();
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  EXPECT_EQ(dataset.value().num_users(), 2);
  EXPECT_EQ(dataset.value().items().num_items(), 2);
  EXPECT_EQ(dataset.value().num_actions(), 3u);
  // Schema: ID first, declared features after.
  EXPECT_EQ(dataset.value().schema().id_feature(), 0);
  EXPECT_EQ(dataset.value().schema().feature(1).name, "steps");
  EXPECT_EQ(dataset.value().schema().feature(2).name, "abv");
  // Values and names survived.
  EXPECT_EQ(dataset.value().items().name(0), "easy");
  EXPECT_DOUBLE_EQ(dataset.value().items().value(1, 1), 9.0);
  // User keys became names; sequences are chronological.
  EXPECT_EQ(dataset.value().user_name(0), "alice");
  EXPECT_EQ(dataset.value().sequence(0)[0].item, 0);
  EXPECT_EQ(dataset.value().sequence(0)[1].item, 1);
  EXPECT_DOUBLE_EQ(dataset.value().sequence(1)[0].rating, 4.5);
}

TEST(ActionLogBuilderTest, SortsOutOfOrderEventsStably) {
  ActionLogBuilder builder;
  ASSERT_TRUE(builder.AddEvent("u", 30, "c").ok());
  ASSERT_TRUE(builder.AddEvent("u", 10, "a").ok());
  ASSERT_TRUE(builder.AddEvent("u", 30, "d").ok());  // tie with "c"
  ASSERT_TRUE(builder.AddEvent("u", 20, "b").ok());
  const auto dataset = std::move(builder).Build();
  ASSERT_TRUE(dataset.ok());
  const auto& seq = dataset.value().sequence(0);
  ASSERT_EQ(seq.size(), 4u);
  EXPECT_EQ(dataset.value().items().name(seq[0].item), "a");
  EXPECT_EQ(dataset.value().items().name(seq[1].item), "b");
  EXPECT_EQ(dataset.value().items().name(seq[2].item), "c");  // arrival order
  EXPECT_EQ(dataset.value().items().name(seq[3].item), "d");
}

TEST(ActionLogBuilderTest, AutoRegistersItemsOnlyForPureIdLogs) {
  ActionLogBuilder pure;
  EXPECT_TRUE(pure.AddEvent("u", 1, "never-declared").ok());

  ActionLogBuilder featured;
  ASSERT_TRUE(featured.DeclareCount("steps").ok());
  EXPECT_FALSE(featured.AddEvent("u", 1, "never-declared").ok());
}

TEST(ActionLogBuilderTest, ValidatesDeclarationsAndItems) {
  ActionLogBuilder builder;
  EXPECT_FALSE(builder.DeclareCount("").ok());
  EXPECT_FALSE(builder.DeclareCategorical("c", 0).ok());
  EXPECT_FALSE(builder.DeclareCategorical("c", 2, {"one"}).ok());
  EXPECT_FALSE(builder.DeclareReal("r", DistributionKind::kPoisson).ok());
  EXPECT_FALSE(builder.DeclareCount(kItemIdFeatureName).ok());
  ASSERT_TRUE(builder.DeclareCount("steps").ok());
  EXPECT_FALSE(builder.DeclareCount("steps").ok());  // duplicate

  const double row[] = {1.0};
  ASSERT_TRUE(builder.AddItem("x", row).ok());
  EXPECT_FALSE(builder.AddItem("x", row).ok());       // re-register
  EXPECT_FALSE(builder.AddItem("y", {}).ok());        // wrong arity
  EXPECT_FALSE(builder.DeclareCount("late").ok());    // after items
}

TEST(ActionLogBuilderTest, EmptyLogFailsToBuild) {
  ActionLogBuilder builder;
  EXPECT_FALSE(std::move(builder).Build().ok());
}

class LoadActionLogCsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("upskill_log_" + std::to_string(::getpid()) + ".csv"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  void WriteLog(const char* contents) {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(contents, f);
    std::fclose(f);
  }

  std::string path_;
};

TEST_F(LoadActionLogCsvTest, LoadsTriplesWithHeaderAndRatings) {
  WriteLog(
      "user,time,item,rating\n"
      "alice,3,beer-1,4.5\n"
      "alice,1,beer-2,\n"
      "bob,2,beer-1,3.0\n");
  const auto dataset = LoadActionLogCsv(path_);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  EXPECT_EQ(dataset.value().num_users(), 2);
  EXPECT_EQ(dataset.value().items().num_items(), 2);
  EXPECT_EQ(dataset.value().num_actions(), 3u);
  // alice's events were re-sorted; the first has no rating.
  EXPECT_FALSE(dataset.value().sequence(0)[0].has_rating());
  EXPECT_DOUBLE_EQ(dataset.value().sequence(0)[1].rating, 4.5);
}

TEST_F(LoadActionLogCsvTest, LoadsHeaderlessTriples) {
  WriteLog("u1,1,a\nu1,2,b\n");
  const auto dataset = LoadActionLogCsv(path_);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset.value().num_actions(), 2u);
}

TEST_F(LoadActionLogCsvTest, RejectsMalformedRows) {
  WriteLog("u1,1\n");
  EXPECT_FALSE(LoadActionLogCsv(path_).ok());
  // A bad time in the first row is tolerated as a header; later rows are
  // not.
  WriteLog("u1,1,a\nu1,notatime,b\n");
  EXPECT_FALSE(LoadActionLogCsv(path_).ok());
  WriteLog("u1,1,a,notarating\n");
  EXPECT_FALSE(LoadActionLogCsv(path_).ok());
}

TEST_F(LoadActionLogCsvTest, DirectoryPathIsAnIoError) {
  // A directory opens but cannot be read: the read error surfaces
  // instead of an empty log.
  const auto dataset =
      LoadActionLogCsv(std::filesystem::temp_directory_path().string());
  ASSERT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kIoError);
  EXPECT_NE(dataset.status().message().find("Is a directory"), std::string::npos)
      << dataset.status().ToString();
}

}  // namespace
}  // namespace upskill
