#include "core/assignments_io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>

namespace upskill {
namespace {

class AssignmentsIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("upskill_assign_" + std::to_string(::getpid()) + ".csv"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  void Write(const char* contents) {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(contents, f);
    std::fclose(f);
  }

  std::string path_;
};

TEST_F(AssignmentsIoTest, RoundTrip) {
  const SkillAssignments original = {{1, 1, 2, 3}, {}, {2, 2}, {5}};
  ASSERT_TRUE(SaveAssignments(original, path_).ok());
  const auto loaded = LoadAssignments(path_, 4, 5);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value(), original);
}

TEST_F(AssignmentsIoTest, EmptyAssignments) {
  ASSERT_TRUE(SaveAssignments({}, path_).ok());
  const auto loaded = LoadAssignments(path_, 3, 5);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 3u);
  for (const auto& seq : loaded.value()) EXPECT_TRUE(seq.empty());
}

TEST_F(AssignmentsIoTest, OutOfOrderRowsAreAccepted) {
  Write("user,position,level\n0,1,2\n0,0,1\n");
  const auto loaded = LoadAssignments(path_, 1, 3);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()[0], (std::vector<int>{1, 2}));
}

TEST_F(AssignmentsIoTest, RejectsBadRows) {
  Write("user,position,level\n0,0\n");
  EXPECT_FALSE(LoadAssignments(path_, 1, 3).ok());
  Write("user,position,level\n5,0,1\n");
  EXPECT_FALSE(LoadAssignments(path_, 1, 3).ok());  // user out of range
  Write("user,position,level\n0,0,9\n");
  EXPECT_FALSE(LoadAssignments(path_, 1, 3).ok());  // level out of range
  Write("user,position,level\n0,0,1\n0,2,1\n");
  EXPECT_FALSE(LoadAssignments(path_, 1, 3).ok());  // gap at position 1
  Write("user,position,level\n0,0,1\n0,0,2\n");
  EXPECT_FALSE(LoadAssignments(path_, 1, 3).ok());  // duplicate position
  EXPECT_FALSE(LoadAssignments(path_, -1, 3).ok());
}

TEST_F(AssignmentsIoTest, DuplicateRowsAreAHardErrorDistinctFromGaps) {
  // A repeated (user, position) pair is reported as a duplicate, even when
  // the repeated row carries the same level (a silent last-writer-wins
  // here would mask corrupt writers).
  Write("user,position,level\n0,0,1\n0,1,2\n0,1,2\n");
  const auto duplicate = LoadAssignments(path_, 1, 3);
  ASSERT_FALSE(duplicate.ok());
  EXPECT_NE(duplicate.status().ToString().find("duplicate"),
            std::string::npos)
      << duplicate.status().ToString();

  // A gap keeps its own message.
  Write("user,position,level\n0,0,1\n0,2,1\n");
  const auto gap = LoadAssignments(path_, 1, 3);
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.status().ToString().find("duplicate"), std::string::npos);
  EXPECT_NE(gap.status().ToString().find("gapless"), std::string::npos)
      << gap.status().ToString();

  // Duplicates on other users are caught too.
  Write("user,position,level\n0,0,1\n1,0,2\n1,0,2\n");
  EXPECT_FALSE(LoadAssignments(path_, 2, 3).ok());
}

TEST_F(AssignmentsIoTest, MissingFileFails) {
  EXPECT_FALSE(LoadAssignments(path_ + ".missing", 1, 3).ok());
}

TEST_F(AssignmentsIoTest, DirectoryPathIsAnIoError) {
  // A directory opens but cannot be read: the read error surfaces
  // instead of an empty file's all-empty paths.
  const auto loaded =
      LoadAssignments(std::filesystem::temp_directory_path().string(), 3, 5);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace upskill
