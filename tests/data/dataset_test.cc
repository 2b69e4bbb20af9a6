#include "data/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

namespace upskill {
namespace {

FeatureSchema MakeSchema(int num_items) {
  FeatureSchema schema;
  EXPECT_TRUE(schema.AddIdFeature(num_items).ok());
  EXPECT_TRUE(schema.AddCount("steps").ok());
  EXPECT_TRUE(schema.AddReal("abv").ok());
  return schema;
}

TEST(ItemTableTest, AddAndReadItems) {
  ItemTable items(MakeSchema(3));
  const double row0[] = {-1.0, 4.0, 5.5};
  const double row1[] = {-1.0, 2.0, 7.25};
  ASSERT_EQ(items.AddItem(row0, "first").value(), 0);
  ASSERT_EQ(items.AddItem(row1).value(), 1);
  EXPECT_EQ(items.num_items(), 2);
  EXPECT_EQ(items.value(0, 0), 0.0);  // auto-filled ID
  EXPECT_EQ(items.value(1, 0), 1.0);
  EXPECT_EQ(items.value(0, 1), 4.0);
  EXPECT_EQ(items.value(1, 2), 7.25);
  EXPECT_EQ(items.name(0), "first");
  EXPECT_EQ(items.name(1), "");
  EXPECT_EQ(items.column(1).size(), 2u);
}

TEST(ItemTableTest, RejectsWrongArityAndInvalidValues) {
  ItemTable items(MakeSchema(3));
  const double short_row[] = {-1.0, 4.0};
  EXPECT_FALSE(items.AddItem(short_row).ok());
  const double bad_count[] = {-1.0, -4.0, 5.5};
  EXPECT_FALSE(items.AddItem(bad_count).ok());
  const double bad_real[] = {-1.0, 4.0, -5.5};
  EXPECT_FALSE(items.AddItem(bad_real).ok());
}

TEST(ItemTableTest, ExplicitIdMustBeInRange) {
  ItemTable items(MakeSchema(2));
  const double explicit_id[] = {1.0, 4.0, 5.5};  // explicit id 1 for item 0
  ASSERT_TRUE(items.AddItem(explicit_id).ok());
  EXPECT_EQ(items.value(0, 0), 1.0);
  const double out_of_range[] = {5.0, 4.0, 5.5};
  EXPECT_FALSE(items.AddItem(out_of_range).ok());
}

TEST(ItemTableTest, Metadata) {
  ItemTable items(MakeSchema(3));
  const double row[] = {-1.0, 1.0, 2.0};
  ASSERT_TRUE(items.AddItem(row).ok());
  ASSERT_TRUE(items.AddItem(row).ok());
  EXPECT_FALSE(items.SetMetadata("year", {1999.0}).ok());  // size mismatch
  ASSERT_TRUE(items.SetMetadata("year", {1999.0, 2005.0}).ok());
  EXPECT_TRUE(items.HasMetadata("year"));
  EXPECT_FALSE(items.HasMetadata("missing"));
  const auto column = items.Metadata("year");
  ASSERT_TRUE(column.ok());
  EXPECT_EQ(column.value()[1], 2005.0);
  EXPECT_FALSE(items.Metadata("missing").ok());
}

Dataset MakeDataset() {
  ItemTable items(MakeSchema(4));
  const double row[] = {-1.0, 1.0, 2.0};
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(items.AddItem(row).ok());
  return Dataset(std::move(items));
}

TEST(DatasetTest, AddUsersAndActions) {
  Dataset dataset = MakeDataset();
  const UserId u0 = dataset.AddUser("alice");
  const UserId u1 = dataset.AddUser();
  EXPECT_EQ(dataset.num_users(), 2);
  ASSERT_TRUE(dataset.AddAction(u0, 1, 0).ok());
  ASSERT_TRUE(dataset.AddAction(u0, 2, 1, 4.5).ok());
  ASSERT_TRUE(dataset.AddAction(u1, 5, 3).ok());
  EXPECT_EQ(dataset.num_actions(), 3u);
  EXPECT_EQ(dataset.sequence(u0).size(), 2u);
  EXPECT_EQ(dataset.user_name(u0), "alice");
  EXPECT_FALSE(dataset.sequence(u0)[0].has_rating());
  EXPECT_TRUE(dataset.sequence(u0)[1].has_rating());
  EXPECT_DOUBLE_EQ(dataset.sequence(u0)[1].rating, 4.5);
}

TEST(DatasetTest, RejectsBadActions) {
  Dataset dataset = MakeDataset();
  const UserId u = dataset.AddUser();
  EXPECT_FALSE(dataset.AddAction(u, 1, 99).ok());   // unknown item
  EXPECT_FALSE(dataset.AddAction(u, 1, -1).ok());   // negative item
  EXPECT_FALSE(dataset.AddAction(7, 1, 0).ok());    // unknown user
  ASSERT_TRUE(dataset.AddAction(u, 10, 0).ok());
  EXPECT_FALSE(dataset.AddAction(u, 5, 0).ok());    // time goes backwards
  ASSERT_TRUE(dataset.AddAction(u, 10, 1).ok());    // equal time is fine
}

TEST(DatasetTest, CountUsedItemsAndMinTime) {
  Dataset dataset = MakeDataset();
  const UserId u0 = dataset.AddUser();
  const UserId u1 = dataset.AddUser();
  EXPECT_EQ(dataset.CountUsedItems(), 0);
  EXPECT_EQ(dataset.MinActionTime(), 0);
  ASSERT_TRUE(dataset.AddAction(u0, 7, 2).ok());
  ASSERT_TRUE(dataset.AddAction(u1, 3, 2).ok());
  ASSERT_TRUE(dataset.AddAction(u1, 9, 0).ok());
  EXPECT_EQ(dataset.CountUsedItems(), 2);
  EXPECT_EQ(dataset.MinActionTime(), 3);
}

TEST(DatasetTest, ForEachActionVisitsAllInOrder) {
  Dataset dataset = MakeDataset();
  const UserId u0 = dataset.AddUser();
  const UserId u1 = dataset.AddUser();
  ASSERT_TRUE(dataset.AddAction(u0, 1, 0).ok());
  ASSERT_TRUE(dataset.AddAction(u1, 2, 1).ok());
  ASSERT_TRUE(dataset.AddAction(u1, 3, 2).ok());
  std::vector<std::pair<UserId, ItemId>> seen;
  dataset.ForEachAction([&seen](UserId u, const Action& a) {
    seen.emplace_back(u, a.item);
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], std::make_pair(u0, ItemId{0}));
  EXPECT_EQ(seen[1], std::make_pair(u1, ItemId{1}));
  EXPECT_EQ(seen[2], std::make_pair(u1, ItemId{2}));
}

// The owned buffer. A reference sequence per user, built alongside, is
// what every layout must read back.
using Sequences = std::vector<std::vector<Action>>;

// User u's n-th action: times repeat in threes, so ties keep their
// insertion order; every fifth action carries a rating.
Action NthAction(int u, int n) {
  Action a;
  a.time = 100 + n / 3;
  a.item = (u * 7 + n) % 4;
  if (n % 5 == 0) a.rating = 0.5 * n + u;
  return a;
}

void ExpectSequences(const Dataset& dataset, const Sequences& expected) {
  ASSERT_EQ(static_cast<size_t>(dataset.num_users()), expected.size());
  size_t total = 0;
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    const std::span<const Action> seq = dataset.sequence(u);
    const std::vector<Action>& want = expected[static_cast<size_t>(u)];
    ASSERT_EQ(seq.size(), want.size()) << "user " << u;
    for (size_t n = 0; n < seq.size(); ++n) {
      EXPECT_EQ(seq[n].time, want[n].time) << "user " << u << " action " << n;
      EXPECT_EQ(seq[n].item, want[n].item) << "user " << u << " action " << n;
      EXPECT_EQ(seq[n].has_rating(), want[n].has_rating());
      if (want[n].has_rating()) {
        EXPECT_EQ(seq[n].rating, want[n].rating);
      }
    }
    total += want.size();
  }
  EXPECT_EQ(dataset.num_actions(), total);
}

// `lengths[u]` actions for user u, appended one round at a time: each
// round gives every user that still has actions one more. Each append
// goes to a different run than the one before, so runs keep moving.
Dataset FillRoundRobin(const std::vector<int>& lengths, Sequences* expected) {
  Dataset dataset = MakeDataset();
  expected->assign(lengths.size(), {});
  for (size_t u = 0; u < lengths.size(); ++u) dataset.AddUser();
  const int rounds = *std::max_element(lengths.begin(), lengths.end());
  for (int n = 0; n < rounds; ++n) {
    for (size_t u = 0; u < lengths.size(); ++u) {
      if (n >= lengths[u]) continue;
      const Action a = NthAction(static_cast<int>(u), n);
      EXPECT_TRUE(dataset
                      .AddAction(static_cast<UserId>(u), a.time, a.item,
                                 a.rating)
                      .ok());
      (*expected)[u].push_back(a);
    }
  }
  return dataset;
}

const std::vector<int> kLengths = {40, 1, 0, 25, 40, 7, 33};

TEST(DatasetBufferTest, RoundRobinAppendsMatchOneUserAtATime) {
  Sequences expected;
  const Dataset interleaved = FillRoundRobin(kLengths, &expected);
  // The runs moved: the buffer holds room or moved-from slots.
  EXPECT_GT(interleaved.buffer_slots(), interleaved.num_actions());
  ExpectSequences(interleaved, expected);

  Dataset in_order = MakeDataset();
  for (size_t u = 0; u < kLengths.size(); ++u) {
    const UserId user = in_order.AddUser();
    for (int n = 0; n < kLengths[u]; ++n) {
      const Action a = NthAction(static_cast<int>(u), n);
      ASSERT_TRUE(in_order.AddAction(user, a.time, a.item, a.rating).ok());
    }
  }
  ExpectSequences(in_order, expected);
}

TEST(DatasetBufferTest, UsersFilledInOrderLeaveNoGap) {
  // Users added up front, as a split's shell or a users table does.
  Dataset up_front = MakeDataset();
  for (size_t u = 0; u < kLengths.size(); ++u) up_front.AddUser();
  // Users added one at a time, as the generators and filters do.
  Dataset one_at_a_time = MakeDataset();
  Sequences expected(kLengths.size());
  for (size_t u = 0; u < kLengths.size(); ++u) {
    const UserId user = one_at_a_time.AddUser();
    for (int n = 0; n < kLengths[u]; ++n) {
      const Action a = NthAction(static_cast<int>(u), n);
      ASSERT_TRUE(up_front.AddAction(user, a.time, a.item, a.rating).ok());
      ASSERT_TRUE(
          one_at_a_time.AddAction(user, a.time, a.item, a.rating).ok());
      expected[u].push_back(a);
      EXPECT_EQ(up_front.buffer_slots(), up_front.num_actions());
      EXPECT_EQ(one_at_a_time.buffer_slots(), one_at_a_time.num_actions());
    }
  }
  ExpectSequences(up_front, expected);
  ExpectSequences(one_at_a_time, expected);
}

TEST(DatasetBufferTest, RejectedAppendLeavesEverySequenceUnchanged) {
  Sequences expected;
  Dataset dataset = FillRoundRobin(kLengths, &expected);
  const size_t slots = dataset.buffer_slots();
  // Every user, including full runs that an accepted append would move.
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    if (!expected[static_cast<size_t>(u)].empty()) {
      const int64_t last = expected[static_cast<size_t>(u)].back().time;
      EXPECT_EQ(dataset.AddAction(u, last - 1, 0).code(),
                StatusCode::kFailedPrecondition);
    }
    EXPECT_EQ(dataset.AddAction(u, 1000, 4).code(), StatusCode::kOutOfRange);
    EXPECT_EQ(dataset.AddAction(u, 1000, -1).code(), StatusCode::kOutOfRange);
  }
  EXPECT_EQ(dataset.AddAction(dataset.num_users(), 1000, 0).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(dataset.AddAction(-1, 1000, 0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dataset.buffer_slots(), slots);
  ExpectSequences(dataset, expected);
}

TEST(DatasetBufferTest, AppendsAfterRunsMoved) {
  Sequences expected;
  Dataset dataset = FillRoundRobin(kLengths, &expected);
  // Every run takes one more append, the empty one included.
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    const Action a{500, u % 4, 1.5};
    ASSERT_TRUE(dataset.AddAction(u, a.time, a.item, a.rating).ok());
    expected[static_cast<size_t>(u)].push_back(a);
  }
  ExpectSequences(dataset, expected);
}

TEST(DatasetBufferTest, CopySurvivesTheOriginal) {
  Sequences expected;
  auto original =
      std::make_unique<Dataset>(FillRoundRobin(kLengths, &expected));
  const Dataset copy = *original;
  // Enough out-of-turn appends to move, grow and compact the buffer the
  // copy was taken from.
  for (int n = 0; n < 200; ++n) {
    const UserId u = static_cast<UserId>(n % kLengths.size());
    ASSERT_TRUE(original->AddAction(u, 1000 + n, n % 4).ok());
  }
  original.reset();
  ExpectSequences(copy, expected);
}

TEST(DatasetBufferTest, SlotsStayWithinTwiceTheLiveActions) {
  constexpr int kUsers = 13;
  constexpr int kRounds = 300;
  Dataset dataset = MakeDataset();
  for (int u = 0; u < kUsers; ++u) dataset.AddUser();
  size_t most_slots = 0;
  for (int n = 0; n < kRounds; ++n) {
    for (UserId u = 0; u < kUsers; ++u) {
      ASSERT_TRUE(dataset.AddAction(u, n, (u + n) % 4).ok());
      ASSERT_LE(dataset.buffer_slots(), 2 * dataset.num_actions())
          << "round " << n << " user " << u;
      most_slots = std::max(most_slots, dataset.buffer_slots());
    }
  }
  // The runs moved: room and moved-from slots were held along the way.
  EXPECT_GT(most_slots, dataset.num_actions());
  EXPECT_EQ(dataset.num_actions(), size_t{kUsers} * kRounds);
}

}  // namespace
}  // namespace upskill
