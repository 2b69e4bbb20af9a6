// Server front end: request parsing, the observe/level/recommend/
// difficulty surface, agreement with the batch pipeline, and snapshot
// swaps (sessions survive a same-S swap, reset on an S change).

#include "serve/server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "core/difficulty.h"
#include "core/recommend.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "serve/snapshot.h"

namespace upskill {
namespace serve {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::SyntheticConfig data_config;
    data_config.num_users = 50;
    data_config.num_items = 100;
    data_config.mean_sequence_length = 25.0;
    data_config.seed = 99;
    auto data = datagen::GenerateSynthetic(data_config);
    ASSERT_TRUE(data.ok());
    dataset_ = std::make_unique<Dataset>(std::move(data).value().dataset);

    SkillModelConfig config;
    config.num_levels = 4;
    config.min_init_actions = 15;
    config.max_iterations = 6;
    auto trained = Trainer(config).Train(*dataset_);
    ASSERT_TRUE(trained.ok());
    model_ = std::make_unique<SkillModel>(std::move(trained).value().model);
    assignments_ = AssignSkills(*dataset_, *model_);
    auto difficulty = EstimateDifficultyByGeneration(
        dataset_->items(), *model_, DifficultyPrior::kEmpirical, assignments_);
    ASSERT_TRUE(difficulty.ok());
    difficulty_ = std::move(difficulty).value();

    const std::string stem =
        (std::filesystem::temp_directory_path() /
         ("upskill_server_" + std::to_string(::getpid())))
            .string();
    path_ = stem + ".snap";
    path_other_s_ = stem + "_s3.snap";

    auto snapshot = MakeSnapshot(*model_, dataset_->items(), difficulty_);
    ASSERT_TRUE(snapshot.ok());
    ASSERT_TRUE(SaveSnapshot(snapshot.value(), path_).ok());

    // A second snapshot with a different level count, for swap-reset tests.
    SkillModelConfig config3 = config;
    config3.num_levels = 3;
    auto trained3 = Trainer(config3).Train(*dataset_);
    ASSERT_TRUE(trained3.ok());
    const SkillAssignments assignments3 =
        AssignSkills(*dataset_, trained3.value().model);
    auto difficulty3 = EstimateDifficultyByGeneration(
        dataset_->items(), trained3.value().model, DifficultyPrior::kEmpirical,
        assignments3);
    ASSERT_TRUE(difficulty3.ok());
    auto snapshot3 = MakeSnapshot(trained3.value().model, dataset_->items(),
                                  difficulty3.value());
    ASSERT_TRUE(snapshot3.ok());
    ASSERT_TRUE(SaveSnapshot(snapshot3.value(), path_other_s_).ok());

    auto serving = ServingModel::FromSnapshotFile(path_);
    ASSERT_TRUE(serving.ok()) << serving.status().ToString();
    serving_ = serving.value();
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_other_s_);
  }

  // Replays user `u`'s full recorded sequence into `server` under the name
  // `name`, asserting each step succeeds, and returns the final level.
  int Replay(Server& server, UserId u, const std::string& name) {
    int level = 0;
    for (const Action& action : dataset_->sequence(u)) {
      const auto result = server.Observe(name, action.item, action.time, true);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      level = result.value().level;
    }
    return level;
  }

  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<SkillModel> model_;
  SkillAssignments assignments_;
  std::vector<double> difficulty_;
  std::string path_;
  std::string path_other_s_;
  std::shared_ptr<const ServingModel> serving_;
};

TEST_F(ServerTest, ObservedLevelsMatchBatchAssignmentTails) {
  // The snapshot carries no transitions, so the batch counterpart is the
  // plain AssignSkills run — its per-user tail level must equal the level
  // the server reports after replaying that user's history.
  Server server(serving_);
  size_t replayed = 0;
  for (UserId u = 0; u < dataset_->num_users(); ++u) {
    if (dataset_->sequence(u).empty()) continue;
    const std::string name = "user" + std::to_string(u);
    const int streamed = Replay(server, u, name);
    EXPECT_EQ(streamed, assignments_[static_cast<size_t>(u)].back())
        << "user " << u;
    const auto level = server.CurrentLevel(name);
    ASSERT_TRUE(level.ok());
    EXPECT_EQ(level.value().level, streamed);
    EXPECT_EQ(level.value().actions, dataset_->sequence(u).size());
    ++replayed;
  }
  EXPECT_EQ(server.num_sessions(), replayed);
  EXPECT_GT(replayed, 0u);
}

TEST_F(ServerTest, RecommendMatchesBatchRecommender) {
  Server server(serving_);
  UpskillRecommendationOptions options;
  options.max_results = 8;
  options.stretch = 1.5;
  options.exclude_tried = false;  // sessions carry no item history
  int compared = 0;
  for (UserId u = 0; u < dataset_->num_users(); ++u) {
    if (dataset_->sequence(u).empty()) continue;
    const std::string name = "user" + std::to_string(u);
    Replay(server, u, name);
    const auto batch = RecommendForUpskilling(*dataset_, *model_,
                                              assignments_, difficulty_, u,
                                              options);
    ASSERT_TRUE(batch.ok());
    const auto served = server.Recommend(name, options);
    ASSERT_TRUE(served.ok());
    ASSERT_EQ(served.value().size(), batch.value().size()) << "user " << u;
    for (size_t i = 0; i < batch.value().size(); ++i) {
      EXPECT_EQ(served.value()[i].item, batch.value()[i].item);
      EXPECT_EQ(served.value()[i].difficulty, batch.value()[i].difficulty);
      EXPECT_EQ(served.value()[i].log_prob, batch.value()[i].log_prob);
    }
    compared += static_cast<int>(batch.value().size());
  }
  EXPECT_GT(compared, 0) << "test needs at least one non-empty shortlist";
}

TEST_F(ServerTest, TopLevelUserGetsEmptyListNotError) {
  const int top = serving_->num_levels();
  UpskillRecommendationOptions options;
  const auto picks = serving_->Recommend(top, options);
  ASSERT_TRUE(picks.ok()) << picks.status().ToString();
  EXPECT_TRUE(picks.value().empty());
}

TEST_F(ServerTest, NanDifficultiesAreNeverRecommended) {
  // Rebuild the snapshot with a handful of difficulties knocked out.
  auto snapshot = MakeSnapshot(*model_, dataset_->items(), difficulty_);
  ASSERT_TRUE(snapshot.ok());
  ModelSnapshot patched = std::move(snapshot).value();
  for (size_t i = 0; i < patched.difficulty.size(); i += 3) {
    patched.difficulty[i] = std::nan("");
  }
  auto serving = ServingModel::FromSnapshot(std::move(patched));
  ASSERT_TRUE(serving.ok());
  UpskillRecommendationOptions options;
  options.max_results = 1000;
  options.stretch = 10.0;  // widest window: everything non-NaN is eligible
  for (int level = 1; level < serving.value()->num_levels(); ++level) {
    const auto picks = serving.value()->Recommend(level, options);
    ASSERT_TRUE(picks.ok());
    for (const UpskillRecommendation& pick : picks.value()) {
      EXPECT_NE(static_cast<size_t>(pick.item) % 3, 0u)
          << "item " << pick.item << " has NaN difficulty";
      EXPECT_FALSE(std::isnan(pick.difficulty));
    }
    EXPECT_FALSE(picks.value().empty());
  }
}

TEST_F(ServerTest, RejectsBadRequests) {
  Server server(serving_);
  EXPECT_FALSE(server.Observe("u", -1, 0, true).ok());
  EXPECT_FALSE(server.Observe("u", serving_->num_items(), 0, true).ok());
  EXPECT_FALSE(server.CurrentLevel("never-seen").ok());
  EXPECT_FALSE(server.Recommend("never-seen", {}).ok());
  EXPECT_FALSE(server.ItemDifficulty(-1).ok());

  ASSERT_TRUE(server.Observe("u", 0, 100, true).ok());
  EXPECT_FALSE(server.Observe("u", 0, 50, true).ok());  // time goes backwards
  EXPECT_TRUE(server.Observe("u", 0, 100, true).ok());  // equal time is fine
}

TEST_F(ServerTest, SwapKeepsSessionsWhenLevelsMatch) {
  Server server(serving_);
  ASSERT_TRUE(server.Observe("keep-me", 0, 1, true).ok());
  ASSERT_EQ(server.num_sessions(), 1u);
  ASSERT_TRUE(server.SwapSnapshotFile(path_).ok());  // same S
  EXPECT_EQ(server.num_sessions(), 1u);
  EXPECT_TRUE(server.CurrentLevel("keep-me").ok());
  // Observations keep streaming against the swapped-in view.
  EXPECT_TRUE(server.Observe("keep-me", 1, 2, true).ok());
}

TEST_F(ServerTest, SwapResetsSessionsWhenLevelsChange) {
  Server server(serving_);
  ASSERT_TRUE(server.Observe("reset-me", 0, 1, true).ok());
  ASSERT_TRUE(server.SwapSnapshotFile(path_other_s_).ok());  // S: 4 -> 3
  EXPECT_EQ(server.model()->num_levels(), 3);
  EXPECT_EQ(server.num_sessions(), 0u);
  EXPECT_FALSE(server.CurrentLevel("reset-me").ok());
  // A fresh session under the new model works immediately.
  const auto result = server.Observe("reset-me", 0, 1, true);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.value().level, 1);
  EXPECT_LE(result.value().level, 3);
}

double GaugeValue(const std::string& name, const std::string& labels = "") {
  return obs::MetricsRegistry::Global().GetGauge(name, labels).Value();
}

uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Value();
}

// The `upskill_model_snapshot_info` series of `path`.
obs::Gauge& SnapshotInfo(const std::string& path) {
  return obs::MetricsRegistry::Global().GetGauge(
      "upskill_model_snapshot_info",
      "path=\"" + obs::EscapeLabelValue(path) + "\"");
}

TEST_F(ServerTest, ConstructionPublishesTheModelGauges) {
  SnapshotInfo(path_).Set(0.0);  // another test's server may have set it
  Server server(serving_);
  EXPECT_EQ(GaugeValue("upskill_model_levels"), 4.0);
  EXPECT_EQ(GaugeValue("upskill_model_items"), serving_->num_items());
  EXPECT_EQ(GaugeValue("upskill_model_snapshot_version"),
            static_cast<double>(kSnapshotVersion));
  EXPECT_EQ(SnapshotInfo(path_).Value(), 1.0);
}

TEST_F(ServerTest, SwapsRepublishTheModelGauges) {
  Server server(serving_);
  bool top = false;  // a session at level 4 of 4
  for (UserId u = 0; u < dataset_->num_users() && !top; ++u) {
    top = Replay(server, u, "user" + std::to_string(u)) == 4;
  }
  ASSERT_TRUE(top);
  const ServeRequest stats = ParseServeRequest("stats").value();
  const std::string level4 = "level=\"4\"";
  server.Handle(stats);  // samples the level gauges
  EXPECT_GE(GaugeValue("upskill_model_session_level_count", level4), 1.0);

  ASSERT_TRUE(server.SwapSnapshotFile(path_other_s_).ok());  // S: 4 -> 3
  EXPECT_EQ(GaugeValue("upskill_model_levels"), 3.0);
  EXPECT_EQ(SnapshotInfo(path_other_s_).Value(), 1.0);
  EXPECT_EQ(SnapshotInfo(path_).Value(), 0.0);
  server.Handle(stats);
  EXPECT_EQ(GaugeValue("upskill_model_session_level_count", level4), 0.0);

  ASSERT_TRUE(server.SwapSnapshotFile(path_).ok());  // and back
  EXPECT_EQ(GaugeValue("upskill_model_levels"), 4.0);
  EXPECT_EQ(SnapshotInfo(path_).Value(), 1.0);
  EXPECT_EQ(SnapshotInfo(path_other_s_).Value(), 0.0);
}

TEST_F(ServerTest, RecommendCountsItsItemsAndEmptyAnswers) {
  Server server(serving_);
  const uint64_t items_before =
      CounterValue("upskill_model_recommend_items_total");
  const uint64_t empty_before =
      CounterValue("upskill_model_recommend_empty_total");
  UpskillRecommendationOptions options;
  options.max_results = 5;
  uint64_t items = 0;
  uint64_t empty = 0;
  for (UserId u = 0; u < dataset_->num_users(); ++u) {
    const std::string name = "user" + std::to_string(u);
    Replay(server, u, name);
    const auto picks = server.Recommend(name, options);
    ASSERT_TRUE(picks.ok()) << picks.status().ToString();
    items += picks.value().size();
    empty += picks.value().empty() ? 1 : 0;
  }
  EXPECT_FALSE(server.Recommend("never-seen", options).ok());  // not counted
  EXPECT_GT(items, 0u);
  EXPECT_GT(empty, 0u);
  EXPECT_EQ(CounterValue("upskill_model_recommend_items_total") - items_before,
            items);
  EXPECT_EQ(CounterValue("upskill_model_recommend_empty_total") - empty_before,
            empty);
}

// The admin plane samples the model gauges while swaps and requests run
// (a race for TSan to see); once they stop, one sample describes the
// model the last swap installed and the sessions left.
TEST_F(ServerTest, SamplingRacesSwapsAndRequests) {
  Server server(serving_);
  std::thread swapper([&] {
    for (int i = 1; i <= 6; ++i) {  // S alternates 3, 4: sessions reset
      EXPECT_TRUE(server.SwapSnapshotFile(i % 2 ? path_other_s_ : path_).ok());
    }
  });
  std::thread sampler([&] {
    const ServeRequest stats = ParseServeRequest("stats").value();
    for (int i = 0; i < 20; ++i) server.Handle(stats);
  });
  for (UserId u = 0; u < 10; ++u) {
    const std::string name = "user" + std::to_string(u);
    for (const Action& action : dataset_->sequence(u)) {
      EXPECT_TRUE(server.Observe(name, action.item, 0, false).ok());
    }
    (void)server.Recommend(name, UpskillRecommendationOptions{});  // raced
  }
  swapper.join();
  sampler.join();
  server.SampleModelGauges();
  EXPECT_EQ(GaugeValue("upskill_model_levels"), 4.0);
  EXPECT_EQ(SnapshotInfo(path_).Value(), 1.0);
  EXPECT_EQ(SnapshotInfo(path_other_s_).Value(), 0.0);
  double sessions = 0.0;
  for (int s = 0; s <= 4; ++s) {
    sessions += GaugeValue("upskill_model_session_level_count",
                           StringPrintf("level=\"%d\"", s));
  }
  EXPECT_EQ(sessions, static_cast<double>(server.num_sessions()));
}

TEST_F(ServerTest, ParseServeRequestCoversTheGrammar) {
  auto observe = ParseServeRequest("observe alice 7 123");
  ASSERT_TRUE(observe.ok());
  EXPECT_EQ(observe.value().kind, ServeRequest::Kind::kObserve);
  EXPECT_EQ(observe.value().user, "alice");
  EXPECT_EQ(observe.value().item, 7);
  EXPECT_EQ(observe.value().time, 123);
  EXPECT_TRUE(observe.value().has_time);

  auto no_time = ParseServeRequest("  observe bob 2  ");
  ASSERT_TRUE(no_time.ok());
  EXPECT_FALSE(no_time.value().has_time);

  auto recommend = ParseServeRequest("recommend alice 5 2.5");
  ASSERT_TRUE(recommend.ok());
  EXPECT_EQ(recommend.value().top_k, 5);
  EXPECT_EQ(recommend.value().stretch, 2.5);

  EXPECT_EQ(ParseServeRequest("level u").value().kind,
            ServeRequest::Kind::kLevel);
  EXPECT_EQ(ParseServeRequest("difficulty 3").value().item, 3);
  EXPECT_EQ(ParseServeRequest("swap /tmp/x.snap").value().path,
            "/tmp/x.snap");
  EXPECT_EQ(ParseServeRequest("stats").value().kind,
            ServeRequest::Kind::kStats);
  auto evict = ParseServeRequest("evict 500");
  ASSERT_TRUE(evict.ok());
  EXPECT_EQ(evict.value().kind, ServeRequest::Kind::kEvict);
  EXPECT_EQ(evict.value().time, 500);
  EXPECT_TRUE(evict.value().has_time);
  EXPECT_EQ(ParseServeRequest("reset").value().kind,
            ServeRequest::Kind::kReset);
  EXPECT_EQ(ParseServeRequest("quit").value().kind,
            ServeRequest::Kind::kQuit);

  EXPECT_FALSE(ParseServeRequest("").ok());
  EXPECT_FALSE(ParseServeRequest("   ").ok());
  EXPECT_FALSE(ParseServeRequest("observe").ok());
  EXPECT_FALSE(ParseServeRequest("observe u").ok());
  EXPECT_FALSE(ParseServeRequest("observe u notanitem").ok());
  EXPECT_FALSE(ParseServeRequest("observe u 1 2 3").ok());
  EXPECT_FALSE(ParseServeRequest("level").ok());
  EXPECT_FALSE(ParseServeRequest("difficulty x").ok());
  EXPECT_FALSE(ParseServeRequest("stats extra").ok());
  EXPECT_FALSE(ParseServeRequest("evict").ok());
  EXPECT_FALSE(ParseServeRequest("evict soon").ok());
  EXPECT_FALSE(ParseServeRequest("make me a sandwich").ok());
}

TEST_F(ServerTest, ExecuteRendersOneLinePerRequest) {
  Server server(serving_);
  EXPECT_EQ(server.Execute(ParseServeRequest("observe a 0 1").value())
                .substr(0, 9),
            "ok level=");
  EXPECT_EQ(server.Execute(ParseServeRequest("level nobody").value())
                .substr(0, 13),
            "ERR NotFound ");
  const std::string stats =
      server.Execute(ParseServeRequest("stats").value());
  EXPECT_NE(stats.find("sessions=1"), std::string::npos) << stats;
  EXPECT_EQ(server.Execute(ParseServeRequest("reset").value()), "ok reset");
  EXPECT_EQ(server.num_sessions(), 0u);
  EXPECT_EQ(server.requests_served(), 4u);
}

TEST_F(ServerTest, HandleReturnsTypedResponsesAndShedsCountAsRequests) {
  Server server(serving_);
  const ServeResponse observe =
      server.Handle(ParseServeRequest("observe a 0 1").value());
  ASSERT_TRUE(observe.ok()) << observe.message;
  EXPECT_GE(observe.level, 1);
  EXPECT_EQ(observe.actions, 1u);
  const ServeResponse missing =
      server.Handle(ParseServeRequest("level nobody").value());
  EXPECT_EQ(missing.status_code, StatusCode::kNotFound);
  EXPECT_EQ(RenderServeResponse(missing, ServeRequest::Kind::kLevel),
            "ERR NotFound no observed actions for user nobody");
  const ServeResponse shed = server.Shed(ServeRequest::Kind::kObserve, 0.005);
  EXPECT_EQ(RenderServeResponse(shed, ServeRequest::Kind::kObserve),
            "ERR Unavailable shed deadline=0.005000s");
  EXPECT_EQ(server.requests_served(), 3u);
  // A shed request never reaches the session.
  EXPECT_EQ(server.CurrentLevel("a").value().actions, 1u);
}

TEST_F(ServerTest, LineProtocolAnswersInOrderAndFlushesAtClose) {
  Server server(serving_);
  LineProtocol protocol(&server);
  std::string out;
  size_t ran = 0;
  for (const char* line :
       {"", "   ", "observe a 0 1", "flarb", "batch 3", "observe b 1 1", "",
        "level b", "batch 65537", "batch -1", "batch 0", "level a", "batch 2",
        "observe c 2 5"}) {
    ran += protocol.Feed(line, &out);
    EXPECT_FALSE(protocol.quit());
  }
  ran += protocol.Close(&out);

  // The same requests one by one on a server with the same state: blank
  // lines answer nothing, a blank line inside a batch is a slot, and a
  // batch the input cut short answers its missing slot with "".
  Server reference(serving_);
  const auto execute = [&reference](const char* line) {
    return reference.Execute(ParseServeRequest(line).value()) + "\n";
  };
  const auto parse_error = [](const char* line) {
    return FormatErrorResponse(ParseServeRequest(line).status()) + "\n";
  };
  std::string expected = execute("observe a 0 1");
  expected += parse_error("flarb");
  expected += execute("observe b 1 1");
  expected += parse_error("");
  expected += execute("level b");
  expected += "ERR InvalidArgument batch count exceeds limit 65536\n";
  expected += "ERR InvalidArgument batch expects: batch <N>\n";
  expected += execute("level a");
  expected += execute("observe c 2 5");
  expected += "\n";
  EXPECT_EQ(out, expected);
  EXPECT_EQ(ran, 5u);
  EXPECT_EQ(server.requests_served(), 5u);

  out.clear();
  EXPECT_EQ(protocol.Feed("quit", &out), 1u);
  EXPECT_EQ(out, "ok bye\n");
  EXPECT_TRUE(protocol.quit());
}

TEST_F(ServerTest, EvictCommandDropsIdleSessionsOnly) {
  Server server(serving_);
  ASSERT_TRUE(server.Observe("idle", 0, 10, true).ok());
  ASSERT_TRUE(server.Observe("active", 0, 100, true).ok());
  ASSERT_EQ(server.num_sessions(), 2u);

  EXPECT_EQ(server.Execute(ParseServeRequest("evict 50").value()),
            "ok evicted=1 sessions=1");
  EXPECT_FALSE(server.CurrentLevel("idle").ok());
  EXPECT_TRUE(server.CurrentLevel("active").ok());

  // An evicted user starts over as a brand-new session.
  const auto back = server.Observe("idle", 0, 200, true);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().actions, 1u);
  EXPECT_EQ(server.Execute(ParseServeRequest("evict 50").value()),
            "ok evicted=0 sessions=2");
}

TEST_F(ServerTest, ExecuteBatchPreservesRequestOrder) {
  Server server(serving_);
  exec::Backend pool(4);
  std::vector<ServeRequest> requests;
  for (int i = 0; i < 64; ++i) {
    requests.push_back(
        ParseServeRequest("observe u" + std::to_string(i) + " 0 1").value());
  }
  requests.push_back(ParseServeRequest("level u63").value());
  requests.push_back(ParseServeRequest("level nobody").value());
  const std::vector<std::string> responses =
      server.ExecuteBatch(requests, &pool);
  ASSERT_EQ(responses.size(), requests.size());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(responses[static_cast<size_t>(i)].substr(0, 9), "ok level=");
  }
  EXPECT_EQ(responses[64].substr(0, 9), "ok level=");
  EXPECT_EQ(responses[65].substr(0, 4), "ERR ");
  EXPECT_EQ(server.num_sessions(), 64u);
}

TEST_F(ServerTest, ExecuteBatchAnswersAsRequestByRequest) {
  // A batch runs each swap/stats/evict/reset alone and each user's
  // requests in order, so every response matches a one-by-one replay on
  // any backend; the serial backend also fires the observe hook in
  // request order.
  std::vector<std::string> lines = {"observe a 0 1", "reset", "observe a 1 2"};
  for (int i = 0; i < 40; ++i) {
    const std::string user = StringPrintf("u%d", i % 7);
    lines.push_back(
        StringPrintf("observe %s %d %d", user.c_str(), i % 20, 10 + i));
    if (i % 5 == 0) lines.push_back("level " + user);
    if (i % 9 == 0) lines.push_back(StringPrintf("difficulty %d", i));
  }
  lines.push_back("evict 30");
  for (int i = 0; i < 7; ++i) lines.push_back(StringPrintf("level u%d", i));
  // After this reset every level request fails: none may run before it.
  for (int i = 0; i < 32; ++i) {
    lines.push_back(StringPrintf("observe v%d 0 1", i));
  }
  lines.push_back("reset");
  for (int i = 0; i < 32; ++i) lines.push_back(StringPrintf("level v%d", i));
  lines.push_back("observe a 2 3");
  std::vector<ServeRequest> requests;
  for (const std::string& line : lines) {
    requests.push_back(ParseServeRequest(line).value());
  }
  using Observed = std::vector<std::pair<std::string, ItemId>>;
  const auto record = [](Server& server, Observed* observed,
                         std::mutex* mutex) {
    server.SetObserveHook(
        [observed, mutex](const std::string& user, ItemId item, int64_t) {
          std::lock_guard<std::mutex> lock(*mutex);
          observed->emplace_back(user, item);
        });
  };

  Server reference(serving_);
  Observed reference_observed;
  std::mutex reference_mutex;
  record(reference, &reference_observed, &reference_mutex);
  std::vector<std::string> expected;
  for (const ServeRequest& request : requests) {
    expected.push_back(reference.Execute(request));
  }
  // The observe after the reset starts a's session over.
  EXPECT_NE(expected[2].find(" actions=1"), std::string::npos) << expected[2];

  exec::Backend pool(4);
  for (exec::Backend* backend : {exec::Backend::Serial(), &pool}) {
    SCOPED_TRACE(backend->name());
    Server server(serving_);
    Observed observed;
    std::mutex mutex;
    record(server, &observed, &mutex);
    EXPECT_EQ(server.ExecuteBatch(requests, backend), expected);
    EXPECT_EQ(server.num_sessions(), reference.num_sessions());
    if (backend == exec::Backend::Serial()) {
      EXPECT_EQ(observed, reference_observed);
    } else {
      std::sort(observed.begin(), observed.end());
      Observed sorted = reference_observed;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(observed, sorted);
    }
  }
}

TEST_F(ServerTest, ConcurrentObserveMatchesBatchUnderThePool) {
  // The full serving stack under concurrency: replay every user in
  // parallel via ExecuteBatch (interleaving all sessions), then check
  // every final level against the batch DP tails.
  Server server(serving_);
  exec::Backend pool(4);
  // Round-robin the users' actions so same-user requests stay ordered
  // across batches while different users interleave within one batch.
  size_t max_len = 0;
  for (UserId u = 0; u < dataset_->num_users(); ++u) {
    max_len = std::max(max_len, dataset_->sequence(u).size());
  }
  for (size_t n = 0; n < max_len; ++n) {
    std::vector<ServeRequest> wave;
    for (UserId u = 0; u < dataset_->num_users(); ++u) {
      const auto& seq = dataset_->sequence(u);
      if (n >= seq.size()) continue;
      ServeRequest request;
      request.kind = ServeRequest::Kind::kObserve;
      request.user = "user" + std::to_string(u);
      request.item = seq[n].item;
      request.time = seq[n].time;
      request.has_time = true;
      wave.push_back(std::move(request));
    }
    for (const std::string& response : server.ExecuteBatch(wave, &pool)) {
      EXPECT_EQ(response.substr(0, 9), "ok level=") << response;
    }
  }
  for (UserId u = 0; u < dataset_->num_users(); ++u) {
    if (dataset_->sequence(u).empty()) continue;
    const auto level = server.CurrentLevel("user" + std::to_string(u));
    ASSERT_TRUE(level.ok());
    EXPECT_EQ(level.value().level, assignments_[static_cast<size_t>(u)].back())
        << "user " << u;
  }
}

}  // namespace
}  // namespace serve
}  // namespace upskill
