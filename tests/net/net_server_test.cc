// The epoll TCP front end: text-over-TCP responses byte-identical to
// Server::Execute, binary round trips for every opcode, text and binary
// replies that agree on every request kind and error, snapshot hot-swap
// (plain and quantized) under live connections, deadline load shedding
// and its request accounting, connection limits, and concurrent
// mixed-protocol clients (the TSan target for the net subsystem), the
// unread-reply cap, a close that ends in EOF while requests behind `quit`
// are still arriving, an idle worker while a half-closed client leaves its
// replies unread, and a worker that keeps serving with its process's fd
// table full.

#include "net/net_server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/difficulty.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "fd_exhaustion.h"
#include "net/client.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/serving_model.h"

namespace upskill {
namespace net {
namespace {

using Kind = serve::ServeRequest::Kind;

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::SyntheticConfig data_config;
    data_config.num_users = 40;
    data_config.num_items = 80;
    data_config.mean_sequence_length = 20.0;
    data_config.seed = 321;
    auto data = datagen::GenerateSynthetic(data_config);
    ASSERT_TRUE(data.ok());
    dataset_ = std::make_unique<Dataset>(std::move(data).value().dataset);

    SkillModelConfig config;
    config.num_levels = 4;
    config.min_init_actions = 10;
    config.max_iterations = 5;
    auto trained = Trainer(config).Train(*dataset_);
    ASSERT_TRUE(trained.ok());
    const SkillAssignments assignments =
        AssignSkills(*dataset_, trained.value().model);
    auto difficulty = EstimateDifficultyByGeneration(
        dataset_->items(), trained.value().model, DifficultyPrior::kEmpirical,
        assignments);
    ASSERT_TRUE(difficulty.ok());

    const std::string stem =
        (std::filesystem::temp_directory_path() /
         ("upskill_net_" + std::to_string(::getpid())))
            .string();
    path_ = stem + ".snap";
    path_other_s_ = stem + "_s3.snap";

    auto snapshot = serve::MakeSnapshot(trained.value().model, dataset_->items(),
                                 difficulty.value());
    ASSERT_TRUE(snapshot.ok());
    ASSERT_TRUE(serve::SaveSnapshot(snapshot.value(), path_).ok());

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
    auto snapshot3 = serve::MakeSnapshot(trained3.value().model, dataset_->items(),
                                  difficulty3.value());
    ASSERT_TRUE(snapshot3.ok());
    ASSERT_TRUE(serve::SaveSnapshot(snapshot3.value(), path_other_s_).ok());

    auto serving = serve::ServingModel::FromSnapshotFile(path_);
    ASSERT_TRUE(serving.ok()) << serving.status().ToString();
    serving_ = serving.value();
  }

  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_other_s_);
  }

  std::unique_ptr<Dataset> dataset_;
  std::string path_;
  std::string path_other_s_;
  std::shared_ptr<const serve::ServingModel> serving_;
};

TEST_F(NetServerTest, TextOverTcpMatchesExecuteByteForByte) {
  serve::Server server(serving_);
  NetServerConfig config;
  NetServer net(&server, nullptr, config);
  ASSERT_TRUE(net.Start().ok());

  // A reference Server with its own session state: both see the same
  // request sequence, so their responses must agree byte for byte.
  serve::Server reference(serving_);
  const std::vector<std::string> lines = {
      "observe u1 5 100",
      "observe u1 9 200",
      "level u1",
      "recommend u1 5",
      "recommend u1 3 1.5",
      "difficulty 9",
      "difficulty 1000000",  // out of range
      "observe u1 notanint 1",
      "evict 50",
      "level missing_user",
      "flarb",  // unknown command
      "reset",
  };
  std::string expected;
  for (const std::string& line : lines) {
    const auto request = serve::ParseServeRequest(line);
    expected += request.ok()
                    ? reference.Execute(request.value())
                    : serve::FormatErrorResponse(request.status());
    expected += '\n';
  }

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port()).ok());
  std::string payload;
  for (const std::string& line : lines) payload += line + "\n";
  ASSERT_TRUE(client.SendRaw(payload).ok());
  const auto responses = client.ReadLines(lines.size());
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  std::string actual;
  for (const std::string& response : responses.value()) {
    actual += response + "\n";
  }
  EXPECT_EQ(actual, expected);
  net.Stop();
}

TEST_F(NetServerTest, TextBatchDirectiveMatchesStdioSemantics) {
  serve::Server server(serving_);
  NetServerConfig config;
  NetServer net(&server, nullptr, config);
  ASSERT_TRUE(net.Start().ok());

  serve::Server reference(serving_);
  const auto o1 = serve::ParseServeRequest("observe bu 3 10");
  const auto o2 = serve::ParseServeRequest("observe bu 7 20");
  ASSERT_TRUE(o1.ok() && o2.ok());
  // Stdio batch semantics: responses in request order, parse errors
  // interleaved in place.
  std::vector<std::string> expected;
  expected.push_back(reference.Execute(o1.value()));
  expected.push_back(serve::FormatErrorResponse(
      serve::ParseServeRequest("observe bu oops 30").status()));
  expected.push_back(reference.Execute(o2.value()));

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port()).ok());
  ASSERT_TRUE(client
                  .SendRaw("batch 3\nobserve bu 3 10\nobserve bu oops 30\n"
                           "observe bu 7 20\n")
                  .ok());
  const auto responses = client.ReadLines(3);
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  EXPECT_EQ(responses.value(), expected);
  net.Stop();
}

TEST_F(NetServerTest, TextBatchCountAboveLimitRejected) {
  serve::Server server(serving_);
  NetServerConfig config;
  NetServer net(&server, nullptr, config);
  ASSERT_TRUE(net.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port()).ok());
  // The oversized directive is rejected up front (no batch mode entered),
  // so the following line executes as an ordinary request.
  ASSERT_TRUE(client.SendRaw("batch 65537\ndifficulty 9\n").ok());
  const auto responses = client.ReadLines(2);
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  EXPECT_EQ(responses.value()[0],
            serve::FormatErrorResponse(
                Status::InvalidArgument("batch count exceeds limit 65536")));
  EXPECT_EQ(responses.value()[1].rfind("ok difficulty=", 0), 0u)
      << responses.value()[1];

  // An absurd count must not allocate for it: the connection answers
  // normally afterwards instead of dying on bad_alloc.
  ASSERT_TRUE(client.SendRaw("batch 9999999999\ndifficulty 9\n").ok());
  const auto after = client.ReadLines(2);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value()[0].rfind("ERR InvalidArgument batch count", 0), 0u)
      << after.value()[0];
  EXPECT_EQ(after.value()[1].rfind("ok difficulty=", 0), 0u);
  net.Stop();
}

TEST_F(NetServerTest, TextPartialBatchFlushedOnEof) {
  serve::Server server(serving_);
  NetServerConfig config;
  NetServer net(&server, nullptr, config);
  ASSERT_TRUE(net.Start().ok());

  serve::Server reference(serving_);
  const auto observe = serve::ParseServeRequest("observe eof_user 3 10");
  ASSERT_TRUE(observe.ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port()).ok());
  // EOF after 1 of 3 declared lines: stdio executes the partial batch and
  // still emits one line per declared slot (missing slots are empty).
  ASSERT_TRUE(client.SendRaw("batch 3\nobserve eof_user 3 10\n").ok());
  client.ShutdownWrite();
  const auto responses = client.ReadLines(3);
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  EXPECT_EQ(responses.value()[0], reference.Execute(observe.value()));
  EXPECT_EQ(responses.value()[1], "");
  EXPECT_EQ(responses.value()[2], "");
  EXPECT_EQ(client.ReadAll(), "");  // server closes after the flush
  net.Stop();
}

TEST_F(NetServerTest, TextUnterminatedLastLineAnsweredAtEof) {
  serve::Server server(serving_);
  NetServerConfig config;
  NetServer net(&server, nullptr, config);
  ASSERT_TRUE(net.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port()).ok());
  // The last line has no newline: stdio's getline still hands it over,
  // so TCP answers it too before closing.
  ASSERT_TRUE(
      client.SendRaw("observe eof_line 1 1\nobserve eof_line 2 2").ok());
  client.ShutdownWrite();
  const auto responses = client.ReadLines(2);
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  EXPECT_EQ(responses.value()[0].rfind("ok level=", 0), 0u);
  EXPECT_NE(responses.value()[0].find(" actions=1"), std::string::npos);
  EXPECT_EQ(responses.value()[1].rfind("ok level=", 0), 0u);
  EXPECT_NE(responses.value()[1].find(" actions=2"), std::string::npos)
      << responses.value()[1];
  EXPECT_EQ(client.ReadAll(), "");
  net.Stop();
}

TEST_F(NetServerTest, BinaryRoundTripEveryOpcode) {
  serve::Server server(serving_);
  NetServerConfig config;
  config.num_workers = 2;
  NetServer net(&server, nullptr, config);
  ASSERT_TRUE(net.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port()).ok());

  serve::ServeRequest observe;
  observe.kind = Kind::kObserve;
  observe.user = "bin_user";
  observe.item = 5;
  observe.has_time = true;
  observe.time = 100;
  auto response = client.Call(observe);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status_code, StatusCode::kOk);
  EXPECT_EQ(response.value().actions, 1u);
  const int level_after_observe = response.value().level;

  serve::ServeRequest level;
  level.kind = Kind::kLevel;
  level.user = "bin_user";
  response = client.Call(level);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().level, level_after_observe);

  serve::ServeRequest recommend;
  recommend.kind = Kind::kRecommend;
  recommend.user = "bin_user";
  recommend.top_k = 4;
  response = client.Call(recommend);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status_code, StatusCode::kOk);
  EXPECT_EQ(response.value().picks.size(), 4u);

  serve::ServeRequest difficulty;
  difficulty.kind = Kind::kDifficulty;
  difficulty.item = 5;
  response = client.Call(difficulty);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status_code, StatusCode::kOk);

  // Typed responses agree with the text protocol rendering of the same
  // state (the cross-format equivalence the wire format promises).
  serve::Server reference(serving_);
  const auto ref_observe = serve::ParseServeRequest("observe bin_user 5 100");
  ASSERT_TRUE(ref_observe.ok());
  const std::string ref_text = reference.Execute(ref_observe.value());
  serve::ServeRequest level2;
  level2.kind = Kind::kLevel;
  level2.user = "bin_user";
  const auto level_response = client.Call(level2);
  ASSERT_TRUE(level_response.ok());
  EXPECT_EQ(serve::RenderServeResponse(level_response.value(), Kind::kLevel),
            ref_text);

  serve::ServeRequest stats;
  stats.kind = Kind::kStats;
  response = client.Call(stats);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status_code, StatusCode::kOk);
  EXPECT_NE(response.value().text.find("ok sessions="), std::string::npos);

  serve::ServeRequest bad_difficulty;
  bad_difficulty.kind = Kind::kDifficulty;
  bad_difficulty.item = 1000000;
  response = client.Call(bad_difficulty);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status_code, StatusCode::kOutOfRange);

  serve::ServeRequest evict;
  evict.kind = Kind::kEvict;
  evict.time = 0;
  response = client.Call(evict);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status_code, StatusCode::kOk);

  serve::ServeRequest reset;
  reset.kind = Kind::kReset;
  response = client.Call(reset);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(server.num_sessions(), 0u);

  serve::ServeRequest quit;
  quit.kind = Kind::kQuit;
  response = client.Call(quit);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status_code, StatusCode::kOk);
  // The server closes after the quit response drains.
  EXPECT_EQ(client.ReadAll(), "");
  net.Stop();
}

TEST_F(NetServerTest, TextAndBinaryAgreeOnEveryKindAndError) {
  // Two servers with the same state, one driven over text and one over
  // binary frames, fed the same session: every binary response, rendered
  // with the text renderer, must equal the text line.
  serve::Server text_server(serving_);
  serve::Server binary_server(serving_);
  NetServerConfig config;
  NetServer text_net(&text_server, nullptr, config);
  NetServer binary_net(&binary_server, nullptr, config);
  ASSERT_TRUE(text_net.Start().ok());
  ASSERT_TRUE(binary_net.Start().ok());
  NetClient text;
  NetClient binary;
  ASSERT_TRUE(text.Connect("127.0.0.1", text_net.port()).ok());
  ASSERT_TRUE(binary.Connect("127.0.0.1", binary_net.port()).ok());

  const std::vector<std::string> lines = {
      "observe u1 5 100",
      "observe u1 9",          // no time: the session's last time
      "observe u1 3 50",       // time goes backwards
      "observe u1 1000000 200",  // OutOfRange item
      "level u1",
      "level ghost",           // NotFound
      "recommend u1",
      "recommend u1 4",
      "recommend u1 3 1.5",
      "recommend ghost 2",     // NotFound
      "difficulty 9",
      "difficulty 1000000",    // OutOfRange
      "swap " + path_,         // same S: sessions survive
      "level u1",
      "swap " + path_other_s_,  // S changes: sessions reset
      "level u1",
      "observe u1 2 300",
      "swap " + path_ + ".missing",  // a snapshot that does not exist
      "observe u2 4 10",
      "evict 5",
      "evict 250",
      "reset",
      "level u1",
      "quit",
  };
  for (const std::string& line : lines) {
    const auto request = serve::ParseServeRequest(line);
    ASSERT_TRUE(request.ok()) << line;
    ASSERT_TRUE(text.SendRaw(line + "\n").ok());
    const auto text_reply = text.ReadLines(1);
    ASSERT_TRUE(text_reply.ok()) << line;
    const auto binary_reply = binary.Call(request.value());
    ASSERT_TRUE(binary_reply.ok()) << line;
    EXPECT_EQ(serve::RenderServeResponse(binary_reply.value(),
                                         request.value().kind),
              text_reply.value()[0])
        << line;
  }
  EXPECT_EQ(text.ReadAll(), "");  // both close after quit
  EXPECT_EQ(binary.ReadAll(), "");
  EXPECT_EQ(text_server.requests_served(), lines.size());
  EXPECT_EQ(binary_server.requests_served(), lines.size());
  text_net.Stop();
  binary_net.Stop();
}

TEST_F(NetServerTest, PipelinedBinaryRequestsAnswerInOrder) {
  serve::Server server(serving_);
  NetServerConfig config;
  NetServer net(&server, nullptr, config);
  ASSERT_TRUE(net.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port()).ok());
  constexpr int kPipeline = 500;
  for (int i = 0; i < kPipeline; ++i) {
    serve::ServeRequest observe;
    observe.kind = Kind::kObserve;
    observe.user = "pipe_user";
    observe.item = i % 80;
    observe.has_time = true;
    observe.time = i;
    client.QueueRequest(observe);
  }
  ASSERT_TRUE(client.Flush().ok());
  for (int i = 0; i < kPipeline; ++i) {
    const auto response = client.ReadResponse(Kind::kObserve);
    ASSERT_TRUE(response.ok()) << "request " << i;
    ASSERT_EQ(response.value().status_code, StatusCode::kOk);
    // actions echoes the per-session counter: proof of in-order delivery.
    EXPECT_EQ(response.value().actions, static_cast<uint64_t>(i + 1));
  }
  net.Stop();
}

TEST_F(NetServerTest, SnapshotSwapUnderLiveConnections) {
  serve::Server server(serving_);
  NetServerConfig config;
  config.num_workers = 2;
  NetServer net(&server, nullptr, config);
  ASSERT_TRUE(net.Start().ok());

  NetClient session;
  ASSERT_TRUE(session.Connect("127.0.0.1", net.port()).ok());
  serve::ServeRequest observe;
  observe.kind = Kind::kObserve;
  observe.user = "swap_user";
  observe.item = 1;
  observe.has_time = true;
  observe.time = 1;
  ASSERT_TRUE(session.Call(observe).ok());
  ASSERT_EQ(server.num_sessions(), 1u);

  // Swap to a different level count over a second connection; sessions
  // reset (levels changed), but the first connection keeps working.
  NetClient admin;
  ASSERT_TRUE(admin.Connect("127.0.0.1", net.port()).ok());
  serve::ServeRequest swap;
  swap.kind = Kind::kSwap;
  swap.path = path_other_s_;
  const auto swapped = admin.Call(swap);
  ASSERT_TRUE(swapped.ok());
  ASSERT_EQ(swapped.value().status_code, StatusCode::kOk)
      << swapped.value().message;
  EXPECT_EQ(swapped.value().levels, 3);
  EXPECT_EQ(server.num_sessions(), 0u);

  observe.time = 2;
  const auto after = session.Call(observe);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().status_code, StatusCode::kOk);
  EXPECT_EQ(after.value().actions, 1u);  // fresh session post-reset
  net.Stop();
}

TEST_F(NetServerTest, QuantizedServerSwapsOverTcp) {
  serve::Server server(serving_, 64, /*quantized=*/true);
  NetServerConfig config;
  NetServer net(&server, nullptr, config);
  ASSERT_TRUE(net.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port()).ok());
  serve::ServeRequest observe;
  observe.kind = Kind::kObserve;
  observe.user = "q_user";
  observe.item = 2;
  observe.has_time = true;
  observe.time = 1;
  ASSERT_TRUE(client.Call(observe).ok());

  serve::ServeRequest swap;
  swap.kind = Kind::kSwap;
  swap.path = path_other_s_;
  const auto swapped = client.Call(swap);
  ASSERT_TRUE(swapped.ok());
  ASSERT_EQ(swapped.value().status_code, StatusCode::kOk)
      << swapped.value().message;
  EXPECT_TRUE(server.quantized());

  observe.time = 2;
  const auto after = client.Call(observe);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().status_code, StatusCode::kOk);
  net.Stop();
}

TEST_F(NetServerTest, DeadlineSheddingEngagesAndRecovers) {
  serve::Server server(serving_);
  NetServerConfig config;
  // An impossible budget: every data-plane request projects past it, so
  // shedding engages deterministically once a latency sample exists.
  config.deadline_seconds = 1e-12;
  NetServer net(&server, nullptr, config);
  ASSERT_TRUE(net.Start().ok());

  obs::Counter& shed_total = obs::MetricsRegistry::Global().GetCounter(
      "upskill_net_shed_total");
  const uint64_t shed_before = shed_total.Value();

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port()).ok());

  // Seed the latency histograms (the mean-cost estimate starts at zero,
  // and elapsed time within a single drain can round to ~0): run a few
  // requests, then verify shedding kicks in on subsequent ones.
  int shed_count = 0;
  int ok_count = 0;
  for (int i = 0; i < 200; ++i) {
    serve::ServeRequest observe;
    observe.kind = Kind::kObserve;
    observe.user = "shed_user";
    observe.item = i % 80;
    observe.has_time = true;
    observe.time = i;
    const auto response = client.Call(observe);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response.value().status_code == StatusCode::kUnavailable) {
      ++shed_count;
      // The stable marker: first token of the shed message is `shed`.
      EXPECT_EQ(response.value().message.rfind("shed ", 0), 0u)
          << response.value().message;
    } else {
      ASSERT_EQ(response.value().status_code, StatusCode::kOk);
      ++ok_count;
    }
  }
  EXPECT_GT(shed_count, 0) << "load shedding never engaged";
  EXPECT_GT(shed_total.Value(), shed_before);

  // Admin requests are exempt: stats must get through the same server.
  serve::ServeRequest stats;
  stats.kind = Kind::kStats;
  const auto stats_response = client.Call(stats);
  ASSERT_TRUE(stats_response.ok());
  EXPECT_EQ(stats_response.value().status_code, StatusCode::kOk);

  // Session state stays consistent: the session observed exactly the
  // non-shed requests.
  const auto sessions = server.CurrentLevel("shed_user");
  if (ok_count > 0) {
    ASSERT_TRUE(sessions.ok());
    EXPECT_EQ(sessions.value().actions, static_cast<uint64_t>(ok_count));
  }
  net.Stop();
}

TEST_F(NetServerTest, TextProtocolShedsWithErrLine) {
  serve::Server server(serving_);
  NetServerConfig config;
  config.deadline_seconds = 1e-12;
  NetServer net(&server, nullptr, config);
  ASSERT_TRUE(net.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port()).ok());
  bool saw_shed = false;
  for (int i = 0; i < 200 && !saw_shed; ++i) {
    ASSERT_TRUE(client.SendRaw("observe tshed 1 " + std::to_string(i) + "\n")
                    .ok());
    const auto lines = client.ReadLines(1);
    ASSERT_TRUE(lines.ok());
    if (lines.value()[0].rfind("ERR Unavailable shed ", 0) == 0) {
      saw_shed = true;
    }
  }
  EXPECT_TRUE(saw_shed);
  net.Stop();
}

/// Sum over request kinds of upskill_serve_requests_total.
uint64_t ServeRequestsTotal() {
  uint64_t total = 0;
  for (int i = 0; i < serve::kNumServeRequestKinds; ++i) {
    total += obs::MetricsRegistry::Global()
                 .GetCounter("upskill_serve_requests_total",
                             std::string("kind=\"") +
                                 serve::ServeRequestKindName(
                                     static_cast<Kind>(i)) +
                                 "\"")
                 .Value();
  }
  return total;
}

TEST_F(NetServerTest, ShedRequestsAreCountedOnBothWireFormats) {
  constexpr int kRequests = 200;
  for (const bool binary : {false, true}) {
    SCOPED_TRACE(binary ? "binary" : "text");
    serve::Server server(serving_);
    NetServerConfig config;
    config.deadline_seconds = 1e-12;  // every data-plane request is shed
    NetServer net(&server, nullptr, config);
    ASSERT_TRUE(net.Start().ok());
    const uint64_t kinds_before = ServeRequestsTotal();

    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", net.port()).ok());
    serve::ServeRequest difficulty;
    difficulty.kind = Kind::kDifficulty;
    difficulty.item = 3;
    std::vector<std::string> replies;
    if (binary) {
      for (int i = 0; i < kRequests; ++i) client.QueueRequest(difficulty);
      ASSERT_TRUE(client.Flush().ok());
      for (int i = 0; i < kRequests; ++i) {
        const auto reply = client.ReadResponse(Kind::kDifficulty);
        ASSERT_TRUE(reply.ok());
        replies.push_back(serve::RenderServeResponse(reply.value(),
                                                     Kind::kDifficulty));
      }
    } else {
      std::string payload;
      for (int i = 0; i < kRequests; ++i) payload += "difficulty 3\n";
      ASSERT_TRUE(client.SendRaw(payload).ok());
      const auto lines = client.ReadLines(kRequests);
      ASSERT_TRUE(lines.ok());
      replies = lines.value();
    }
    for (const std::string& reply : replies) {
      ASSERT_EQ(reply.rfind("ERR Unavailable shed ", 0), 0u) << reply;
    }

    // `stats` is exempt from shedding and counts itself.
    serve::ServeRequest stats;
    stats.kind = Kind::kStats;
    NetClient admin;
    ASSERT_TRUE(admin.Connect("127.0.0.1", net.port()).ok());
    const auto stats_reply = admin.Call(stats);
    ASSERT_TRUE(stats_reply.ok());
    const std::string& text = stats_reply.value().text;
    const size_t field = text.find(" requests=");
    ASSERT_NE(field, std::string::npos) << text;
    const size_t value = field + std::string(" requests=").size();
    EXPECT_EQ(text.substr(value, text.find(' ', value) - value),
              std::to_string(kRequests + 1));
    EXPECT_EQ(server.requests_served(), static_cast<uint64_t>(kRequests + 1));
    EXPECT_EQ(ServeRequestsTotal() - kinds_before,
              static_cast<uint64_t>(kRequests + 1));
    net.Stop();
  }
}

TEST_F(NetServerTest, ConnectionLimitRejectsExtraClients) {
  serve::Server server(serving_);
  NetServerConfig config;
  config.max_connections = 1;
  NetServer net(&server, nullptr, config);
  ASSERT_TRUE(net.Start().ok());

  NetClient first;
  ASSERT_TRUE(first.Connect("127.0.0.1", net.port()).ok());
  // Prove the first connection is established end to end.
  serve::ServeRequest stats;
  stats.kind = Kind::kStats;
  ASSERT_TRUE(first.Call(stats).ok());

  // The second connect succeeds at the TCP level (the backlog accepts),
  // but the server closes it immediately without serving anything.
  NetClient second;
  ASSERT_TRUE(second.Connect("127.0.0.1", net.port()).ok());
  EXPECT_EQ(second.ReadAll(), "");

  obs::Counter& rejected = obs::MetricsRegistry::Global().GetCounter(
      "upskill_net_connections_rejected_total");
  EXPECT_GE(rejected.Value(), 1u);
  net.Stop();
}

// A client that pipelines far more requests than it reads is answered
// until more than kMaxUnsentBytes of replies wait unread, checked between
// requests, then gets only whole replies. (It half-closes, so without the
// cap the server would answer every request and close at EOF.)
TEST_F(NetServerTest, SlowConsumerIsCutOffAtTheUnreadReplyCap) {
  obs::SetMetricsEnabled(true);
  obs::Counter& bytes_read = obs::MetricsRegistry::Global().GetCounter(
      "upskill_net_bytes_read_total");
  const uint64_t read_before = bytes_read.Value();
  serve::Server server(serving_);
  NetServer net(&server, nullptr, NetServerConfig{});
  ASSERT_TRUE(net.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port()).ok());
  constexpr size_t kLevels = 2000000;  // ~44 MB of replies
  std::string payload = "observe slow 3\n";
  for (size_t i = 0; i < kLevels; ++i) payload += "level slow\n";
  ASSERT_TRUE(client.SendRaw(payload).ok());
  client.ShutdownWrite();
  // Read only once the server has read the whole payload. Closing a socket
  // whose receive queue still holds unread requests makes Linux send RST
  // and drop the replies still in its send queue, so reading earlier would
  // make how many replies arrive depend on scheduling.
  for (int i = 0; i < 6000 && bytes_read.Value() - read_before < payload.size();
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(bytes_read.Value() - read_before, payload.size());
  const std::string replies = client.ReadAll();
  ASSERT_GT(replies.size(), kMaxUnsentBytes);
  EXPECT_EQ(replies.back(), '\n');
  EXPECT_LT(static_cast<size_t>(
                std::count(replies.begin(), replies.end(), '\n')),
            kLevels + 1);
  net.Stop();
}

// `quit` ends a connection's answers while the client may still be
// sending: here more than one read drain (16 MiB) of requests follows it.
// The server sends the replies it produced, shuts its write side and
// discards input until the client's EOF. Closing the socket with that
// input unread would make the kernel answer with RST, so the client would
// see a reset instead of EOF, and its further sends would fail.
TEST_F(NetServerTest, RequestsBehindQuitEndInEofNotReset) {
  serve::Server server(serving_);
  NetServer net(&server, nullptr, NetServerConfig{});
  ASSERT_TRUE(net.Start().ok());
  serve::Server reference(serving_);
  const std::vector<std::string> lines = {"observe hc 3", "observe hc 5",
                                          "level hc", "quit"};
  std::string head;
  std::string expected;
  for (const std::string& line : lines) {
    head += line + "\n";
    expected += reference.Execute(serve::ParseServeRequest(line).value());
    expected += '\n';
  }
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port()).ok());
  ASSERT_TRUE(client.SendRaw(head).ok());
  Status sent;
  std::thread sender([&client, &sent] {
    std::string tail;
    while (tail.size() <= (17u << 20)) tail += "level hc\n";
    sent = client.SendRaw(tail);
    client.ShutdownWrite();
  });
  std::string replies;
  int error = 0;
  char chunk[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(client.fd(), chunk, sizeof(chunk), 0);
    if (n > 0) {
      replies.append(chunk, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      error = n == 0 ? 0 : errno;
      break;
    }
  }
  sender.join();
  EXPECT_EQ(error, 0) << std::strerror(error);
  EXPECT_EQ(replies, expected);
  EXPECT_TRUE(sent.ok()) << sent.ToString();
  net.Stop();
}

// After end of input the worker waits only for the socket to take the
// replies: a level-triggered EPOLLIN would re-report the EOF, and spin
// the worker for as long as a half-closed client leaves them unread.
TEST_F(NetServerTest, HalfClosedClientLeavingRepliesUnreadCostsNoCpu) {
  serve::Server server(serving_);
  NetServer net(&server, nullptr, NetServerConfig{});
  ASSERT_TRUE(net.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port()).ok());
  // A small receive window, so the replies cannot all sit in socket
  // buffers (the server's send buffer tops out at tcp_wmem's 4 MB).
  const int window = 64 << 10;
  ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &window,
                         sizeof(window)),
            0);
  constexpr size_t kLevels = 300000;  // ~6.3 MB of replies, under the cap
  std::string payload = "observe idle 3\n";
  for (size_t i = 0; i < kLevels; ++i) payload += "level idle\n";
  ASSERT_TRUE(client.SendRaw(payload).ok());
  client.ShutdownWrite();
  for (int i = 0; i < 3000 && server.requests_served() < kLevels + 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server.requests_served(), kLevels + 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const double cpu_before = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  EXPECT_LT(ProcessCpuSeconds() - cpu_before, 0.5);
  const std::string replies = client.ReadAll();
  EXPECT_EQ(static_cast<size_t>(
                std::count(replies.begin(), replies.end(), '\n')),
            kLevels + 1);
  net.Stop();
}

// accept4 claims an fd slot before it looks at the queue, so with the fd
// table full it fails with EMFILE whether or not a connection is pending.
// The worker drains the pending connection through its spare fd, goes
// back to epoll, and keeps serving the connection it accepted earlier
// while the table stays full, and it does not spin.
TEST_F(NetServerTest, FullFdTableDrainsThePendingConnectionAndKeepsServing) {
  serve::Server server(serving_);
  NetServer net(&server, nullptr, NetServerConfig{});
  ASSERT_TRUE(net.Start().ok());
  NetClient first;
  ASSERT_TRUE(first.Connect("127.0.0.1", net.port()).ok());
  ASSERT_TRUE(first.SendRaw("observe u0 1\n").ok());
  ASSERT_TRUE(first.ReadLines(1).ok());

  obs::Counter& rejected = obs::MetricsRegistry::Global().GetCounter(
      "upskill_net_connections_rejected_total");
  const uint64_t rejected_before = rejected.Value();
  {
    FdTableFiller filler;
    ASSERT_TRUE(filler.full());
    filler.FreeOne();
    NetClient second;  // takes the one free slot: the table is full again
    ASSERT_TRUE(second.Connect("127.0.0.1", net.port()).ok());
    for (int i = 0; i < 200 && rejected.Value() == rejected_before; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(rejected.Value(), rejected_before + 1);

    const double cpu_before = ProcessCpuSeconds();
    std::this_thread::sleep_for(std::chrono::seconds(1));
    EXPECT_LT(ProcessCpuSeconds() - cpu_before, 0.5);

    ASSERT_TRUE(first.SendRaw("observe u1 3\n").ok());
    EXPECT_TRUE(ReadableWithin(first.fd(), 2000))
        << "no reply within 2 s with the fd table full";
  }
  const auto reply = first.ReadLines(1);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value()[0].rfind("ok level=", 0), 0u) << reply.value()[0];
  net.Stop();
}

TEST_F(NetServerTest, ConcurrentMixedProtocolClients) {
  serve::Server server(serving_);
  NetServerConfig config;
  config.num_workers = 4;
  NetServer net(&server, nullptr, config);
  ASSERT_TRUE(net.Start().ok());

  constexpr int kClients = 8;
  constexpr int kRequests = 200;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      NetClient client;
      if (!client.Connect("127.0.0.1", net.port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      const std::string user = "mixed" + std::to_string(c);
      if (c % 2 == 0) {
        for (int i = 0; i < kRequests; ++i) {
          serve::ServeRequest observe;
          observe.kind = Kind::kObserve;
          observe.user = user;
          observe.item = i % 80;
          observe.has_time = true;
          observe.time = i;
          client.QueueRequest(observe);
        }
        if (!client.Flush().ok()) {
          failures.fetch_add(1);
          return;
        }
        for (int i = 0; i < kRequests; ++i) {
          const auto response = client.ReadResponse(Kind::kObserve);
          if (!response.ok() ||
              response.value().status_code != StatusCode::kOk ||
              response.value().actions != static_cast<uint64_t>(i + 1)) {
            failures.fetch_add(1);
            return;
          }
        }
      } else {
        std::string payload;
        for (int i = 0; i < kRequests; ++i) {
          payload += "observe " + user + " " + std::to_string(i % 80) + " " +
                     std::to_string(i) + "\n";
        }
        if (!client.SendRaw(payload).ok()) {
          failures.fetch_add(1);
          return;
        }
        const auto lines = client.ReadLines(kRequests);
        if (!lines.ok()) {
          failures.fetch_add(1);
          return;
        }
        for (const std::string& line : lines.value()) {
          if (line.rfind("ok level=", 0) != 0) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.num_sessions(), static_cast<size_t>(kClients));
  net.Stop();
  EXPECT_EQ(net.active_connections(), 0);
}

}  // namespace
}  // namespace net
}  // namespace upskill
