// The admin plane over a real TCP socket: /metrics, /healthz, /statusz,
// and /tracez all answer well-formed HTTP/1.1 with Content-Length and
// Connection: close, 404/405 behave, HEAD omits the body, the /metrics
// payload is the same Prometheus exposition `stats` embeds (model-health
// gauges sampled at scrape time included), /tracez shows requests and
// phase spans from the one global span store, and the shared connection
// loop's rules hold here too: a half-closed request is answered, an
// oversized head is a 400, and a full fd table neither spins the worker
// nor stops the next scrape.

#include "net/http_admin.h"

#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/difficulty.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "fd_exhaustion.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/serving_model.h"
#include "serve/snapshot.h"
#include "store/ingest_log.h"

namespace upskill {
namespace net {
namespace {

int ConnectTo(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

// Reads until the server closes (it always does after the response
// drains), then closes `fd`.
std::string ReadToEof(int fd) {
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// Minimal blocking HTTP client: one request, read to EOF.
std::string HttpRequest(uint16_t port, const std::string& request) {
  const int fd = ConnectTo(port);
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  return ReadToEof(fd);
}

// Sends `request` in one write, half-closes, and reads to EOF.
std::string HalfClosedRequest(uint16_t port, const std::string& request) {
  const int fd = ConnectTo(port);
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  EXPECT_EQ(::shutdown(fd, SHUT_WR), 0);
  return ReadToEof(fd);
}

std::string HttpGet(uint16_t port, const std::string& path) {
  return HttpRequest(port,
                     "GET " + path + " HTTP/1.1\r\nHost: test\r\n\r\n");
}

std::string BodyOf(const std::string& response) {
  const size_t blank = response.find("\r\n\r\n");
  EXPECT_NE(blank, std::string::npos) << response;
  return blank == std::string::npos ? "" : response.substr(blank + 4);
}

class HttpAdminTest : public ::testing::Test {
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
    path_ = (std::filesystem::temp_directory_path() /
             ("upskill_http_" + std::to_string(::getpid()) + ".snap"))
                .string();
    auto snapshot = serve::MakeSnapshot(trained.value().model,
                                        dataset_->items(), difficulty.value());
    ASSERT_TRUE(snapshot.ok());
    ASSERT_TRUE(serve::SaveSnapshot(snapshot.value(), path_).ok());
    auto serving = serve::ServingModel::FromSnapshotFile(path_);
    ASSERT_TRUE(serving.ok()) << serving.status().ToString();
    serving_ = serving.value();
  }

  // Every test in this binary shares the global span store; leave it
  // disabled and empty.
  void TearDown() override {
    obs::TraceRecorder::Global().Enable();
    obs::TraceRecorder::Global().Disable();
    std::filesystem::remove(path_);
  }

  // Drives a few requests through the server so every scrape target has
  // data: sessions, latency histograms, a recommend, an error.
  void DriveTraffic(serve::Server* server) {
    for (const char* line :
         {"observe admin_user 5 100", "observe admin_user 9 200",
          "level admin_user", "recommend admin_user 5",
          "difficulty 1000000"}) {
      const auto request = serve::ParseServeRequest(line);
      ASSERT_TRUE(request.ok());
      server->Execute(request.value());
    }
  }

  std::unique_ptr<Dataset> dataset_;
  std::string path_;
  std::shared_ptr<const serve::ServingModel> serving_;
};

TEST_F(HttpAdminTest, AllFourEndpointsAnswerOverRealTcp) {
  serve::Server server(serving_);
  obs::TraceRecorder::Global().Enable(/*capacity=*/4096, /*sample_every=*/1);
  DriveTraffic(&server);

  HttpAdminConfig config;  // 127.0.0.1, ephemeral port
  HttpAdminServer admin(config);
  InstallAdminEndpoints(&admin, &server);
  ASSERT_TRUE(admin.Start().ok());
  ASSERT_NE(admin.port(), 0);

  // /healthz: trivially alive.
  const std::string healthz = HttpGet(admin.port(), "/healthz");
  EXPECT_EQ(healthz.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << healthz;
  EXPECT_NE(healthz.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(BodyOf(healthz), "ok\n");

  // /metrics: Prometheus exposition with model-health sampled in.
  const std::string metrics = HttpGet(admin.port(), "/metrics");
  EXPECT_EQ(metrics.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const std::string metrics_body = BodyOf(metrics);
  EXPECT_NE(metrics_body.find("# TYPE upskill_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(metrics_body.find("upskill_model_session_level_count{level=\"0\"}"),
            std::string::npos)
      << metrics_body.substr(0, 2000);
  EXPECT_NE(metrics_body.find("upskill_model_snapshot_age_seconds"),
            std::string::npos);
  EXPECT_EQ(metrics_body.rfind("# EOF\n"), metrics_body.size() - 6);
  // Content-Length is honest: body size matches the header.
  const std::string marker = "Content-Length: ";
  const size_t cl_pos = metrics.find(marker);
  ASSERT_NE(cl_pos, std::string::npos);
  EXPECT_EQ(static_cast<size_t>(std::stoul(metrics.substr(
                cl_pos + marker.size()))),
            metrics_body.size());

  // /statusz: the operator page names the load-bearing facts.
  const std::string statusz_body = BodyOf(HttpGet(admin.port(), "/statusz"));
  EXPECT_NE(statusz_body.find("snapshot_version:"), std::string::npos);
  EXPECT_NE(statusz_body.find("snapshot_age_seconds:"), std::string::npos);
  EXPECT_NE(statusz_body.find("sessions: 1"), std::string::npos)
      << statusz_body;
  EXPECT_NE(statusz_body.find("trace_dropped:"), std::string::npos);
  EXPECT_NE(statusz_body.find("flight_recorder: capacity=4096 recorded=5 "
                              "ring=5 errors_retained=1 sheds_retained=0"),
            std::string::npos)
      << statusz_body;
  EXPECT_NE(statusz_body.find("p99="), std::string::npos) << statusz_body;

  // /tracez: Chrome-trace JSON with the driven requests in it.
  const std::string tracez = HttpGet(admin.port(), "/tracez");
  EXPECT_NE(tracez.find("Content-Type: application/json"), std::string::npos);
  const std::string tracez_body = BodyOf(tracez);
  EXPECT_EQ(tracez_body.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(tracez_body.find("\"name\":\"serve/observe\""), std::string::npos);
  EXPECT_NE(tracez_body.find("\"name\":\"serve/recommend\""),
            std::string::npos);
  // The difficulty request failed (out of range): flagged in the dump.
  EXPECT_NE(tracez_body.find("\"error\":true"), std::string::npos);

  admin.Stop();
}

TEST_F(HttpAdminTest, UnknownPathMethodAndHeadSemantics) {
  serve::Server server(serving_);
  HttpAdminConfig config;
  HttpAdminServer admin(config);
  InstallAdminEndpoints(&admin, &server);
  ASSERT_TRUE(admin.Start().ok());

  const std::string missing = HttpGet(admin.port(), "/nope");
  EXPECT_EQ(missing.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u) << missing;
  // The 404 body lists what does exist, so curl typos self-diagnose.
  EXPECT_NE(BodyOf(missing).find("/metrics"), std::string::npos);

  const std::string post = HttpRequest(
      admin.port(), "POST /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
  EXPECT_EQ(post.rfind("HTTP/1.1 405 Method Not Allowed\r\n", 0), 0u) << post;

  const std::string head = HttpRequest(
      admin.port(), "HEAD /healthz HTTP/1.1\r\nHost: test\r\n\r\n");
  EXPECT_EQ(head.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_EQ(BodyOf(head), "");  // headers only
  EXPECT_NE(head.find("Content-Length: 3\r\n"), std::string::npos) << head;

  // Query strings are stripped before path matching.
  const std::string with_query = HttpGet(admin.port(), "/healthz?verbose=1");
  EXPECT_EQ(with_query.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);

  // The span store disabled and empty: a valid empty trace.
  EXPECT_EQ(BodyOf(HttpGet(admin.port(), "/tracez")),
            "{\"traceEvents\":[]}\n");
  EXPECT_NE(BodyOf(HttpGet(admin.port(), "/statusz"))
                .find("flight_recorder: disabled\n"),
            std::string::npos);
  admin.Stop();
  admin.Stop();  // idempotent
}

TEST_F(HttpAdminTest, ConcurrentScrapersAllGetCompleteResponses) {
  serve::Server server(serving_);
  obs::TraceRecorder::Global().Enable(/*capacity=*/4096, /*sample_every=*/1);
  DriveTraffic(&server);

  HttpAdminConfig config;
  HttpAdminServer admin(config);
  InstallAdminEndpoints(&admin, &server);
  ASSERT_TRUE(admin.Start().ok());

  constexpr int kScrapers = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  const char* paths[] = {"/metrics", "/healthz", "/statusz", "/tracez"};
  for (int t = 0; t < kScrapers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 10; ++i) {
        const std::string response =
            HttpGet(admin.port(), paths[(t + i) % 4]);
        if (response.rfind("HTTP/1.1 200 OK\r\n", 0) != 0) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  admin.Stop();
}

// A swap's request event and the exec/shard spans of its snapshot build
// land in one trace, in process and through /tracez.
TEST_F(HttpAdminTest, SwapSpansAndRequestsShareOneTrace) {
  serve::Server server(serving_);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Enable();
  const auto swap = serve::ParseServeRequest("swap " + path_);
  ASSERT_TRUE(swap.ok());
  EXPECT_EQ(server.Execute(swap.value()).rfind("ok swapped", 0), 0u);

  const std::string trace = obs::RenderChromeTrace(recorder);
  EXPECT_NE(trace.find("\"name\":\"serve/swap\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"exec/shard\""), std::string::npos);

  HttpAdminServer admin(HttpAdminConfig{});
  InstallAdminEndpoints(&admin, &server);
  ASSERT_TRUE(admin.Start().ok());
  const std::string tracez = BodyOf(HttpGet(admin.port(), "/tracez"));
  EXPECT_NE(tracez.find("\"name\":\"serve/swap\""), std::string::npos);
  EXPECT_NE(tracez.find("\"name\":\"exec/shard\""), std::string::npos)
      << tracez;
  admin.Stop();
}

// /healthz follows the health probe the serve CLI wires to its ingest
// log. A frame torn by the file-size limit is cut back off the file and
// retried, so the log stays healthy; a write that cannot be cut back
// (/dev/full refuses both the write and the truncate) is a sticky
// failure, and /healthz answers 503 with the error from then on.
TEST_F(HttpAdminTest, HealthzReportsAStickyIngestFailure) {
  serve::Server server(serving_);

  const std::string log_path = path_ + ".ingest";
  std::remove(log_path.c_str());
  store::IngestLogOptions options;
  options.batch_records = 2;
  auto torn_log = store::IngestLogWriter::Open(log_path, options);
  ASSERT_TRUE(torn_log.ok()) << torn_log.status().ToString();
  store::IngestLogWriter* healthy = torn_log.value().get();
  HttpAdminServer torn_admin(HttpAdminConfig{});
  InstallAdminEndpoints(&torn_admin, &server,
                        [healthy] { return healthy->status(); });
  ASSERT_TRUE(torn_admin.Start().ok());
  ASSERT_TRUE(healthy->Append({"u", 1, 2}).ok());
  ASSERT_TRUE(healthy->Append({"u", 2, 3}).ok());  // one whole frame
  rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit lowered = saved;
  lowered.rlim_cur = std::filesystem::file_size(log_path) + 10;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &lowered), 0);
  ASSERT_TRUE(healthy->Append({"u", 3, 4}).ok());
  const Status torn = healthy->Append({"u", 4, 5});  // the frame tears
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, old_handler);
  EXPECT_FALSE(torn.ok());
  const std::string still_ok = HttpGet(torn_admin.port(), "/healthz");
  EXPECT_EQ(still_ok.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << still_ok;
  EXPECT_EQ(BodyOf(still_ok), "ok\n");
  torn_admin.Stop();
  torn_log.value().reset();
  std::remove(log_path.c_str());

  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  auto full_log = store::IngestLogWriter::Open("/dev/full", options);
  ASSERT_TRUE(full_log.ok()) << full_log.status().ToString();
  store::IngestLogWriter* failing = full_log.value().get();
  HttpAdminServer admin(HttpAdminConfig{});
  InstallAdminEndpoints(&admin, &server,
                        [failing] { return failing->status(); });
  ASSERT_TRUE(admin.Start().ok());
  EXPECT_EQ(BodyOf(HttpGet(admin.port(), "/healthz")), "ok\n");
  ASSERT_TRUE(failing->Append({"u", 1, 2}).ok());  // buffered
  const Status failed = failing->Append({"u", 2, 3});
  ASSERT_FALSE(failed.ok());
  const std::string unhealthy = HttpGet(admin.port(), "/healthz");
  EXPECT_EQ(unhealthy.rfind("HTTP/1.1 503 Service Unavailable\r\n", 0), 0u)
      << unhealthy;
  EXPECT_EQ(BodyOf(unhealthy), failed.ToString() + "\n");
  admin.Stop();
}

// The request and the client's FIN can arrive in one read drain; the
// request is still answered before the connection closes.
TEST_F(HttpAdminTest, HalfClosedRequestIsAnswered) {
  serve::Server server(serving_);
  HttpAdminServer admin(HttpAdminConfig{});
  InstallAdminEndpoints(&admin, &server);
  ASSERT_TRUE(admin.Start().ok());
  int answered = 0;
  for (int i = 0; i < 20; ++i) {
    const std::string response =
        HalfClosedRequest(admin.port(), "GET /healthz HTTP/1.0\r\n\r\n");
    if (response.rfind("HTTP/1.1 200 OK\r\n", 0) == 0 &&
        BodyOf(response) == "ok\n") {
      ++answered;
    }
  }
  EXPECT_EQ(answered, 20);
  admin.Stop();
}

TEST_F(HttpAdminTest, RequestHeadOver8192BytesIsA400AndClose) {
  serve::Server server(serving_);
  HttpAdminServer admin(HttpAdminConfig{});
  InstallAdminEndpoints(&admin, &server);
  ASSERT_TRUE(admin.Start().ok());

  const std::string start = "GET /healthz HTTP/1.1\r\nX-Pad: ";
  const std::string oversized =
      start + std::string(9000, 'a') + "\r\n\r\n";
  const std::string rejected = HalfClosedRequest(admin.port(), oversized);
  EXPECT_EQ(rejected.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u)
      << rejected.substr(0, 200);
  EXPECT_NE(rejected.find("Connection: close\r\n"), std::string::npos);

  // No blank line at all: the 400 comes once the head passes the limit.
  const std::string endless = start + std::string(9000, 'a');
  EXPECT_EQ(HalfClosedRequest(admin.port(), endless)
                .rfind("HTTP/1.1 400 Bad Request\r\n", 0),
            0u);

  // A head of exactly 8192 bytes is served.
  const std::string exact =
      start + std::string(8192 - start.size() - 4, 'a') + "\r\n\r\n";
  ASSERT_EQ(exact.size(), 8192u);
  EXPECT_EQ(HalfClosedRequest(admin.port(), exact)
                .rfind("HTTP/1.1 200 OK\r\n", 0),
            0u);
  admin.Stop();
}

// With the fd table full, a pending scrape is accepted through the
// worker's spare fd and closed at once instead of the listener being
// re-reported in a busy loop; scrapes are answered again once fds free.
TEST_F(HttpAdminTest, FullFdTableClosesThePendingScrapeWithoutSpinning) {
  serve::Server server(serving_);
  HttpAdminServer admin(HttpAdminConfig{});
  InstallAdminEndpoints(&admin, &server);
  ASSERT_TRUE(admin.Start().ok());
  {
    FdTableFiller filler;
    ASSERT_TRUE(filler.full());
    filler.FreeOne();
    const int scrape = ConnectTo(admin.port());  // the table is full again
    const std::string request = "GET /healthz HTTP/1.1\r\n\r\n";
    ::send(scrape, request.data(), request.size(), MSG_NOSIGNAL);
    // Closed without a response: EOF or a reset, not a timeout.
    EXPECT_TRUE(ReadableWithin(scrape, 2000));
    char byte = 0;
    const ssize_t n = ::recv(scrape, &byte, 1, MSG_DONTWAIT);
    EXPECT_TRUE(n == 0 || (n < 0 && errno != EAGAIN)) << n;

    const double cpu_before = ProcessCpuSeconds();
    std::this_thread::sleep_for(std::chrono::seconds(1));
    EXPECT_LT(ProcessCpuSeconds() - cpu_before, 0.5);
    ::close(scrape);
  }
  const std::string healthz = HttpGet(admin.port(), "/healthz");
  EXPECT_EQ(healthz.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << healthz;
  admin.Stop();
}

TEST(ParseHostPortTest, AcceptsTheListenGrammar) {
  std::string host;
  uint16_t port = 0;
  ASSERT_TRUE(ParseHostPort("127.0.0.1:9100", &host, &port).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9100);
  ASSERT_TRUE(ParseHostPort(":9100", &host, &port).ok());
  EXPECT_EQ(host, "0.0.0.0");
  ASSERT_TRUE(ParseHostPort("localhost:0", &host, &port).ok());
  EXPECT_EQ(port, 0);
  EXPECT_FALSE(ParseHostPort("nocolon", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("host:notaport", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("host:99999", &host, &port).ok());
}

}  // namespace
}  // namespace net
}  // namespace upskill
