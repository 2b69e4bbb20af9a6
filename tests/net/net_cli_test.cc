// End-to-end network serving through the real binary: generate -> train
// -> snapshot -> `upskill_cli serve --listen` on an ephemeral port, then
// drive both protocols with `upskill_cli client` over a real TCP socket,
// including a mid-session snapshot swap. The server's lifetime is owned
// through its stdin pipe (EOF stops it), and the actual port is parsed
// from its "listening on host:port" stderr line.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace upskill {
namespace {

class NetCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("upskill_net_cli_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    if (server_ != nullptr) {
      std::fputs("shutdown\n", server_);
      pclose(server_);
      server_ = nullptr;
    }
    std::filesystem::remove_all(dir_);
  }

  void Run(const std::string& argv_tail) {
    const std::string log = dir_ + "/cmd.log";
    const std::string command = std::string(UPSKILL_CLI_PATH) + " " +
                                argv_tail + " > " + log + " 2>&1";
    const int status = std::system(command.c_str());
    ASSERT_EQ(status, 0) << command << "\n" << Slurp(log);
  }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  static std::vector<std::string> Lines(const std::string& text) {
    std::vector<std::string> lines;
    std::string line;
    std::istringstream in(text);
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  }

  /// Starts `serve --listen 127.0.0.1:0` with its stdin on our pipe and
  /// returns the port it actually bound (0 on failure).
  int StartServer(const std::string& extra_flags) {
    const std::string log = dir_ + "/serve.log";
    const std::string command = std::string(UPSKILL_CLI_PATH) + " serve " +
                                dir_ + "/model.snap --listen 127.0.0.1:0 " +
                                extra_flags + " 2> " + log;
    server_ = popen(command.c_str(), "w");
    if (server_ == nullptr) return 0;
    // The "listening on ..." line is flushed before the server blocks on
    // stdin; poll for it (training the model took far longer than this).
    for (int attempt = 0; attempt < 200; ++attempt) {
      const std::string text = Slurp(log);
      const size_t mark = text.find("listening on 127.0.0.1:");
      if (mark != std::string::npos) {
        return std::atoi(text.c_str() + mark + 23);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return 0;
  }

  /// Runs `client` with the given request lines on stdin; returns its
  /// stdout lines.
  std::vector<std::string> RunClient(int port, const std::string& flags,
                                     const std::string& requests) {
    const std::string in_path = dir_ + "/requests.txt";
    const std::string out_path = dir_ + "/responses.txt";
    std::ofstream(in_path) << requests;
    const std::string command = std::string(UPSKILL_CLI_PATH) +
                                " client 127.0.0.1:" + std::to_string(port) +
                                " " + flags + " < " + in_path + " > " +
                                out_path + " 2> " + dir_ + "/client.log";
    EXPECT_EQ(std::system(command.c_str()), 0)
        << command << "\n"
        << Slurp(dir_ + "/client.log");
    return Lines(Slurp(out_path));
  }

  std::string dir_;
  std::FILE* server_ = nullptr;
};

TEST_F(NetCliTest, TcpRoundTripBothProtocolsWithMidSessionSwap) {
  Run("generate synthetic " + dir_ + "/data --users 30 --seed 5");
  Run("train " + dir_ + "/data " + dir_ + "/model.csv --levels 4");
  Run("snapshot " + dir_ + "/data " + dir_ + "/model.csv " + dir_ +
      "/model.snap --levels 4");
  // A second snapshot with a different S for the mid-session swap.
  Run("train " + dir_ + "/data " + dir_ + "/model3.csv --levels 3");
  Run("snapshot " + dir_ + "/data " + dir_ + "/model3.csv " + dir_ +
      "/model3.snap --levels 3");

  const int port = StartServer("--net-workers 2");
  ASSERT_GT(port, 0) << Slurp(dir_ + "/serve.log");

  // Text protocol over the real socket.
  const std::vector<std::string> text = RunClient(
      port, "",
      "observe cli_user 3 100\nobserve cli_user 7 200\nlevel cli_user\n");
  ASSERT_EQ(text.size(), 3u);
  EXPECT_EQ(text[0].rfind("ok level=", 0), 0u) << text[0];
  EXPECT_NE(text[1].find("actions=2"), std::string::npos) << text[1];
  EXPECT_EQ(text[2], text[1]);  // level echoes the last observe

  // Binary protocol: same session (server-side state), then a
  // mid-session swap to the S=3 snapshot, which resets sessions.
  const std::vector<std::string> binary = RunClient(
      port, "--binary",
      "level cli_user\n"
      "recommend cli_user 3\n"
      "swap " + dir_ + "/model3.snap\n"
      "level cli_user\n"
      "observe cli_user 3 300\n");
  ASSERT_EQ(binary.size(), 5u);
  EXPECT_EQ(binary[0], text[2]);  // binary sees the text session's state
  EXPECT_EQ(binary[1].rfind("ok n=3 ", 0), 0u) << binary[1];
  EXPECT_EQ(binary[2].rfind("ok swapped levels=3 ", 0), 0u) << binary[2];
  EXPECT_EQ(binary[3].rfind("ERR NotFound", 0), 0u)
      << "session should reset on S change: " << binary[3];
  EXPECT_NE(binary[4].find("actions=1"), std::string::npos) << binary[4];

  // stats carries the net metrics over the wire.
  const std::vector<std::string> stats = RunClient(port, "--binary",
                                                   "stats\n");
  ASSERT_FALSE(stats.empty());
  EXPECT_EQ(stats[0].rfind("ok sessions=", 0), 0u) << stats[0];
  bool saw_net_metric = false;
  for (const std::string& line : stats) {
    if (line.rfind("upskill_net_", 0) == 0) saw_net_metric = true;
  }
  EXPECT_TRUE(saw_net_metric);

  // Clean shutdown through the stdin pipe; pclose reaps exit status 0.
  std::fputs("shutdown\n", server_);
  const int status = pclose(server_);
  server_ = nullptr;
  EXPECT_EQ(status, 0);
}

// `serve --listen` exits 1 when the final ingest-log Sync fails, as the
// stdio loop does: an observe it acknowledged never reached the log.
TEST_F(NetCliTest, FailedFinalIngestSyncExitsOne) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  Run("generate synthetic " + dir_ + "/data --users 30 --seed 5");
  Run("train " + dir_ + "/data " + dir_ + "/model.csv --levels 3");
  Run("snapshot " + dir_ + "/data " + dir_ + "/model.csv " + dir_ +
      "/model.snap --levels 3");
  const int port = StartServer("--ingest-log /dev/full");
  ASSERT_GT(port, 0) << Slurp(dir_ + "/serve.log");
  const std::vector<std::string> replies =
      RunClient(port, "", "observe u1 3\n");
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].rfind("ok level=", 0), 0u) << replies[0];

  std::fputs("shutdown\n", server_);
  const int status = pclose(server_);
  server_ = nullptr;
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  const std::string log = Slurp(dir_ + "/serve.log");
  EXPECT_NE(log.find("error: IoError: ingest sync failed: "),
            std::string::npos)
      << log;
}

TEST_F(NetCliTest, QuantizedListenServesAndSwaps) {
  Run("generate synthetic " + dir_ + "/data --users 25 --seed 6");
  Run("train " + dir_ + "/data " + dir_ + "/model.csv --levels 3");
  Run("snapshot " + dir_ + "/data " + dir_ + "/model.csv " + dir_ +
      "/model.snap --levels 3");

  const int port = StartServer("--quantized");
  ASSERT_GT(port, 0) << Slurp(dir_ + "/serve.log");

  const std::vector<std::string> lines = RunClient(
      port, "--binary",
      "observe q_user 2 10\n"
      "swap " + dir_ + "/model.snap\n"
      "observe q_user 2 20\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("ok level=", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("ok swapped ", 0), 0u) << lines[1];
  // Same-S swap keeps the session: second observe is action 2.
  EXPECT_NE(lines[2].find("actions=2"), std::string::npos) << lines[2];
}

}  // namespace
}  // namespace upskill
