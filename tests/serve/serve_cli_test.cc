// End-to-end integration test of the serving pipeline through the real
// binary: generate -> train -> snapshot -> `upskill_cli serve` over a
// scripted stdin session, including a mid-session snapshot swap (same-S
// swap keeps the session; an S-changing swap resets it), plus the
// `--backend` flag of train, the online refresh and snapshot, and the
// telemetry sinks of `train` and `train --online`. The binary path is
// injected by CMake as UPSKILL_CLI_PATH.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace upskill {
namespace {

// True when `text` is one well-formed JSON value (RFC 8259 grammar, no
// limits checked) with only whitespace around it.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool At(char c) const { return pos_ < text_.size() && text_[pos_] == c; }
  bool AtDigit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }
  void SkipSpace() {
    while (At(' ') || At('\t') || At('\r') || At('\n')) ++pos_;
  }
  bool Value() {
    if (At('{')) return Container('}', /*object=*/true);
    if (At('[')) return Container(']', /*object=*/false);
    if (At('"')) return String();
    for (const std::string_view word : {"true", "false", "null"}) {
      if (text_.substr(pos_, word.size()) == word) {
        pos_ += word.size();
        return true;
      }
    }
    return Number();
  }
  bool Container(char close, bool object) {
    ++pos_;
    SkipSpace();
    if (At(close)) return ++pos_, true;
    while (true) {
      if (object) {
        if (!String()) return false;
        SkipSpace();
        if (!At(':')) return false;
        ++pos_;
        SkipSpace();
      }
      if (!Value()) return false;
      SkipSpace();
      if (At(close)) return ++pos_, true;
      if (!At(',')) return false;
      ++pos_;
      SkipSpace();
    }
  }
  bool String() {
    if (!At('"')) return false;
    for (++pos_; pos_ < text_.size(); ++pos_) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') return ++pos_, true;
      if (c < 0x20) return false;
      if (c == '\\') ++pos_;  // skip the escaped character
    }
    return false;
  }
  bool Digits() {
    const size_t start = pos_;
    while (AtDigit()) ++pos_;
    return pos_ > start;
  }
  bool Number() {
    if (At('-')) ++pos_;
    if (!Digits()) return false;
    if (At('.')) {
      ++pos_;
      if (!Digits()) return false;
    }
    if (At('e') || At('E')) {
      ++pos_;
      if (At('+') || At('-')) ++pos_;
      if (!Digits()) return false;
    }
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

class ServeCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("upskill_serve_cli_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Runs the CLI with `argv_tail`, stdout+stderr to a log file; fails the
  // test (with the log) on a non-zero exit.
  void Run(const std::string& argv_tail) {
    const std::string log = dir_ + "/cmd.log";
    const std::string command = std::string(UPSKILL_CLI_PATH) + " " +
                                argv_tail + " > " + log + " 2>&1";
    const int status = std::system(command.c_str());
    ASSERT_EQ(status, 0) << command << "\n" << Slurp(log);
  }

  // Runs the CLI with `argv_tail` and expects exit status 1 with an
  // error that names both known backends.
  void ExpectUnknownBackend(const std::string& argv_tail) {
    const std::string log = dir_ + "/unknown_backend.log";
    const std::string command = std::string(UPSKILL_CLI_PATH) + " " +
                                argv_tail + " > " + log + " 2>&1";
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), 1) << command;
    const std::string message = Slurp(log);
    EXPECT_NE(message.find("serial"), std::string::npos) << message;
    EXPECT_NE(message.find("pool"), std::string::npos) << message;
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

  std::string dir_;
};

TEST_F(ServeCliTest, TrainSnapshotServeRoundTripWithMidSessionSwap) {
  Run("generate synthetic " + dir_ + "/data --users 40 --seed 11");
  Run("train " + dir_ + "/data " + dir_ + "/model.csv --levels 4");
  Run("snapshot " + dir_ + "/data " + dir_ + "/model.csv " + dir_ +
      "/model.snap --levels 4 --transitions");
  Run("train " + dir_ + "/data " + dir_ + "/model3.csv --levels 3");
  Run("snapshot " + dir_ + "/data " + dir_ + "/model3.csv " + dir_ +
      "/model3.snap --levels 3");

  {
    std::ofstream script(dir_ + "/input.txt");
    script << "observe alice 3 100\n"
           << "observe alice 5 200\n"
           << "level alice\n"
           << "recommend alice 5\n"
           << "difficulty 3\n"
           << "swap " << dir_ << "/model.snap\n"   // same S: session lives
           << "level alice\n"
           << "swap " << dir_ << "/model3.snap\n"  // S change: sessions reset
           << "level alice\n"                       // -> error
           << "observe alice 3 300\n"               // fresh session, S = 3
           << "batch 2\n"
           << "observe bob 1 10\n"
           << "observe carol 2 20\n"
           << "no-such-command\n"
           << "quit\n";
  }
  const std::string out = dir_ + "/output.txt";
  const std::string command = std::string(UPSKILL_CLI_PATH) + " serve " +
                              dir_ + "/model.snap < " + dir_ +
                              "/input.txt > " + out + " 2> /dev/null";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  const std::vector<std::string> lines = Lines(Slurp(out));
  ASSERT_EQ(lines.size(), 14u) << Slurp(out);
  EXPECT_EQ(lines[0].substr(0, 9), "ok level=");           // observe alice
  EXPECT_EQ(lines[1].substr(0, 9), "ok level=");           // observe alice
  EXPECT_EQ(lines[2].substr(0, 9), "ok level=");           // level alice
  EXPECT_NE(lines[2].find("actions=2"), std::string::npos) << lines[2];
  EXPECT_EQ(lines[3].substr(0, 5), "ok n=");               // recommend
  EXPECT_EQ(lines[4].substr(0, 14), "ok difficulty=");     // difficulty
  EXPECT_EQ(lines[5].substr(0, 20), "ok swapped levels=4 ");
  EXPECT_NE(lines[6].find("actions=2"), std::string::npos)
      << "same-S swap must keep the session: " << lines[6];
  EXPECT_EQ(lines[7].substr(0, 20), "ok swapped levels=3 ");
  EXPECT_EQ(lines[8].substr(0, 13), "ERR NotFound ")
      << "S-changing swap must reset sessions: " << lines[8];
  EXPECT_NE(lines[9].find("actions=1"), std::string::npos) << lines[9];
  EXPECT_EQ(lines[10].substr(0, 9), "ok level=");          // batch: bob
  EXPECT_EQ(lines[11].substr(0, 9), "ok level=");          // batch: carol
  EXPECT_EQ(lines[12].substr(0, 20), "ERR InvalidArgument ")
      << "unknown command must use the machine-parseable ERR line: "
      << lines[12];
  EXPECT_EQ(lines[13], "ok bye");
}

TEST_F(ServeCliTest, StatsEmitsPrometheusExposition) {
  Run("generate synthetic " + dir_ + "/data --users 30 --seed 13");
  Run("train " + dir_ + "/data " + dir_ + "/model.csv --levels 3");
  Run("snapshot " + dir_ + "/data " + dir_ + "/model.csv " + dir_ +
      "/model.snap --levels 3");

  {
    std::ofstream script(dir_ + "/input.txt");
    script << "observe alice 1 100\n"
           << "observe bob 2 200\n"
           << "level ghost\n"   // NotFound -> error counter for kind=level
           << "evict 150\n"     // evicts alice (last_time 100 < 150)
           << "stats\n"
           << "quit\n";
  }
  const std::string out = dir_ + "/output.txt";
  const std::string command = std::string(UPSKILL_CLI_PATH) + " serve " +
                              dir_ + "/model.snap < " + dir_ +
                              "/input.txt > " + out + " 2> /dev/null";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  const std::string text = Slurp(out);
  const std::vector<std::string> lines = Lines(text);
  ASSERT_GE(lines.size(), 6u) << text;
  EXPECT_EQ(lines[2].substr(0, 13), "ERR NotFound ") << lines[2];
  EXPECT_EQ(lines[3], "ok evicted=1 sessions=1");
  // The stats response: summary header line, then the full Prometheus
  // exposition terminated by "# EOF", then quit's "ok bye".
  EXPECT_NE(text.find("ok sessions=1 shards="), std::string::npos) << text;
  EXPECT_NE(
      text.find("# TYPE upskill_serve_request_latency_seconds histogram"),
      std::string::npos);
  EXPECT_NE(text.find("upskill_serve_request_latency_seconds_bucket{"
                      "kind=\"observe\",le=\""),
            std::string::npos);
  EXPECT_NE(text.find("upskill_serve_request_latency_seconds_count{"
                      "kind=\"observe\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("upskill_serve_live_sessions 1"), std::string::npos);
  EXPECT_NE(text.find("upskill_serve_sessions_evicted_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("upskill_serve_snapshot_swaps_total 0"),
            std::string::npos);
  EXPECT_NE(text.find("upskill_serve_request_errors_total{kind=\"level\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("\n# EOF\n"), std::string::npos);
  EXPECT_EQ(lines.back(), "ok bye");
}

// `batch <N>` above the cap is one ERR line and opens no batch, so the
// next line is served on its own: no input line sizes an allocation.
TEST_F(ServeCliTest, BatchCountAboveTheCapIsAnErrorLine) {
  Run("generate synthetic " + dir_ + "/data --users 30 --seed 13");
  Run("train " + dir_ + "/data " + dir_ + "/model.csv --levels 3");
  Run("snapshot " + dir_ + "/data " + dir_ + "/model.csv " + dir_ +
      "/model.snap --levels 3");
  {
    std::ofstream script(dir_ + "/input.txt");
    script << "observe a 1 1\nbatch 65537\nobserve a 2 2\n";
  }
  const std::string out = dir_ + "/output.txt";
  const std::string command = std::string(UPSKILL_CLI_PATH) + " serve " +
                              dir_ + "/model.snap < " + dir_ +
                              "/input.txt > " + out + " 2> /dev/null";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  const std::vector<std::string> lines = Lines(Slurp(out));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].substr(0, 9), "ok level=") << lines[0];
  EXPECT_NE(lines[0].find(" actions=1"), std::string::npos) << lines[0];
  EXPECT_EQ(lines[1], "ERR InvalidArgument batch count exceeds limit 65536");
  EXPECT_EQ(lines[2].substr(0, 9), "ok level=") << lines[2];
  EXPECT_NE(lines[2].find(" actions=2"), std::string::npos) << lines[2];
}

// An ingest log that fails for good (/dev/full refuses the write and the
// truncate) refuses every observe from the failing flush on. The observes
// still answer, and each refusal counts in upskill_ingest_refused_total,
// once per "ingest append failed" line on stderr.
TEST_F(ServeCliTest, RefusedObservesAreCounted) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  Run("generate synthetic " + dir_ + "/data --users 30 --seed 13");
  Run("train " + dir_ + "/data " + dir_ + "/model.csv --levels 3");
  Run("snapshot " + dir_ + "/data " + dir_ + "/model.csv " + dir_ +
      "/model.snap --levels 3");

  constexpr int kObserves = 100;  // more than one 64-record batch
  {
    std::ofstream script(dir_ + "/input.txt");
    for (int t = 1; t <= kObserves; ++t) {
      script << "observe alice 1 " << t << "\n";
    }
    script << "stats\nquit\n";
  }
  const std::string out = dir_ + "/output.txt";
  const std::string err = dir_ + "/stderr.txt";
  const std::string command = std::string(UPSKILL_CLI_PATH) + " serve " +
                              dir_ + "/model.snap --ingest-log /dev/full < " +
                              dir_ + "/input.txt > " + out + " 2> " + err;
  // The exit status is not checked: the final sync fails too.
  ASSERT_NE(std::system(command.c_str()), -1) << command;

  const std::string text = Slurp(out);
  const std::vector<std::string> lines = Lines(text);
  ASSERT_GT(lines.size(), static_cast<size_t>(kObserves)) << text;
  for (int i = 0; i < kObserves; ++i) {
    EXPECT_EQ(lines[static_cast<size_t>(i)].substr(0, 9), "ok level=");
  }
  int refusals = 0;
  for (const std::string& line : Lines(Slurp(err))) {
    if (line.rfind("ingest append failed: ", 0) == 0) ++refusals;
  }
  EXPECT_GT(refusals, 0);
  EXPECT_NE(text.find("\nupskill_ingest_refused_total " +
                      std::to_string(refusals) + "\n"),
            std::string::npos)
      << refusals << " refusals\n" << text;
}

// A final ingest-log Sync that fails is exit status 1 with the error, not
// only a line on stderr: a supervisor must be able to tell that an
// acknowledged observe never reached the log.
TEST_F(ServeCliTest, FailedFinalIngestSyncExitsOne) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  Run("generate synthetic " + dir_ + "/data --users 30 --seed 13");
  Run("train " + dir_ + "/data " + dir_ + "/model.csv --levels 3");
  Run("snapshot " + dir_ + "/data " + dir_ + "/model.csv " + dir_ +
      "/model.snap --levels 3");
  std::ofstream(dir_ + "/input.txt") << "observe u1 3\n";
  const std::string out = dir_ + "/output.txt";
  const std::string err = dir_ + "/stderr.txt";
  const std::string command = std::string(UPSKILL_CLI_PATH) + " serve " +
                              dir_ + "/model.snap --ingest-log /dev/full < " +
                              dir_ + "/input.txt > " + out + " 2> " + err;
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << command;
  EXPECT_EQ(WEXITSTATUS(status), 1) << Slurp(err);
  const std::string text = Slurp(out);
  EXPECT_EQ(text.rfind("ok level=", 0), 0u) << text;
  EXPECT_NE(text.find(" actions=1\n"), std::string::npos) << text;
  const std::string message = Slurp(err);
  EXPECT_NE(message.find("error: IoError: ingest sync failed: "),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("No space left on device"), std::string::npos)
      << message;
}

TEST_F(ServeCliTest, TrainWritesTraceAndMetricsDumps) {
  Run("generate synthetic " + dir_ + "/data --users 30 --seed 17");
  Run("train " + dir_ + "/data " + dir_ + "/model.csv --levels 3 " +
      "--trace-out " + dir_ + "/trace.json --metrics-out " + dir_ +
      "/metrics.prom");

  const std::string trace = Slurp(dir_ + "/trace.json");
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.find("{\"traceEvents\":["), 0u);
  // One span per trainer phase per iteration.
  EXPECT_NE(trace.find("\"name\":\"train/init\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"train/cache\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"train/assignment\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);

  const std::string metrics = Slurp(dir_ + "/metrics.prom");
  ASSERT_FALSE(metrics.empty());
  EXPECT_NE(metrics.find("# TYPE upskill_train_phase_seconds histogram"),
            std::string::npos);
  EXPECT_NE(metrics.find("upskill_train_phase_seconds_count{"
                         "phase=\"assignment\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("upskill_train_iterations_total"),
            std::string::npos);
  EXPECT_NE(metrics.rfind("# EOF\n"), std::string::npos);
}

// `train --online` writes the sinks plain `train` writes: a refresh's
// counter lands in the exposition and its span in a trace that parses.
TEST_F(ServeCliTest, OnlineRefreshWritesTraceAndMetricsDumps) {
  Run("generate synthetic " + dir_ + "/data --users 30 --seed 19");
  Run("train " + dir_ + "/data " + dir_ +
      "/seed.csv --levels 3 --online --checkpoint " + dir_ + "/ck.bin");
  Run("train " + dir_ + "/data " + dir_ +
      "/refreshed.csv --levels 3 --online --checkpoint " + dir_ +
      "/ck.bin --previous " + dir_ + "/data --metrics-out " + dir_ +
      "/r.prom --trace-out " + dir_ + "/t.json");

  const std::string metrics = Slurp(dir_ + "/r.prom");
  EXPECT_NE(metrics.find("upskill_online_refreshes_total"), std::string::npos)
      << metrics;
  const std::string trace = Slurp(dir_ + "/t.json");
  EXPECT_TRUE(JsonChecker(trace).Valid()) << trace;
  EXPECT_FALSE(JsonChecker(trace.substr(0, trace.size() - 2)).Valid());
  EXPECT_NE(trace.find("\"name\":\"online/refresh\""), std::string::npos)
      << trace;
}

// --backend only moves scheduling: at 4 threads, serial, pool and the
// default all write the same model bytes; any other name is an error.
TEST_F(ServeCliTest, TrainWritesIdenticalModelsUnderEveryBackend) {
  Run("generate synthetic " + dir_ + "/data --users 60 --seed 7");
  const std::string flags[] = {"", "--backend serial", "--backend pool"};
  for (size_t i = 0; i < std::size(flags); ++i) {
    Run("train " + dir_ + "/data " + dir_ + "/model" + std::to_string(i) +
        ".csv --levels 4 --threads 4 " + flags[i]);
  }
  const std::string reference = Slurp(dir_ + "/model0.csv");
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(Slurp(dir_ + "/model1.csv"), reference);
  EXPECT_EQ(Slurp(dir_ + "/model2.csv"), reference);
  ExpectUnknownBackend("train " + dir_ + "/data " + dir_ +
                       "/numa.csv --levels 4 --threads 4 --backend numa");
}

// The online refresh and snapshot build their backend from --backend and
// --threads: a serial refresh at 4 threads writes the same checkpoint as
// a 1-thread one, and an unknown backend fails both commands.
TEST_F(ServeCliTest, OnlineRefreshAndSnapshotHonourBackend) {
  Run("generate synthetic " + dir_ + "/data --users 60 --seed 7");
  Run("dataset pack " + dir_ + "/data " + dir_ + "/base.store");
  Run("train " + dir_ + "/data " + dir_ + "/model.csv --levels 4");
  Run("snapshot " + dir_ + "/data " + dir_ + "/model.csv " + dir_ +
      "/base.snap --levels 4 --threads 4 --backend serial");
  {
    std::ofstream script(dir_ + "/observe.txt");
    script << "observe u1 3 1\nobserve u1 7 2\nobserve u2 5 1\nquit\n";
  }
  Run("serve " + dir_ + "/base.snap --ingest-log " + dir_ +
      "/delta.ingest < " + dir_ + "/observe.txt");
  Run("dataset compact " + dir_ + "/base.store " + dir_ + "/delta.ingest " +
      dir_ + "/merged.store");
  Run("train " + dir_ + "/base.store " + dir_ +
      "/seed.csv --levels 4 --from-store --online --checkpoint " + dir_ +
      "/ck.bin");
  const std::string refresh = "train " + dir_ + "/merged.store " + dir_ +
                              "/refreshed.csv --levels 4 --from-store " +
                              "--online --previous " + dir_ + "/base.store ";
  for (const char* name : {"one", "serial"}) {
    std::filesystem::copy_file(dir_ + "/ck.bin",
                               dir_ + "/ck_" + name + ".bin");
  }
  Run(refresh + "--checkpoint " + dir_ + "/ck_one.bin --threads 1");
  Run(refresh + "--checkpoint " + dir_ +
      "/ck_serial.bin --threads 4 --backend serial");
  const std::string one = Slurp(dir_ + "/ck_one.bin");
  ASSERT_FALSE(one.empty());
  EXPECT_NE(one, Slurp(dir_ + "/ck.bin"));  // the refresh moved the state
  EXPECT_EQ(Slurp(dir_ + "/ck_serial.bin"), one);

  ExpectUnknownBackend(refresh + "--checkpoint " + dir_ +
                       "/ck.bin --threads 4 --backend numa");
  ExpectUnknownBackend("snapshot " + dir_ + "/data " + dir_ + "/model.csv " +
                       dir_ + "/numa.snap --levels 4 --backend numa");
}

// A checkpoint path that is a directory cannot be read: the refresh
// exits 1 with the path in its error instead of aborting.
TEST_F(ServeCliTest, OnlineRefreshRejectsADirectoryCheckpoint) {
  Run("generate synthetic " + dir_ + "/data --users 30 --seed 7");
  const std::string checkpoint = dir_ + "/ck.dir";
  std::filesystem::create_directory(checkpoint);
  const std::string log = dir_ + "/ck_dir.log";
  const std::string command =
      std::string(UPSKILL_CLI_PATH) + " train " + dir_ + "/data " + dir_ +
      "/m.csv --levels 4 --online --checkpoint " + checkpoint +
      " --previous " + dir_ + "/data > " + log + " 2>&1";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << command;
  EXPECT_EQ(WEXITSTATUS(status), 1) << command << "\n" << Slurp(log);
  EXPECT_NE(Slurp(log).find(checkpoint), std::string::npos) << Slurp(log);
}

TEST_F(ServeCliTest, ServeRejectsMissingSnapshot) {
  const std::string command = std::string(UPSKILL_CLI_PATH) + " serve " +
                              dir_ + "/nope.snap < /dev/null > /dev/null 2>&1";
  EXPECT_NE(std::system(command.c_str()), 0);
}

TEST_F(ServeCliTest, ValueFlagsWithoutValuesAreUsageErrors) {
  // A missing value, a malformed integer or number and an integer below
  // the flag's minimum are each an error naming the flag, before any work
  // starts.
  // A recorder size of 0 stays valid: it means "off".
  const std::pair<std::string, std::string> cases[] = {
      {"train somewhere model.csv --levels --em",
       "--levels requires a value"},
      {"train somewhere model.csv --levels 4x",
       "--levels requires an integer, got '4x'"},
      {"train somewhere model.csv --threads 0",
       "--threads must be at least 1"},
      {"recommend somewhere model.csv --user 3 --stretch abc",
       "--stretch requires a number, got 'abc'"},
      {"serve somewhere.snap --shards 0", "--shards must be at least 1"},
      {"serve somewhere.snap --shards -3", "--shards must be at least 1"},
      {"serve somewhere.snap --flight-recorder-sample -1",
       "--flight-recorder-sample must be at least 1"},
      {"serve somewhere.snap --flight-recorder-sample 0",
       "--flight-recorder-sample must be at least 1"},
      {"serve somewhere.snap --flight-recorder-size -5",
       "--flight-recorder-size must be at least 0"},
      {"serve somewhere.snap --flight-recorder-size 0",
       "somewhere.snap"},  // accepted: fails opening the snapshot
  };
  const std::string log = dir_ + "/flag.log";
  for (const auto& [flags, message] : cases) {
    const std::string command = std::string(UPSKILL_CLI_PATH) + " " + flags +
                                " > " + log + " 2>&1";
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << flags;
    EXPECT_EQ(WEXITSTATUS(status), 1) << flags;
    EXPECT_NE(Slurp(log).find(message), std::string::npos) << Slurp(log);
  }
}

}  // namespace
}  // namespace upskill
