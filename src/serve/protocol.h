#ifndef UPSKILL_SERVE_PROTOCOL_H_
#define UPSKILL_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/recommend.h"
#include "data/dataset.h"

namespace upskill {
namespace serve {

class Server;

/// One parsed request of the serving protocol, shared by the stdio
/// front end (newline-delimited text, grammar in README.md "Serving")
/// and the TCP front end (the same text grammar, or the length-prefixed
/// binary framing in net/frame.h):
///
///   observe <user> <item> [<time>]
///   level <user>
///   recommend <user> [<top>] [<stretch>]
///   difficulty <item>
///   swap <snapshot_path>
///   stats
///   evict <min_time>
///   reset
///   quit
struct ServeRequest {
  enum class Kind {
    kObserve,
    kLevel,
    kRecommend,
    kDifficulty,
    kSwap,
    kStats,
    kEvict,
    kReset,
    kQuit,
  };
  Kind kind = Kind::kStats;
  std::string user;
  ItemId item = -1;
  /// Action timestamp; when absent the session's last time is reused
  /// (zero gap, so forgetting never triggers).
  int64_t time = 0;
  bool has_time = false;
  int top_k = 10;
  double stretch = 1.0;
  std::string path;
};

/// Number of ServeRequest::Kind values (for per-kind instrument arrays).
inline constexpr int kNumServeRequestKinds = 9;

/// Protocol keyword for `kind` ("observe", "level", ...). Used both for
/// documentation strings and as the `kind` label on per-request metrics.
const char* ServeRequestKindName(ServeRequest::Kind kind);

/// Trace event name for `kind` ("serve/observe", ...): the name request
/// events carry in the span store, the Chrome trace and /tracez.
const char* ServeRequestKindSpanName(ServeRequest::Kind kind);

/// Parses one protocol line (leading/trailing whitespace ignored).
/// Parse failures are counted in `upskill_serve_parse_errors_total`.
/// An unrecognized command keyword fails with code InvalidArgument and a
/// message whose first token is the stable machine-parseable marker
/// `unknown_command` (so clients can distinguish "typo in the verb" from
/// "bad arguments to a known verb" without string-matching free text).
Result<ServeRequest> ParseServeRequest(const std::string& line);

/// Renders the machine-parseable error line of the serving protocol:
/// `ERR <code> <message>` with `<code>` a StatusCodeToString name, e.g.
/// `ERR NotFound no observed actions for user alice`. Everything after
/// the second space is free-form message text, except the stable first
/// tokens documented per error class (`unknown_command`, `shed`).
std::string FormatErrorResponse(const Status& status);

/// The typed outcome of one request, produced once by Server::Handle and
/// turned into bytes per wire format: RenderServeResponse for text
/// clients, net::EncodeResponse for binary ones. A non-OK `status_code`
/// carries only `message`; otherwise the payload fields of the request
/// kind it answers are set:
///   observe/level   level, actions
///   recommend       picks
///   difficulty      difficulty
///   swap            levels, items
///   evict           evicted, sessions
///   stats           text
///   reset/quit      (none)
struct ServeResponse {
  StatusCode status_code = StatusCode::kOk;
  std::string message;
  int level = 0;
  uint64_t actions = 0;
  std::vector<UpskillRecommendation> picks;
  double difficulty = 0.0;
  int levels = 0;
  int items = 0;
  uint64_t evicted = 0;
  uint64_t sessions = 0;
  std::string text;

  bool ok() const { return status_code == StatusCode::kOk; }
};

/// Renders `response` (to a request of `kind`) as its text-protocol reply,
/// without the trailing newline: "ok ..." or FormatErrorResponse's ERR
/// line. Every reply is one line except `stats`, whose summary line is
/// followed by the Prometheus exposition ("# EOF"-terminated).
std::string RenderServeResponse(const ServeResponse& response,
                                ServeRequest::Kind kind);

/// Upper bound on N in `batch <N>`. The directive buffers up to N lines,
/// so a larger N is answered `ERR InvalidArgument batch count exceeds
/// limit 65536` and no batch is opened.
inline constexpr long long kMaxBatchRequests = 65536;

/// Reads `line` as the `batch <N>` directive: exactly two space-separated
/// tokens, the first "batch" (surrounding whitespace ignored). Returns
/// nullopt for any other line; otherwise N, or the InvalidArgument error
/// its ERR line reports when N is not a count or exceeds
/// kMaxBatchRequests.
std::optional<Result<size_t>> ParseBatchDirective(std::string_view line);

/// The newline text protocol over one input stream, shared by the stdio
/// `serve` loop and every TCP text connection, so both answer the same
/// bytes. Blank lines are skipped; every other line gets one response line
/// in order (an unparseable line its ERR line). `batch <N>` collects the
/// next N lines, blank ones included, and runs them as one
/// Server::ExecuteBatch, answering one line per slot in order with parse
/// errors in place.
class LineProtocol {
 public:
  /// Answers one request outside a batch. TCP puts its shed check here;
  /// by default the request runs through Server::Handle.
  using Responder = std::function<ServeResponse(const ServeRequest&)>;

  /// `server` must outlive this object.
  explicit LineProtocol(Server* server) : server_(server) {}

  /// Handles one input line (without its newline), appending each
  /// response, newline-terminated, to `out`. Returns the number of
  /// requests it ran: parse errors and directives run none, and a batch
  /// runs all its requests on its last line.
  size_t Feed(const std::string& line, std::string* out,
              const Responder& respond = nullptr);

  /// End of input: runs a batch the input cut short and still answers
  /// every slot it declared, the missing ones as empty lines. Returns the
  /// number of requests it ran.
  size_t Close(std::string* out);

  /// True once `quit` has been answered outside a batch; feed no more.
  bool quit() const { return quit_; }

 private:
  size_t RunBatch(std::string* out);

  Server* const server_;
  /// Slots declared by the open `batch <N>`; 0 when no batch is open.
  size_t batch_slots_ = 0;
  std::vector<ServeRequest> batch_requests_;
  /// One entry per slot received so far: the ERR line of an unparseable
  /// one, empty for a request (the next one in batch_requests_).
  std::vector<std::string> batch_errors_;
  bool quit_ = false;
};

}  // namespace serve
}  // namespace upskill

#endif  // UPSKILL_SERVE_PROTOCOL_H_
