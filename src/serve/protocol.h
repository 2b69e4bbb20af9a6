#ifndef UPSKILL_SERVE_PROTOCOL_H_
#define UPSKILL_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace upskill {
namespace serve {

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

}  // namespace serve
}  // namespace upskill

#endif  // UPSKILL_SERVE_PROTOCOL_H_
