#include "serve/protocol.h"

#include <string_view>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace upskill {
namespace serve {

namespace {

obs::Counter& ParseErrorCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "upskill_serve_parse_errors_total");
  return counter;
}

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  for (const std::string& token : Split(line, ' ')) {
    const std::string_view stripped = StripWhitespace(token);
    if (!stripped.empty()) tokens.emplace_back(stripped);
  }
  return tokens;
}

Status WrongArity(const char* command, const char* usage) {
  return Status::InvalidArgument(
      StringPrintf("%s expects: %s", command, usage));
}

Result<ServeRequest> ParseServeRequestImpl(const std::string& line) {
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) return Status::InvalidArgument("empty request");
  ServeRequest request;
  const std::string& command = tokens[0];
  if (command == "observe") {
    if (tokens.size() < 3 || tokens.size() > 4) {
      return WrongArity("observe", "observe <user> <item> [<time>]");
    }
    request.kind = ServeRequest::Kind::kObserve;
    request.user = tokens[1];
    const Result<long long> item = ParseInt(tokens[2]);
    if (!item.ok()) return item.status();
    request.item = static_cast<ItemId>(item.value());
    if (tokens.size() == 4) {
      const Result<long long> time = ParseInt(tokens[3]);
      if (!time.ok()) return time.status();
      request.time = time.value();
      request.has_time = true;
    }
    return request;
  }
  if (command == "level") {
    if (tokens.size() != 2) return WrongArity("level", "level <user>");
    request.kind = ServeRequest::Kind::kLevel;
    request.user = tokens[1];
    return request;
  }
  if (command == "recommend") {
    if (tokens.size() < 2 || tokens.size() > 4) {
      return WrongArity("recommend", "recommend <user> [<top>] [<stretch>]");
    }
    request.kind = ServeRequest::Kind::kRecommend;
    request.user = tokens[1];
    if (tokens.size() >= 3) {
      const Result<long long> top = ParseInt(tokens[2]);
      if (!top.ok()) return top.status();
      request.top_k = static_cast<int>(top.value());
    }
    if (tokens.size() == 4) {
      const Result<double> stretch = ParseDouble(tokens[3]);
      if (!stretch.ok()) return stretch.status();
      request.stretch = stretch.value();
    }
    return request;
  }
  if (command == "difficulty") {
    if (tokens.size() != 2) {
      return WrongArity("difficulty", "difficulty <item>");
    }
    request.kind = ServeRequest::Kind::kDifficulty;
    const Result<long long> item = ParseInt(tokens[1]);
    if (!item.ok()) return item.status();
    request.item = static_cast<ItemId>(item.value());
    return request;
  }
  if (command == "swap") {
    if (tokens.size() != 2) return WrongArity("swap", "swap <snapshot_path>");
    request.kind = ServeRequest::Kind::kSwap;
    request.path = tokens[1];
    return request;
  }
  if (command == "stats") {
    if (tokens.size() != 1) return WrongArity("stats", "stats");
    request.kind = ServeRequest::Kind::kStats;
    return request;
  }
  if (command == "evict") {
    if (tokens.size() != 2) return WrongArity("evict", "evict <min_time>");
    request.kind = ServeRequest::Kind::kEvict;
    const Result<long long> min_time = ParseInt(tokens[1]);
    if (!min_time.ok()) return min_time.status();
    request.time = min_time.value();
    request.has_time = true;
    return request;
  }
  if (command == "reset") {
    if (tokens.size() != 1) return WrongArity("reset", "reset");
    request.kind = ServeRequest::Kind::kReset;
    return request;
  }
  if (command == "quit") {
    if (tokens.size() != 1) return WrongArity("quit", "quit");
    request.kind = ServeRequest::Kind::kQuit;
    return request;
  }
  // Stable `unknown_command` marker token (see header): clients and the
  // protocol-robustness tests match on it rather than on prose.
  return Status::InvalidArgument("unknown_command " + command);
}

}  // namespace

const char* ServeRequestKindName(ServeRequest::Kind kind) {
  switch (kind) {
    case ServeRequest::Kind::kObserve: return "observe";
    case ServeRequest::Kind::kLevel: return "level";
    case ServeRequest::Kind::kRecommend: return "recommend";
    case ServeRequest::Kind::kDifficulty: return "difficulty";
    case ServeRequest::Kind::kSwap: return "swap";
    case ServeRequest::Kind::kStats: return "stats";
    case ServeRequest::Kind::kEvict: return "evict";
    case ServeRequest::Kind::kReset: return "reset";
    case ServeRequest::Kind::kQuit: return "quit";
  }
  return "unknown";
}

const char* ServeRequestKindSpanName(ServeRequest::Kind kind) {
  switch (kind) {
    case ServeRequest::Kind::kObserve: return "serve/observe";
    case ServeRequest::Kind::kLevel: return "serve/level";
    case ServeRequest::Kind::kRecommend: return "serve/recommend";
    case ServeRequest::Kind::kDifficulty: return "serve/difficulty";
    case ServeRequest::Kind::kSwap: return "serve/swap";
    case ServeRequest::Kind::kStats: return "serve/stats";
    case ServeRequest::Kind::kEvict: return "serve/evict";
    case ServeRequest::Kind::kReset: return "serve/reset";
    case ServeRequest::Kind::kQuit: return "serve/quit";
  }
  return "serve/unknown";
}

std::string FormatErrorResponse(const Status& status) {
  return StringPrintf("ERR %s %s", StatusCodeToString(status.code()),
                      status.message().c_str());
}

Result<ServeRequest> ParseServeRequest(const std::string& line) {
  Result<ServeRequest> result = ParseServeRequestImpl(line);
  if (!result.ok()) ParseErrorCounter().Increment();
  return result;
}

std::string RenderServeResponse(const ServeResponse& response,
                                ServeRequest::Kind kind) {
  if (!response.ok()) {
    return FormatErrorResponse(Status(response.status_code, response.message));
  }
  switch (kind) {
    case ServeRequest::Kind::kObserve:
    case ServeRequest::Kind::kLevel:
      return StringPrintf("ok level=%d actions=%llu", response.level,
                          static_cast<unsigned long long>(response.actions));
    case ServeRequest::Kind::kRecommend: {
      std::string text = StringPrintf("ok n=%zu", response.picks.size());
      for (const UpskillRecommendation& pick : response.picks) {
        text += StringPrintf(" %d:%.6g:%.6g", pick.item, pick.difficulty,
                             pick.log_prob);
      }
      return text;
    }
    case ServeRequest::Kind::kDifficulty:
      return StringPrintf("ok difficulty=%.17g", response.difficulty);
    case ServeRequest::Kind::kSwap:
      return StringPrintf("ok swapped levels=%d items=%d", response.levels,
                          response.items);
    case ServeRequest::Kind::kStats:
      return response.text;
    case ServeRequest::Kind::kEvict:
      return StringPrintf("ok evicted=%llu sessions=%llu",
                          static_cast<unsigned long long>(response.evicted),
                          static_cast<unsigned long long>(response.sessions));
    case ServeRequest::Kind::kReset:
      return "ok reset";
    case ServeRequest::Kind::kQuit:
      return "ok bye";
  }
  return FormatErrorResponse(Status::Internal("unhandled request kind"));
}

std::optional<Result<size_t>> ParseBatchDirective(std::string_view line) {
  const std::string_view stripped = StripWhitespace(line);
  constexpr std::string_view kBatch = "batch ";
  if (!stripped.starts_with(kBatch) ||
      stripped.find(' ', kBatch.size()) != std::string_view::npos) {
    return std::nullopt;
  }
  const Result<long long> count = ParseInt(stripped.substr(kBatch.size()));
  if (!count.ok() || count.value() < 0) {
    return Status::InvalidArgument("batch expects: batch <N>");
  }
  if (count.value() > kMaxBatchRequests) {
    return Status::InvalidArgument(StringPrintf(
        "batch count exceeds limit %lld", kMaxBatchRequests));
  }
  return static_cast<size_t>(count.value());
}

size_t LineProtocol::Feed(const std::string& line, std::string* out,
                          const Responder& respond) {
  if (batch_slots_ > 0) {
    Result<ServeRequest> request = ParseServeRequest(line);
    if (request.ok()) {
      batch_requests_.push_back(std::move(request).value());
      batch_errors_.emplace_back();
    } else {
      batch_errors_.push_back(FormatErrorResponse(request.status()));
    }
    return batch_errors_.size() < batch_slots_ ? 0 : RunBatch(out);
  }
  if (StripWhitespace(line).empty()) return 0;
  if (const std::optional<Result<size_t>> batch = ParseBatchDirective(line)) {
    if (batch->ok()) {
      // `batch 0` opens nothing and answers nothing.
      batch_slots_ = batch->value();
    } else {
      *out += FormatErrorResponse(batch->status());
      *out += '\n';
    }
    return 0;
  }
  const Result<ServeRequest> request = ParseServeRequest(line);
  if (!request.ok()) {
    *out += FormatErrorResponse(request.status());
    *out += '\n';
    return 0;
  }
  const ServeRequest::Kind kind = request.value().kind;
  *out += RenderServeResponse(respond != nullptr
                                  ? respond(request.value())
                                  : server_->Handle(request.value()),
                              kind);
  *out += '\n';
  quit_ = kind == ServeRequest::Kind::kQuit;
  return 1;
}

size_t LineProtocol::Close(std::string* out) {
  return batch_slots_ > 0 ? RunBatch(out) : 0;
}

size_t LineProtocol::RunBatch(std::string* out) {
  const std::vector<std::string> responses =
      server_->ExecuteBatch(batch_requests_);
  size_t next = 0;
  for (size_t slot = 0; slot < batch_slots_; ++slot) {
    if (slot < batch_errors_.size()) {
      *out += batch_errors_[slot].empty() ? responses[next++]
                                          : batch_errors_[slot];
    }
    *out += '\n';
  }
  const size_t ran = batch_requests_.size();
  batch_slots_ = 0;
  batch_requests_.clear();
  batch_errors_.clear();
  return ran;
}

}  // namespace serve
}  // namespace upskill
