#include "net/http_admin.h"

#include <chrono>
#include <memory>
#include <utility>

#include "common/string_util.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace upskill {
namespace net {

namespace {

/// Admin requests are tiny GETs; a request head (through the blank line)
/// longer than this is a 400 and the connection closes.
constexpr size_t kMaxRequestHeadBytes = 8192;

const char* StatusLine(int status) {
  switch (status) {
    case 200: return "200 OK";
    case 400: return "400 Bad Request";
    case 404: return "404 Not Found";
    case 405: return "405 Method Not Allowed";
    case 503: return "503 Service Unavailable";
    default: return "500 Internal Server Error";
  }
}

}  // namespace

/// The HTTP protocol of one admin connection: one request, one response,
/// then close.
class HttpAdminServer::Connection final : public TcpProtocol {
 public:
  explicit Connection(const HttpAdminServer* admin) : admin_(admin) {}

  bool Consume(TcpStreams* streams) override {
    const std::string& in = streams->in;
    const size_t head_end = in.find("\r\n\r\n");
    const bool oversized = head_end == std::string::npos
                               ? in.size() > kMaxRequestHeadBytes
                               : head_end + 4 > kMaxRequestHeadBytes;
    // An unfinished head waits for more bytes (the loop closes at EOF).
    if (head_end == std::string::npos && !oversized) return false;
    HttpResponse response;
    bool head = false;
    if (oversized) {
      response.status = 400;
      response.body = StringPrintf("request head exceeds %zu bytes\n",
                                   kMaxRequestHeadBytes);
    } else {
      response = admin_->Respond(in.substr(0, in.find("\r\n")), &head);
    }
    streams->in.clear();  // Connection: close — one request per connection.
    // HEAD advertises the length the GET body would have, without the body.
    streams->out += StringPrintf(
        "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
        "Connection: close\r\n\r\n",
        StatusLine(response.status), response.content_type.c_str(),
        response.body.size());
    if (!head) streams->out += response.body;
    return true;
  }

 private:
  const HttpAdminServer* const admin_;
};

HttpAdminServer::HttpAdminServer(HttpAdminConfig config)
    : tcp_(TcpServerConfig{std::move(config.host), config.port},
           [this](int) -> std::unique_ptr<TcpProtocol> {
             return std::make_unique<Connection>(this);
           }) {}

HttpAdminServer::~HttpAdminServer() { Stop(); }

void HttpAdminServer::Handle(const std::string& path,
                             std::function<HttpResponse()> handler) {
  handlers_[path] = std::move(handler);
}

Status HttpAdminServer::Start() { return tcp_.Start(); }

void HttpAdminServer::Stop() { tcp_.Stop(); }

HttpResponse HttpAdminServer::Respond(const std::string& request_line,
                                      bool* head) const {
  HttpResponse response;
  const size_t method_end = request_line.find(' ');
  const size_t path_end = request_line.rfind(' ');
  if (method_end == std::string::npos || path_end == method_end) {
    response.status = 400;
    response.body = "bad request line\n";
    return response;
  }
  const std::string method = request_line.substr(0, method_end);
  *head = method == "HEAD";
  std::string path =
      request_line.substr(method_end + 1, path_end - method_end - 1);
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);
  if (method != "GET" && method != "HEAD") {
    response.status = 405;
    response.body = "only GET is served here\n";
    return response;
  }
  const auto it = handlers_.find(path);
  if (it != handlers_.end()) return it->second();
  response.status = 404;
  response.body = "unknown path " + path + "\n";
  for (const auto& entry : handlers_) {
    response.body += "  " + entry.first + "\n";
  }
  return response;
}

void InstallAdminEndpoints(HttpAdminServer* http, serve::Server* server,
                           std::function<Status()> health) {
  http->Handle("/metrics", [server] {
    server->SampleModelGauges();
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = obs::RenderPrometheus(obs::MetricsRegistry::Global());
    return response;
  });

  http->Handle("/healthz", [health = std::move(health)] {
    HttpResponse response;
    const Status status = health ? health() : Status::OK();
    if (status.ok()) {
      response.body = "ok\n";
    } else {
      response.status = 503;
      response.body = status.ToString() + "\n";
    }
    return response;
  });

  const auto start = std::chrono::steady_clock::now();
  http->Handle("/statusz", [server, start] {
    server->SampleModelGauges();
    const std::shared_ptr<const serve::ServingModel> model = server->model();
    const double uptime = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    HttpResponse response;
    std::string& body = response.body;
    body += "upskill serve status\n";
    body += StringPrintf("compiler: %s\n", __VERSION__);
    body += StringPrintf("uptime_seconds: %.1f\n", uptime);
    body += StringPrintf("snapshot_version: %d\n",
                         static_cast<int>(serve::kSnapshotVersion));
    body += StringPrintf("snapshot_age_seconds: %.1f\n",
                         server->SnapshotAgeSeconds());
    body += StringPrintf("levels: %d\nitems: %d\n", model->num_levels(),
                         model->num_items());
    body += StringPrintf(
        "backend: %s\n",
        server->backend() != nullptr ? server->backend()->name() : "none");
    body += StringPrintf("quantized: %s\n",
                         server->quantized() ? "true" : "false");
    body += StringPrintf("sessions: %zu\n", server->num_sessions());
    body += StringPrintf("requests: %llu\n",
                         static_cast<unsigned long long>(
                             server->requests_served()));
    const obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    body += StringPrintf("trace_dropped: %llu\n",
                         static_cast<unsigned long long>(recorder.dropped()));
    if (recorder.enabled()) {
      const obs::TraceStats stats = recorder.Stats();
      body += StringPrintf(
          "flight_recorder: capacity=%zu recorded=%llu ring=%zu "
          "errors_retained=%llu sheds_retained=%llu slowest=%zu "
          "sampled_out=%llu\n",
          stats.capacity, static_cast<unsigned long long>(stats.recorded),
          stats.ring_size,
          static_cast<unsigned long long>(stats.errors_retained),
          static_cast<unsigned long long>(stats.sheds_retained),
          stats.slowest_size,
          static_cast<unsigned long long>(stats.sampled_out));
    } else {
      body += "flight_recorder: disabled\n";
    }
    const std::string quantiles = server->LatencyQuantilesText();
    if (!quantiles.empty()) {
      body += "latency_quantiles_seconds:\n";
      body += quantiles;
    }
    return response;
  });

  http->Handle("/tracez", [] {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = obs::RenderChromeTrace(obs::TraceRecorder::Global());
    return response;
  });
}

}  // namespace net
}  // namespace upskill
