#ifndef ROTIND_SERVE_PROTOCOL_H_
#define ROTIND_SERVE_PROTOCOL_H_

#include <chrono>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/status.h"
#include "src/search/engine.h"

namespace rotind::serve {

/// The server's wire protocol: one request per line, one response per
/// line. Text on purpose — it is debuggable with a terminal, testable
/// with a heredoc, and its parser is a first-class fuzz target (any byte
/// string must map to a Request or a Status, never a crash).
///
/// Request grammar (fields separated by single spaces):
///
///   nn <query_id> [deadline_ms=<float>]
///   knn <query_id> <k> [deadline_ms=<float>]
///   range <query_id> <radius> [deadline_ms=<float>]
///
/// `query_id` names a database object (the query series is fetched from
/// the engine's own backend, so a request is a few bytes, not a series).
///
/// Response grammar:
///
///   OK op=<op> id=<id> [k=<k> effective_k=<k> degraded=<0|1>]
///     n=<count> latency_us=<int> results=<idx>:<dist>:<shift>:<m>,...
///   ERR <STATUS_CODE> op=<op> id=<id> msg=<text>
///
/// Every non-OK outcome is explicitly typed by its STATUS_CODE
/// (DEADLINE_EXCEEDED, OVERLOADED, CANCELLED, IO_ERROR, ...): a degraded
/// or aborted query is never presented as a full exact answer.
enum class RequestOp { kNearest, kKnn, kRange };

/// Stable wire name: "nn" / "knn" / "range".
const char* OpName(RequestOp op);

struct Request {
  RequestOp op = RequestOp::kNearest;
  std::size_t query_id = 0;
  int k = 1;              ///< kKnn only.
  double radius = 0.0;    ///< kRange only.
  /// Per-query deadline measured from admission; zero means "use the
  /// server default" (and if that is zero too, no deadline).
  std::chrono::nanoseconds deadline{0};
};

struct Response {
  Status status;  ///< kOk, or the typed reason no answer is given.
  /// Honesty bits: set when admission control narrowed the request.
  /// `effective_k` is the k actually answered (== request k when not
  /// degraded); a degraded response is exact FOR THAT effective_k.
  bool degraded = false;
  int effective_k = 0;
  std::vector<Neighbor> neighbors;
  /// End-to-end latency (admission to completion, queue wait included).
  std::chrono::nanoseconds latency{0};
};

/// Parses one request line. Strict: unknown ops, malformed or
/// out-of-range numbers, trailing garbage, embedded NUL or control
/// bytes, and over-long lines (> 4096 bytes) are all typed errors.
/// Never throws.
[[nodiscard]] StatusOr<Request> ParseRequest(std::string_view line);

/// Renders one response line (no trailing newline).
std::string FormatResponse(const Request& request, const Response& response);

/// Admin verbs ride the same line protocol but never reach the query
/// queue — the CLI intercepts them before ParseRequest. Grammar:
///
///   reload [<manifest_path>]
///
/// omitting the path re-opens the manifest the server was started with
/// (picking up whatever generation compaction has since published).
/// Response: `OK op=reload generation=<g>` or `ERR <CODE> op=reload
/// msg=<text>`.
struct AdminRequest {
  enum class Op { kReload };
  Op op = Op::kReload;
  std::string path;  ///< Empty: reload the manifest already being served.
};

/// True iff `line` starts with an admin verb (after CR/LF stripping) —
/// the dispatch test, deliberately cheap and never failing.
[[nodiscard]] bool IsAdminRequest(std::string_view line);

/// Parses one admin line with the same strictness as ParseRequest
/// (length cap, control-byte rejection, exact token arity). Fuzz-fed
/// alongside ParseRequest: any byte string maps to an AdminRequest or a
/// typed Status, never a crash.
[[nodiscard]] StatusOr<AdminRequest> ParseAdminRequest(std::string_view line);

}  // namespace rotind::serve

#endif  // ROTIND_SERVE_PROTOCOL_H_
