#include "serve/protocol.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <utility>
#include <vector>

#include "dds/solver.h"
#include "util/json_writer.h"

namespace ddsgraph {
namespace {

// ------------------------------------------------------- flat JSON lexer
// A deliberately small scanner for the flat request schema. Keeping it
// under ~150 lines (no nesting) is what makes a hand-rolled parser
// defensible over pulling in a JSON dependency the container doesn't
// have; anything outside the subset fails with a pointed message instead
// of being half-parsed.

struct Cursor {
  const std::string& s;
  size_t i = 0;

  bool AtEnd() const { return i >= s.size(); }
  char Peek() const { return s[i]; }
  void SkipWs() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                            s[i] == '\r')) {
      ++i;
    }
  }
};

// The four hex digits of a \uXXXX escape starting at s[at], or nullopt.
std::optional<uint32_t> ParseHex4(const std::string& s, size_t at) {
  if (at + 4 > s.size()) return std::nullopt;
  uint32_t value = 0;
  for (size_t i = at; i < at + 4; ++i) {
    const char ch = s[i];
    uint32_t digit;
    if (ch >= '0' && ch <= '9') {
      digit = static_cast<uint32_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      digit = static_cast<uint32_t>(ch - 'a' + 10);
    } else if (ch >= 'A' && ch <= 'F') {
      digit = static_cast<uint32_t>(ch - 'A' + 10);
    } else {
      return std::nullopt;
    }
    value = value * 16 + digit;
  }
  return value;
}

void AppendUtf8(uint32_t code_point, std::string* out) {
  auto put = [out](uint32_t byte) { out->push_back(static_cast<char>(byte)); };
  if (code_point < 0x80) {
    put(code_point);
  } else if (code_point < 0x800) {
    put(0xc0 | (code_point >> 6));
    put(0x80 | (code_point & 0x3f));
  } else if (code_point < 0x10000) {
    put(0xe0 | (code_point >> 12));
    put(0x80 | ((code_point >> 6) & 0x3f));
    put(0x80 | (code_point & 0x3f));
  } else {
    put(0xf0 | (code_point >> 18));
    put(0x80 | ((code_point >> 12) & 0x3f));
    put(0x80 | ((code_point >> 6) & 0x3f));
    put(0x80 | (code_point & 0x3f));
  }
}

// Decodes the \uXXXX escape whose 'u' is at c->i, a UTF-16 surrogate
// pair included, as UTF-8, and leaves c->i on its last hex digit.
Status ParseUnicodeEscape(Cursor* c, std::string* decoded) {
  const std::optional<uint32_t> unit = ParseHex4(c->s, c->i + 1);
  if (!unit.has_value()) {
    return Status::InvalidArgument("\\u must be followed by 4 hex digits");
  }
  c->i += 4;
  uint32_t code_point = *unit;
  if (code_point >= 0xdc00 && code_point <= 0xdfff) {
    return Status::InvalidArgument("unpaired low surrogate in \\u escape");
  }
  if (code_point >= 0xd800 && code_point <= 0xdbff) {
    const size_t next = c->i + 1;
    const std::optional<uint32_t> low =
        c->s.compare(next, 2, "\\u") == 0 ? ParseHex4(c->s, next + 2)
                                           : std::nullopt;
    if (!low.has_value() || *low < 0xdc00 || *low > 0xdfff) {
      return Status::InvalidArgument("unpaired high surrogate in \\u escape");
    }
    code_point = 0x10000 + ((code_point - 0xd800) << 10) + (*low - 0xdc00);
    c->i += 6;
  }
  AppendUtf8(code_point, decoded);
  return Status::Ok();
}

Status ParseJsonString(Cursor* c, std::string* decoded, std::string* raw) {
  const size_t start = c->i;
  if (c->AtEnd() || c->Peek() != '"') {
    return Status::InvalidArgument("expected '\"' at offset " +
                                   std::to_string(c->i));
  }
  ++c->i;
  decoded->clear();
  while (!c->AtEnd()) {
    const char ch = c->s[c->i];
    if (ch == '"') {
      ++c->i;
      if (raw != nullptr) *raw = c->s.substr(start, c->i - start);
      return Status::Ok();
    }
    if (static_cast<unsigned char>(ch) < 0x20) {
      return Status::InvalidArgument(
          "unescaped control character in JSON string");
    }
    if (ch == '\\') {
      ++c->i;
      if (c->AtEnd()) break;
      const char esc = c->s[c->i];
      switch (esc) {
        case '"': decoded->push_back('"'); break;
        case '\\': decoded->push_back('\\'); break;
        case '/': decoded->push_back('/'); break;
        case 'b': decoded->push_back('\b'); break;
        case 'f': decoded->push_back('\f'); break;
        case 'n': decoded->push_back('\n'); break;
        case 'r': decoded->push_back('\r'); break;
        case 't': decoded->push_back('\t'); break;
        case 'u':
          RETURN_IF_ERROR(ParseUnicodeEscape(c, decoded));
          break;
        default:
          return Status::InvalidArgument(
              std::string("unknown escape '\\") + esc + "'");
      }
      ++c->i;
      continue;
    }
    decoded->push_back(ch);
    ++c->i;
  }
  return Status::InvalidArgument("unterminated JSON string");
}

Status ParseJsonNumber(Cursor* c, double* value, std::string* raw) {
  const size_t start = c->i;
  if (!c->AtEnd() && c->Peek() == '-') ++c->i;
  size_t digits = 0;
  auto eat_digits = [&] {
    while (!c->AtEnd() && std::isdigit(static_cast<unsigned char>(
                              c->s[c->i]))) {
      ++c->i;
      ++digits;
    }
  };
  eat_digits();
  if (!c->AtEnd() && c->Peek() == '.') {
    ++c->i;
    eat_digits();
  }
  if (!c->AtEnd() && (c->Peek() == 'e' || c->Peek() == 'E')) {
    ++c->i;
    if (!c->AtEnd() && (c->Peek() == '+' || c->Peek() == '-')) ++c->i;
    eat_digits();
  }
  if (digits == 0) {
    return Status::InvalidArgument("malformed JSON number at offset " +
                                   std::to_string(start));
  }
  const std::string slice = c->s.substr(start, c->i - start);
  *value = std::strtod(slice.c_str(), nullptr);
  if (raw != nullptr) *raw = slice;
  return Status::Ok();
}

bool ConsumeLiteral(Cursor* c, const char* literal) {
  const size_t len = std::string_view(literal).size();
  if (c->s.compare(c->i, len, literal) == 0) {
    c->i += len;
    return true;
  }
  return false;
}

// Opens a response object with the echoed id and the status; `reserve`
// sizes the buffer for the whole response.
JsonWriter ResponseHeader(const std::string& id_raw, const char* status,
                          size_t reserve = 256) {
  JsonWriter json;
  json.Reserve(reserve);
  json.BeginObject()
      .Key("id").Raw(id_raw.empty() ? "null" : std::string_view(id_raw))
      .Key("status").String(status);
  return json;
}

}  // namespace

Result<std::map<std::string, JsonScalar>> ParseFlatJsonObject(
    const std::string& json) {
  std::map<std::string, JsonScalar> out;
  Cursor c{json};
  c.SkipWs();
  if (c.AtEnd() || c.Peek() != '{') {
    return Status::InvalidArgument("request must be one JSON object");
  }
  ++c.i;
  c.SkipWs();
  bool first = true;
  while (true) {
    c.SkipWs();
    if (!c.AtEnd() && c.Peek() == '}') {
      ++c.i;
      break;
    }
    if (!first) {
      if (c.AtEnd() || c.Peek() != ',') {
        return Status::InvalidArgument(
            "expected ',' or '}' in JSON object at offset " +
            std::to_string(c.i));
      }
      ++c.i;
      c.SkipWs();
    }
    first = false;
    std::string key;
    RETURN_IF_ERROR(ParseJsonString(&c, &key, nullptr));
    c.SkipWs();
    if (c.AtEnd() || c.Peek() != ':') {
      return Status::InvalidArgument("expected ':' after key \"" + key +
                                     "\"");
    }
    ++c.i;
    c.SkipWs();
    if (c.AtEnd()) {
      return Status::InvalidArgument("truncated JSON after key \"" + key +
                                     "\"");
    }
    JsonScalar value;
    const char lead = c.Peek();
    if (lead == '"') {
      value.kind = JsonScalar::Kind::kString;
      RETURN_IF_ERROR(ParseJsonString(&c, &value.string_value, &value.raw));
    } else if (lead == '-' ||
               std::isdigit(static_cast<unsigned char>(lead))) {
      value.kind = JsonScalar::Kind::kNumber;
      RETURN_IF_ERROR(ParseJsonNumber(&c, &value.number, &value.raw));
    } else if (ConsumeLiteral(&c, "true")) {
      value.kind = JsonScalar::Kind::kBool;
      value.boolean = true;
      value.raw = "true";
    } else if (ConsumeLiteral(&c, "false")) {
      value.kind = JsonScalar::Kind::kBool;
      value.boolean = false;
      value.raw = "false";
    } else if (ConsumeLiteral(&c, "null")) {
      value.kind = JsonScalar::Kind::kNull;
      value.raw = "null";
    } else if (lead == '{' || lead == '[') {
      return Status::InvalidArgument(
          "nested JSON values are outside the flat request schema (key \"" +
          key + "\")");
    } else {
      return Status::InvalidArgument("malformed JSON value for key \"" +
                                     key + "\"");
    }
    if (!out.emplace(key, std::move(value)).second) {
      return Status::InvalidArgument("duplicate key \"" + key + "\"");
    }
  }
  c.SkipWs();
  if (!c.AtEnd()) {
    return Status::InvalidArgument(
        "trailing bytes after the JSON object at offset " +
        std::to_string(c.i));
  }
  return out;
}

Result<WireRequest> ParseWireRequest(const std::string& json) {
  Result<std::map<std::string, JsonScalar>> parsed =
      ParseFlatJsonObject(json);
  if (!parsed.ok()) return parsed.status();

  WireRequest wire;
  bool saw_graph = false;
  bool saw_algo = false;
  bool saw_weighted = false;
  bool saw_deadline = false;
  bool saw_threads = false;
  bool saw_edges = false;
  for (const auto& [key, value] : parsed.value()) {
    auto want = [&key](bool ok, const char* type) -> Status {
      if (ok) return Status::Ok();
      return Status::InvalidArgument("\"" + key + "\" must be a " + type);
    };
    if (key == "op") {
      RETURN_IF_ERROR(
          want(value.kind == JsonScalar::Kind::kString, "string"));
      wire.op = value.string_value;
    } else if (key == "graph") {
      RETURN_IF_ERROR(
          want(value.kind == JsonScalar::Kind::kString, "string"));
      wire.graph = value.string_value;
      saw_graph = true;
    } else if (key == "edges") {
      RETURN_IF_ERROR(
          want(value.kind == JsonScalar::Kind::kString, "string"));
      wire.edges = value.string_value;
      saw_edges = true;
    } else if (key == "algo") {
      RETURN_IF_ERROR(
          want(value.kind == JsonScalar::Kind::kString, "string"));
      wire.algo = value.string_value;
      saw_algo = true;
    } else if (key == "weighted") {
      RETURN_IF_ERROR(
          want(value.kind == JsonScalar::Kind::kBool, "boolean"));
      wire.weighted = value.boolean;
      saw_weighted = true;
    } else if (key == "deadline_ms") {
      RETURN_IF_ERROR(
          want(value.kind == JsonScalar::Kind::kNumber, "number"));
      if (!(value.number >= 0) || !std::isfinite(value.number)) {
        return Status::InvalidArgument(
            "\"deadline_ms\" must be finite and >= 0 (0 = no deadline)");
      }
      wire.deadline_ms = value.number;
      saw_deadline = true;
    } else if (key == "threads") {
      RETURN_IF_ERROR(
          want(value.kind == JsonScalar::Kind::kNumber, "number"));
      const double t = value.number;
      if (t < 1 || t != std::floor(t) || t > 1 << 20) {
        return Status::InvalidArgument(
            "\"threads\" must be an integer >= 1");
      }
      wire.threads = static_cast<int64_t>(t);
      saw_threads = true;
    } else if (key == "id") {
      if (value.kind != JsonScalar::Kind::kString &&
          value.kind != JsonScalar::Kind::kNumber) {
        return Status::InvalidArgument(
            "\"id\" must be a string or a number");
      }
      wire.id_raw = value.raw;
    } else {
      // Strict: an ignored typo ("deadlin_ms") silently dropping a
      // deadline is worse than a rejected request.
      return Status::InvalidArgument(
          "unknown request key \"" + key +
          "\"; known keys: op, graph, edges, algo, weighted, deadline_ms, "
          "threads, id");
    }
  }

  // Per-verb key matrix, as strict as the unknown-key rule: a key that
  // the verb cannot honor is a client bug, not something to drop.
  auto forbid = [&wire](bool saw, const char* key) -> Status {
    if (!saw) return Status::Ok();
    return Status::InvalidArgument(std::string("\"") + key +
                                   "\" is not valid for op \"" + wire.op +
                                   "\"");
  };
  if (wire.op == "solve") {
    RETURN_IF_ERROR(forbid(saw_edges, "edges"));
    if (!saw_graph || wire.graph.empty()) {
      return Status::InvalidArgument(
          "request needs a non-empty \"graph\" naming a catalog entry");
    }
  } else if (wire.op == "update") {
    RETURN_IF_ERROR(forbid(saw_algo, "algo"));
    RETURN_IF_ERROR(forbid(saw_deadline, "deadline_ms"));
    RETURN_IF_ERROR(forbid(saw_threads, "threads"));
    if (!saw_graph || wire.graph.empty()) {
      return Status::InvalidArgument(
          "update needs a non-empty \"graph\" naming a catalog entry");
    }
    if (!saw_edges || wire.edges.empty()) {
      return Status::InvalidArgument(
          "update needs a non-empty \"edges\" ops string "
          "(\"+u v [w], -u v, ...\")");
    }
  } else if (wire.op == "list_graphs" || wire.op == "server_stats" ||
             wire.op == "health") {
    RETURN_IF_ERROR(forbid(saw_graph, "graph"));
    RETURN_IF_ERROR(forbid(saw_edges, "edges"));
    RETURN_IF_ERROR(forbid(saw_algo, "algo"));
    RETURN_IF_ERROR(forbid(saw_weighted, "weighted"));
    RETURN_IF_ERROR(forbid(saw_deadline, "deadline_ms"));
    RETURN_IF_ERROR(forbid(saw_threads, "threads"));
  } else {
    return Status::InvalidArgument(
        "unknown op \"" + wire.op +
        "\"; known ops: solve, update, list_graphs, server_stats, health");
  }
  return wire;
}

Result<ServeRequest> ToServeRequest(const WireRequest& wire) {
  // Registry-validated: the server accepts exactly the vocabulary
  // dds_tool's --algo accepts, from the same table.
  const std::optional<DdsAlgorithm> algorithm =
      ParseAlgorithmName(wire.algo);
  if (!algorithm.has_value()) {
    return Status::InvalidArgument("unknown algo '" + wire.algo +
                                   "'; known: " + AlgorithmNamesHelp());
  }
  ServeRequest out;
  out.graph = wire.graph;
  out.request.algorithm = *algorithm;
  if (wire.deadline_ms > 0) {
    out.request.deadline_seconds = wire.deadline_ms / 1e3;
  }
  out.request.threads = static_cast<int>(wire.threads);
  return out;
}

std::string OkResponseJson(const WireRequest& wire,
                           const ServeResponse& response,
                           const std::string& solution_json) {
  JsonWriter json = ResponseHeader(
      wire.id_raw, "ok", solution_json.size() + wire.graph.size() + 256);
  json.Key("graph").String(wire.graph)
      .Key("algo").String(wire.algo)
      .Key("weighted").Bool(response.entry != nullptr &&
                            response.entry->weighted())
      .Key("queue_ms").Double(response.queue_ms, 6)
      .Key("solve_ms").Double(response.solve_ms, 6)
      .Key("version").Int(response.version)
      .Key("cache_hit").Bool(response.cache_hit)
      .Key("coalesced").Bool(response.coalesced)
      .Key("solution").Raw(solution_json)
      .EndObject();
  return json.Take();
}

std::string ErrorResponseJson(const std::string& id_raw,
                              const Status& status) {
  JsonWriter json = ResponseHeader(id_raw, "error");
  json.Key("code").String(StatusCodeName(status.code()))
      .Key("message").String(status.message())
      .EndObject();
  return json.Take();
}

std::string UpdateResponseJson(const WireRequest& wire,
                               const CatalogEntry::UpdateResult& result) {
  JsonWriter json = ResponseHeader(wire.id_raw, "ok");
  json.Key("op").String("update")
      .Key("graph").String(wire.graph)
      .Key("version").Int(result.version)
      .Key("applied").Int(result.applied)
      .Key("num_vertices").Int(result.num_vertices)
      .Key("num_edges").Int(result.num_edges)
      .EndObject();
  return json.Take();
}

std::string ListGraphsResponseJson(const std::string& id_raw,
                                   const GraphCatalog& catalog) {
  JsonWriter json = ResponseHeader(id_raw, "ok", 128 * catalog.size() + 96);
  json.Key("op").String("list_graphs").Key("graphs").BeginArray();
  for (const CatalogEntry* entry : catalog.Entries()) {
    json.BeginObject()
        .Key("name").String(entry->name())
        .Key("weighted").Bool(entry->weighted())
        .Key("version").Int(entry->version())
        .Key("num_vertices").Int(entry->num_vertices())
        .Key("num_edges").Int(entry->num_edges())
        .Key("solves").Int(entry->num_solves())
        .EndObject();
  }
  json.EndArray().EndObject();
  return json.Take();
}

std::string ServerStatsResponseJson(const std::string& id_raw,
                                    const GraphCatalog& catalog,
                                    const RequestScheduler& scheduler) {
  const ResponseCacheCounters cache = scheduler.cache_counters();
  JsonWriter json = ResponseHeader(id_raw, "ok", 512);
  json.Key("op").String("server_stats")
      .Key("num_graphs").Int(catalog.size())
      .Key("accepted").Int(scheduler.accepted())
      .Key("served").Int(scheduler.served())
      .Key("rejected").Int(scheduler.rejected())
      .Key("queued").Int(scheduler.queued())
      .Key("coalesced").Int(scheduler.coalesced())
      .Key("batches").Int(scheduler.batches())
      .Key("batched").Int(scheduler.batched())
      .Key("cache_enabled").Bool(scheduler.response_cache() != nullptr)
      .Key("cache_hits").Int(cache.hits)
      .Key("cache_misses").Int(cache.misses)
      .Key("cache_evictions").Int(cache.evictions)
      .Key("cache_recent_evictions").Int(cache.recent_evictions)
      .Key("cache_invalidations").Int(cache.invalidations)
      .Key("cache_entries").Int(cache.entries)
      .Key("cache_bytes").Int(cache.bytes)
      .EndObject();
  return json.Take();
}

std::string HealthResponseJson(const std::string& id_raw,
                               const GraphCatalog& catalog,
                               const RequestScheduler& scheduler) {
  // "healthy" is the liveness summary a probe branches on; the rest is
  // the minimum context to debug an unhealthy report. Deliberately
  // cheap: no per-entry locks, no cache sweep — every signal below is an
  // atomic counter read, so the verb stays safe to poll hot.
  const bool accepting = scheduler.accepting();
  const int64_t queued = scheduler.queued();
  const int64_t capacity = scheduler.queue_capacity();
  const int64_t wal_errors = catalog.wal_sync_errors();
  const ResponseCacheCounters cache = scheduler.cache_counters();
  std::vector<const char*> reasons;
  if (!accepting) reasons.push_back("not_accepting");
  // >= 80% of capacity: report saturation *before* Submit starts
  // rejecting, so an operator polling health gets a head start on the
  // UNAVAILABLE wave.
  if (queued * 5 >= capacity * 4) reasons.push_back("queue_saturated");
  // Any failed fsync means some ack may not be durable — sticky by
  // design; only a restart (with its recovery pass) clears it.
  if (wal_errors > 0) reasons.push_back("wal_sync_errors");
  // Windowed, not cumulative: a bounded cache evicts in normal
  // steady state, and a signal that latches on the first eviction ever
  // would dilute to noise. This one decays once the pressure stops.
  if (cache.recent_evictions > 0) reasons.push_back("cache_evicting");

  JsonWriter json =
      ResponseHeader(id_raw, reasons.empty() ? "ok" : "degraded");
  json.Key("op").String("health")
      .Key("healthy").Bool(accepting)
      .Key("accepting").Bool(accepting)
      .Key("num_graphs").Int(catalog.size())
      .Key("queued").Int(queued)
      .Key("reasons").BeginArray();
  for (const char* reason : reasons) json.String(reason);
  json.EndArray().EndObject();
  return json.Take();
}

std::optional<double> FindJsonNumber(const std::string& json,
                                     const std::string& key) {
  const std::string needle = JsonKeyNeedle(key);
  const size_t at = json.find(needle);
  if (at == std::string::npos) return std::nullopt;
  Cursor c{json, at + needle.size()};
  double value = 0;
  if (!ParseJsonNumber(&c, &value, nullptr).ok()) return std::nullopt;
  return value;
}

std::optional<std::string> FindJsonString(const std::string& json,
                                          const std::string& key) {
  const std::string needle = JsonKeyNeedle(key);
  const size_t at = json.find(needle);
  if (at == std::string::npos) return std::nullopt;
  Cursor c{json, at + needle.size()};
  std::string decoded;
  if (!ParseJsonString(&c, &decoded, nullptr).ok()) return std::nullopt;
  return decoded;
}

Result<std::string> SolutionSliceForCompare(
    const std::string& response_json) {
  const std::string open = JsonKeyNeedle("solution") + "{";
  const size_t start = response_json.find(open);
  if (start == std::string::npos) {
    return Status::InvalidArgument(
        "response carries no \"solution\" object");
  }
  const size_t brace = start + open.size() - 1;
  const size_t stats = response_json.find(
      std::string(kJsonMemberSeparator) + JsonKeyNeedle("stats"), brace);
  if (stats == std::string::npos) {
    return Status::InvalidArgument(
        "solution object carries no \"stats\" suffix");
  }
  return response_json.substr(brace, stats - brace);
}

}  // namespace ddsgraph
