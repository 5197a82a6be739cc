#include "stream/edge_stream.h"

#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace ddsgraph {

namespace {

/// Splits on any of `seps`, trimming surrounding whitespace; empty pieces
/// are kept so "a,,b" can be rejected with a useful message.
std::vector<std::string> SplitTrim(const std::string& text,
                                   const char* seps) {
  std::vector<std::string> pieces;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() ||
        std::string_view(seps).find(text[i]) != std::string_view::npos) {
      size_t lo = start;
      size_t hi = i;
      while (lo < hi && std::isspace(static_cast<unsigned char>(text[lo]))) {
        ++lo;
      }
      while (hi > lo &&
             std::isspace(static_cast<unsigned char>(text[hi - 1]))) {
        --hi;
      }
      pieces.push_back(text.substr(lo, hi - lo));
      start = i + 1;
    }
  }
  return pieces;
}

/// Parses a non-empty run of decimal digits no larger than `max`.
bool ParseDecimal(const std::string& token, uint64_t max, uint64_t* out) {
  if (token.empty()) return false;
  uint64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (max - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

/// The largest vertex id an op may name. UINT32_MAX is reserved so that
/// `id + 1` — the vertex count an op grows the overlay to — always fits
/// in a VertexId.
constexpr uint64_t kMaxVertexId = UINT32_MAX - 1;

/// Parses one op body: `+u v [w]` or `-u v` with the sign already split
/// off into `kind`.
Result<EdgeOp> ParseOpFields(EdgeOp::Kind kind, const std::string& body,
                             const std::string& original) {
  std::istringstream in(body);
  std::vector<std::string> fields;
  std::string field;
  while (in >> field) fields.push_back(field);
  const size_t want_min = 2;
  const size_t want_max = kind == EdgeOp::Kind::kInsert ? 3 : 2;
  if (fields.size() < want_min || fields.size() > want_max) {
    return Status::InvalidArgument("bad edge op '" + original +
                                   "': expected '+u v [w]' or '-u v'");
  }
  uint64_t from = 0;
  uint64_t to = 0;
  if (!ParseDecimal(fields[0], kMaxVertexId, &from) ||
      !ParseDecimal(fields[1], kMaxVertexId, &to)) {
    return Status::InvalidArgument(
        "bad vertex id in edge op '" + original +
        "': must be a decimal integer <= " + std::to_string(kMaxVertexId));
  }
  EdgeOp op;
  op.kind = kind;
  op.from = static_cast<VertexId>(from);
  op.to = static_cast<VertexId>(to);
  if (fields.size() == 3) {
    uint64_t weight = 0;
    if (!ParseDecimal(fields[2], INT64_MAX, &weight) || weight < 1) {
      return Status::InvalidArgument("bad weight in edge op '" + original +
                                     "': must be a positive integer");
    }
    op.weight = static_cast<int64_t>(weight);
  }
  return op;
}

Result<EdgeOp> ParseOneOp(const std::string& token) {
  if (token.empty()) {
    return Status::InvalidArgument(
        "empty edge op (stray separator in ops string?)");
  }
  const char sign = token[0];
  if (sign != '+' && sign != '-') {
    return Status::InvalidArgument("bad edge op '" + token +
                                   "': must start with '+' or '-'");
  }
  const EdgeOp::Kind kind =
      sign == '+' ? EdgeOp::Kind::kInsert : EdgeOp::Kind::kDelete;
  return ParseOpFields(kind, token.substr(1), token);
}

}  // namespace

Result<EdgeBatch> ParseEdgeOps(const std::string& spec, bool allow_empty) {
  EdgeBatch batch;
  // A blank spec never reaches the token loop: SplitTrim would hand it a
  // single empty token, which reads as a stray separator rather than the
  // deliberate empty batch an allow_empty caller round-trips.
  if (spec.find_first_not_of(" \t\r\n") == std::string::npos) {
    if (allow_empty) return batch;
    return Status::InvalidArgument("edge ops string is empty");
  }
  for (const std::string& token : SplitTrim(spec, ",;")) {
    Result<EdgeOp> op = ParseOneOp(token);
    if (!op.ok()) return op.status();
    batch.push_back(op.value());
  }
  if (batch.empty() && !allow_empty) {
    return Status::InvalidArgument("edge ops string is empty");
  }
  return batch;
}

std::string FormatEdgeOps(const EdgeBatch& batch) {
  std::string out;
  for (const EdgeOp& op : batch) {
    if (!out.empty()) out += ", ";
    out += op.kind == EdgeOp::Kind::kInsert ? '+' : '-';
    out += std::to_string(op.from);
    out += ' ';
    out += std::to_string(op.to);
    if (op.kind == EdgeOp::Kind::kInsert && op.weight != 1) {
      out += ' ';
      out += std::to_string(op.weight);
    }
  }
  return out;
}

}  // namespace ddsgraph
