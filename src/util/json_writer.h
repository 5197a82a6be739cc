#ifndef DDSGRAPH_UTIL_JSON_WRITER_H_
#define DDSGRAPH_UTIL_JSON_WRITER_H_

#include <charconv>
#include <concepts>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

#include "util/table.h"

/// \file
/// The one JSON writer. Every JSON document the program emits — the wire
/// responses (serve/protocol.h), SolutionJson (dds/solver.h) and the
/// bench result files — is appended through JsonWriter, so the
/// separators, the string escaping and the number formats are decided
/// here and nowhere else.
///
/// Clients read served fields by the `"key": ` needle (JsonKeyNeedle,
/// FindJsonNumber) and compare solution slices byte for byte, so the
/// bytes are a contract, pinned by tests/json_golden_test.cc.

namespace ddsgraph {

/// Between two members of an object or two elements of an array.
inline constexpr std::string_view kJsonMemberSeparator = ", ";
/// Between a key and its value.
inline constexpr std::string_view kJsonKeySeparator = ": ";
/// Between the elements of an IntArray ("[1,2,3]").
inline constexpr std::string_view kJsonListSeparator = ",";

/// `"key": ` — the bytes in front of every member value the writer emits.
inline std::string JsonKeyNeedle(std::string_view key) {
  return std::string("\"").append(key).append("\"").append(kJsonKeySeparator);
}

/// Append-only writer into one std::string. Each value call writes the
/// next array element, or the value of the member named by the preceding
/// Key(); the writer inserts the separators.
class JsonWriter {
 public:
  /// Each member of the `line_depth` outermost containers starts a new
  /// line, indented two spaces per level; deeper containers stay on one
  /// line. 0 (the wire) writes the whole document on one line.
  explicit JsonWriter(int line_depth = 0) : line_depth_(line_depth) {}

  void Reserve(size_t bytes) { out_.reserve(bytes); }

  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  JsonWriter& Key(std::string_view key) {
    Separate();
    AppendQuoted(key);
    out_ += kJsonKeySeparator;
    state_ = State::kAfterKey;
    return *this;
  }

  /// An escaped string: quote, backslash and the control characters
  /// (\b \f \n \r \t by name, the rest as \u00XX).
  JsonWriter& String(std::string_view s) {
    BeginValue();
    AppendQuoted(s);
    return EndValue();
  }
  template <typename T>
    requires(std::integral<T> && !std::same_as<T, bool>)
  JsonWriter& Int(T v) {
    BeginValue();
    AppendInt(v);
    return EndValue();
  }
  JsonWriter& Bool(bool v) { return Raw(v ? "true" : "false"); }
  /// FormatDouble(v, digits): fixed point, trailing zeros trimmed.
  JsonWriter& Double(double v, int digits) {
    return Raw(FormatDouble(v, digits));
  }
  /// FormatRoundTrip(v): %.17g, parses back to the same double.
  JsonWriter& RoundTrip(double v) { return Raw(FormatRoundTrip(v)); }
  /// A pre-encoded JSON value, verbatim (an echoed request id, an
  /// embedded SolutionJson).
  JsonWriter& Raw(std::string_view json) {
    BeginValue();
    out_ += json;
    return EndValue();
  }
  /// `proj(v)` for each v of `values`, joined by kJsonListSeparator.
  template <typename Range, typename Proj = std::identity>
  JsonWriter& IntArray(const Range& values, Proj proj = {}) {
    BeginValue();
    out_ += '[';
    bool first = true;
    for (const auto& v : values) {
      if (!first) out_ += kJsonListSeparator;
      first = false;
      AppendInt(std::invoke(proj, v));
    }
    out_ += ']';
    return EndValue();
  }

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  enum class State { kOpen, kAfterKey, kAfterValue };

  bool Lined() const { return depth_ > 0 && depth_ <= line_depth_; }
  void NewLine(int indent) {
    out_ += '\n';
    out_.append(2 * indent, ' ');
  }
  void Separate() {
    if (state_ == State::kAfterValue) {
      out_ += Lined() ? std::string_view(",") : kJsonMemberSeparator;
    }
    if (Lined()) NewLine(depth_);
  }
  void BeginValue() {
    if (state_ != State::kAfterKey) Separate();
  }
  JsonWriter& EndValue() {
    state_ = State::kAfterValue;
    return *this;
  }
  JsonWriter& Open(char bracket) {
    BeginValue();
    out_ += bracket;
    ++depth_;
    state_ = State::kOpen;
    return *this;
  }
  JsonWriter& Close(char bracket) {
    if (Lined() && state_ == State::kAfterValue) NewLine(depth_ - 1);
    --depth_;
    out_ += bracket;
    return EndValue();
  }
  void AppendQuoted(std::string_view s) {
    out_ += '"';
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') {
        out_ += '\\';
        out_ += ch;
      } else if (static_cast<unsigned char>(ch) >= 0x20) {
        out_ += ch;
      } else if (const size_t named = std::string_view("\b\f\n\r\t").find(ch);
                 named != std::string_view::npos) {
        out_ += '\\';
        out_ += "bfnrt"[named];
      } else {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(ch));
        out_ += buf;
      }
    }
    out_ += '"';
  }
  template <typename T>
  void AppendInt(T v) {
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    out_.append(buf, static_cast<size_t>(end - buf));
  }

  std::string out_;
  int line_depth_ = 0;
  int depth_ = 0;
  State state_ = State::kOpen;
};

}  // namespace ddsgraph

#endif  // DDSGRAPH_UTIL_JSON_WRITER_H_
