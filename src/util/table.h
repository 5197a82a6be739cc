#ifndef DDSGRAPH_UTIL_TABLE_H_
#define DDSGRAPH_UTIL_TABLE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

/// \file
/// Small table builder used by the benchmark harness to print paper-style
/// result tables in aligned-Markdown and CSV formats.

namespace ddsgraph {

/// Formats `v` with `digits` significant decimal places, trimming trailing
/// zeros ("3.14", "12", "0.002").
std::string FormatDouble(double v, int digits = 4);

/// Formats `v` with 17 significant digits (`%.17g`), which always parses
/// back to the same double: equal text iff equal values.
std::string FormatRoundTrip(double v);

/// Formats seconds adaptively ("12.3 s", "45.1 ms", "870 us").
std::string FormatSeconds(double seconds);

/// Row-oriented string table with a fixed header.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; must have exactly as many cells as the header.
  void AddRow(std::vector<std::string> row);

  /// Convenience cell constructors are plain std::to_string/FormatDouble at
  /// call sites; the table itself stores strings only.
  size_t NumRows() const { return rows_.size(); }
  size_t NumCols() const { return header_.size(); }

  /// Renders as a GitHub-flavored Markdown table with aligned columns.
  void PrintMarkdown(std::ostream& os) const;

  /// Renders as CSV (no quoting of separators; callers avoid commas in
  /// cells).
  void PrintCsv(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ddsgraph

#endif  // DDSGRAPH_UTIL_TABLE_H_
