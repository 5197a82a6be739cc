#include "util/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/logging.h"

namespace ddsgraph {

std::string FormatDouble(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

std::string FormatRoundTrip(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FormatSeconds(double seconds) {
  if (seconds >= 1.0) return FormatDouble(seconds, 3) + " s";
  if (seconds >= 1e-3) return FormatDouble(seconds * 1e3, 3) + " ms";
  return FormatDouble(seconds * 1e6, 1) + " us";
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  CHECK_GT(header_.size(), 0u);
}

void Table::AddRow(std::vector<std::string> row) {
  CHECK_EQ(row.size(), header_.size());
  rows_.push_back(std::move(row));
}

void Table::PrintMarkdown(std::ostream& os) const {
  std::vector<size_t> width(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (size_t c = 0; c < row.size(); ++c) {
      os << " " << row[c] << std::string(width[c] - row[c].size(), ' ')
         << " |";
    }
    os << "\n";
  };
  print_row(header_);
  os << "|";
  for (size_t c = 0; c < header_.size(); ++c) {
    os << std::string(width[c] + 2, '-') << "|";
  }
  os << "\n";
  for (const auto& row : rows_) print_row(row);
}

void Table::PrintCsv(std::ostream& os) const {
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << ",";
      os << row[c];
    }
    os << "\n";
  };
  print_row(header_);
  for (const auto& row : rows_) print_row(row);
}

}  // namespace ddsgraph
