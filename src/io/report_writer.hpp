#pragma once

#include <ostream>
#include <string>
#include <string_view>

#include "zc/report.hpp"

namespace cuzc::io {

/// Z-checker's output engine: serialize an assessment report for human
/// reading, spreadsheets, or downstream tooling.
void write_text(std::ostream& os, const zc::AssessmentReport& report);
void write_csv(std::ostream& os, const zc::AssessmentReport& report);
void write_json(std::ostream& os, const zc::AssessmentReport& report);

[[nodiscard]] std::string to_text(const zc::AssessmentReport& report);
[[nodiscard]] std::string to_json(const zc::AssessmentReport& report);

/// `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped.
[[nodiscard]] std::string json_string(std::string_view s);

}  // namespace cuzc::io
