#pragma once

#include <ostream>
#include <string>

#include "zc/report.hpp"

namespace cuzc::io {

/// Z-checker's output engine: serialize an assessment report for human
/// reading, spreadsheets, or downstream tooling.
void write_text(std::ostream& os, const zc::AssessmentReport& report);
void write_csv(std::ostream& os, const zc::AssessmentReport& report);
void write_json(std::ostream& os, const zc::AssessmentReport& report);

[[nodiscard]] std::string to_text(const zc::AssessmentReport& report);
[[nodiscard]] std::string to_json(const zc::AssessmentReport& report);

}  // namespace cuzc::io
