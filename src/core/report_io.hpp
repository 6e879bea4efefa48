#pragma once

/// \file report_io.hpp
/// Persistence for the offline-analysis plan. The paper's workflow runs
/// the offline stage once and feeds its configuration (per-table error
/// bounds + codec choices) into every subsequent training job; these
/// helpers serialize exactly that hand-off as a line-oriented text file:
///
///   dlcomp-plan v1
///   tables <N>
///   table <id> eb <bound> class <L|M|S> codec <vector-lz|huffman|auto> \
///         homo <eta> retention <r>
///
/// The format is deliberately diff- and grep-friendly (it goes into
/// experiment repos next to training configs).

#include <iosfwd>
#include <string>
#include <vector>

#include "compress/compressor.hpp"
#include "core/error_bound.hpp"

namespace dlcomp {

struct AnalysisReport;  // from offline_analyzer.hpp

/// The subset of the analysis that training consumes.
struct CompressionPlan {
  struct Table {
    std::size_t table_id = 0;
    double error_bound = 0.0;
    EbClass eb_class = EbClass::kMedium;
    HybridChoice choice = HybridChoice::kAuto;
    double homo_index = 0.0;
    double pattern_retention = 1.0;
  };
  std::vector<Table> tables;

  [[nodiscard]] std::vector<double> table_error_bounds() const;
  [[nodiscard]] std::vector<HybridChoice> table_choices() const;
};

/// Extracts the plan from a full analysis report.
CompressionPlan make_plan(const AnalysisReport& report);

/// Serializes a plan (see header comment for the format).
void write_plan(std::ostream& os, const CompressionPlan& plan);
std::string plan_to_string(const CompressionPlan& plan);

/// Parses a plan; throws FormatError on malformed input, naming the row.
/// A plan of N tables must list each id 0..N-1 exactly once, with a
/// finite, positive error bound.
CompressionPlan read_plan(std::istream& is);
CompressionPlan plan_from_string(const std::string& text);

/// File conveniences.
void save_plan(const std::string& path, const CompressionPlan& plan);
CompressionPlan load_plan(const std::string& path);

}  // namespace dlcomp
