#include "core/report_io.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "common/error.hpp"
#include "common/file_io.hpp"
#include "core/offline_analyzer.hpp"

namespace dlcomp {

namespace {

const char* choice_name(HybridChoice c) {
  switch (c) {
    case HybridChoice::kVectorLz: return "vector-lz";
    case HybridChoice::kHuffman: return "huffman";
    case HybridChoice::kAuto: return "auto";
  }
  return "auto";
}

HybridChoice parse_choice(const std::string& name) {
  if (name == "vector-lz") return HybridChoice::kVectorLz;
  if (name == "huffman") return HybridChoice::kHuffman;
  if (name == "auto") return HybridChoice::kAuto;
  throw FormatError("unknown codec choice in plan: " + name);
}

EbClass parse_class(const std::string& name) {
  if (name == "L") return EbClass::kLarge;
  if (name == "M") return EbClass::kMedium;
  if (name == "S") return EbClass::kSmall;
  throw FormatError("unknown EB class in plan: " + name);
}

}  // namespace

std::vector<double> CompressionPlan::table_error_bounds() const {
  std::vector<double> ebs(tables.size(), 0.0);
  for (const auto& t : tables) ebs.at(t.table_id) = t.error_bound;
  return ebs;
}

std::vector<HybridChoice> CompressionPlan::table_choices() const {
  std::vector<HybridChoice> choices(tables.size(), HybridChoice::kAuto);
  for (const auto& t : tables) choices.at(t.table_id) = t.choice;
  return choices;
}

CompressionPlan make_plan(const AnalysisReport& report) {
  CompressionPlan plan;
  plan.tables.reserve(report.tables.size());
  const auto choices = report.table_choices();
  for (const auto& analysis : report.tables) {
    CompressionPlan::Table t;
    t.table_id = analysis.table_id;
    t.error_bound = analysis.assigned_eb;
    t.eb_class = analysis.eb_class;
    t.choice = choices.at(analysis.table_id);
    t.homo_index = analysis.homo.homo_index;
    t.pattern_retention = analysis.homo.pattern_retention;
    plan.tables.push_back(t);
  }
  return plan;
}

void write_plan(std::ostream& os, const CompressionPlan& plan) {
  os << "dlcomp-plan v1\n";
  os << "tables " << plan.tables.size() << "\n";
  os.precision(12);
  for (const auto& t : plan.tables) {
    os << "table " << t.table_id << " eb " << t.error_bound << " class "
       << to_string(t.eb_class) << " codec " << choice_name(t.choice)
       << " homo " << t.homo_index << " retention " << t.pattern_retention
       << "\n";
  }
}

std::string plan_to_string(const CompressionPlan& plan) {
  std::ostringstream os;
  write_plan(os, plan);
  return os.str();
}

CompressionPlan read_plan(std::istream& is) {
  std::string word;
  std::string version;
  is >> word >> version;
  if (word != "dlcomp-plan" || version != "v1") {
    throw FormatError("not a dlcomp-plan v1 file");
  }
  std::size_t count = 0;
  is >> word >> count;
  if (word != "tables" || !is) throw FormatError("plan missing table count");

  // The file comes from outside, so `count` only bounds the loop: memory
  // grows with the rows actually read, never with the claimed count.
  // `count` rows with distinct ids below `count` are exactly 0..count-1.
  CompressionPlan plan;
  std::unordered_set<std::size_t> ids;
  for (std::size_t i = 0; i < count; ++i) {
    const auto bad = [i](const std::string& what) {
      return FormatError("plan row " + std::to_string(i + 1) + ": " + what);
    };
    const auto field = [&](const std::string& name, auto& value) {
      std::string key;
      is >> key >> value;
      if (!is || key != name) throw bad("missing or malformed " + name);
    };
    CompressionPlan::Table t;
    std::string cls;
    std::string codec;
    field("table", t.table_id);
    field("eb", t.error_bound);
    field("class", cls);
    t.eb_class = parse_class(cls);
    field("codec", codec);
    t.choice = parse_choice(codec);
    field("homo", t.homo_index);
    field("retention", t.pattern_retention);
    if (t.table_id >= count) {
      throw bad("table id " + std::to_string(t.table_id) + " outside 0.." +
                std::to_string(count - 1));
    }
    if (!ids.insert(t.table_id).second) {
      throw bad("table id " + std::to_string(t.table_id) + " repeated");
    }
    if (!(std::isfinite(t.error_bound) && t.error_bound > 0.0)) {
      throw bad("error bound must be finite and positive");
    }
    plan.tables.push_back(t);
  }
  return plan;
}

CompressionPlan plan_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_plan(is);
}

void save_plan(const std::string& path, const CompressionPlan& plan) {
  write_file(path, plan_to_string(plan));
}

CompressionPlan load_plan(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) throw Error("cannot open plan file: " + path);
  return read_plan(is);
}

}  // namespace dlcomp
