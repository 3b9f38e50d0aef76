// mdac-lint: static policy linter CLI over policy XML files.
//
//   mdac-lint [--max-findings N] <file-or-directory>...
//
// Parses every named .xml policy document (directories are scanned
// recursively), runs the full mdac::analysis pass suite over the
// combined corpus — so cross-file modality conflicts and references
// between files are checked, exactly as the repository's issue-time lint
// would see them — and prints structured findings. Two files that
// declare the same policy id are refused: the analyser would keep only
// the later tree. Exit status:
//   0  no error-severity findings (warnings/infos may exist)
//   1  at least one error-severity finding
//   2  usage, I/O or parse failure, or a policy id declared twice
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "core/serialization.hpp"

namespace {

namespace fs = std::filesystem;
using mdac::analysis::AnalysisReport;
using mdac::analysis::Finding;

int usage() {
  std::cerr << "usage: mdac-lint [--max-findings N] <file-or-directory>...\n";
  return 2;
}

std::vector<fs::path> collect_inputs(const std::vector<std::string>& args) {
  std::vector<fs::path> files;
  for (const std::string& arg : args) {
    const fs::path path(arg);
    if (fs::is_directory(path)) {
      for (const auto& entry : fs::recursive_directory_iterator(path)) {
        if (entry.is_regular_file() && entry.path().extension() == ".xml") {
          files.push_back(entry.path());
        }
      }
    } else {
      files.push_back(path);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

void print_finding(const Finding& f) {
  std::cout << to_string(f.severity) << ": [" << to_string(f.pass) << "/"
            << f.code << "] ";
  if (!f.path.empty()) {
    std::cout << f.path;
  } else if (!f.root_id.empty()) {
    std::cout << f.root_id;
  }
  if (!f.other_path.empty()) {
    std::cout << " vs " << f.other_path;
  } else if (!f.other_root_id.empty()) {
    std::cout << " vs " << f.other_root_id;
  }
  std::cout << ": " << f.message;
  if (!f.witness.empty()) {
    std::cout << " [witness:";
    for (const auto& [key, value] : f.witness) {
      std::cout << " " << key.second << "=" << value;
    }
    std::cout << "]";
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  std::size_t max_findings = 10000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--max-findings") {
      if (i + 1 >= argc) return usage();
      max_findings = static_cast<std::size_t>(std::stoull(argv[++i]));
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else {
      args.push_back(arg);
    }
  }
  if (args.empty()) return usage();

  const std::vector<fs::path> files = collect_inputs(args);
  if (files.empty()) {
    std::cerr << "mdac-lint: no .xml policy files found\n";
    return 2;
  }

  std::vector<mdac::core::PolicyNodePtr> roots;
  std::map<std::string, fs::path> declared_by;  // policy id -> file
  for (const fs::path& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "mdac-lint: cannot read " << file << "\n";
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    try {
      roots.push_back(mdac::core::node_from_string(buffer.str()));
    } catch (const std::exception& e) {
      std::cerr << "mdac-lint: " << file << ": " << e.what() << "\n";
      return 2;
    }
    const std::string& id = roots.back()->id();
    if (const auto [it, fresh] = declared_by.emplace(id, file); !fresh) {
      std::cerr << "mdac-lint: policy id '" << id << "' is declared by both "
                << it->second << " and " << file << "\n";
      return 2;
    }
    std::cout << "parsed " << file.string() << " -> " << id << "\n";
  }

  std::vector<mdac::analysis::AnalysisInput> inputs;
  inputs.reserve(roots.size());
  for (const auto& root : roots) inputs.push_back({root.get(), nullptr});
  mdac::analysis::AnalyzerOptions options;
  options.max_findings_per_pass = max_findings;
  const AnalysisReport report = mdac::analysis::analyse_roots(inputs, options);

  for (const Finding& f : report.findings) print_finding(f);
  std::cout << roots.size() << " tree(s): " << report.error_count
            << " error(s), " << report.warning_count << " warning(s), "
            << report.info_count << " info(s)";
  if (report.suppressed > 0) {
    std::cout << " (" << report.suppressed << " suppressed)";
  }
  std::cout << "\n";
  return report.ok() ? 0 : 1;
}
