// mth_lint — tree walker + registry/layers plumbing around mth::lint.
//
//   mth_lint --root . --registry tools/trace_spans.json
//            --layers tools/lint_layers.json
//            [--json out.json] [--sarif out.sarif] [paths...]
//
// With no explicit paths, lints every .cpp/.hpp/.h under src/, tools/,
// tests/, bench/ and examples/ (sorted, so output order is deterministic).
// Exit status: 0 clean, 1 findings (stale registry entries included),
// 2 usage or I/O error. Findings are suppressed only inline
// (`// mth-lint: allow(rule): why`).
//
//   --update-registry   rewrite the span registry from the tree's literals
//   --layers FILE       check include edges against the declared module DAG
//                       (layer-violation) and the include graph for cycles
//                       (layer-cycle)
//   --layers-only       run only the include-graph analysis (fast acyclicity
//                       gate; requires --layers)
//   --sarif FILE        also write findings as SARIF 2.1.0 (GitHub code
//                       scanning / inline PR annotations)

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "mth/lint/lint.hpp"

namespace fs = std::filesystem;
using mth::lint::Finding;

namespace {

struct Args {
  std::string root = ".";
  std::string json_out;
  std::string sarif_out;
  std::string registry_path;
  std::string layers_path;
  bool update_registry = false;
  bool layers_only = false;
  std::vector<std::string> paths;
};

int usage(const char* msg) {
  if (msg != nullptr) std::cerr << "mth_lint: " << msg << "\n";
  std::cerr << "usage: mth_lint [--root DIR] [--registry FILE]"
               " [--layers FILE]\n"
               "                [--json FILE] [--sarif FILE]"
               " [--update-registry]\n"
               "                [--layers-only] [paths...]\n";
  return 2;
}

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

bool write_file(const fs::path& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  f << content;
  return f.good();
}

// Repo-relative path with forward slashes (the label format the path-scoped
// rules in mth::lint expect).
std::string rel_label(const fs::path& file, const fs::path& root) {
  std::string s = fs::relative(file, root).generic_string();
  return s;
}

std::vector<fs::path> default_tree(const fs::path& root) {
  static const char* kDirs[] = {"src", "tools", "tests", "bench", "examples"};
  static const std::set<std::string> kExts = {".cpp", ".hpp", ".h"};
  std::vector<fs::path> files;
  for (const char* dir : kDirs) {
    const fs::path base = root / dir;
    if (!fs::is_directory(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (entry.is_regular_file() &&
          kExts.count(entry.path().extension().string()) != 0) {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](std::string& dst) {
      if (i + 1 >= argc) return false;
      dst = argv[++i];
      return true;
    };
    if (a == "--root") {
      if (!value(args.root)) return usage("--root needs a value");
    } else if (a == "--json") {
      if (!value(args.json_out)) return usage("--json needs a value");
    } else if (a == "--sarif") {
      if (!value(args.sarif_out)) return usage("--sarif needs a value");
    } else if (a == "--registry") {
      if (!value(args.registry_path)) return usage("--registry needs a value");
    } else if (a == "--layers") {
      if (!value(args.layers_path)) return usage("--layers needs a value");
    } else if (a == "--update-registry") {
      args.update_registry = true;
    } else if (a == "--layers-only") {
      args.layers_only = true;
    } else if (a == "--help" || a == "-h") {
      return usage(nullptr);
    } else if (!a.empty() && a[0] == '-') {
      return usage(("unknown option " + a).c_str());
    } else {
      args.paths.push_back(a);
    }
  }

  const fs::path root = fs::absolute(args.root);
  if (!fs::is_directory(root)) {
    std::cerr << "mth_lint: not a directory: " << root << "\n";
    return 2;
  }

  if (args.layers_only && args.layers_path.empty()) {
    return usage("--layers-only needs --layers FILE");
  }

  mth::lint::LayerConfig layers;
  if (!args.layers_path.empty()) {
    std::string text;
    if (!read_file(args.layers_path, text)) {
      std::cerr << "mth_lint: cannot read layers config " << args.layers_path
                << "\n";
      return 2;
    }
    std::string error;
    const auto cfg = mth::lint::parse_layers(text, &error);
    if (!cfg) {
      std::cerr << "mth_lint: bad layers config " << args.layers_path << ": "
                << error << "\n";
      return 2;
    }
    layers = *cfg;
  }

  mth::lint::Options options;
  if (!args.registry_path.empty() && !args.update_registry) {
    std::string text;
    if (!read_file(args.registry_path, text)) {
      std::cerr << "mth_lint: cannot read registry " << args.registry_path
                << "\n";
      return 2;
    }
    std::string error;
    const auto reg = mth::lint::parse_registry(text, &error);
    if (!reg) {
      std::cerr << "mth_lint: bad registry " << args.registry_path << ": "
                << error << "\n";
      return 2;
    }
    options.registry = *reg;
  }

  std::vector<fs::path> files;
  if (args.paths.empty()) {
    files = default_tree(root);
  } else {
    for (const std::string& p : args.paths) {
      fs::path path = fs::path(p);
      if (path.is_relative()) path = root / path;
      files.push_back(path);
    }
  }

  std::vector<Finding> findings;
  mth::lint::Registry used;
  std::vector<mth::lint::FileIncludes> include_graph;
  for (const fs::path& file : files) {
    std::string text;
    if (!read_file(file, text)) {
      std::cerr << "mth_lint: cannot read " << file << "\n";
      return 2;
    }
    const std::string label = rel_label(file, root);
    if (!args.layers_path.empty()) {
      include_graph.push_back({label, mth::lint::collect_includes(text)});
    }
    if (args.layers_only) continue;
    for (Finding& f : mth::lint::lint_source(label, text, options)) {
      findings.push_back(std::move(f));
    }
    const mth::lint::TraceUses uses = mth::lint::collect_trace_uses(text);
    used.spans.insert(used.spans.end(), uses.spans.begin(), uses.spans.end());
    used.counters.insert(used.counters.end(), uses.counters.begin(),
                         uses.counters.end());
  }

  if (!args.layers_path.empty()) {
    for (Finding& f : mth::lint::check_layers(include_graph, layers,
                                              args.layers_path)) {
      findings.push_back(std::move(f));
    }
  }

  if (args.update_registry) {
    if (args.registry_path.empty()) {
      return usage("--update-registry needs --registry FILE");
    }
    if (!write_file(args.registry_path, mth::lint::registry_to_json(used))) {
      std::cerr << "mth_lint: cannot write " << args.registry_path << "\n";
      return 2;
    }
    std::cout << "mth_lint: wrote " << args.registry_path << "\n";
  } else if (!options.registry.empty() && args.paths.empty() &&
             !args.layers_only) {
    // Stale-entry check (full-tree runs only: a partial file list would see
    // every other file's spans as stale).
    const std::set<std::string> used_spans(used.spans.begin(),
                                           used.spans.end());
    const std::set<std::string> used_counters(used.counters.begin(),
                                              used.counters.end());
    const auto report_stale = [&](const std::vector<std::string>& names,
                                  const std::set<std::string>& live,
                                  const char* what) {
      for (const std::string& name : names) {
        if (live.count(name) != 0) continue;
        Finding f;
        f.rule = mth::lint::Rule::TraceRegistry;
        f.file = args.registry_path;
        f.line = 0;
        f.message = std::string("stale ") + what + " \"" + name +
                    "\": registered but unused; run mth_lint "
                    "--update-registry";
        f.snippet = name;
        findings.push_back(std::move(f));
      }
    };
    report_stale(options.registry.spans, used_spans, "span");
    report_stale(options.registry.counters, used_counters, "counter");
  }

  if (!args.json_out.empty()) {
    if (!write_file(args.json_out, mth::lint::findings_to_json(findings))) {
      std::cerr << "mth_lint: cannot write " << args.json_out << "\n";
      return 2;
    }
  }
  if (!args.sarif_out.empty()) {
    if (!write_file(args.sarif_out,
                    mth::lint::findings_to_sarif(findings))) {
      std::cerr << "mth_lint: cannot write " << args.sarif_out << "\n";
      return 2;
    }
  }

  for (const Finding& f : findings) {
    std::cerr << f.file << ':' << f.line << ": ["
              << mth::lint::to_string(f.rule) << "] " << f.message << "\n";
    if (!f.snippet.empty()) std::cerr << "    " << f.snippet << "\n";
  }
  std::cout << "mth_lint: " << files.size() << " files, " << findings.size()
            << " findings" << (findings.empty() ? " — clean\n" : "\n");
  return findings.empty() ? 0 : 1;
}
