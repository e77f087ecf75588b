// dvlint CLI: run the repo-aware static checks over a source tree.
//
//   dvlint [--sarif] ROOT
//   dvlint --list-checks
//
// ROOT is the directory to scan recursively (typically the repo's src/).
// The text report is the gate; --sarif renders the same findings as SARIF
// 2.1.0 for code scanning.  Exit codes are deterministic so CI can gate on
// them:
//   0  clean (no findings), or --list-checks
//   1  findings reported
//   2  usage or I/O error (bad flags, unreadable root)
// There is deliberately no --fix and no suppression file: every finding is
// either a real defect or carries an explicit in-source annotation, so the
// tree itself is always the single source of truth.
#include <exception>
#include <iostream>
#include <string>

#include "lint/lint.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [--sarif] ROOT\n"
            << "       " << argv0 << " --list-checks\n"
               "\n"
               "  --sarif         SARIF 2.1.0 report for code-scanning upload\n"
               "  --list-checks   print the check catalogue and exit\n"
               "\n"
               "exit codes: 0 clean, 1 findings, 2 usage or I/O error\n";
  return 2;
}

int list_checks() {
  for (const dynvote::lint::CheckInfo& info : dynvote::lint::all_checks()) {
    std::cout << info.name << "\n    " << info.summary << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool sarif = false;
  std::string root;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sarif") {
      sarif = true;
    } else if (arg == "--list-checks") {
      return list_checks();
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (root.empty()) {
      root = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (root.empty()) return usage(argv[0]);

  try {
    const dynvote::lint::LintReport report = dynvote::lint::run_lint(root);
    std::cout << (sarif ? dynvote::lint::render_sarif(report, root)
                        : dynvote::lint::render_text(report));
    return report.findings.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
