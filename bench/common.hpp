// Shared utilities for the experiment harnesses (one binary per paper
// table/figure; see DESIGN.md §4 and EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace storm::bench {

/// Peak resident-set size of this process in MB (0 when the platform
/// has no getrusage). The terascale harness asserts a budget against
/// it; every harness reports it on stderr so stdout stays golden.
inline double peak_rss_mb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);  // bytes
#else
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kilobytes
#endif
#else
  return 0.0;
#endif
}

/// Scan argv for `<flag> <out-path>` (e.g. `statectl --state x.json`).
/// A trailing flag with no path is a usage error, as is an empty path.
inline const char* parse_out_path(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) continue;
    if (i + 1 >= argc || argv[i + 1][0] == '\0') {
      std::fprintf(stderr, "%s: %s requires an output path "
                   "(usage: %s <out.json>)\n", argv[0], flag, flag);
      std::exit(2);
    }
    return argv[i + 1];
  }
  return nullptr;
}

/// Minimal fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers, int col_width = 12)
      : headers_(std::move(headers)), width_(col_width) {}

  void print_header() const {
    for (const auto& h : headers_) std::printf("%*s", width_, h.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      for (int j = 0; j < width_; ++j) std::printf("-");
    }
    std::printf("\n");
  }

  void cell(const std::string& v) const { std::printf("%*s", width_, v.c_str()); }
  void cell(double v, int precision = 1) const {
    std::printf("%*.*f", width_, precision, v);
  }
  void cell(long long v) const { std::printf("%*lld", width_, v); }
  void cell(int v) const { std::printf("%*d", width_, v); }
  void end_row() const { std::printf("\n"); }

 private:
  std::vector<std::string> headers_;
  int width_;
};

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("Reproduces: %s\n\n", paper_ref.c_str());
}

}  // namespace storm::bench
