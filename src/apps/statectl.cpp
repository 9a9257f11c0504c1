// statectl — the operator CLI over `storm.state.v1` cluster-state
// snapshots (DESIGN.md §3.5, EXPERIMENTS.md "Operating a run").
//
// Any bench harness can export its final cluster state with
// `--state <out.json|->`; statectl renders the canned squeue/sinfo
// style views over such a snapshot, or replays the full invariant
// registry against it:
//
//   fig03_launch_loaded --fast --state state.json
//   statectl nodes    --state state.json
//   statectl queue    --state state.json
//   statectl spans    --job 3 --state state.json
//   statectl metrics  --prefix mm. --top 10 --state state.json
//   statectl top      --state state.json   # per-window rates + trends
//   statectl watch    --state state.json   # time-major window rows
//   statectl check    --state state.json        # exit 1 on violation
//   fig02_launch_unloaded --fast --state - | statectl summary --state -
//
// With `--state -` statectl reads stdin and locates the snapshot
// inside mixed output (benches print their tables first and the
// snapshot last), so piping a harness straight in Just Works.
//
// A usage error (unknown flag, missing or malformed value) exits 2
// with the usage text.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "query/invariants.hpp"
#include "query/snapshot.hpp"
#include "query/views.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <view>|check|views [--job <J>] [--top <K>]\n"
               "       [--windows <N>] [--prefix <P>] --state <file|->\n"
               "views:",
               argv0);
  for (const auto& v : storm::query::view_names()) {
    std::fprintf(stderr, " %s", v.c_str());
  }
  std::fprintf(stderr,
               "\n  check          run the invariant registry (exit 1 on "
               "violation)\n"
               "  views          list the available views\n"
               "  --job <J>      spans view: only job J's incarnations\n"
               "  --top <K>      top/metrics views: show K entries "
               "(default 12)\n"
               "  --windows <N>  top/watch views: trailing N windows "
               "(default 20)\n"
               "  --prefix <P>   top/watch/metrics: only metrics named P*\n"
               "  --state <f|->  snapshot file, or '-' for stdin (a bench's\n"
               "                 piped output is located automatically)\n");
  return 2;
}

/// A whole-string decimal integer >= `min`.
bool parse_int(std::string_view text, int min, int& out) {
  int v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size() || v < min) {
    return false;
  }
  out = v;
  return true;
}

bool read_stream(std::FILE* f, std::string& out) {
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  return std::ferror(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace storm;

  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  if (cmd == "views") {
    for (const auto& v : query::view_names()) std::printf("%s\n", v.c_str());
    std::printf("check\n");
    return 0;
  }
  if (cmd == "--help" || cmd == "-h") return usage(argv[0]);

  query::ViewOptions opt;
  const char* path = nullptr;
  // The integer flags and the least value each accepts.
  struct IntFlag {
    std::string_view name;
    int* dst;
    int min;
  };
  const IntFlag int_flags[] = {{"--job", &opt.job, 0},
                               {"--top", &opt.top, 1},
                               {"--windows", &opt.windows, 1}};
  for (int i = 2; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const IntFlag* int_flag = nullptr;
    for (const IntFlag& f : int_flags) {
      if (f.name == flag) int_flag = &f;
    }
    if (int_flag == nullptr && flag != "--prefix" && flag != "--state") {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], argv[i]);
      return usage(argv[0]);
    }
    if (i + 1 >= argc || (flag == "--state" && argv[i + 1][0] == '\0')) {
      std::fprintf(stderr, "%s: %s requires a value\n", argv[0], argv[i]);
      return usage(argv[0]);
    }
    const char* value = argv[++i];
    if (flag == "--prefix") {
      opt.prefix = value;
    } else if (flag == "--state") {
      path = value;
    } else if (!parse_int(value, int_flag->min, *int_flag->dst)) {
      std::fprintf(stderr, "%s: %s takes an integer >= %d, not '%s'\n",
                   argv[0], argv[i - 1], int_flag->min, value);
      return usage(argv[0]);
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "%s: --state <file|-> is required\n", argv[0]);
    return usage(argv[0]);
  }

  std::string text;
  if (std::strcmp(path, "-") == 0) {
    if (!read_stream(stdin, text)) {
      std::fprintf(stderr, "%s: error reading stdin\n", argv[0]);
      return 1;
    }
  } else {
    std::FILE* f = std::fopen(path, "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "%s: cannot open %s\n", argv[0], path);
      return 1;
    }
    const bool ok = read_stream(f, text);
    std::fclose(f);
    if (!ok) {
      std::fprintf(stderr, "%s: error reading %s\n", argv[0], path);
      return 1;
    }
  }

  const std::string json(query::find_state_json(text));
  if (json.empty()) {
    std::fprintf(stderr, "%s: no %.*s snapshot found in %s\n", argv[0],
                 static_cast<int>(query::kStateSchema.size()),
                 query::kStateSchema.data(),
                 std::strcmp(path, "-") == 0 ? "stdin" : path);
    return 1;
  }

  query::StateSnapshot snap;
  std::string err;
  if (!query::from_json(json, snap, &err)) {
    std::fprintf(stderr, "%s: bad snapshot: %s\n", argv[0], err.c_str());
    return 1;
  }

  if (cmd == "check") {
    const query::InvariantReport report = query::check_invariants(snap);
    const std::string summary = report.summary();
    std::printf("%s%s", summary.c_str(),
                summary.ends_with('\n') ? "" : "\n");
    return report.ok() ? 0 : 1;
  }

  const std::string out = query::render_view(cmd, snap, opt, &err);
  if (!err.empty()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
    return usage(argv[0]);
  }
  std::printf("%s", out.c_str());
  return 0;
}
