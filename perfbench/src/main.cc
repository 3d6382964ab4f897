// perfbench: runs one workload and prints its metrics. Usually started
// through perfbench/run.py, which builds this binary first:
//
//   perfbench --workload ml-read --seed 1 --seconds 10 --trace 0
//
// Every line but the last starts with "# " and is for people (stamp,
// per-class figures, gates); the last line is the JSON result.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<ml-read|ml-ingest|serve-2shard> --seed N --seconds S "
               "--trace 0|1 [--git-sha X] [--src-digest X]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed expects an integer");
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(cfg.seconds > 0)) Usage("--seconds expects > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace expects 0 or 1");
      cfg.trace = value == "1";
    } else if (flag == "--git-sha") {
      cfg.git_sha = value;
    } else if (flag == "--src-digest") {
      cfg.src_digest = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const auto& name : perfbench::WorkloadNames()) known |= name == cfg.workload;
  if (!known) Usage(("unknown workload '" + cfg.workload + "'").c_str());

  const perfbench::Report report = perfbench::RunWorkload(cfg);
  for (const auto& line : report.info) std::printf("# %s\n", line.c_str());
  std::printf("%s\n", perfbench::ResultJson(report.failed == 0, report.attempted,
                                            report.failed, report.metrics)
                          .c_str());
  return report.failed == 0 ? 0 : 1;
}
