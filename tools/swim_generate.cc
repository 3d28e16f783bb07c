// swim_generate: emit a calibrated paper workload as a trace file.
//
//   swim_generate <workload> <out> [jobs] [seed]
//
// Workload names are Table 1's: CC-a..CC-e, FB-2009, FB-2010
// (swim_analyze --list shows details). Output is STF1 when <out> ends in
// .stf/.stf1, CSV otherwise.
#include <cstdio>

#include "trace/columnar.h"
#include "trace/trace_io.h"
#include "workloads/paper_workloads.h"
#include "workloads/spec_io.h"
#include "workloads/trace_generator.h"
#include "numeric_arg.h"

int main(int argc, char** argv) {
  using namespace swim;
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: swim_generate <workload-or-spec-file> <out> "
                 "[jobs] [seed]\n");
    return 2;
  }
  // The first argument is either a built-in paper workload name or a path
  // to a .spec file (see workloads/spec_io.h for the format).
  auto spec = workloads::PaperWorkloadByName(argv[1]);
  if (!spec.ok()) {
    spec = workloads::LoadSpec(argv[1]);
  }
  if (!spec.ok()) {
    std::fprintf(stderr,
                 "'%s' is neither a built-in workload nor a loadable spec "
                 "file: %s\n",
                 argv[1], spec.status().ToString().c_str());
    return 1;
  }
  workloads::GeneratorOptions options;
  if (argc > 3 &&
      !ParseNumericArg("[jobs]", argv[3], &options.job_count_override)) {
    return 2;
  }
  if (argc > 4 && !ParseNumericArg("[seed]", argv[4], &options.seed)) {
    return 2;
  }
  auto trace = workloads::GenerateTrace(*spec, options);
  if (!trace.ok()) {
    std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
    return 1;
  }
  Status written = trace::WriteTraceAuto(*trace, argv[2]);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu jobs shaped like %s to %s\n", trace->size(),
              argv[1], argv[2]);
  return 0;
}
