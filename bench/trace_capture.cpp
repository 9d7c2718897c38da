// Runs a short traced experiment (BERT-L, localGPUs, DDP) with the
// span profiler enabled and writes the Chrome trace_event export to the
// path given as argv[1]. Paired with trace_validate by the
// bench_trace_validate ctest: capture here, structural checks there.
//
// It also gates the export's heap traffic: a counting global operator new
// measures the allocations of one chromeTrace().dump() per trace record,
// and the binary exits 1 above kMaxExportAllocsPerRecord (3.0). Events
// built as reserved objects make about 2.6 per record on this trace;
// filling them through Json::set() without reserves makes 6.4, and
// dropping only the per-event or per-args reserve 5.6 or 3.4.
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "core/experiment.hpp"
#include "dl/zoo.hpp"
#include "telemetry/profiler.hpp"

using namespace composim;

// Counting allocator: every global operator new bumps the counter while
// g_count_allocs is set. Single-threaded binary, so plain variables do.
namespace {
bool g_count_allocs = false;
std::size_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs) ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

constexpr double kMaxExportAllocsPerRecord = 3.0;

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: trace_capture <trace.json>\n");
    return 1;
  }

  const dl::ModelSpec model = dl::workload("BERT-L");
  core::ExperimentOptions opt;
  opt.trainer.epochs = 1;
  opt.trainer.max_iterations_per_epoch = 5;
  opt.trace = true;

  const auto result =
      core::Experiment::run(core::SystemConfig::LocalGpus, model, opt);
  if (!result.profiler) {
    std::fprintf(stderr, "trace_capture: experiment produced no profiler\n");
    return 1;
  }
  if (const Status s = result.profiler->writeChromeTrace(argv[1]); !s) {
    std::fprintf(stderr, "trace_capture: %s\n", s.toString().c_str());
    return 1;
  }
  const std::size_t records = result.profiler->recordCount();
  std::printf("trace_capture: %zu records -> %s\n", records, argv[1]);

  g_alloc_count = 0;
  g_count_allocs = true;
  const std::string json = result.profiler->chromeTrace().dump(-1);
  g_count_allocs = false;
  const double per_record = records == 0
                                ? 0.0
                                : static_cast<double>(g_alloc_count) /
                                      static_cast<double>(records);
  std::printf("trace export: %zu allocations over %zu records "
              "(%.2f per record, %zu bytes)\n",
              g_alloc_count, records, per_record, json.size());
  if (records == 0 || !(per_record <= kMaxExportAllocsPerRecord)) {
    std::fprintf(stderr,
                 "trace_capture: export makes %.2f allocations per record, "
                 "above the %.1f gate\n",
                 per_record, kMaxExportAllocsPerRecord);
    return 1;
  }
  return 0;
}
