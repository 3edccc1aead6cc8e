#include "qsc/bench/runner.h"

#include <cstdio>
#include <vector>

#include "qsc/util/check.h"
#include "qsc/util/timer.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__linux__)
#include <unistd.h>
#endif

namespace qsc {
namespace bench {

double PeakRssMib() {
#if defined(__linux__)
  // VmHWM: the kernel's resident high-water mark, in kB. Read-only; the
  // mark is never reset.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
#endif
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);  // bytes
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kibibytes
#endif
#else
  return 0.0;
#endif
}

double CurrentRssMib() {
#if defined(__linux__)
  // /proc/self/statm: size resident shared ... in pages.
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long size = 0, resident = 0;
  const int fields = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (fields != 2) return 0.0;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<double>(resident) * static_cast<double>(page) /
         (1024.0 * 1024.0);
#else
  return 0.0;
#endif
}

Measurement MeasureSeconds(const MeasureOptions& options,
                           const std::function<void()>& fn) {
  QSC_CHECK_GE(options.warmup, 0);
  QSC_CHECK_GT(options.repeats, 0);
  for (int i = 0; i < options.warmup; ++i) fn();
  std::vector<double> samples;
  samples.reserve(options.repeats);
  for (int i = 0; i < options.repeats; ++i) {
    WallTimer timer;
    fn();
    samples.push_back(timer.ElapsedSeconds());
  }
  Measurement m;
  m.seconds = Summarize(std::move(samples));
  m.protocol = options;
  return m;
}

}  // namespace bench
}  // namespace qsc
