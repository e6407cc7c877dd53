#ifndef SSEBENCH_WORKLOADS_H_
#define SSEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace ssebench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-check: one search reply loses an id; the run must come out
  /// incorrect.
  bool corrupt = false;
  /// Scratch space inside the checkout: vault directories, trace files.
  std::string work_dir;
};

RunReport RunS2ZipfTcp(const RunOptions& options);
RunReport RunS2Ingest(const RunOptions& options);
RunReport RunS3HotChurn(const RunOptions& options);

}  // namespace ssebench

#endif  // SSEBENCH_WORKLOADS_H_
