#ifndef XRPC_FUZZ_REPRO_H_
#define XRPC_FUZZ_REPRO_H_

#include <cstdint>
#include <cstdlib>
#include <string>

#include "base/statusor.h"

namespace xrpc::fuzz {

/// What a schedule repro file identifies: the explorer's MakeSchedule is a
/// pure function of (seed, index), so the pair alone replays the run.
struct ReproKey {
  uint64_t seed = 0;
  int index = 0;
};

/// Reads the `seed:` and `index:` lines of a schedule or chaos repro file
/// (FormatRepro); every other line is informational.
inline StatusOr<ReproKey> ParseRepro(const std::string& content) {
  ReproKey key;
  bool saw_seed = false, saw_index = false;
  size_t pos = 0;
  while (pos < content.size()) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("seed: ", 0) == 0) {
      key.seed = std::strtoull(line.c_str() + 6, nullptr, 10);
      saw_seed = true;
    } else if (line.rfind("index: ", 0) == 0) {
      key.index = std::atoi(line.c_str() + 7);
      saw_index = true;
    }
  }
  if (!saw_seed || !saw_index) {
    return Status::InvalidArgument("repro needs seed: and index:");
  }
  return key;
}

}  // namespace xrpc::fuzz

#endif  // XRPC_FUZZ_REPRO_H_
