#include "fault/arq.h"

#include <algorithm>

#include "util/check.h"

namespace wsnq {

int64_t ArqBackoffTicks(const ArqConfig& config, int attempt) {
  WSNQ_CHECK_GE(attempt, 1);
  WSNQ_CHECK_GE(config.base_timeout_ticks, 1);
  const int exponent = std::min(attempt, config.backoff_exponent_cap);
  return config.base_timeout_ticks << exponent;
}

TransportPolicy::UplinkOutcome RunStopAndWait(const ArqConfig& config,
                                              FrameLossOracle* links, int src,
                                              int dst, bool dst_down,
                                              int64_t* clock) {
  const int64_t start = *clock;
  const int attempts = config.enabled ? config.max_retx + 1 : 1;
  TransportPolicy::UplinkOutcome outcome{.delivered = false,
                                         .data_frames = 0,
                                         .data_frames_received = 0};
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) *clock += ArqBackoffTicks(config, attempt);
    *clock += 1;  // data frame airtime
    ++outcome.data_frames;
    const bool heard =
        !dst_down &&
        !links->FrameLost(src, dst, *clock, /*downlink=*/false);
    if (heard) {
      ++outcome.data_frames_received;
      outcome.delivered = true;
      if (!config.enabled) break;
      // Stop-and-wait ack: the parent answers every heard data frame; the
      // exchange ends only when the sender hears one back.
      *clock += 1;  // ack frame airtime
      ++outcome.ack_frames;
      if (!links->FrameLost(src, dst, *clock, /*downlink=*/true)) {
        ++outcome.ack_frames_received;
        break;
      }
    } else if (!config.enabled) {
      break;
    }
    // No ack heard: the sender times out and (budget permitting) retries.
  }
  outcome.ticks = *clock - start;
  WSNQ_DCHECK_LE(outcome.data_frames, attempts);
  WSNQ_DCHECK_LE(outcome.data_frames_received, outcome.data_frames);
  // No ack exists for a frame the parent never heard.
  WSNQ_DCHECK_LE(outcome.ack_frames, outcome.data_frames_received);
  WSNQ_DCHECK_LE(outcome.ack_frames_received, outcome.ack_frames);
  WSNQ_DCHECK_EQ(outcome.delivered ? 1 : 0,
                 outcome.data_frames_received > 0 ? 1 : 0);
  return outcome;
}

}  // namespace wsnq
