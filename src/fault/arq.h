// Stop-and-wait ARQ over one lossy uplink hop. The sender transmits a data
// frame, waits a deterministic logical-tick timeout for the parent's ack,
// and retransmits with exponential backoff up to a bounded retry budget.
// Acks ride the parent's downlink beacon slot as header-only control frames
// (ack_payload_bits = 0 by default) and are themselves lossy — a lost ack
// costs the sender a spurious retransmission, exactly the classic
// stop-and-wait failure mode. Everything is measured in logical ticks on
// the caller's clock, so the whole exchange is bit-reproducible.

#ifndef WSNQ_FAULT_ARQ_H_
#define WSNQ_FAULT_ARQ_H_

#include <cstdint>

#include "fault/link_models.h"
#include "net/network.h"

namespace wsnq {

/// Reliability knobs for the stop-and-wait transport.
struct ArqConfig {
  bool enabled = false;
  /// Retransmission budget per message (attempts = max_retx + 1). At the
  /// default 16, delivery failure at loss 0.3 needs 17 consecutive frame
  /// losses — vanishing in expectation, deterministic per seed.
  int max_retx = 16;
  /// Payload bits of an ack frame; 0 = pure control frame, one header on
  /// the air (the piggybacked-beacon pricing, docs/robustness.md).
  int64_t ack_payload_bits = 0;
  /// Ticks the sender waits for an ack before the first retransmission.
  int64_t base_timeout_ticks = 2;
  /// Backoff doubles per retry up to base << cap, so waits stay bounded.
  int backoff_exponent_cap = 6;
};

/// Backoff delay before retransmission number `attempt` (1-based over the
/// retries): base_timeout_ticks << min(attempt, backoff_exponent_cap).
int64_t ArqBackoffTicks(const ArqConfig& config, int attempt);

/// Runs one message exchange src -> dst over `links`, advancing `*clock`
/// one tick per frame on the air plus the backoff gaps. With ARQ disabled
/// the exchange is a single unacknowledged frame. `dst_down` models a
/// crashed parent: every data frame is lost and no ack ever comes, so the
/// sender burns its full retry budget — the cost tree repair avoids. The
/// outcome is the TransportPolicy's, counted from zero frames up.
TransportPolicy::UplinkOutcome RunStopAndWait(const ArqConfig& config,
                                              FrameLossOracle* links, int src,
                                              int dst, bool dst_down,
                                              int64_t* clock);

}  // namespace wsnq

#endif  // WSNQ_FAULT_ARQ_H_
