/**
 * @file
 * The benchmark workloads. Each builds its system from scratch (timed
 * as set-up), runs its seeded inputs for the requested time, checks the
 * outputs outside the timed window, and returns the gated end-to-end
 * metrics, the report-only figures and the per-layer counters.
 *
 * Gated end-to-end metrics, printed by every workload:
 *
 *   setup_s          median set-up time over config `setup_reps` builds
 *   peak_rss_mb      peak resident memory of the process
 *   ok_share         requests (steps) that ended OK over those sent
 *   throughput       generated tokens/s (serving) or samples/s (training)
 *   slo_attainment   share of requests (steps) meeting the config `slo`
 *                    limits: TPOT (decode-*), per-class TTFT from the
 *                    due time and TPOT (chat), step time (lora-finetune)
 *
 * Latency percentiles are report-only figures: on chat-sessions the
 * TTFT and TPOT tails swing run to run far beyond any usable bound while
 * step() holds the engine lock across the forward pass, so the gated
 * set keeps only metrics every workload measures steadily.
 */
#ifndef QT8BENCH_WORKLOADS_H
#define QT8BENCH_WORKLOADS_H

#include "common.h"

namespace qt8bench {

RunResult runDecodeSolo(const Config &cfg, const Options &opt);
RunResult runDecodeBatch(const Config &cfg, const Options &opt);
RunResult runChat(const Config &cfg, const Options &opt);
RunResult runFinetune(const Config &cfg, const Options &opt);

/// Replay the `tensor` and `numerics` kernels at the workloads' shapes
/// and measure the host ceilings; appends per-layer metrics.
void replayKernels(const Config &cfg, RunResult &out);

/// Print the lora-finetune data-stream fingerprint for @p seed (the
/// first config `lora.fingerprint_batches` PairTask batches).
std::string finetuneFingerprint(const Config &cfg, uint64_t seed);

} // namespace qt8bench

#endif // QT8BENCH_WORKLOADS_H
