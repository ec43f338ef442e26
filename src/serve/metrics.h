/**
 * @file
 * Built-in observability for the serving engine: per-request TTFT,
 * end-to-end latency and tokens/sec, per-token step latencies, and
 * p50/p95/p99 summaries over all of them, dumpable as text. Samples are
 * kept raw (doubles, milliseconds) and percentiles computed on demand —
 * at serving-bench scale this is cheaper than maintaining bucketed
 * histograms and loses nothing.
 */
#ifndef QT8_SERVE_METRICS_H
#define QT8_SERVE_METRICS_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.h"

namespace qt8::serve {

/// Raw latency samples with percentile queries (linear interpolation
/// between closest ranks on the sorted samples, numpy-default style:
/// rank = p/100 * (n-1); a 1-sample histogram returns that sample for
/// every p).
class LatencyHistogram
{
  public:
    void record(double ms) { samples_.push_back(ms); }
    size_t count() const { return samples_.size(); }
    /// Bring this histogram up to @p src, of which it is an earlier
    /// copy (samples are only ever appended): copies just the samples
    /// recorded since. Returns how many.
    size_t catchUp(const LatencyHistogram &src);
    double percentile(double p) const; ///< p clamped to [0, 100].
    double mean() const;

  private:
    std::vector<double> samples_;
};

/// One retired request's timing record.
struct RequestRecord
{
    uint64_t id = 0;
    RequestStatus status = RequestStatus::kOk;
    int64_t prompt_tokens = 0;
    int64_t generated_tokens = 0;
    double ttft_ms = 0.0;
    double latency_ms = 0.0;
    double tokens_per_sec = 0.0; ///< generated / (latency - ttft)-ish.
    PriorityClass priority_class = PriorityClass::kStandard;
    uint64_t tenant_id = 0;
    /// kOk and inside the class SLO targets (a class with no SLO meets
    /// it trivially) — the goodput criterion.
    bool slo_met = false;
    int64_t preemptions = 0; ///< Scheduler preempt-resume round trips.
};

/// The counters of ClassMetrics (everything but its samples).
struct ClassCounters
{
    int64_t submitted = 0; ///< Accepted submissions (post-validation).
    int64_t completed = 0; ///< Retirements of any terminal status.
    int64_t ok = 0;
    int64_t slo_met = 0;
    int64_t rejected = 0; ///< kRejectedQueueFull for this class.
    int64_t preemptions = 0;
    int64_t generated_tokens = 0;
    int64_t goodput_tokens = 0; ///< Generated tokens of SLO-met requests.
};

/// Per-priority-class slice of the serve metrics (fair-share and SLO
/// accounting, DESIGN.md §16).
struct ClassMetrics : ClassCounters
{
    LatencyHistogram ttft_ms;
    LatencyHistogram latency_ms;
};

/// The counters and gauges of ServeMetrics: everything but its
/// per-request and per-token samples, so copying them costs the same
/// however long the engine has run.
struct ServeCounters
{
    int64_t completed = 0;  ///< All retirements (any terminal status).
    int64_t truncated = 0;  ///< kCapacityExceeded retirements.
    int64_t cancelled = 0;  ///< kCancelled retirements.
    int64_t expired = 0;    ///< kDeadlineExceeded retirements.
    int64_t numeric_faults = 0; ///< kNumericFault retirements.
    int64_t stopped = 0;    ///< kEngineStopped resolutions (abort).
    int64_t rejected = 0;   ///< kRejectedQueueFull submissions.
    int64_t rejected_invalid = 0; ///< kRejectedInvalid submissions.
    int64_t steps = 0;      ///< Scheduler iterations that ran a forward.
    int64_t idle_steps = 0;
    int64_t generated_tokens = 0;
    int64_t prompt_tokens = 0;
    int64_t tap_nonfinite_steps = 0; ///< Activation-tap trips (§10).
    double busy_ms = 0.0; ///< Total forward/sample time across steps.

    // Paged-pool counters (zero on the slab engine).
    int64_t prefill_tokens_computed = 0; ///< Prompt rows run in chunks.
    int64_t prefix_lookups = 0; ///< Prefix-cache admissions probed.
    int64_t prefix_hits = 0;    ///< Probes matching >= 1 row.
    int64_t prefix_reused_tokens = 0; ///< Prompt rows skipped via cache.
    int64_t prefix_evictions = 0;     ///< LRU cache pages reclaimed.
    int64_t pages_resident_peak = 0;  ///< Max referenced pages seen.
    int64_t preempted = 0; ///< Out-of-pages forced retirements.

    // Multi-tenant scheduling (DESIGN.md §16).
    int64_t sched_preemptions = 0; ///< Spill-and-requeue preemptions
                                   ///< (the victim resumes later —
                                   ///< distinct from `preempted`,
                                   ///< which destroys the request).
    int64_t preempt_resumes = 0;   ///< Preempted victims re-admitted.

    // Tiered KV session storage (zero without sessions; DESIGN.md §15).
    int64_t sessions_spilled = 0;   ///< Idle sessions written to disk.
    int64_t sessions_restored = 0;  ///< Resumes served from a spill file.
    int64_t sessions_recomputed = 0; ///< Resumes whose spill was dead
                                     ///< (recomputed via chunked prefill).
    int64_t sessions_resident_reused = 0; ///< Resumes served from RAM.
    int64_t sessions_dropped = 0;   ///< Sessions evicted outright (no
                                    ///< disk tier / table overflow).
    int64_t spill_failures = 0;     ///< Typed spill IO failures, both
                                    ///< write-side (abandoned) and
                                    ///< restore-side (fell back).
    int64_t spilled_bytes = 0;      ///< Bytes written to spill files.
    int64_t restored_bytes = 0;     ///< Bytes read back on restore.
    int64_t sessions_resident = 0;  ///< Gauge: idle sessions in RAM.
    int64_t sessions_on_disk = 0;   ///< Gauge: idle sessions spilled.
};

/// Aggregated engine metrics; filled by the scheduler as requests
/// retire and steps complete. Plain copyable data: the engine hands
/// out consistent copies through ServeEngine::metricsSnapshot() while
/// the scheduler thread keeps writing.
struct ServeMetrics : ServeCounters
{
    std::vector<RequestRecord> requests;
    LatencyHistogram ttft_ms;
    LatencyHistogram request_latency_ms;
    LatencyHistogram token_latency_ms; ///< Per generated token.
    std::array<ClassMetrics, kNumClasses> per_class;

    /// Bring this copy up to @p src, of which it is an earlier copy
    /// (records and samples are only ever appended): copies the
    /// counters and appends just the records and samples added since,
    /// so the cost follows the new samples, not the history. Returns
    /// the records plus samples copied.
    size_t catchUp(const ServeMetrics &src);

    void recordRetirement(const RequestRecord &r);

    /// Aggregate decode throughput over engine busy time.
    double tokensPerSecBusy() const;

    /// Human-readable multi-line summary.
    std::string dump() const;
};

} // namespace qt8::serve

#endif // QT8_SERVE_METRICS_H
