#include "serve/metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "util/trace.h"

namespace qt8::serve {

const char *
toString(RequestStatus s)
{
    switch (s) {
    case RequestStatus::kOk:
        return "ok";
    case RequestStatus::kCapacityExceeded:
        return "capacity-exceeded";
    case RequestStatus::kCancelled:
        return "cancelled";
    case RequestStatus::kDeadlineExceeded:
        return "deadline-exceeded";
    case RequestStatus::kNumericFault:
        return "numeric-fault";
    case RequestStatus::kEngineStopped:
        return "engine-stopped";
    case RequestStatus::kRejectedQueueFull:
        return "rejected-queue-full";
    case RequestStatus::kRejectedInvalid:
        return "rejected-invalid";
    }
    return "?";
}

const char *
toString(SessionKVSource s)
{
    switch (s) {
    case SessionKVSource::kNone:
        return "none";
    case SessionKVSource::kResident:
        return "resident";
    case SessionKVSource::kRestoredFromSpill:
        return "restored-from-spill";
    case SessionKVSource::kRecomputed:
        return "recomputed";
    }
    return "?";
}

const char *
toString(PriorityClass c)
{
    switch (c) {
    case PriorityClass::kInteractive:
        return "interactive";
    case PriorityClass::kStandard:
        return "standard";
    case PriorityClass::kBatch:
        return "batch";
    }
    return "?";
}

double
LatencyHistogram::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    // Clamp: p outside [0,100] used to compute an out-of-range rank and
    // read past the sorted array (pinned by metrics_test).
    p = std::min(100.0, std::max(0.0, p));
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double
LatencyHistogram::mean() const
{
    if (samples_.empty())
        return 0.0;
    double total = 0.0;
    for (double s : samples_)
        total += s;
    return total / static_cast<double>(samples_.size());
}

size_t
LatencyHistogram::catchUp(const LatencyHistogram &src)
{
    assert(samples_.size() <= src.samples_.size());
    const size_t n = src.samples_.size() - samples_.size();
    samples_.insert(samples_.end(), src.samples_.end() - n,
                    src.samples_.end());
    return n;
}

size_t
ServeMetrics::catchUp(const ServeMetrics &src)
{
    static_cast<ServeCounters &>(*this) = src;
    assert(requests.size() <= src.requests.size());
    size_t n = src.requests.size() - requests.size();
    requests.insert(requests.end(), src.requests.end() - n,
                    src.requests.end());
    n += ttft_ms.catchUp(src.ttft_ms);
    n += request_latency_ms.catchUp(src.request_latency_ms);
    n += token_latency_ms.catchUp(src.token_latency_ms);
    for (size_t c = 0; c < kNumClasses; ++c) {
        ClassMetrics &dc = per_class[c];
        const ClassMetrics &sc = src.per_class[c];
        static_cast<ClassCounters &>(dc) = sc;
        n += dc.ttft_ms.catchUp(sc.ttft_ms);
        n += dc.latency_ms.catchUp(sc.latency_ms);
    }
    return n;
}

void
ServeMetrics::recordRetirement(const RequestRecord &r)
{
    requests.push_back(r);
    ttft_ms.record(r.ttft_ms);
    request_latency_ms.record(r.latency_ms);
    generated_tokens += r.generated_tokens;
    prompt_tokens += r.prompt_tokens;
    switch (r.status) {
    case RequestStatus::kCapacityExceeded:
        ++truncated;
        break;
    case RequestStatus::kCancelled:
        ++cancelled;
        break;
    case RequestStatus::kDeadlineExceeded:
        ++expired;
        break;
    case RequestStatus::kNumericFault:
        ++numeric_faults;
        break;
    case RequestStatus::kEngineStopped:
        ++stopped;
        break;
    default:
        break;
    }
    ++completed;

    ClassMetrics &cm =
        per_class[static_cast<size_t>(r.priority_class)];
    ++cm.completed;
    cm.generated_tokens += r.generated_tokens;
    cm.preemptions += r.preemptions;
    cm.ttft_ms.record(r.ttft_ms);
    cm.latency_ms.record(r.latency_ms);
    if (r.status == RequestStatus::kOk) {
        ++cm.ok;
        if (r.slo_met) {
            ++cm.slo_met;
            cm.goodput_tokens += r.generated_tokens;
        }
    }
}

double
ServeMetrics::tokensPerSecBusy() const
{
    if (busy_ms <= 0.0)
        return 0.0;
    return static_cast<double>(generated_tokens) / (busy_ms / 1000.0);
}

std::string
ServeMetrics::dump() const
{
    char buf[512];
    std::string out;
    std::snprintf(buf, sizeof(buf),
                  "serve: %lld completed (%lld truncated), %lld rejected "
                  "(%lld invalid), %lld steps (%lld idle)\n",
                  static_cast<long long>(completed),
                  static_cast<long long>(truncated),
                  static_cast<long long>(rejected),
                  static_cast<long long>(rejected_invalid),
                  static_cast<long long>(steps),
                  static_cast<long long>(idle_steps));
    out += buf;
    if (cancelled + expired + numeric_faults + stopped +
            tap_nonfinite_steps >
        0) {
        std::snprintf(buf, sizeof(buf),
                      "faults: %lld cancelled, %lld deadline-expired, "
                      "%lld numeric, %lld engine-stopped, %lld tap "
                      "trips\n",
                      static_cast<long long>(cancelled),
                      static_cast<long long>(expired),
                      static_cast<long long>(numeric_faults),
                      static_cast<long long>(stopped),
                      static_cast<long long>(tap_nonfinite_steps));
        out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "tokens: %lld generated, %lld prompt; %.0f tok/s over "
                  "%.1f ms busy\n",
                  static_cast<long long>(generated_tokens),
                  static_cast<long long>(prompt_tokens), tokensPerSecBusy(),
                  busy_ms);
    out += buf;
    if (prefix_lookups + pages_resident_peak > 0) {
        std::snprintf(
            buf, sizeof(buf),
            "paged: %lld/%lld prefix hits, %lld rows reused, %lld "
            "prefill rows computed, %lld evictions, %lld pages peak, "
            "%lld preempted\n",
            static_cast<long long>(prefix_hits),
            static_cast<long long>(prefix_lookups),
            static_cast<long long>(prefix_reused_tokens),
            static_cast<long long>(prefill_tokens_computed),
            static_cast<long long>(prefix_evictions),
            static_cast<long long>(pages_resident_peak),
            static_cast<long long>(preempted));
        out += buf;
    }
    if (sessions_spilled + sessions_restored + sessions_recomputed +
            sessions_resident_reused + sessions_dropped + spill_failures >
        0) {
        std::snprintf(
            buf, sizeof(buf),
            "spill: %lld spilled / %lld restored / %lld recomputed / "
            "%lld resident-reused / %lld dropped, %lld IO failures, "
            "%lld B out, %lld B in; idle now %lld RAM + %lld disk\n",
            static_cast<long long>(sessions_spilled),
            static_cast<long long>(sessions_restored),
            static_cast<long long>(sessions_recomputed),
            static_cast<long long>(sessions_resident_reused),
            static_cast<long long>(sessions_dropped),
            static_cast<long long>(spill_failures),
            static_cast<long long>(spilled_bytes),
            static_cast<long long>(restored_bytes),
            static_cast<long long>(sessions_resident),
            static_cast<long long>(sessions_on_disk));
        out += buf;
    }
    // Per-class rows only when more than one class actually retired
    // something (single-class workloads keep the old dump byte-shape).
    int active_classes = 0;
    for (const auto &cm : per_class)
        active_classes += cm.completed > 0 ? 1 : 0;
    if (active_classes > 1 || sched_preemptions > 0) {
        for (size_t c = 0; c < per_class.size(); ++c) {
            const ClassMetrics &cm = per_class[c];
            if (cm.completed == 0 && cm.rejected == 0)
                continue;
            std::snprintf(
                buf, sizeof(buf),
                "class %-11s %lld done (%lld ok, %lld slo-met, %lld "
                "rejected), %lld tok (%lld goodput), %lld preempts, "
                "ttft p95 %.1f ms, latency p95 %.1f ms\n",
                toString(static_cast<PriorityClass>(c)),
                static_cast<long long>(cm.completed),
                static_cast<long long>(cm.ok),
                static_cast<long long>(cm.slo_met),
                static_cast<long long>(cm.rejected),
                static_cast<long long>(cm.generated_tokens),
                static_cast<long long>(cm.goodput_tokens),
                static_cast<long long>(cm.preemptions),
                cm.ttft_ms.percentile(95.0),
                cm.latency_ms.percentile(95.0));
            out += buf;
        }
        if (sched_preemptions > 0) {
            std::snprintf(
                buf, sizeof(buf),
                "sched: %lld preemptions (%lld resumed)\n",
                static_cast<long long>(sched_preemptions),
                static_cast<long long>(preempt_resumes));
            out += buf;
        }
    }
    const struct
    {
        const char *name;
        const LatencyHistogram &h;
    } rows[] = {
        {"ttft_ms", ttft_ms},
        {"request_latency_ms", request_latency_ms},
        {"token_latency_ms", token_latency_ms},
    };
    for (const auto &row : rows) {
        std::snprintf(buf, sizeof(buf),
                      "%-20s n=%-6zu mean=%-8.3f p50=%-8.3f p95=%-8.3f "
                      "p99=%.3f\n",
                      row.name, row.h.count(), row.h.mean(),
                      row.h.percentile(50.0), row.h.percentile(95.0),
                      row.h.percentile(99.0));
        out += buf;
    }
    // Park the dump next to the spans it explains, so a trace file is a
    // self-contained record of the run.
    if (trace::collecting())
        trace::note("serve_metrics", out);
    return out;
}

} // namespace qt8::serve
