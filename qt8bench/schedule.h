/**
 * @file
 * Seeded input generators for the benchmark workloads. Every draw comes
 * from xoshiro streams seeded by `--seed` (never the wall clock), so a
 * seed names one exact schedule; fingerprint() serializes a schedule
 * field by field so the determinism tests can compare two generations
 * byte for byte. Lengths, budgets, turn counts and think times are drawn
 * by stratified sampling, so the total work a run offers is nearly the
 * same for every seed; arrival times are Poisson, conditioned on a count
 * of rate x seconds.
 *
 * Decoding is greedy with eos = -1, so every request generates exactly
 * its max_new_tokens. That makes every prompt *length* — including a
 * chat turn's full history — known at generation time even though the
 * history's token values come from the model at run time.
 */
#ifndef QT8BENCH_SCHEDULE_H
#define QT8BENCH_SCHEDULE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace qt8bench {

/// One closed-loop decode request.
struct DecodeItem
{
    std::vector<int32_t> prompt;
    int64_t max_new = 0;
};

/// decode-solo / decode-batch inputs: a solo queue (one at a time) and
/// equal-sized waves submitted all at once. Only the prefix a run has time for is
/// used. Every prompt's first token is distinct (cycling a seeded
/// permutation of the vocabulary), so no two prompts share even one
/// prefix-cache row until the permutation wraps.
struct DecodeSchedule
{
    std::vector<DecodeItem> solo;
    std::vector<std::vector<DecodeItem>> waves;
};

/// One chat session: turn k's prompt is the shared system prompt, the
/// history of turns < k (user tokens + the model's output), and
/// user[k]. A turn is due think_ms[k] after turn k-1 completes.
struct ChatSession
{
    double arrival_ms = 0.0;
    uint64_t tenant = 0;
    std::vector<std::vector<int32_t>> user; ///< New tokens per turn.
    std::vector<int64_t> max_new;           ///< Budget per turn.
    std::vector<double> think_ms;           ///< [0] unused.
};

/// A standard-class long-document request (one shot, no session).
struct DocRequest
{
    double arrival_ms = 0.0;
    uint64_t tenant = 0;
    std::vector<int32_t> prompt;
    int64_t max_new = 0;
};

struct ChatSchedule
{
    std::vector<int32_t> system_prompt;
    std::vector<ChatSession> sessions; ///< Sorted by arrival.
    std::vector<DocRequest> docs;      ///< Sorted by arrival.
};

DecodeSchedule makeDecodeSchedule(const Config &cfg, uint64_t seed);
ChatSchedule makeChatSchedule(const Config &cfg, uint64_t seed,
                              double horizon_ms);

std::string fingerprint(const DecodeSchedule &s);
std::string fingerprint(const ChatSchedule &s);

/// FNV-1a 64-bit hash, printed as 16 hex digits.
std::string hashHex(const std::string &bytes);

} // namespace qt8bench

#endif // QT8BENCH_SCHEDULE_H
