/**
 * @file
 * Fold a util/trace JSON file into per-span totals, self times (span
 * minus the spans nested directly inside it on the same thread) and
 * counts. Reads the writer's one-event-per-line layout with a line
 * scanner instead of a full JSON parse, so a long traced run folds in
 * bounded memory.
 */
#ifndef QT8BENCH_TRACEFOLD_H
#define QT8BENCH_TRACEFOLD_H

#include <cstdint>
#include <map>
#include <string>

namespace qt8bench {

struct SpanStat
{
    int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
};

/// Span name -> stats; false (with @p err) when the file is unreadable
/// or holds no span events.
bool foldTrace(const std::string &path, std::map<std::string, SpanStat> &out,
               std::string *err);

} // namespace qt8bench

#endif // QT8BENCH_TRACEFOLD_H
