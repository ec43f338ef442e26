/**
 * @file
 * In-process serving engine: continuous batching over a pooled,
 * slot-addressed KV cache, with an owned scheduler thread and
 * per-request lifecycle control.
 *
 * Clients submit per-request prompts (CausalLM prefixes or Seq2Seq
 * sources) through a FIFO RequestQueue; the scheduler admits pending
 * requests into free KVCachePool slots the moment they open, steps
 * *all* in-flight sequences one position per iteration through the
 * slot-indexed forwardIncrementalSlots entry points, and retires a
 * sequence on EOS / max_new_tokens / slot-capacity overflow — freeing
 * its slot for the next admission on the same step. CausalLM prompts
 * prefill token-by-token inside the shared step batch, so prefill and
 * decode rows mix freely like any continuous-batching server.
 *
 * The scheduler runs in either of two modes:
 *  - **owned thread** (production): start() launches it; it sleeps on a
 *    condition variable while idle, wakes on submit()/cancel()/stop(),
 *    and stop() either drains (kDrain: finish everything, then join) or
 *    aborts (kAbort: resolve every in-flight and queued request with
 *    kEngineStopped, then join).
 *  - **externally stepped** (tests, benches): the caller drives step()
 *    / runUntilIdle() itself. The two modes are mutually exclusive —
 *    don't call step() while the thread runs.
 *
 * Robustness contract (DESIGN.md §10): every submitted request resolves
 * with exactly one typed RequestStatus — validation failures and
 * queue overflow immediately at submit(), deadline expiry and
 * cancellation at the next step (partial output kept), non-finite
 * logits in a request's row retire *only* that request with
 * kNumericFault while its neighbours decode on bit-identically, and an
 * abort resolves everything in flight with kEngineStopped. Promises and
 * completion callbacks always fire with no engine lock held.
 *
 * Every request's emitted tokens are bit-identical to a solo cached
 * decode of the same prompt (greedy) or to a replay from the same
 * sampling seed: all forward quant points round element-wise on static
 * grids and every kernel is row-independent, so gathering arbitrary
 * slot subsets into a step never changes a row's bits (DESIGN.md §9).
 * int8's dynamic per-tensor scaling is row-coupled and stays excluded,
 * exactly as in the DecodeState path.
 */
#ifndef QT8_SERVE_ENGINE_H
#define QT8_SERVE_ENGINE_H

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "nn/model.h"
#include "serve/fault.h"
#include "serve/kv_pool.h"
#include "serve/kv_spill.h"
#include "serve/metrics.h"
#include "serve/paged_kv.h"
#include "serve/request.h"
#include "serve/request_queue.h"

namespace qt8::serve {

/// How stop() winds the scheduler thread down.
enum class StopMode {
    kDrain, ///< Finish every queued + in-flight request, then join.
    kAbort, ///< Resolve everything in flight/queued with
            ///< kEngineStopped (partial output kept), then join.
};

struct EngineConfig
{
    int64_t n_slots = 4;       ///< Concurrent in-flight sequences.
    int64_t slot_capacity = 64; ///< Max positions per sequence
                                ///< (clamped to the model's max_seq).
    int64_t cross_capacity = 0; ///< Seq2Seq max source length
                                ///< (0 = slot_capacity).
    size_t max_queue_depth = 0; ///< Pending-queue bound (0 = unbounded).

    /// Multi-tenant scheduling (DESIGN.md §16): per-class weights and
    /// SLO targets, per-tenant token-rate limits, drain policy, and
    /// preemption. The default — fair share over a single implicit
    /// kStandard class, no limits — behaves exactly like the
    /// historical FIFO queue.
    SchedulerConfig sched;

    /// Scan every step's logits rows for non-finite values and retire
    /// poisoned requests with kNumericFault instead of sampling
    /// garbage. O(n_active * vocab) per step — noise next to the
    /// forward pass.
    bool guard_logits = true;

    /// Diagnostic: install a QuantSession forward tap during engine
    /// steps that counts steps in which *any* pre-quantization
    /// activation tensor went non-finite (metrics.tap_nonfinite_steps).
    /// Attribution and retirement still happen at the logits scan;
    /// note a tap forces the serial attention path (DESIGN.md §8), so
    /// this is off by default.
    bool tap_activations = false;

    /// Optional fault injector (borrowed; may be null). See
    /// serve/fault.h — zero cost when null.
    FaultInjector *fault = nullptr;

    // --- Paged pool (DESIGN.md §14) ---------------------------------

    /// Use the paged KV pool (PagedKVPool) instead of the slab
    /// KVCachePool: per-request page tables, chunked prefill, and the
    /// shared-prefix radix cache. Tokens stay bit-identical to the
    /// slab engine; `slot_capacity` still caps per-request length (so
    /// truncation points match the slab oracle exactly).
    bool paged = false;

    int64_t page_size = 16; ///< Rows per KV page.

    /// Self-arena page count; 0 derives the slab-equivalent footprint
    /// (n_slots * ceil(slot_capacity / page_size) pages), so paged and
    /// slab engines compare at identical KV RAM by default.
    int64_t n_pages = 0;

    /// Seq2Seq cross-arena page count; 0 derives
    /// n_slots * ceil(cross_capacity / page_size).
    int64_t n_cross_pages = 0;

    /// Paged: cap on concurrently in-flight requests (0 = unbounded —
    /// admission is gated by worst-case page demand alone, sized by
    /// each request's actual prompt + budget, the point of paging).
    int64_t max_active = 0;

    /// Paged CausalLM: enable the shared-prefix radix cache.
    bool prefix_cache = true;

    /// Paged CausalLM: prompt rows consumed per engine step during
    /// prefill (<= 0 = page_size). The slab engine prefills 1/step.
    int64_t prefill_chunk = 0;

    // --- Tiered KV session storage (DESIGN.md §15) ------------------
    // Paged CausalLM only: requests carrying Request::session_id leave
    // their KV pages retained as idle sessions; these knobs size the
    // spill policy. Always active on a paged CausalLM engine — with no
    // session-keyed requests the table stays empty and costs nothing.

    /// Disk-tier directory for idle-session spill files ("" = RAM-only
    /// sessions: under memory pressure idle sessions are dropped and
    /// their next turn recomputes).
    std::string spill_dir;

    /// Watermark sweep at each step: when availablePages() < low,
    /// spill LRU idle sessions until >= high (0 = n_pages / 4 and
    /// n_pages / 2).
    int64_t spill_low_pages = 0;
    int64_t spill_high_pages = 0;

    /// Idle-session table bound (LRU overflow is dropped).
    int64_t max_sessions = 64;
};

class ServeEngine
{
  public:
    /// The engine borrows the model and session; both must outlive it.
    /// Decoding through the engine is inference-only and does not
    /// disturb training state.
    ServeEngine(CausalLM &model, QuantSession &qs, EngineConfig cfg);
    ServeEngine(Seq2Seq &model, QuantSession &qs, EngineConfig cfg);
    ~ServeEngine(); // joins (abort) if the scheduler thread still runs

    /**
     * Enqueue a request. Always returns a future that is guaranteed to
     * resolve with a typed status; invalid requests (empty prompt,
     * max_new_tokens <= 0, prompt longer than the slot / cross
     * capacity, mismatched src_pad) resolve immediately with
     * kRejectedInvalid, a full queue with kRejectedQueueFull, and a
     * closed (aborted) engine with kEngineStopped. Thread-safe.
     *
     * @param id_out Optional: receives the engine-assigned request id
     *   (valid even for rejected requests), usable with cancel().
     */
    std::shared_future<RequestResult> submit(Request req,
                                             uint64_t *id_out = nullptr);

    /**
     * Request cancellation of a queued or in-flight request. Applied at
     * the next scheduler step: a queued request resolves kCancelled
     * with no output, an in-flight one retires kCancelled keeping its
     * partial output. Unknown, finished, or foreign ids are a no-op.
     * Returns false only for ids this engine never issued. Thread-safe.
     */
    bool cancel(uint64_t id);

    /// Launch the owned scheduler thread (idempotent while running).
    /// Re-opens the queue after a previous stop, so stop()/start()
    /// cycles are valid.
    void start();

    /**
     * Stop the scheduler thread and join it. kDrain finishes all
     * queued and in-flight work first (unbounded if producers keep
     * submitting); kAbort closes the queue — subsequent submissions
     * resolve kEngineStopped immediately — and resolves everything in
     * flight with kEngineStopped. No-op when the thread isn't running.
     * Safe to call from multiple threads; one caller joins, the rest
     * wait.
     */
    void stop(StopMode mode = StopMode::kDrain);

    /// Is the owned scheduler thread running?
    bool running() const { return thread_running_.load(); }

    /**
     * One scheduler iteration: apply cancellations and deadline
     * expiries, admit pending requests into free slots, run one pooled
     * decode step over every in-flight sequence, scan for numeric
     * faults, sample / retire. Returns true when a forward ran (false =
     * idle step). For externally-stepped use only — never call while
     * the owned thread runs.
     */
    bool step();

    /// Step until both the queue and the in-flight set are empty
    /// (externally-stepped mode).
    void runUntilIdle();

    size_t pendingCount() const
    {
        return queue_.size() + parked_n_.load();
    }
    size_t activeCount() const { return active_n_.load(); }

    /// Slab: free pool slots. Paged: pages obtainable right now
    /// (free + evictable prefix-cache pages).
    int64_t freeSlots() const;

    /**
     * Consistent copy of the metrics as of the last completed step (or
     * abort), safe to call from any thread while the scheduler runs.
     * Never waits on a forward pass: each step publishes its metrics
     * under a mutex held only for that copy, and the counters submit()
     * bumps (per-class submitted / rejected, rejected_invalid, the
     * submit-side stopped) are atomics folded in at read time.
     */
    ServeMetrics metricsSnapshot() const;

    /// Live copy for single-threaded (externally-stepped) use: the
    /// scheduler's counters as they stand plus the submit-side ones.
    /// Racy while the scheduler thread runs — prefer metricsSnapshot()
    /// there.
    ServeMetrics metrics() const;
    const EngineConfig &config() const { return cfg_; }

    /// KV pool footprint. Geometry (and hence these values) is fixed at
    /// construction, so they are safe to read without the engine lock.
    bool kvPacked() const
    {
        return ppool_ != nullptr ? ppool_->packed() : pool_->packed();
    }
    size_t residentKVBytes() const
    {
        return ppool_ != nullptr ? ppool_->residentKVBytes()
                                 : pool_->residentKVBytes();
    }
    /// Slab: bytes one slot reserves. Paged: bytes a full-length
    /// (slot_capacity-row) sequence would occupy in whole pages.
    size_t kvBytesPerSlot() const;

    /// Paged engine only (null otherwise): the paging pool, for tests
    /// and benches reading occupancy / prefix-cache statistics.
    const PagedKVPool *pagedPool() const { return ppool_.get(); }

    /// Paged CausalLM only (null otherwise): the tiered-KV session
    /// manager, for tests and benches reading spill statistics. Racy
    /// while the scheduler thread runs — prefer metricsSnapshot().
    const SpillManager *spillManager() const { return smgr_.get(); }

    /// Drop every idle session (pages released, spill files deleted).
    /// Ops hook for reclaiming memory, and lets tests assert pool
    /// quiescence after a drain. Thread-safe.
    void releaseSessions();

  private:
    struct Active; // One in-flight request's decode state.

    /// A resolved promise + callback, fired only after every engine
    /// lock is released (callbacks may re-enter the engine).
    struct Resolution
    {
        std::promise<RequestResult> promise;
        RequestResult result;
        std::function<void(const RequestResult &)> callback;
    };

    ServeEngine(CausalLM *clm, Seq2Seq *s2s, QuantSession &qs,
                EngineConfig cfg);

    double nowMs() const;
    RequestStatus validate(const Request &req) const;
    static void deliver(std::vector<Resolution> &done);
    void wake();

    bool stepLocked(std::vector<Resolution> &done);
    bool stepPagedLocked(std::vector<Resolution> &done);
    /// Admit queued requests into free slots; returns the number admitted.
    int admitLocked(std::vector<Resolution> &done);
    bool admitOneLocked(PendingRequest &&p, std::vector<Resolution> &done);
    /// Paged admission (DESIGN.md §16): per class in priority order,
    /// resume preempted victims and retry the parked head; then pop
    /// fresh requests under the fair-share schedule, skipping classes
    /// whose head is parked (FIFO within a class, work conservation
    /// across classes).
    int admitPagedLocked();
    /// Returns false — leaving @p p intact for parking — when the pool
    /// cannot take the request right now (first chunk unobtainable, or
    /// the worst-case page-demand gate would overcommit the arena).
    bool admitPagedOneLocked(PendingRequest &p);
    /// Escalating admission: plain gate, then idle-session spill, then
    /// preemption of strictly-lower-class in-flight decodes.
    bool admitPagedWithPressureLocked(PendingRequest &p);
    /// True when @p p should wait for a prefilling request's prompt
    /// pages instead of computing the same rows itself (in-batch
    /// prefix sharing, DESIGN.md §14).
    bool awaitsSharedPrefixLocked(const PendingRequest &p) const;
    /// Re-admit a preempted victim by resuming its checkpoint session
    /// (resident / restored / recomputed); false = still blocked.
    bool admitPreemptedOneLocked(Active &a);
    /// Checkpoint active_[idx]'s rows through the session tier
    /// (spill-or-drop, pages freed now) and move it to preempted_.
    void preemptActiveLocked(size_t idx);
    /// Preempt the best victim whose class value is strictly greater
    /// than @p below_class (-1 = any active); false = no candidate.
    bool preemptLowestLocked(int below_class);
    /// Resolve preempted_[idx] with a terminal status (cancel,
    /// deadline, abort), dropping its checkpoint session.
    void resolvePreemptedLocked(size_t idx, RequestStatus status,
                                double now_ms,
                                std::vector<Resolution> &done);
    void syncParkedCountLocked();
    int32_t acquireVSlotLocked();
    void retireLocked(size_t idx, RequestStatus status, double now_ms,
                      std::vector<Resolution> &done);
    void resolveUnadmittedLocked(PendingRequest &&p, RequestStatus status,
                                 std::vector<Resolution> &done);
    void processCancelsLocked(double now_ms, std::vector<Resolution> &done);
    void expireDeadlinesLocked(double now_ms, std::vector<Resolution> &done);

    void threadMain();
    bool hasWork();
    void abortAll();
    /// Bring published_ up to metrics_: the counters plus only the
    /// samples added since the last publish (caller holds mu_).
    void publishMetricsLocked();
    /// Add the submit-side atomic counters into @p m.
    void foldSubmitCounts(ServeMetrics &m) const;

    CausalLM *clm_ = nullptr;
    Seq2Seq *s2s_ = nullptr;
    QuantSession &qs_;
    EngineConfig cfg_;
    RequestQueue queue_;

    mutable std::mutex mu_; ///< Guards the pools, active_, metrics_
                            ///< and serializes scheduler steps;
                            ///< submit() and metricsSnapshot() never
                            ///< take it.
    std::unique_ptr<KVCachePool> pool_;  ///< Slab mode (else null).
    std::unique_ptr<PagedKVPool> ppool_; ///< Paged mode (else null).
    /// Paged CausalLM: tiered KV sessions (declared after ppool_ so it
    /// releases its pages into a still-live pool on destruction).
    std::unique_ptr<SpillManager> smgr_;
    /// Paged: per-class admission-order heads that did not fit the
    /// pool last step — retried before fresh pops so backpressure
    /// stays FIFO within each class while the others keep admitting.
    std::array<std::optional<PendingRequest>, kNumClasses> parked_;
    /// Paged CausalLM: preempted in-flight requests awaiting
    /// re-admission; their KV rows live in the session tier under
    /// kPreemptKeyBit | id (or were dropped, to be recomputed).
    std::vector<std::unique_ptr<Active>> preempted_;
    std::atomic<size_t> parked_n_{0}; ///< parked_ + preempted_ mirror.
    std::vector<int32_t> vslot_free_; ///< Paged: recycled virtual slots.
    int32_t vslot_next_ = 0;          ///< Paged: next fresh virtual slot.
    std::vector<std::unique_ptr<Active>> active_;
    ServeMetrics metrics_;
    std::atomic<size_t> active_n_{0}; ///< Lock-free activeCount mirror.

    /// The counters submit() bumps, kept off mu_ so an API call never
    /// waits on a forward pass (metrics_ leaves them at zero, except
    /// `stopped`, which abort also counts there).
    std::array<std::atomic<int64_t>, kNumClasses> submitted_{};
    std::array<std::atomic<int64_t>, kNumClasses> rejected_full_{};
    std::atomic<int64_t> rejected_invalid_{0};
    std::atomic<int64_t> stopped_at_submit_{0};

    mutable std::mutex publish_mu_; ///< Guards published_ only.
    ServeMetrics published_;        ///< metrics_ as of the last step.

    std::atomic<uint64_t> next_id_{1};
    std::mutex cancel_mu_;
    std::vector<uint64_t> cancel_ids_; ///< Pending cancellations.

    std::thread thread_;
    std::mutex stop_mu_; ///< Serializes concurrent stop() callers.
    std::atomic<bool> thread_running_{false};
    std::atomic<int> stop_request_{0}; ///< 0 none, 1 drain, 2 abort.
    std::mutex wake_mu_;
    std::condition_variable wake_cv_;
    int64_t step_idx_ = 0; ///< Scheduler step counter (fault triggers).
    std::chrono::steady_clock::time_point start_;
};

} // namespace qt8::serve

#endif // QT8_SERVE_ENGINE_H
