#include "serve/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "serve/sampler.h"
#include "util/trace.h"
#include "tensor/ops.h"

namespace qt8::serve {
namespace {

EngineConfig
normalized(EngineConfig cfg, int64_t max_seq)
{
    assert(cfg.n_slots > 0);
    if (cfg.slot_capacity <= 0 || cfg.slot_capacity > max_seq)
        cfg.slot_capacity = max_seq;
    if (cfg.cross_capacity <= 0)
        cfg.cross_capacity = cfg.slot_capacity;
    if (cfg.paged) {
        if (cfg.page_size <= 0)
            cfg.page_size = 16;
        if (cfg.prefill_chunk <= 0)
            cfg.prefill_chunk = cfg.page_size;
        // Default arenas match the slab pool's footprint exactly, so
        // paged-vs-slab comparisons run at identical KV RAM.
        if (cfg.n_pages <= 0)
            cfg.n_pages = cfg.n_slots *
                          PagedKVPool::pagesFor(cfg.slot_capacity,
                                                cfg.page_size);
        if (cfg.n_cross_pages <= 0)
            cfg.n_cross_pages = cfg.n_slots *
                                PagedKVPool::pagesFor(cfg.cross_capacity,
                                                      cfg.page_size);
    }
    return cfg;
}

/// Session-table key for a preemption checkpoint: the high bit keeps
/// engine-generated keys disjoint from any user session_id (whose ids
/// the engine never mints), so a victim's spilled rows can ride the
/// normal tiered-KV table without colliding with real sessions.
constexpr uint64_t kPreemptKeyBit = 1ull << 63;

/// Non-finite scan of one logits row — the per-slot numeric guard.
bool
rowFinite(const Tensor &logits, int64_t row)
{
    const int64_t n = logits.dim(1);
    const float *p = logits.data() + row * n;
    for (int64_t j = 0; j < n; ++j)
        if (!std::isfinite(p[j]))
            return false;
    return true;
}

} // namespace

/// One in-flight request: its slot, decode cursor, prefill progress,
/// sampling stream, output so far, and timing marks.
struct ServeEngine::Active
{
    Active(PendingRequest &&p, int32_t slot_id)
        : id(p.id), req(std::move(p.request)), promise(std::move(p.promise)),
          slot(slot_id), session_kv(p.session_kv_hint),
          rng(req.sampling.seed), submit_ms(p.submit_ms),
          deadline_ms(p.deadline_ms)
    {}

    uint64_t id;
    Request req;
    std::promise<RequestResult> promise;
    int32_t slot; ///< Slab: pool slot. Paged: virtual slot id (fault
                  ///< targeting / metric parity with the slab engine).
    int64_t pos = 0;        ///< Next decode position (rows in the slot).
    size_t prompt_next = 0; ///< CausalLM: next prompt index to feed.
    PagedSeq pseq;          ///< Paged mode: page tables.
    int64_t prefill_pos = 0; ///< Paged CausalLM: next prompt row to
                             ///< compute (rows below are cached).
    bool kv_poisoned = false; ///< Paged: a fault hit one of our pages;
                              ///< never donate them to the cache.
    int64_t worst_pages = 0;  ///< Paged: worst-case self-page demand
                              ///< (clamped to the arena), reserved
                              ///< against at admission.
    /// Tiered KV sessions: where this request's history rows came
    /// from, and how many were reused without recompute.
    SessionKVSource session_kv = SessionKVSource::kNone;
    int64_t session_reused = 0;
    int32_t next_input = 0; ///< Token fed on the coming step.
    std::vector<int32_t> out;
    /// Preemption replay: after a spill-and-requeue round trip the
    /// "prompt" the engine prefills is the original prompt plus every
    /// token generated before the interrupt — the KV rows and the
    /// sampling stream (rng lives in this object, untouched) continue
    /// exactly where they stopped, so the full output is bit-identical
    /// to the uninterrupted decode. Empty = never preempted.
    std::vector<int32_t> replay;
    int64_t preemptions = 0;     ///< Preempt-resume round trips.
    int64_t min_victim_step = 0; ///< Cooldown: not a victim again
                                 ///< before this step (anti-livelock).
    const std::vector<int32_t> &effPrompt() const
    {
        return replay.empty() ? req.prompt : replay;
    }
    Rng rng;
    double submit_ms;
    double deadline_ms; ///< Engine-clock deadline; 0 = none.
    double first_token_ms = -1.0;
    double last_token_ms = -1.0;
};

ServeEngine::~ServeEngine()
{
    // An owned scheduler thread must never outlive the engine; abort
    // resolves whatever is still in flight with kEngineStopped.
    stop(StopMode::kAbort);
}

ServeEngine::ServeEngine(CausalLM &model, QuantSession &qs,
                         EngineConfig cfg)
    : ServeEngine(&model, nullptr, qs, cfg)
{}

ServeEngine::ServeEngine(Seq2Seq &model, QuantSession &qs,
                         EngineConfig cfg)
    : ServeEngine(nullptr, &model, qs, cfg)
{}

ServeEngine::ServeEngine(CausalLM *clm, Seq2Seq *s2s, QuantSession &qs,
                         EngineConfig cfg)
    : clm_(clm), s2s_(s2s), qs_(qs),
      cfg_(normalized(cfg, clm != nullptr
                               ? clm->body.config().max_seq
                               : s2s->encoder.config().max_seq)),
      queue_(cfg_.max_queue_depth, cfg_.sched),
      start_(std::chrono::steady_clock::now())
{
    const int64_t d_model = clm != nullptr
                                ? clm->body.config().d_model
                                : s2s->encoder.config().d_model;
    const size_t n_self = clm != nullptr ? clm->body.blocks.size()
                                         : s2s->dec_blocks.size();
    const size_t n_cross = s2s != nullptr ? s2s->dec_blocks.size() : 0;
    if (cfg_.paged) {
        PagedKVPool::Config pc;
        pc.n_pages = cfg_.n_pages;
        pc.page_size = cfg_.page_size;
        pc.d_model = d_model;
        pc.n_self_layers = n_self;
        pc.n_cross_layers = n_cross;
        pc.n_cross_pages = n_cross > 0 ? cfg_.n_cross_pages : 0;
        pc.packed_fmt = qs.config().kvPackedFormat();
        // The radix cache only applies to CausalLM prompts (a Seq2Seq
        // source primes cross panels, never the self cache).
        pc.prefix_cache = cfg_.prefix_cache && clm != nullptr;
        ppool_ = std::make_unique<PagedKVPool>(pc);
        if (clm != nullptr) {
            // Tiered KV sessions ride on the paged CausalLM pool; an
            // empty table costs nothing when no request carries a
            // session_id.
            SpillManager::Config sc;
            sc.dir = cfg_.spill_dir;
            sc.low_pages = cfg_.spill_low_pages;
            sc.high_pages = cfg_.spill_high_pages;
            sc.max_sessions = cfg_.max_sessions > 0
                                  ? static_cast<size_t>(cfg_.max_sessions)
                                  : 64;
            sc.fault = cfg_.fault;
            smgr_ = std::make_unique<SpillManager>(sc, *ppool_,
                                                   cfg_.slot_capacity);
        }
    } else {
        pool_ = std::make_unique<KVCachePool>(
            cfg_.n_slots, cfg_.slot_capacity, d_model, n_self, n_cross,
            cfg_.cross_capacity, qs.config().kvPackedFormat());
    }
}

double
ServeEngine::nowMs() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

int64_t
ServeEngine::freeSlots() const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (ppool_ != nullptr)
        return ppool_->availablePages();
    return static_cast<int64_t>(pool_->freeCount());
}

size_t
ServeEngine::kvBytesPerSlot() const
{
    if (ppool_ != nullptr)
        return ppool_->bytesPerPage() *
               static_cast<size_t>(PagedKVPool::pagesFor(
                   cfg_.slot_capacity, cfg_.page_size));
    return pool_->bytesPerSlot();
}

ServeMetrics
ServeEngine::metricsSnapshot() const
{
    ServeMetrics m;
    {
        std::lock_guard<std::mutex> lock(publish_mu_);
        m = published_;
    }
    foldSubmitCounts(m);
    return m;
}

ServeMetrics
ServeEngine::metrics() const
{
    ServeMetrics m = metrics_;
    foldSubmitCounts(m);
    return m;
}

void
ServeEngine::publishMetricsLocked()
{
    std::lock_guard<std::mutex> lock(publish_mu_);
    published_.catchUp(metrics_);
}

void
ServeEngine::foldSubmitCounts(ServeMetrics &m) const
{
    for (size_t c = 0; c < kNumClasses; ++c) {
        const int64_t full = rejected_full_[c].load();
        m.per_class[c].submitted += submitted_[c].load();
        m.per_class[c].rejected += full;
        m.rejected += full;
    }
    m.rejected_invalid += rejected_invalid_.load();
    m.stopped += stopped_at_submit_.load();
}

RequestStatus
ServeEngine::validate(const Request &req) const
{
    if (req.prompt.empty() || req.max_new_tokens <= 0)
        return RequestStatus::kRejectedInvalid;
    // A rate-limited tenant whose single request exceeds its bucket
    // capacity could never become eligible: typed rejection now
    // instead of queueing forever.
    if (tokenCost(req) > cfg_.sched.burstFor(req.tenant_id))
        return RequestStatus::kRejectedInvalid;
    const int64_t plen = static_cast<int64_t>(req.prompt.size());
    if (clm_ != nullptr) {
        // The prompt alone must fit the slot, or prefill can never
        // complete and no token can be emitted.
        if (plen > cfg_.slot_capacity)
            return RequestStatus::kRejectedInvalid;
        // Paged: the first prefill chunk (plus one decode headroom
        // page) must be admittable even with every page free, or the
        // request would park forever.
        if (cfg_.paged &&
            PagedKVPool::pagesFor(std::min(plen, cfg_.prefill_chunk),
                                  cfg_.page_size) +
                    1 >
                cfg_.n_pages)
            return RequestStatus::kRejectedInvalid;
    } else {
        if (plen > cfg_.cross_capacity)
            return RequestStatus::kRejectedInvalid;
        if (!req.src_pad.empty() &&
            req.src_pad.size() != req.prompt.size())
            return RequestStatus::kRejectedInvalid;
        if (cfg_.paged &&
            (PagedKVPool::pagesFor(plen, cfg_.page_size) >
                 cfg_.n_cross_pages ||
             cfg_.n_pages < 1))
            return RequestStatus::kRejectedInvalid;
    }
    return RequestStatus::kOk;
}

void
ServeEngine::deliver(std::vector<Resolution> &done)
{
    for (Resolution &d : done) {
        d.promise.set_value(d.result);
        if (d.callback)
            d.callback(d.result);
    }
    done.clear();
}

void
ServeEngine::wake()
{
    // Taking wake_mu_ (even empty) pairs the notify with the waiter's
    // predicate-to-sleep window, so a wakeup can never be lost.
    { std::lock_guard<std::mutex> lock(wake_mu_); }
    wake_cv_.notify_all();
}

std::shared_future<RequestResult>
ServeEngine::submit(Request req, uint64_t *id_out)
{
    PendingRequest p;
    p.id = next_id_.fetch_add(1);
    if (id_out != nullptr)
        *id_out = p.id;
    p.request = std::move(req);
    p.submit_ms = nowMs();
    p.deadline_ms = p.request.timeout_ms > 0.0
                        ? p.submit_ms + p.request.timeout_ms
                        : 0.0;
    std::shared_future<RequestResult> fut =
        p.promise.get_future().share();

    // Typed rejection instead of UB/asserts deeper in the stack: an
    // invalid request never touches the queue or the pool.
    const RequestStatus v = validate(p.request);
    if (v != RequestStatus::kOk) {
        RequestResult r;
        r.id = p.id;
        r.status = v;
        r.prompt_tokens = static_cast<int64_t>(p.request.prompt.size());
        ++rejected_invalid_;
        p.promise.set_value(r);
        if (p.request.on_complete)
            p.request.on_complete(r);
        return fut;
    }

    // A failed tryPush leaves p untouched (it only moves on success),
    // so the original promise can carry the typed rejection: the
    // future resolves immediately, nothing is admitted, and the caller
    // can retry or back off.
    // Counted before the push, so no snapshot can show a request
    // retired before it was submitted; a refused push takes it back.
    const size_t cls = static_cast<size_t>(p.request.priority_class);
    ++submitted_[cls];
    const RequestQueue::PushResult pushed = queue_.tryPush(std::move(p));
    if (pushed != RequestQueue::PushResult::kOk)
        --submitted_[cls];
    switch (pushed) {
    case RequestQueue::PushResult::kOk:
        wake();
        return fut;
    case RequestQueue::PushResult::kFull: {
        RequestResult r;
        r.id = p.id;
        r.status = RequestStatus::kRejectedQueueFull;
        ++rejected_full_[cls];
        p.promise.set_value(r);
        if (p.request.on_complete)
            p.request.on_complete(r);
        return fut;
    }
    case RequestQueue::PushResult::kClosed:
    default: {
        // The engine aborted: resolve with the same status its
        // in-flight peers received instead of parking forever.
        RequestResult r;
        r.id = p.id;
        r.status = RequestStatus::kEngineStopped;
        ++stopped_at_submit_;
        p.promise.set_value(r);
        if (p.request.on_complete)
            p.request.on_complete(r);
        return fut;
    }
    }
}

bool
ServeEngine::cancel(uint64_t id)
{
    if (id == 0 || id >= next_id_.load())
        return false; // never issued by this engine
    {
        std::lock_guard<std::mutex> lock(cancel_mu_);
        cancel_ids_.push_back(id);
    }
    wake();
    return true;
}

bool
ServeEngine::admitOneLocked(PendingRequest &&p,
                            std::vector<Resolution> &done)
{
    const int32_t slot = pool_->acquire();
    assert(slot >= 0 && "admitLocked checked freeCount");

    auto a = std::make_unique<Active>(std::move(p), slot);

    if (clm_ != nullptr) {
        // validate() guarantees a non-empty prompt and positive budget.
        a->next_input = a->req.prompt[0];
        active_.push_back(std::move(a));
        active_n_.store(active_.size());
        return true;
    }

    // Seq2Seq admission: encode the source once (batch 1 — identical
    // bits to any batch, rows being independent) and park the projected
    // K/V panels in this request's cross slots.
    const int64_t seq_src = static_cast<int64_t>(a->req.prompt.size());
    const uint8_t *pad =
        a->req.src_pad.empty() ? nullptr : a->req.src_pad.data();
    const Tensor memory = s2s_->encodeOne(qs_, a->req.prompt, seq_src, pad);
    if (!s2s_->primeCrossSlots(qs_, memory, seq_src, pool_->crossLayers(),
                               a->slot)) {
        // Source longer than the cross-attention pool (defensive —
        // validate() bounds it): typed error instead of an assert,
        // slot returned immediately.
        active_.push_back(std::move(a));
        active_n_.store(active_.size());
        retireLocked(active_.size() - 1, RequestStatus::kCapacityExceeded,
                     nowMs(), done);
        return true;
    }
    a->next_input = a->req.bos;
    active_.push_back(std::move(a));
    active_n_.store(active_.size());
    return true;
}

int
ServeEngine::admitLocked(std::vector<Resolution> &done)
{
    int admitted = 0;
    while (pool_->freeCount() > 0) {
        if (cfg_.fault != nullptr && cfg_.fault->onAcquire())
            break; // injected allocation failure: retry next step
        PendingRequest p;
        if (!queue_.tryPop(nowMs(), p))
            break;
        admitOneLocked(std::move(p), done);
        ++admitted;
    }
    return admitted;
}

void
ServeEngine::retireLocked(size_t idx, RequestStatus status, double now_ms,
                          std::vector<Resolution> &done)
{
    Active &a = *active_[idx];

    RequestResult r;
    r.id = a.id;
    r.status = status;
    r.tokens = a.out;
    r.prompt_tokens = static_cast<int64_t>(a.req.prompt.size());
    r.prefix_reused_tokens = a.pseq.shared_rows;
    r.session_kv = a.session_kv;
    r.session_reused_tokens = a.session_reused;
    r.ttft_ms =
        a.first_token_ms >= 0.0 ? a.first_token_ms - a.submit_ms : 0.0;
    r.latency_ms = now_ms - a.submit_ms;

    RequestRecord rec;
    rec.id = r.id;
    rec.status = status;
    rec.prompt_tokens = r.prompt_tokens;
    rec.generated_tokens = static_cast<int64_t>(r.tokens.size());
    rec.ttft_ms = r.ttft_ms;
    rec.latency_ms = r.latency_ms;
    rec.tokens_per_sec =
        r.latency_ms > 0.0
            ? static_cast<double>(rec.generated_tokens) /
                  (r.latency_ms / 1000.0)
            : 0.0;
    rec.priority_class = a.req.priority_class;
    rec.tenant_id = a.req.tenant_id;
    rec.preemptions = a.preemptions;
    if (status == RequestStatus::kOk) {
        const ClassPolicy &pol =
            cfg_.sched.policyFor(a.req.priority_class);
        rec.slo_met =
            (pol.ttft_slo_ms <= 0.0 || r.ttft_ms <= pol.ttft_slo_ms) &&
            (pol.latency_slo_ms <= 0.0 ||
             r.latency_ms <= pol.latency_slo_ms);
    }
    metrics_.recordRetirement(rec);

    if (ppool_ != nullptr) {
        if (status == RequestStatus::kNumericFault) {
            // A numeric fault may have poisoned any of this request's
            // K/V pages; pages it donated to the prefix cache must not
            // be re-shared with future requests. Pages still mapped by
            // concurrent sequences stay resident (those sequences were
            // flagged by the injector's sharer scan).
            for (const int32_t pg : a.pseq.pages)
                ppool_->dropCachedPage(pg);
        }
        // Tiered KV sessions: a clean kOk retirement retains its pages
        // as the idle session for this key; the history tokens (prompt
        // ++ generated, truncated to the cached rows) key the next
        // turn's resume. Any other status — and any poisoned pages —
        // drops the session instead: a partial or corrupt history must
        // never silently seed a future turn.
        bool retained = false;
        const uint64_t sid = a.req.session_id;
        if (smgr_ != nullptr && sid != 0) {
            if (status == RequestStatus::kOk && !a.kv_poisoned &&
                a.pseq.len > 0) {
                std::vector<int32_t> hist = a.req.prompt;
                hist.insert(hist.end(), a.out.begin(), a.out.end());
                if (static_cast<int64_t>(hist.size()) >= a.pseq.len) {
                    hist.resize(static_cast<size_t>(a.pseq.len));
                    smgr_->endTurn(sid, std::move(hist),
                                   std::move(a.pseq));
                    retained = true;
                }
            }
            if (!retained)
                smgr_->dropSession(sid);
        }
        if (!retained)
            ppool_->releaseSeq(a.pseq);
        vslot_free_.push_back(a.slot);
    } else {
        pool_->release(a.slot);
    }
    done.push_back(Resolution{std::move(a.promise), std::move(r),
                              std::move(a.req.on_complete)});
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(idx));
    active_n_.store(active_.size());
}

void
ServeEngine::resolveUnadmittedLocked(PendingRequest &&p,
                                     RequestStatus status,
                                     std::vector<Resolution> &done)
{
    RequestResult r;
    r.id = p.id;
    r.status = status;
    r.prompt_tokens = static_cast<int64_t>(p.request.prompt.size());
    r.latency_ms = nowMs() - p.submit_ms;

    RequestRecord rec;
    rec.id = r.id;
    rec.status = status;
    rec.prompt_tokens = r.prompt_tokens;
    rec.latency_ms = r.latency_ms;
    rec.priority_class = p.request.priority_class;
    rec.tenant_id = p.request.tenant_id;
    metrics_.recordRetirement(rec);

    done.push_back(Resolution{std::move(p.promise), std::move(r),
                              std::move(p.request.on_complete)});
}

void
ServeEngine::resolvePreemptedLocked(size_t idx, RequestStatus status,
                                    double now_ms,
                                    std::vector<Resolution> &done)
{
    Active &a = *preempted_[idx];
    // The checkpoint session — and its spill file, if the rows made it
    // to disk — dies with the request: a cancelled or expired victim
    // must leak neither pages nor files.
    if (smgr_ != nullptr)
        smgr_->dropSession(kPreemptKeyBit | a.id);

    RequestResult r;
    r.id = a.id;
    r.status = status;
    r.tokens = a.out;
    r.prompt_tokens = static_cast<int64_t>(a.req.prompt.size());
    r.session_kv = a.session_kv;
    r.session_reused_tokens = a.session_reused;
    r.ttft_ms =
        a.first_token_ms >= 0.0 ? a.first_token_ms - a.submit_ms : 0.0;
    r.latency_ms = now_ms - a.submit_ms;

    RequestRecord rec;
    rec.id = r.id;
    rec.status = status;
    rec.prompt_tokens = r.prompt_tokens;
    rec.generated_tokens = static_cast<int64_t>(r.tokens.size());
    rec.ttft_ms = r.ttft_ms;
    rec.latency_ms = r.latency_ms;
    rec.priority_class = a.req.priority_class;
    rec.tenant_id = a.req.tenant_id;
    rec.preemptions = a.preemptions;
    metrics_.recordRetirement(rec);

    done.push_back(Resolution{std::move(a.promise), std::move(r),
                              std::move(a.req.on_complete)});
    preempted_.erase(preempted_.begin() +
                     static_cast<std::ptrdiff_t>(idx));
    syncParkedCountLocked();
}

void
ServeEngine::processCancelsLocked(double now_ms,
                                  std::vector<Resolution> &done)
{
    std::vector<uint64_t> ids;
    {
        std::lock_guard<std::mutex> lock(cancel_mu_);
        ids.swap(cancel_ids_);
    }
    for (const uint64_t id : ids) {
        bool found = false;
        for (size_t i = 0; i < active_.size(); ++i) {
            if (active_[i]->id == id) {
                retireLocked(i, RequestStatus::kCancelled, now_ms, done);
                found = true;
                break;
            }
        }
        if (found)
            continue;
        for (size_t i = 0; i < preempted_.size(); ++i) {
            if (preempted_[i]->id == id) {
                resolvePreemptedLocked(i, RequestStatus::kCancelled,
                                       now_ms, done);
                found = true;
                break;
            }
        }
        if (found)
            continue;
        for (auto &park : parked_) {
            if (park.has_value() && park->id == id) {
                PendingRequest p = std::move(*park);
                park.reset();
                syncParkedCountLocked();
                resolveUnadmittedLocked(std::move(p),
                                        RequestStatus::kCancelled, done);
                found = true;
                break;
            }
        }
        if (found)
            continue;
        PendingRequest p;
        if (queue_.extract(id, p))
            resolveUnadmittedLocked(std::move(p), RequestStatus::kCancelled,
                                    done);
        // Unknown / already finished: no-op.
    }
}

void
ServeEngine::expireDeadlinesLocked(double now_ms,
                                   std::vector<Resolution> &done)
{
    for (size_t i = active_.size(); i-- > 0;) {
        if (active_[i]->deadline_ms > 0.0 &&
            now_ms >= active_[i]->deadline_ms)
            retireLocked(i, RequestStatus::kDeadlineExceeded, now_ms,
                         done);
    }
    // Preempted victims carry their deadline through the round trip.
    for (size_t i = preempted_.size(); i-- > 0;) {
        if (preempted_[i]->deadline_ms > 0.0 &&
            now_ms >= preempted_[i]->deadline_ms)
            resolvePreemptedLocked(i, RequestStatus::kDeadlineExceeded,
                                   now_ms, done);
    }
    // Queued requests expire too — even while every slot is busy.
    for (auto &park : parked_) {
        if (park.has_value() && park->deadline_ms > 0.0 &&
            now_ms >= park->deadline_ms) {
            PendingRequest p = std::move(*park);
            park.reset();
            syncParkedCountLocked();
            resolveUnadmittedLocked(std::move(p),
                                    RequestStatus::kDeadlineExceeded,
                                    done);
        }
    }
    std::vector<PendingRequest> late =
        queue_.extractIf([now_ms](const PendingRequest &p) {
            return p.deadline_ms > 0.0 && now_ms >= p.deadline_ms;
        });
    for (PendingRequest &p : late)
        resolveUnadmittedLocked(std::move(p),
                                RequestStatus::kDeadlineExceeded, done);
}

bool
ServeEngine::step()
{
    std::vector<Resolution> done;
    bool ran;
    {
        std::lock_guard<std::mutex> lock(mu_);
        ran = stepLocked(done);
        publishMetricsLocked();
    }
    // Promises/callbacks fire with no engine lock held, so a callback
    // may submit(), cancel(), or read a metrics snapshot.
    deliver(done);
    return ran;
}

bool
ServeEngine::stepLocked(std::vector<Resolution> &done)
{
    if (cfg_.paged)
        return stepPagedLocked(done);

    QT8_TRACE_SCOPE("serve/step");
    const int64_t retired_before = metrics_.completed;
    if (cfg_.fault != nullptr) {
        const double d = cfg_.fault->onStepDelayMs();
        if (d > 0.0)
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(d));
    }

    const double t0 = nowMs();
    processCancelsLocked(t0, done);
    expireDeadlinesLocked(t0, done);
    int admitted = admitLocked(done);

    // Sequences whose slot is full cannot take another position: retire
    // them with the typed overflow status (output kept, truncated).
    for (size_t i = active_.size(); i-- > 0;) {
        if (pool_->slotLen(active_[i]->slot) >= pool_->capacity())
            retireLocked(i, RequestStatus::kCapacityExceeded, nowMs(),
                         done);
    }
    // Retirements may have opened slots for queued work this same step.
    admitted += admitLocked(done);

    if (trace::collecting()) {
        trace::counter("serve/queue_depth",
                       static_cast<double>(queue_.size()));
        trace::counter("serve/active",
                       static_cast<double>(active_.size()));
        trace::counter("serve/admitted", admitted);
        trace::counter("serve/kv_bytes_resident",
                       static_cast<double>(pool_->residentKVBytes()));
    }

    if (active_.empty()) {
        ++metrics_.idle_steps;
        return false;
    }

    const size_t n = active_.size();
    std::vector<int32_t> ids(n);
    std::vector<uint64_t> req_ids(n);
    std::vector<int64_t> positions(n);
    std::vector<int32_t> slots(n);
    std::vector<const uint8_t *> pads(n, nullptr);
    for (size_t i = 0; i < n; ++i) {
        const Active &a = *active_[i];
        ids[i] = a.next_input;
        req_ids[i] = a.id;
        positions[i] = a.pos;
        slots[i] = a.slot;
        if (s2s_ != nullptr && !a.req.src_pad.empty())
            pads[i] = a.req.src_pad.data();
    }

    // Optional activation tap: count steps where any pre-quantization
    // tensor went non-finite (diagnostic; forces serial attention).
    bool tap_tripped = false;
    std::function<void(OpClass, const Tensor &)> prev_tap;
    if (cfg_.tap_activations) {
        prev_tap = std::move(qs_.fwd_tap);
        qs_.fwd_tap = [&tap_tripped](OpClass, const Tensor &t) {
            if (!tap_tripped && !allFinite(t))
                tap_tripped = true;
        };
    }

    Tensor logits =
        clm_ != nullptr
            ? clm_->forwardIncrementalSlots(qs_, ids, positions, slots,
                                            pool_->selfLayers())
            : s2s_->forwardIncrementalSlots(qs_, ids, positions, slots,
                                            pool_->selfLayers(),
                                            pool_->crossLayers(),
                                            pads.data());

    if (cfg_.tap_activations) {
        qs_.fwd_tap = std::move(prev_tap);
        if (tap_tripped)
            ++metrics_.tap_nonfinite_steps;
    }

    if (cfg_.fault != nullptr) {
        cfg_.fault->onLogits(step_idx_, req_ids, slots, logits);
        cfg_.fault->onKvPanels(step_idx_, req_ids, slots,
                               pool_->selfLayers());
    }
    ++step_idx_;

    const double now = nowMs();
    ++metrics_.steps;
    metrics_.busy_ms += now - t0;

    // Consume logits back-to-front so retirements don't shift the rows
    // still to be processed (row i belongs to active_[i]).
    for (size_t i = n; i-- > 0;) {
        Active &a = *active_[i];
        ++a.pos;

        // Numeric-fault isolation: a non-finite row poisons only its
        // own request. Retire it with its partial output instead of
        // sampling garbage; rows are sequence-independent, so the
        // neighbours' bits are untouched (DESIGN.md §9/§10).
        if (cfg_.guard_logits &&
            !rowFinite(logits, static_cast<int64_t>(i))) {
            retireLocked(i, RequestStatus::kNumericFault, now, done);
            continue;
        }

        if (clm_ != nullptr && a.prompt_next + 1 < a.req.prompt.size()) {
            // Prefill row: this step consumed prompt[prompt_next]; the
            // logits predict a token the prompt already pins down.
            ++a.prompt_next;
            a.next_input = a.req.prompt[a.prompt_next];
            continue;
        }

        const int32_t tok =
            sampleToken(logits, static_cast<int64_t>(i), a.req.sampling,
                        a.rng);
        if (clm_ != nullptr)
            a.prompt_next = a.req.prompt.size(); // prefill done
        if (a.first_token_ms < 0.0) {
            a.first_token_ms = now;
            metrics_.token_latency_ms.record(now - a.submit_ms);
        } else {
            metrics_.token_latency_ms.record(now - a.last_token_ms);
        }
        a.last_token_ms = now;

        if (a.req.eos >= 0 && tok == a.req.eos) {
            retireLocked(i, RequestStatus::kOk, now, done);
            continue;
        }
        a.out.push_back(tok);
        if (static_cast<int64_t>(a.out.size()) >= a.req.max_new_tokens) {
            retireLocked(i, RequestStatus::kOk, now, done);
            continue;
        }
        a.next_input = tok;
    }
    if (trace::collecting())
        trace::counter("serve/retired",
                       static_cast<double>(metrics_.completed -
                                           retired_before));
    return true;
}

int32_t
ServeEngine::acquireVSlotLocked()
{
    // Virtual slot ids keep fault targeting and trace parity with the
    // slab engine even though pages, not slots, back the KV rows.
    if (!vslot_free_.empty()) {
        const int32_t s = vslot_free_.back();
        vslot_free_.pop_back();
        return s;
    }
    return vslot_next_++;
}

bool
ServeEngine::admitPagedOneLocked(PendingRequest &p)
{
    const int64_t plen = static_cast<int64_t>(p.request.prompt.size());

    if (clm_ != nullptr) {
        // Cheap pre-check before touching the cache, so a parked
        // request retried every step doesn't spin the lookup counters:
        // the first chunk always needs at least one new page (the
        // match is capped at plen - 1), plus one page of decode
        // headroom so admission doesn't immediately stall.
        if (ppool_->availablePages() < 2)
            return false;

        // Worst-case page demand, needed both for the resume pre-gate
        // below and the admission gate proper: actual prompt + budget
        // length (the capacity win over the slab's flat slot_capacity
        // reservation), clamped to the arena.
        const int64_t worst_rows =
            std::min(plen + p.request.max_new_tokens, cfg_.slot_capacity);
        const int64_t worst =
            std::min(PagedKVPool::pagesFor(worst_rows, cfg_.page_size),
                     cfg_.n_pages);
        int64_t debt = 0;
        for (const auto &o : active_)
            debt += std::max<int64_t>(
                0, o->worst_pages -
                       static_cast<int64_t>(o->pseq.pages.size()));

        // Tiered KV sessions: a session-keyed request whose prompt
        // extends its retained history resumes those rows instead of
        // recomputing them — resident from RAM, restored from a spill
        // file, or (dead spill) falling through to the fresh path
        // below with a sticky kRecomputed provenance. The checkout is
        // committed only after every admission gate passes; a parked
        // resume goes back as a resident session.
        PagedSeq ps;
        SessionKVSource session_src = SessionKVSource::kNone;
        const uint64_t sid = p.request.session_id;
        if (smgr_ != nullptr && sid != 0) {
            // Pre-gate (mirrors admitPreemptedOneLocked): if the
            // admission gate is bound to reject this request, say so
            // *before* resume() drags a spilled session through the
            // pool — otherwise a parked head retried every step
            // restores the file, fails the gate, re-parks the pages
            // resident, stalls the actives (which spill the session
            // right back) and the engine livelocks doing disk IO with
            // zero token progress. Algebraically equivalent to the
            // post-restore gate: restored pages shrink availablePages
            // and the held count in lockstep; residentPages(sid) is 0
            // for a spilled session, and a stale entry it would have
            // dropped only ever frees pages (h >= 0), so a pre-gate
            // park is never a request the gate would have admitted.
            if (debt + worst >
                ppool_->availablePages() + smgr_->residentPages(sid))
                return false;
            SpillManager::Resume r =
                smgr_->resume(sid, p.request.prompt);
            if (r.retry)
                return false; // pool can't hold the restore yet: park
            if (r.source == SessionKVSource::kRecomputed)
                p.session_kv_hint = SessionKVSource::kRecomputed;
            if (r.source == SessionKVSource::kResident ||
                r.source == SessionKVSource::kRestoredFromSpill) {
                session_src = r.source;
                ps = std::move(r.seq);
            }
        }
        const auto unwind = [&] {
            if (session_src != SessionKVSource::kNone)
                smgr_->abortResume(sid, std::move(ps));
            else
                ppool_->releaseSeq(ps);
        };
        const int64_t session_rows = ps.len;

        if (session_src == SessionKVSource::kNone) {
            const PagedKVPool::PrefixMatch m =
                ppool_->matchPrefix(p.request.prompt, plen - 1);
            const int64_t len0 =
                m.rows + (m.partial_page >= 0 ? m.partial_rows : 0);
            const int64_t chunk_end =
                std::min(plen, len0 + cfg_.prefill_chunk);
            const int64_t need =
                PagedKVPool::pagesFor(chunk_end, cfg_.page_size) -
                static_cast<int64_t>(m.pages.size());
            if (ppool_->availablePages() < need + 1)
                return false;
            ppool_->adoptPrefix(ps, m);
        }

        // Reserve the first chunk's pages *now*: admission commits
        // real pages (the paged analogue of a slab slot), so a burst
        // of admissions can't collectively overcommit the arena
        // before any of them builds a row.
        if (!ppool_->ensureTail(
                ps, std::min(plen, ps.len + cfg_.prefill_chunk))) {
            unwind();
            return false;
        }

        // Worst-case gate: admit only while every in-flight request's
        // remaining worst-case growth still fits in obtainable pages.
        // Page draws and the gated sum shrink in lockstep, so a
        // request admitted under this invariant never stalls and is
        // never preempted: its tokens match the slab oracle bit for
        // bit. A request whose lone demand exceeds the arena is
        // clamped (best effort, may truncate kCapacityExceeded).
        if (debt + std::max<int64_t>(
                       0, worst - static_cast<int64_t>(ps.pages.size())) >
            ppool_->availablePages()) {
            unwind();
            return false;
        }
        if (session_src != SessionKVSource::kNone)
            smgr_->commitResume(sid); // admitted: entry consumed

        auto a = std::make_unique<Active>(std::move(p),
                                          acquireVSlotLocked());
        a->worst_pages = worst;
        a->pseq = std::move(ps);
        a->pos = a->prefill_pos = a->pseq.len;
        a->next_input = a->req.prompt[0];
        if (session_src != SessionKVSource::kNone) {
            a->session_kv = session_src;
            a->session_reused = session_rows;
        }
        active_.push_back(std::move(a));
        active_n_.store(active_.size());
        return true;
    }

    // Seq2Seq: the source must fit the cross arena now (primed once,
    // never grown) and at least one self page must be obtainable for
    // the first decode row. Checks precede the encode so a parked
    // request never pays the encoder twice... per admission attempt.
    const int64_t need_cross = PagedKVPool::pagesFor(plen, cfg_.page_size);
    if (ppool_->crossFreePages() < need_cross ||
        ppool_->availablePages() < 2)
        return false;
    PagedSeq ps;
    if (!ppool_->ensureTail(ps, 1)) { // reserve the first decode page
        ppool_->releaseSeq(ps);
        return false;
    }

    // Same worst-case gate as the CausalLM path, over decode rows
    // (self pages hold only target positions here).
    const int64_t worst_rows =
        std::min(p.request.max_new_tokens + 1, cfg_.slot_capacity);
    const int64_t worst = std::min(
        PagedKVPool::pagesFor(worst_rows, cfg_.page_size), cfg_.n_pages);
    int64_t debt = 0;
    for (const auto &o : active_)
        debt += std::max<int64_t>(
            0, o->worst_pages - static_cast<int64_t>(o->pseq.pages.size()));
    if (debt + std::max<int64_t>(
                   0, worst - static_cast<int64_t>(ps.pages.size())) >
        ppool_->availablePages()) {
        ppool_->releaseSeq(ps);
        return false;
    }

    auto a = std::make_unique<Active>(std::move(p), acquireVSlotLocked());
    a->worst_pages = worst;
    a->pseq = std::move(ps);
    const uint8_t *pad =
        a->req.src_pad.empty() ? nullptr : a->req.src_pad.data();
    const Tensor memory = s2s_->encodeOne(qs_, a->req.prompt, plen, pad);
    const bool ok = ppool_->allocCross(a->pseq, plen);
    assert(ok && "crossFreePages checked above");
    (void)ok;
    a->pseq.cross_len = plen;
    s2s_->primeCrossPages(qs_, memory, plen, ppool_->crossLayers(),
                          a->pseq.cross_pages.data(),
                          static_cast<int64_t>(a->pseq.cross_pages.size()));
    a->next_input = a->req.bos;
    active_.push_back(std::move(a));
    active_n_.store(active_.size());
    return true;
}

void
ServeEngine::syncParkedCountLocked()
{
    size_t n = preempted_.size();
    for (const auto &park : parked_)
        n += park.has_value() ? 1 : 0;
    parked_n_.store(n);
}

bool
ServeEngine::admitPagedWithPressureLocked(PendingRequest &p)
{
    if (admitPagedOneLocked(p))
        return true;
    // Hard memory pressure, first escalation: idle sessions are the
    // cheapest page consumer the scheduler can shed. Spill (or drop)
    // LRU idle sessions one at a time until the request admits or no
    // candidate remains. Bounded by the resident count at entry,
    // because an aborted resume re-parks as resident — without the
    // bound a restore/abort/spill cycle could spin.
    bool ok = false;
    int64_t budget = smgr_ != nullptr ? smgr_->residentSessions() : 0;
    while (!ok && budget-- > 0 && smgr_->spillOne())
        ok = admitPagedOneLocked(p);
    if (ok)
        return true;
    // Second escalation: preempt a strictly-lower-class in-flight
    // decode, spilling its rows through the session tier and parking
    // it for a bit-identical resume (DESIGN.md §16). Each round frees
    // the victim's pages immediately, after which the idle-spill loop
    // gets another bounded run. Bounded by the active set: every
    // round removes one victim.
    if (!cfg_.sched.preemption || smgr_ == nullptr || clm_ == nullptr)
        return false;
    while (!ok &&
           preemptLowestLocked(
               static_cast<int>(p.request.priority_class))) {
        ok = admitPagedOneLocked(p);
        int64_t b2 = ok ? 0 : smgr_->residentSessions();
        while (!ok && b2-- > 0 && smgr_->spillOne())
            ok = admitPagedOneLocked(p);
    }
    return ok;
}

bool
ServeEngine::awaitsSharedPrefixLocked(const PendingRequest &p) const
{
    // A prompt enters the radix cache only when its prefill completes,
    // so requests admitted in one step would each prefill a prefix
    // they share. Instead, a sessionless prompt that shares at least
    // one full page with a request still prefilling — beyond the rows
    // that request itself took from the cache — waits (parked as its
    // class head, no pressure escalation) until the donation lands,
    // then adopts the pages. Tokens are unchanged: cached rows are
    // bit-identical to computed ones. The wait ends when the leader
    // finishes its prefill or leaves the active set, so it cannot
    // livelock.
    if (clm_ == nullptr || !ppool_->prefixCacheEnabled() ||
        (smgr_ != nullptr && p.request.session_id != 0))
        return false;
    const std::vector<int32_t> &prompt = p.request.prompt;
    // matchPrefix never serves the last prompt row.
    const int64_t usable = static_cast<int64_t>(prompt.size()) - 1;
    for (const auto &a : active_) {
        const std::vector<int32_t> &lead = a->effPrompt();
        const int64_t llen = static_cast<int64_t>(lead.size());
        if (a->kv_poisoned || a->prefill_pos >= llen)
            continue;
        const int64_t cap = std::min(usable, llen);
        int64_t same = 0;
        while (same < cap && prompt[static_cast<size_t>(same)] ==
                                 lead[static_cast<size_t>(same)])
            ++same;
        if (same / cfg_.page_size * cfg_.page_size > a->pseq.shared_rows)
            return true;
    }
    return false;
}

bool
ServeEngine::preemptLowestLocked(int below_class)
{
    // Victim: the numerically largest (least urgent) class above
    // below_class; ties broken toward the most cached rows (frees the
    // most pages per interrupt). Freshly resumed requests are immune
    // for a couple of steps so two classes can't ping-pong one victim.
    int64_t best = -1;
    for (size_t i = 0; i < active_.size(); ++i) {
        const Active &a = *active_[i];
        if (static_cast<int>(a.req.priority_class) <= below_class)
            continue;
        if (step_idx_ < a.min_victim_step)
            continue;
        if (best < 0) {
            best = static_cast<int64_t>(i);
            continue;
        }
        const Active &b = *active_[static_cast<size_t>(best)];
        const int ca = static_cast<int>(a.req.priority_class);
        const int cb = static_cast<int>(b.req.priority_class);
        if (ca > cb || (ca == cb && a.pseq.len > b.pseq.len))
            best = static_cast<int64_t>(i);
    }
    if (best < 0)
        return false;
    preemptActiveLocked(static_cast<size_t>(best));
    return true;
}

void
ServeEngine::preemptActiveLocked(size_t idx)
{
    std::unique_ptr<Active> a = std::move(active_[idx]);
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(idx));
    active_n_.store(active_.size());
    vslot_free_.push_back(a->slot);

    // Canonical token stream: everything the request has consumed or
    // emitted so far. At a step boundary the cache holds exactly its
    // first pseq.len rows (decode keeps the cache one row behind the
    // pending next_input), so rows [0, pseq.len) checkpoint as the
    // session history and the full stream becomes the replay prompt.
    std::vector<int32_t> stream = a->req.prompt;
    stream.insert(stream.end(), a->out.begin(), a->out.end());

    const uint64_t pkey = kPreemptKeyBit | a->id;
    if (a->pseq.len > 0 && !a->kv_poisoned &&
        static_cast<int64_t>(stream.size()) > a->pseq.len &&
        a->pseq.len < cfg_.slot_capacity) {
        std::vector<int32_t> hist(
            stream.begin(),
            stream.begin() + static_cast<std::ptrdiff_t>(a->pseq.len));
        smgr_->endTurn(pkey, std::move(hist), std::move(a->pseq));
        // Free the pages *now*: preemption exists to relieve pressure,
        // so the checkpoint goes straight to the disk tier — or is
        // dropped when spilling fails, in which case the resume
        // recomputes the rows (tokens unchanged either way).
        smgr_->spillSession(pkey);
    } else {
        // Poisoned or degenerate rows never seed a resume.
        ppool_->releaseSeq(a->pseq);
    }
    a->pseq = PagedSeq{};
    a->replay = std::move(stream);
    ++a->preemptions;
    ++metrics_.sched_preemptions;
    preempted_.push_back(std::move(a));
    syncParkedCountLocked();
}

bool
ServeEngine::admitPreemptedOneLocked(Active &a)
{
    if (cfg_.fault != nullptr && cfg_.fault->onAcquire())
        return false;
    if (ppool_->availablePages() < 2)
        return false;
    const std::vector<int32_t> &prompt = a.replay;
    const int64_t plen = static_cast<int64_t>(prompt.size());
    const uint64_t pkey = kPreemptKeyBit | a.id;

    // Pre-gate before touching the pool: the post-restore admission
    // gate reduces to debt + worst <= available + checkpoint-resident
    // pages (restored pages shrink both sides of the real gate in
    // lockstep), so a doomed resume can be rejected here *without*
    // restoring the spill — otherwise each retry would drag the
    // checkpoint into RAM, starve the very actives whose debt blocks
    // it, and ping-pong the pages back out every step.
    {
        int64_t debt = 0;
        for (const auto &o : active_)
            debt += std::max<int64_t>(
                0, o->worst_pages -
                       static_cast<int64_t>(o->pseq.pages.size()));
        if (debt + a.worst_pages >
            ppool_->availablePages() + smgr_->residentPages(pkey))
            return false;
    }

    // The checkout protocol mirrors session resume in
    // admitPagedOneLocked: the replay strictly extends the checkpoint
    // history, so a live checkpoint restores its rows (RAM or disk)
    // and a dead one falls through to a fresh chunked prefill —
    // either way the tokens replayed are the tokens checkpointed.
    PagedSeq ps;
    bool checked_out = false;
    SpillManager::Resume r = smgr_->resume(pkey, prompt);
    if (r.retry)
        return false; // pool can't hold the restore yet
    if (r.source == SessionKVSource::kResident ||
        r.source == SessionKVSource::kRestoredFromSpill) {
        ps = std::move(r.seq);
        checked_out = true;
    }
    const auto unwind = [&] {
        if (checked_out)
            smgr_->abortResume(pkey, std::move(ps));
        else
            ppool_->releaseSeq(ps);
    };

    if (!checked_out) {
        const PagedKVPool::PrefixMatch m =
            ppool_->matchPrefix(prompt, plen - 1);
        const int64_t len0 =
            m.rows + (m.partial_page >= 0 ? m.partial_rows : 0);
        const int64_t chunk_end = std::min(plen, len0 + cfg_.prefill_chunk);
        const int64_t need =
            PagedKVPool::pagesFor(chunk_end, cfg_.page_size) -
            static_cast<int64_t>(m.pages.size());
        if (ppool_->availablePages() < need + 1)
            return false;
        ppool_->adoptPrefix(ps, m);
    }
    if (!ppool_->ensureTail(
            ps, std::min(plen, ps.len + cfg_.prefill_chunk))) {
        unwind();
        return false;
    }
    // Same worst-case demand gate as first admission; worst_pages is
    // unchanged because the stream's final length is the same whether
    // or not it was interrupted.
    int64_t debt = 0;
    for (const auto &o : active_)
        debt += std::max<int64_t>(
            0, o->worst_pages -
                   static_cast<int64_t>(o->pseq.pages.size()));
    if (debt + std::max<int64_t>(
                   0, a.worst_pages -
                          static_cast<int64_t>(ps.pages.size())) >
        ppool_->availablePages()) {
        unwind();
        return false;
    }
    if (checked_out)
        smgr_->commitResume(pkey); // entry consumed

    a.pseq = std::move(ps);
    a.pos = a.prefill_pos = a.pseq.len;
    a.slot = acquireVSlotLocked();
    a.min_victim_step = step_idx_ + 2;
    return true;
}

int
ServeEngine::admitPagedLocked()
{
    int admitted = 0;
    const double now = nowMs();
    const auto capReached = [this] {
        return cfg_.max_active > 0 &&
               static_cast<int64_t>(active_.size()) >= cfg_.max_active;
    };
    std::array<bool, kNumClasses> blocked{};

    // Phase A, per class in priority order: resume preempted victims,
    // then retry the parked head. A class whose head is blocked stops
    // admitting (FIFO within the class) without blocking the others
    // (work conservation across classes).
    for (size_t c = 0; c < kNumClasses && !capReached(); ++c) {
        for (size_t i = 0; i < preempted_.size() && !capReached();) {
            Active &a = *preempted_[i];
            if (static_cast<size_t>(a.req.priority_class) != c) {
                ++i;
                continue;
            }
            if (!admitPreemptedOneLocked(a)) {
                blocked[c] = true;
                break;
            }
            active_.push_back(std::move(preempted_[i]));
            active_n_.store(active_.size());
            preempted_.erase(preempted_.begin() +
                             static_cast<std::ptrdiff_t>(i));
            ++metrics_.preempt_resumes;
            ++admitted;
        }
        if (blocked[c])
            continue;
        auto &park = parked_[c];
        if (park.has_value() && !capReached()) {
            if (!awaitsSharedPrefixLocked(*park) &&
                admitPagedWithPressureLocked(*park)) {
                park.reset();
                ++admitted;
            } else {
                blocked[c] = true;
            }
        }
    }
    syncParkedCountLocked();

    // Phase B: fresh pops under the fair-share schedule (or global
    // FIFO), skipping classes whose head is already parked.
    while (!capReached()) {
        if (cfg_.fault != nullptr && cfg_.fault->onAcquire())
            break; // injected allocation failure: retry next step
        PendingRequest p;
        if (!queue_.tryPopScheduled(now, blocked, p))
            break;
        if (!awaitsSharedPrefixLocked(p) &&
            admitPagedWithPressureLocked(p)) {
            ++admitted;
            continue;
        }
        // Does not fit right now, or waits for a shared prefix: park
        // as this class's head so requests within the class keep
        // their order.
        const size_t c = static_cast<size_t>(p.request.priority_class);
        parked_[c] = std::move(p);
        blocked[c] = true;
        syncParkedCountLocked();
    }
    return admitted;
}

bool
ServeEngine::stepPagedLocked(std::vector<Resolution> &done)
{
    QT8_TRACE_SCOPE("serve/step_paged");
    const int64_t retired_before = metrics_.completed;
    if (cfg_.fault != nullptr) {
        const double d = cfg_.fault->onStepDelayMs();
        if (d > 0.0)
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(d));
    }

    const double t0 = nowMs();
    processCancelsLocked(t0, done);
    expireDeadlinesLocked(t0, done);
    // Injected forced preemption: interrupt a victim with no memory
    // pressure at all, exercising the checkpoint-resume identity path
    // at arbitrary points of the decode (chaos tests).
    if (cfg_.fault != nullptr && cfg_.sched.preemption &&
        smgr_ != nullptr && clm_ != nullptr && !active_.empty() &&
        cfg_.fault->onPreempt())
        preemptLowestLocked(-1);
    // Soft memory pressure: below the low watermark, write LRU idle
    // sessions out to the disk tier before admission competes for the
    // remaining pages (DESIGN.md §15).
    if (smgr_ != nullptr)
        smgr_->spillToWatermark();
    int admitted = admitPagedLocked();

    // slot_capacity still bounds every sequence, so truncation points
    // (and thus emitted tokens) match the slab oracle exactly.
    for (size_t i = active_.size(); i-- > 0;) {
        if (active_[i]->pos >= cfg_.slot_capacity)
            retireLocked(i, RequestStatus::kCapacityExceeded, nowMs(),
                         done);
    }
    admitted += admitPagedLocked();

    const auto syncPoolCounters = [this] {
        metrics_.prefix_lookups = ppool_->lookups();
        metrics_.prefix_hits = ppool_->hits();
        metrics_.prefix_reused_tokens = ppool_->reusedRows();
        metrics_.prefix_evictions = ppool_->evictions();
        metrics_.pages_resident_peak = std::max(
            metrics_.pages_resident_peak, ppool_->residentPages());
        if (smgr_ != nullptr) {
            const SpillManager::Stats ss = smgr_->stats();
            metrics_.sessions_spilled = ss.sessions_spilled;
            metrics_.sessions_restored = ss.sessions_restored;
            metrics_.sessions_recomputed = ss.sessions_recomputed;
            metrics_.sessions_resident_reused =
                ss.sessions_resident_reused;
            metrics_.sessions_dropped = ss.sessions_dropped;
            metrics_.spill_failures = ss.spill_failures;
            metrics_.spilled_bytes = ss.spilled_bytes;
            metrics_.restored_bytes = ss.restored_bytes;
            metrics_.sessions_resident = smgr_->residentSessions();
            metrics_.sessions_on_disk = smgr_->spilledSessions();
        }
    };

    if (trace::collecting()) {
        trace::counter("serve/queue_depth",
                       static_cast<double>(pendingCount()));
        trace::counter("serve/active",
                       static_cast<double>(active_.size()));
        trace::counter("serve/admitted", admitted);
        trace::counter("serve/pages_resident",
                       static_cast<double>(ppool_->residentPages()));
        trace::counter("serve/pages_cached",
                       static_cast<double>(ppool_->cachedPages()));
        if (smgr_ != nullptr) {
            const SpillManager::Stats ss = smgr_->stats();
            trace::counter("serve/spilled_bytes",
                           static_cast<double>(ss.spilled_bytes));
            trace::counter("serve/restored_bytes",
                           static_cast<double>(ss.restored_bytes));
            trace::counter(
                "serve/sessions_resident",
                static_cast<double>(smgr_->residentSessions()));
            trace::counter(
                "serve/sessions_on_disk",
                static_cast<double>(smgr_->spilledSessions()));
        }
    }

    if (active_.empty()) {
        ++metrics_.idle_steps;
        syncPoolCounters();
        return false;
    }

    // Build this step's row batch: one decode row per decoding
    // request, a whole prompt chunk per prefilling request. A request
    // whose tail pages can't be obtained this step stalls (skipped,
    // retried next step) — its neighbours still run.
    const size_t n_active = active_.size();
    std::vector<int32_t> ids;
    std::vector<int64_t> positions;
    std::vector<PagedRowRef> self_rows;
    std::vector<PagedRowRef> cross_rows;
    std::vector<const uint8_t *> pads;
    std::vector<int64_t> logit_rows; // CausalLM: rows fed to lm_head.
    struct Sample
    {
        size_t active_idx;
        int64_t logits_row;
    };
    std::vector<Sample> samples;
    std::vector<uint64_t> sample_req_ids;
    std::vector<int32_t> sample_vslots;
    std::vector<size_t> stalled;
    // Visible rows each active will have after this step's writes;
    // -1 = stalled (no rows built, cache untouched).
    std::vector<int64_t> planned_end(n_active, -1);

    for (size_t i = 0; i < n_active; ++i) {
        Active &a = *active_[i];
        // After a preempt-resume round trip the effective prompt is
        // the original prompt plus the tokens generated before the
        // interrupt (the replay); sampling resumes when the replay is
        // fully prefilled.
        const std::vector<int32_t> &eprompt = a.effPrompt();
        const int64_t plen = static_cast<int64_t>(eprompt.size());

        if (clm_ != nullptr && a.prefill_pos < plen) {
            const int64_t chunk_end =
                std::min(plen, a.prefill_pos + cfg_.prefill_chunk);
            const bool grows =
                PagedKVPool::pagesFor(chunk_end, cfg_.page_size) >
                static_cast<int64_t>(a.pseq.pages.size());
            if ((grows && cfg_.fault != nullptr &&
                 cfg_.fault->onPageAcquire()) ||
                !ppool_->ensureTail(a.pseq, chunk_end)) {
                stalled.push_back(i);
                continue;
            }
            planned_end[i] = chunk_end;
            for (int64_t t = a.prefill_pos; t < chunk_end; ++t) {
                ids.push_back(eprompt[static_cast<size_t>(t)]);
                positions.push_back(t);
                self_rows.push_back(PagedRowRef{
                    a.pseq.pages.data(),
                    static_cast<int64_t>(a.pseq.pages.size()), t, t + 1});
            }
            if (chunk_end == plen) {
                // The row consuming the last prompt token predicts the
                // first generated token: it is this request's only
                // sampled row of the step.
                logit_rows.push_back(
                    static_cast<int64_t>(ids.size()) - 1);
                samples.push_back(Sample{
                    i, static_cast<int64_t>(logit_rows.size()) - 1});
                sample_req_ids.push_back(a.id);
                sample_vslots.push_back(a.slot);
            }
            continue;
        }

        // Decode row.
        const bool grows =
            PagedKVPool::pagesFor(a.pos + 1, cfg_.page_size) >
            static_cast<int64_t>(a.pseq.pages.size());
        if ((grows && cfg_.fault != nullptr &&
             cfg_.fault->onPageAcquire()) ||
            !ppool_->ensureTail(a.pseq, a.pos + 1)) {
            stalled.push_back(i);
            continue;
        }
        planned_end[i] = a.pos + 1;
        ids.push_back(a.next_input);
        positions.push_back(a.pos);
        self_rows.push_back(PagedRowRef{
            a.pseq.pages.data(),
            static_cast<int64_t>(a.pseq.pages.size()), a.pos, a.pos + 1});
        if (clm_ != nullptr) {
            logit_rows.push_back(static_cast<int64_t>(ids.size()) - 1);
            samples.push_back(
                Sample{i, static_cast<int64_t>(logit_rows.size()) - 1});
        } else {
            cross_rows.push_back(PagedRowRef{
                a.pseq.cross_pages.data(),
                static_cast<int64_t>(a.pseq.cross_pages.size()), 0,
                a.pseq.cross_len});
            pads.push_back(a.req.src_pad.empty() ? nullptr
                                                 : a.req.src_pad.data());
            samples.push_back(
                Sample{i, static_cast<int64_t>(ids.size()) - 1});
        }
        sample_req_ids.push_back(a.id);
        sample_vslots.push_back(a.slot);
    }

    if (ids.empty()) {
        if (!stalled.empty()) {
            // Every buildable request is out of pages and nothing else
            // can run. Escalate before giving anything up: idle
            // resident sessions (retained turn KV, or pages stranded
            // when a restored session's re-admission failed its gate)
            // are pure caches — spill one and retry the step. Next,
            // under the fair-share policy, preempt-spill a whole
            // in-flight request: its checkpoint resumes bit-identical
            // later, so no output is lost. Only then truncate the
            // newest stalled request (most recent admission keeps
            // FIFO fairness) as a typed kCapacityExceeded with its
            // partial output — reachable only when a lone demand
            // exceeds the whole arena (clamped best-effort admission)
            // or injected page-acquire faults pin the pool.
            if (smgr_ != nullptr && smgr_->residentSessions() > 0 &&
                smgr_->spillOne()) {
                syncPoolCounters();
                return true; // freed pages: real progress
            }
            if (cfg_.sched.preemption && smgr_ != nullptr &&
                clm_ != nullptr && active_.size() > 1 &&
                preemptLowestLocked(-1)) {
                syncPoolCounters();
                return true;
            }
            retireLocked(stalled.back(),
                         RequestStatus::kCapacityExceeded, nowMs(), done);
            ++metrics_.preempted;
            syncPoolCounters();
            return true; // freed pages: real progress
        }
        ++metrics_.idle_steps;
        syncPoolCounters();
        return false;
    }

    bool tap_tripped = false;
    std::function<void(OpClass, const Tensor &)> prev_tap;
    if (cfg_.tap_activations) {
        prev_tap = std::move(qs_.fwd_tap);
        qs_.fwd_tap = [&tap_tripped](OpClass, const Tensor &t) {
            if (!tap_tripped && !allFinite(t))
                tap_tripped = true;
        };
    }

    Tensor logits =
        clm_ != nullptr
            ? clm_->forwardPagedRows(qs_, ids, positions, self_rows,
                                     ppool_->selfLayers(), logit_rows)
            : s2s_->forwardPagedRows(qs_, ids, positions, self_rows,
                                     ppool_->selfLayers(), cross_rows,
                                     ppool_->crossLayers(), pads.data());

    if (cfg_.tap_activations) {
        qs_.fwd_tap = std::move(prev_tap);
        if (tap_tripped)
            ++metrics_.tap_nonfinite_steps;
    }

    if (cfg_.fault != nullptr) {
        cfg_.fault->onLogits(step_idx_, sample_req_ids, sample_vslots,
                             logits);
        std::vector<PagedSeqView> views;
        views.reserve(n_active);
        for (size_t i = 0; i < n_active; ++i) {
            const Active &a = *active_[i];
            // Rows written this step are already in the panels, so
            // they are fair fault targets too; a stalled request only
            // exposes rows it actually cached.
            const int64_t rows =
                planned_end[i] >= 0 ? planned_end[i] : a.pseq.len;
            if (rows > 0 && !a.pseq.pages.empty())
                views.push_back(PagedSeqView{a.id, &a.pseq.pages, rows});
        }
        const int32_t pg = cfg_.fault->onKvPages(
            step_idx_, views, ppool_->selfLayers(), ppool_->pageSize());
        if (pg >= 0) {
            ppool_->dropCachedPage(pg); // never re-share poison
            for (const auto &ap : active_) {
                if (std::find(ap->pseq.pages.begin(),
                              ap->pseq.pages.end(),
                              pg) != ap->pseq.pages.end())
                    ap->kv_poisoned = true;
            }
        }
    }
    ++step_idx_;

    const double now = nowMs();
    ++metrics_.steps;
    metrics_.busy_ms += now - t0;

    // Pass 1 (ascending): commit cache growth. Rows are in the panels
    // whether or not their request survives pass 2.
    for (size_t i = 0; i < n_active; ++i) {
        Active &a = *active_[i];
        const std::vector<int32_t> &eprompt = a.effPrompt();
        const int64_t plen = static_cast<int64_t>(eprompt.size());
        if (planned_end[i] < 0)
            continue; // stalled: nothing was written
        if (clm_ != nullptr && a.prefill_pos < plen) {
            const int64_t ce = planned_end[i];
            metrics_.prefill_tokens_computed += ce - a.prefill_pos;
            a.pseq.len = ce;
            a.prefill_pos = ce;
            a.pos = ce;
            if (ce == plen) {
                a.prompt_next = eprompt.size();
                // Donate the now-complete prompt pages so followers
                // sharing this prefix skip the prefill work — unless a
                // fault touched any of them.
                if (!a.kv_poisoned)
                    ppool_->insertPrefix(eprompt, plen, a.pseq);
            }
        } else {
            a.pseq.len = a.pos + 1;
            ++a.pos;
        }
    }

    // Pass 2 (descending): sample / retire, so erasures never shift a
    // row still to be processed.
    for (size_t k = samples.size(); k-- > 0;) {
        const size_t i = samples[k].active_idx;
        const int64_t row = samples[k].logits_row;
        Active &a = *active_[i];

        if (cfg_.guard_logits && !rowFinite(logits, row)) {
            retireLocked(i, RequestStatus::kNumericFault, now, done);
            continue;
        }

        const int32_t tok = sampleToken(logits, row, a.req.sampling,
                                        a.rng);
        // TTFT counts the first *generated* token: prefill chunk rows
        // never sample, so first_token_ms can only land here.
        if (a.first_token_ms < 0.0) {
            a.first_token_ms = now;
            metrics_.token_latency_ms.record(now - a.submit_ms);
        } else {
            metrics_.token_latency_ms.record(now - a.last_token_ms);
        }
        a.last_token_ms = now;

        if (a.req.eos >= 0 && tok == a.req.eos) {
            retireLocked(i, RequestStatus::kOk, now, done);
            continue;
        }
        a.out.push_back(tok);
        if (static_cast<int64_t>(a.out.size()) >= a.req.max_new_tokens) {
            retireLocked(i, RequestStatus::kOk, now, done);
            continue;
        }
        a.next_input = tok;
    }

    syncPoolCounters();
    if (trace::collecting())
        trace::counter("serve/retired",
                       static_cast<double>(metrics_.completed -
                                           retired_before));
    return true;
}

void
ServeEngine::releaseSessions()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (smgr_ != nullptr)
        smgr_->releaseAll();
}

void
ServeEngine::runUntilIdle()
{
    while (activeCount() > 0 || pendingCount() > 0)
        step();
}

bool
ServeEngine::hasWork()
{
    if (active_n_.load() > 0 || queue_.size() > 0 ||
        parked_n_.load() > 0)
        return true;
    std::lock_guard<std::mutex> lock(cancel_mu_);
    return !cancel_ids_.empty();
}

void
ServeEngine::start()
{
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (thread_.joinable())
        return; // already running
    queue_.reopen();
    stop_request_.store(0);
    thread_running_.store(true);
    thread_ = std::thread(&ServeEngine::threadMain, this);
}

void
ServeEngine::stop(StopMode mode)
{
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (!thread_.joinable())
        return;
    stop_request_.store(mode == StopMode::kAbort ? 2 : 1);
    wake();
    thread_.join();
    thread_running_.store(false);
}

void
ServeEngine::threadMain()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(wake_mu_);
            wake_cv_.wait(lk, [this] {
                return stop_request_.load() != 0 || hasWork();
            });
        }
        if (stop_request_.load() == 2)
            break; // abort: resolve in-flight below
        if (!hasWork()) {
            if (stop_request_.load() == 1)
                break; // drain complete
            continue;  // spurious wakeup
        }
        if (!step()) {
            // Work exists but the step had nothing to run (rate-held
            // queue heads, stalled admissions waiting on pages): sleep
            // briefly instead of spinning the scheduler thread hot.
            std::unique_lock<std::mutex> lk(wake_mu_);
            wake_cv_.wait_for(lk, std::chrono::milliseconds(1), [this] {
                return stop_request_.load() == 2;
            });
        }
    }
    if (stop_request_.load() == 2)
        abortAll();
}

void
ServeEngine::abortAll()
{
    std::vector<Resolution> done;
    {
        std::lock_guard<std::mutex> lock(mu_);
        // Close first: a submission either landed before this drain
        // (resolved here) or gets the typed kEngineStopped at submit().
        std::vector<PendingRequest> drained = queue_.closeAndDrain();
        for (PendingRequest &p : drained)
            resolveUnadmittedLocked(std::move(p),
                                    RequestStatus::kEngineStopped, done);
        for (auto &park : parked_) {
            if (park.has_value()) {
                PendingRequest p = std::move(*park);
                park.reset();
                resolveUnadmittedLocked(std::move(p),
                                        RequestStatus::kEngineStopped,
                                        done);
            }
        }
        const double now = nowMs();
        for (size_t i = preempted_.size(); i-- > 0;)
            resolvePreemptedLocked(i, RequestStatus::kEngineStopped, now,
                                   done);
        syncParkedCountLocked();
        for (size_t i = active_.size(); i-- > 0;)
            retireLocked(i, RequestStatus::kEngineStopped, now, done);
        publishMetricsLocked();
    }
    {
        std::lock_guard<std::mutex> lock(cancel_mu_);
        cancel_ids_.clear(); // everything they named is resolved
    }
    deliver(done);
}

} // namespace qt8::serve
