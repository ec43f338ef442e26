#include "schedule.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "data/tasks.h"
#include "tensor/random.h"

namespace qt8bench {

namespace {

using qt8::Rng;

int32_t
contentToken(Rng &rng, int64_t vocab)
{
    return static_cast<int32_t>(
        qt8::Vocab::kFirstContent +
        rng.randint(vocab - qt8::Vocab::kFirstContent));
}

std::vector<int32_t>
tokens(Rng &rng, int64_t n, int64_t vocab)
{
    std::vector<int32_t> out(static_cast<size_t>(n));
    for (int32_t &t : out)
        t = contentToken(rng, vocab);
    return out;
}

/// @p n draws from [lo, hi], one uniform draw from each of n equal-width
/// strata, in seeded order (stratified sampling). Each draw is still
/// uniform over [lo, hi], but their sum barely moves with the seed, so
/// the offered work of a run does not either.
std::vector<double>
stratified(Rng &rng, int64_t n, double lo, double hi)
{
    std::vector<double> out(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i)
        out[static_cast<size_t>(i)] =
            lo + (hi - lo) * (static_cast<double>(i) + rng.uniform()) /
                     static_cast<double>(n);
    for (size_t i = out.size(); i > 1; --i)
        std::swap(out[i - 1],
                  out[static_cast<size_t>(rng.randint(static_cast<int64_t>(i)))]);
    return out;
}

/// Integer version over [lo, hi] inclusive.
std::vector<int64_t>
stratifiedInts(Rng &rng, int64_t n, int64_t lo, int64_t hi)
{
    std::vector<int64_t> out;
    for (const double x : stratified(rng, n, static_cast<double>(lo),
                                     static_cast<double>(hi + 1)))
        out.push_back(std::min(hi, static_cast<int64_t>(std::floor(x))));
    return out;
}

/// Seeded permutation of the content vocabulary: prompt i starts with
/// perm[i % size], so first tokens never repeat before the wrap.
class FirstTokens
{
  public:
    FirstTokens(Rng &rng, int64_t vocab)
    {
        for (int32_t t = qt8::Vocab::kFirstContent; t < vocab; ++t)
            perm_.push_back(t);
        for (size_t i = perm_.size(); i > 1; --i)
            std::swap(perm_[i - 1],
                      perm_[static_cast<size_t>(
                          rng.randint(static_cast<int64_t>(i)))]);
    }
    int32_t next() { return perm_[next_++ % perm_.size()]; }

  private:
    std::vector<int32_t> perm_;
    size_t next_ = 0;
};

DecodeItem
decodeItem(Rng &rng, FirstTokens &first, int64_t plen, int64_t max_new,
           int64_t vocab)
{
    DecodeItem it;
    it.prompt = tokens(rng, plen, vocab);
    it.prompt[0] = first.next();
    it.max_new = max_new;
    return it;
}

/// @p n arrival times of a Poisson process conditioned on n arrivals
/// in [0, horizon): sorted iid uniform draws. Fixing the count keeps
/// the offered load identical across seeds; the seed moves only where
/// the bursts fall.
std::vector<double>
arrivals(Rng &rng, int64_t n, double horizon_ms)
{
    std::vector<double> t(static_cast<size_t>(n));
    for (double &x : t)
        x = rng.uniform(0.0, horizon_ms);
    std::sort(t.begin(), t.end());
    return t;
}

void
put(std::string &out, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g,", v);
    out += buf;
}

void
put(std::string &out, const std::vector<int32_t> &toks)
{
    out += '[';
    for (const int32_t t : toks)
        put(out, t);
    out += ']';
}

} // namespace

DecodeSchedule
makeDecodeSchedule(const Config &cfg, uint64_t seed)
{
    const int64_t vocab = cfg.integer("model.vocab");
    Rng root(seed * 0x9E3779B97F4A7C15ULL + 0xDEC0DE);
    Rng rng = root.fork();
    FirstTokens first(rng, vocab);
    DecodeSchedule s;
    const int64_t n_solo = cfg.integer("decode_solo.generated_requests");
    for (int64_t i = 0; i < n_solo; ++i)
        s.solo.push_back(decodeItem(rng, first,
                                    cfg.integer("decode_solo.prompt"),
                                    cfg.integer("decode_solo.new_tokens"),
                                    vocab));
    const int64_t n_waves = cfg.integer("decode_batch.generated_waves");
    const int64_t wave_size = cfg.integer("decode_batch.requests");
    for (int64_t w = 0; w < n_waves; ++w) {
        const std::vector<int64_t> plen =
            stratifiedInts(rng, wave_size, cfg.integer("decode_batch.prompt_lo"),
                           cfg.integer("decode_batch.prompt_hi"));
        const std::vector<int64_t> max_new =
            stratifiedInts(rng, wave_size, cfg.integer("decode_batch.new_lo"),
                           cfg.integer("decode_batch.new_hi"));
        std::vector<DecodeItem> wave;
        for (size_t i = 0; i < plen.size(); ++i)
            wave.push_back(
                decodeItem(rng, first, plen[i], max_new[i], vocab));
        s.waves.push_back(std::move(wave));
    }
    return s;
}

ChatSchedule
makeChatSchedule(const Config &cfg, uint64_t seed, double horizon_ms)
{
    const int64_t vocab = cfg.integer("model.vocab");
    const int64_t max_seq = cfg.integer("model.max_seq");
    Rng root(seed * 0x9E3779B97F4A7C15ULL + 0xC4A7);
    Rng sys_rng = root.fork();
    Rng chat_rng = root.fork();
    Rng doc_rng = root.fork();

    ChatSchedule s;
    s.system_prompt =
        tokens(sys_rng, cfg.integer("chat.system_prompt"), vocab);

    const double secs = horizon_ms / 1000.0;
    const int64_t n_sessions =
        std::max<int64_t>(cfg.integer("chat.min_sessions"),
                          std::llround(cfg.num("chat.sessions_per_s") * secs));
    const int64_t tenants = cfg.integer("chat.tenants");
    const int64_t turns_hi = cfg.integer("chat.turns_hi");
    const int64_t slots = n_sessions * turns_hi;
    const std::vector<int64_t> turns = stratifiedInts(
        chat_rng, n_sessions, cfg.integer("chat.turns_lo"), turns_hi);
    const std::vector<int64_t> user = stratifiedInts(
        chat_rng, slots, cfg.integer("chat.user_lo"), cfg.integer("chat.user_hi"));
    const std::vector<int64_t> budget = stratifiedInts(
        chat_rng, slots, cfg.integer("chat.new_lo"), cfg.integer("chat.new_hi"));
    const std::vector<double> think =
        stratified(chat_rng, slots, cfg.num("chat.think_ms_lo"),
                   cfg.num("chat.think_ms_hi"));
    const std::vector<double> at = arrivals(chat_rng, n_sessions, horizon_ms);
    for (int64_t i = 0; i < n_sessions; ++i) {
        ChatSession cs;
        cs.arrival_ms = at[static_cast<size_t>(i)];
        cs.tenant = 1 + static_cast<uint64_t>(i % tenants);
        int64_t history = static_cast<int64_t>(s.system_prompt.size());
        for (int64_t k = 0; k < turns[static_cast<size_t>(i)]; ++k) {
            const size_t j = static_cast<size_t>(i * turns_hi + k);
            // The session ends at the first turn that would not fit
            // the model's context: no request is ever truncated.
            if (history + user[j] + budget[j] > max_seq)
                break;
            cs.user.push_back(tokens(chat_rng, user[j], vocab));
            cs.max_new.push_back(budget[j]);
            cs.think_ms.push_back(k == 0 ? 0.0 : think[j]);
            history += user[j] + budget[j];
        }
        s.sessions.push_back(std::move(cs));
    }

    const int64_t n_docs =
        std::max<int64_t>(1, std::llround(cfg.num("doc.requests_per_s") * secs));
    const uint64_t doc_tenant =
        static_cast<uint64_t>(tenants) + 1; // one tenant of its own
    const std::vector<int64_t> doc_len = stratifiedInts(
        doc_rng, n_docs, cfg.integer("doc.prompt_lo"), cfg.integer("doc.prompt_hi"));
    const std::vector<int64_t> doc_new = stratifiedInts(
        doc_rng, n_docs, cfg.integer("doc.new_lo"), cfg.integer("doc.new_hi"));
    const std::vector<double> doc_at = arrivals(doc_rng, n_docs, horizon_ms);
    for (int64_t i = 0; i < n_docs; ++i) {
        DocRequest d;
        d.arrival_ms = doc_at[static_cast<size_t>(i)];
        d.tenant = doc_tenant;
        d.prompt = tokens(doc_rng, doc_len[static_cast<size_t>(i)], vocab);
        d.max_new = doc_new[static_cast<size_t>(i)];
        s.docs.push_back(std::move(d));
    }
    return s;
}

std::string
fingerprint(const DecodeSchedule &s)
{
    std::string out = "solo:";
    for (const DecodeItem &it : s.solo) {
        put(out, it.prompt);
        put(out, static_cast<double>(it.max_new));
    }
    for (const auto &wave : s.waves) {
        out += "\nwave:";
        for (const DecodeItem &it : wave) {
            put(out, it.prompt);
            put(out, static_cast<double>(it.max_new));
        }
    }
    return out;
}

std::string
fingerprint(const ChatSchedule &s)
{
    std::string out = "system:";
    put(out, s.system_prompt);
    for (const ChatSession &cs : s.sessions) {
        out += "\nsession:";
        put(out, cs.arrival_ms);
        put(out, static_cast<double>(cs.tenant));
        for (size_t k = 0; k < cs.user.size(); ++k) {
            put(out, cs.user[k]);
            put(out, static_cast<double>(cs.max_new[k]));
            put(out, cs.think_ms[k]);
        }
    }
    for (const DocRequest &d : s.docs) {
        out += "\ndoc:";
        put(out, d.arrival_ms);
        put(out, static_cast<double>(d.tenant));
        put(out, d.prompt);
        put(out, static_cast<double>(d.max_new));
    }
    return out;
}

std::string
hashHex(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace qt8bench
