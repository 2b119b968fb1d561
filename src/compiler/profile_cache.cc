#include "compiler/profile_cache.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <shared_mutex>

#include "common/error.h"
#include "nuop/decomposer.h"

namespace qiset {

ProfileCache::ProfileCache(size_t max_entries) : max_entries_(max_entries)
{
}

std::string
ProfileCache::key(const Matrix& target, const GateSpec& spec)
{
    return profileKeyCore(target, spec);
}

std::shared_ptr<const GateProfile>
ProfileCache::insertLocked(const std::string& k,
                           std::shared_ptr<const GateProfile> profile)
{
    auto [it, inserted] = profiles_.try_emplace(k);
    it->second.last_used.store(
        clock_.fetch_add(1, std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    if (!inserted) {
        // Another thread computed the same profile first: its insert
        // wins, this call just refreshed the recency tick.
        return it->second.profile;
    }
    it->second.profile = std::move(profile);
    // Evict from the cold end (lowest tick); the new entry holds the
    // freshest tick and is never the victim while anything else
    // remains.
    while (max_entries_ > 0 && profiles_.size() > max_entries_ &&
           profiles_.size() > 1) {
        auto victim = profiles_.end();
        uint64_t min_tick = 0;
        for (auto iter = profiles_.begin(); iter != profiles_.end();
             ++iter) {
            if (iter == it)
                continue;
            uint64_t tick =
                iter->second.last_used.load(std::memory_order_relaxed);
            if (victim == profiles_.end() || tick < min_tick) {
                victim = iter;
                min_tick = tick;
            }
        }
        if (victim == profiles_.end())
            break;
        profiles_.erase(victim);
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    return it->second.profile;
}

std::shared_ptr<const GateProfile>
ProfileCache::get(const Matrix& target, const GateSpec& spec,
                  const NuOpDecomposer& decomposer,
                  const DecompositionStrategy& strategy,
                  LocalCacheCounters* local)
{
    // Warm lookups are the pass-sweep hot path: build the key in a
    // reused per-thread buffer so a cache hit performs zero heap
    // allocations. The map copies the buffer only on insert (misses).
    thread_local std::string k;
    k.clear();
    strategy.cacheKeyInto(k, target, spec);
    {
        // Hits take only a shared lock: concurrent readers proceed in
        // parallel. Recency and counters update atomically under the
        // shared lock, so stats and LRU order stay exact.
        std::shared_lock<std::shared_mutex> lock(mutex_);
        auto it = profiles_.find(k);
        if (it != profiles_.end()) {
            it->second.last_used.store(
                clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
            hits_.fetch_add(1, std::memory_order_relaxed);
            if (local)
                local->hits.fetch_add(1, std::memory_order_relaxed);
            return it->second.profile;
        }
        misses_.fetch_add(1, std::memory_order_relaxed);
        if (local)
            local->misses.fetch_add(1, std::memory_order_relaxed);
    }

    // Compute outside any lock (the expensive part); duplicated work
    // between racing threads is harmless and rare — the first insert
    // wins and both count as misses, since both paid the computation.
    // Snapshot the key first: computeProfile may call back into code
    // that reuses this thread's key buffer.
    std::string key_copy = k;
    auto profile = std::make_shared<GateProfile>(
        strategy.computeProfile(target, spec, decomposer));

    std::unique_lock<std::shared_mutex> lock(mutex_);
    return insertLocked(key_copy, std::move(profile));
}

std::shared_ptr<const GateProfile>
ProfileCache::get(const Matrix& target, const GateSpec& spec,
                  const NuOpDecomposer& decomposer,
                  LocalCacheCounters* local)
{
    return get(target, spec, decomposer, nuopDecompositionStrategy(),
               local);
}

size_t
ProfileCache::size() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return profiles_.size();
}

ProfileCacheStats
ProfileCache::stats() const
{
    ProfileCacheStats s;
    std::shared_lock<std::shared_mutex> lock(mutex_);
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.loaded = loaded_.load(std::memory_order_relaxed);
    s.entries = profiles_.size();
    return s;
}

void
ProfileCache::resetStats()
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
    loaded_.store(0, std::memory_order_relaxed);
}

void
ProfileCache::clear()
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    profiles_.clear();
}

namespace {

constexpr const char* kMagic = "qiset-profile-cache";
// v3: the header carries the NuOp options stamp *and* the
// decomposition strategy stamp (name + canonicalization), and every
// entry records the engine that computed it. v1 files (no stamp) and
// v2 files (no strategy stamp, raw-keyed only) cannot prove their
// profiles match the current configuration and are rejected.
constexpr int kVersion = 3;

void
writeMatrix(std::ostream& os, const Matrix& m)
{
    os << m.rows() << ' ' << m.cols();
    for (size_t i = 0; i < m.rows(); ++i)
        for (size_t j = 0; j < m.cols(); ++j)
            os << ' ' << m(i, j).real() << ' ' << m(i, j).imag();
    os << '\n';
}

bool
readMatrix(std::istream& is, Matrix& m)
{
    size_t rows = 0, cols = 0;
    if (!(is >> rows >> cols))
        return false;
    if (rows > 16 || cols > 16)
        return false; // gates are at most 4x4; reject corrupt sizes.
    m = Matrix(rows, cols);
    for (size_t i = 0; i < rows; ++i)
        for (size_t j = 0; j < cols; ++j) {
            double re = 0.0, im = 0.0;
            if (!(is >> re >> im))
                return false;
            m(i, j) = cplx(re, im);
        }
    return true;
}

} // namespace

bool
ProfileCache::save(const std::string& path, const NuOpOptions& nuop,
                   const DecompositionStrategy& strategy) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << std::setprecision(17);

    // Hold the lock (shared) for a consistent snapshot.
    std::shared_lock<std::shared_mutex> lock(mutex_);

    os << kMagic << ' ' << kVersion << '\n';
    // The strategy shapes both the keys (canonicalized or raw) and
    // the fit contents, so it is part of the compatibility contract.
    os << "strategy " << strategy.name() << ' '
       << (strategy.canonicalizesTargets() ? 1 : 0) << '\n';
    // Everything that changes what the BFGS multistarts can find:
    // layer bound, start count, exact tolerance, and the seed.
    os << "nuop " << nuop.max_layers << ' ' << nuop.multistarts << ' '
       << nuop.exact_threshold << ' ' << nuop.seed << '\n';
    os << profiles_.size() << '\n';
    // Entry order follows bucket order; it was never part of the v3
    // contract and load() merges entries one by one.
    for (const auto& [k, entry] : profiles_) {
        const GateProfile& p = *entry.profile;
        os << k.size() << '\n' << k << '\n';
        os << p.type_name.size() << '\n' << p.type_name << '\n';
        os << p.engine.size() << '\n' << p.engine << '\n';
        os << static_cast<int>(p.family) << '\n';
        writeMatrix(os, p.unitary);
        os << p.fits.size() << '\n';
        for (const auto& fit : p.fits) {
            os << fit.layers << ' ' << fit.fd << ' ' << fit.params.size();
            for (double v : fit.params)
                os << ' ' << v;
            os << '\n';
        }
    }
    return static_cast<bool>(os);
}

namespace {

/** Read a length-prefixed string ("N\n<N bytes>\n"). */
bool
readLenString(std::istream& is, std::string& out)
{
    size_t len = 0;
    if (!(is >> len))
        return false;
    if (len > (1u << 20))
        return false;
    is.ignore(); // the newline after the length
    out.resize(len);
    is.read(out.empty() ? nullptr : &out[0],
            static_cast<std::streamsize>(len));
    return static_cast<bool>(is);
}

} // namespace

bool
ProfileCache::load(const std::string& path, const NuOpOptions& nuop,
                   const DecompositionStrategy& strategy)
{
    std::ifstream is(path);
    if (!is)
        return false;

    std::string magic;
    int version = 0;
    if (!(is >> magic >> version) || magic != kMagic ||
        version != kVersion)
        return false;

    // Reject profiles keyed or computed by a different decomposition
    // strategy: raw and canonicalized keys are not interchangeable,
    // and neither are analytic and BFGS fit contents.
    std::string strategy_stamp, strategy_name;
    int canonical = -1;
    if (!(is >> strategy_stamp >> strategy_name >> canonical) ||
        strategy_stamp != "strategy")
        return false;
    if (strategy_name != strategy.name() ||
        canonical != (strategy.canonicalizesTargets() ? 1 : 0))
        return false;

    // Reject profiles computed under different optimizer settings:
    // they would silently stand in for results the current settings
    // might improve on (or never reach). %.17g round-trips doubles
    // exactly, so equality is the right comparison.
    std::string stamp;
    int max_layers = 0, multistarts = 0;
    double exact_threshold = 0.0;
    uint64_t seed = 0;
    if (!(is >> stamp >> max_layers >> multistarts >> exact_threshold >>
          seed) ||
        stamp != "nuop")
        return false;
    if (max_layers != nuop.max_layers ||
        multistarts != nuop.multistarts ||
        exact_threshold != nuop.exact_threshold || seed != nuop.seed)
        return false;

    size_t count = 0;
    if (!(is >> count) || count > (1u << 20))
        return false; // reject absurd entry counts from corrupt files.

    // Parse the whole file before touching the cache: a truncated or
    // corrupt file must not leave a half-merged state behind a false
    // return.
    std::vector<
        std::pair<std::string, std::shared_ptr<GateProfile>>>
        parsed;
    parsed.reserve(count);
    for (size_t e = 0; e < count; ++e) {
        std::string k, type_name, engine;
        if (!readLenString(is, k) || !readLenString(is, type_name) ||
            !readLenString(is, engine))
            return false;
        int family = 0;
        if (!(is >> family) ||
            family < static_cast<int>(TemplateFamily::Fixed) ||
            family > static_cast<int>(TemplateFamily::FullCphase))
            return false;
        auto profile = std::make_shared<GateProfile>();
        profile->type_name = std::move(type_name);
        profile->engine = std::move(engine);
        profile->family = static_cast<TemplateFamily>(family);
        if (!readMatrix(is, profile->unitary))
            return false;
        // Translation rebuilds each fit's template from the profile, so
        // a Fixed profile needs its 4x4 gate.
        bool fixed = profile->family == TemplateFamily::Fixed;
        if (fixed && (profile->unitary.rows() != 4 ||
                      profile->unitary.cols() != 4))
            return false;
        size_t num_fits = 0;
        if (!(is >> num_fits) || num_fits > 1024)
            return false;
        profile->fits.resize(num_fits);
        for (auto& fit : profile->fits) {
            size_t num_params = 0;
            // A template has more params than layers, so a layer count
            // above the param bound can never match its param count.
            if (!(is >> fit.layers >> fit.fd >> num_params) ||
                num_params > 4096 || fit.layers < 0 ||
                fit.layers > 4096 || !std::isfinite(fit.fd))
                return false;
            TwoQubitTemplate templ =
                fixed ? TwoQubitTemplate(fit.layers, profile->unitary)
                      : TwoQubitTemplate(fit.layers, profile->family);
            if (num_params != static_cast<size_t>(templ.numParams()))
                return false;
            fit.params.resize(num_params);
            for (double& v : fit.params)
                if (!(is >> v))
                    return false;
        }
        parsed.emplace_back(std::move(k), std::move(profile));
    }

    std::unique_lock<std::shared_mutex> lock(mutex_);
    for (auto& [k, profile] : parsed) {
        if (profiles_.count(k) == 0) {
            insertLocked(k, std::move(profile));
            loaded_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    return true;
}

} // namespace qiset
