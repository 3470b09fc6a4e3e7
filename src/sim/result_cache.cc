#include "sim/result_cache.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/log.hh"
#include "noc/fault.hh"

namespace ocor
{

std::string
CacheKey::toString() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\t%u\t%d\t%u\t%llu\t%u\t%u",
                  benchmark.c_str(), threads, ocorEnabled ? 1 : 0,
                  iterations,
                  static_cast<unsigned long long>(seed), rtrLevels,
                  ruleMask);
    return buf;
}

CacheKey
makeCacheKey(const BenchmarkProfile &profile,
             const ExperimentConfig &exp, bool ocor_enabled)
{
    CacheKey key;
    key.benchmark = profile.name;
    // Ledger runs carry COH cause counters a plain run's cached row
    // lacks; a name suffix keeps them from cross-satisfying while the
    // journal format stays unchanged.
    if (exp.cohLedger)
        key.benchmark += "+ledger";
    key.threads = exp.threads;
    key.ocorEnabled = ocor_enabled;
    key.iterations = exp.iterationsOverride;
    key.seed = exp.seed;
    if (!ocor_enabled) {
        // A baseline run is independent of every OCOR knob: use the
        // default-config key so level/rule sweeps reuse one
        // simulation (CacheKey's defaults == OcorConfig's defaults).
        return key;
    }
    const OcorConfig &oc = exp.ocorOverrideSet
        ? exp.ocorOverride
        : OcorConfig{};
    key.rtrLevels = oc.numRtrLevels;
    key.ruleMask = (oc.ruleSlowProgressFirst ? 1u : 0)
        | (oc.ruleLockFirst ? 2u : 0)
        | (oc.ruleLeastRtrFirst ? 4u : 0)
        | (oc.ruleWakeupLast ? 8u : 0);
    return key;
}

const char *
ResultCache::headerLine()
{
    return "#ocor-results v2";
}

ResultCache::ResultCache(std::string path) : path_(std::move(path))
{
    // An empty path (or the historical /dev/null convention used by
    // --fresh) means "no journal": purely in-memory, nothing durable.
    ephemeral_ = path_.empty() || path_ == "/dev/null";
}

ResultCache::~ResultCache()
{
    flush();
    std::lock_guard<std::mutex> lk(mu_);
    if (fd_ >= 0)
        ::close(fd_);
}

namespace
{

std::string
metricsToTsv(const RunMetrics &m)
{
    ThreadCounters sum;
    for (const auto &t : m.perThread) {
        sum.computeCycles += t.computeCycles;
        sum.csCycles += t.csCycles;
        sum.blockedHeldCycles += t.blockedHeldCycles;
        sum.blockedIdleCycles += t.blockedIdleCycles;
        sum.acquisitions += t.acquisitions;
        sum.spinWins += t.spinWins;
        sum.sleepWins += t.sleepWins;
        sum.retries += t.retries;
        sum.sleeps += t.sleeps;
        sum.cohTransferCycles += t.cohTransferCycles;
        sum.cohArbitrationCycles += t.cohArbitrationCycles;
        sum.cohBackoffCycles += t.cohBackoffCycles;
        sum.cohSleepCycles += t.cohSleepCycles;
        sum.cohGrantGapCycles += t.cohGrantGapCycles;
    }
    std::ostringstream os;
    os << m.roiFinish << '\t' << m.threads << '\t'
       << sum.computeCycles << '\t' << sum.csCycles << '\t'
       << sum.blockedHeldCycles << '\t' << sum.blockedIdleCycles
       << '\t' << sum.acquisitions << '\t' << sum.spinWins << '\t'
       << sum.sleepWins << '\t' << sum.retries << '\t' << sum.sleeps
       << '\t' << m.packetsInjected << '\t' << m.flitsInjected
       << '\t' << m.lockPacketsInjected << '\t'
       << m.avgPacketLatency << '\t' << m.avgLockPacketLatency
       << '\t' << m.avgDataPacketLatency << '\t'
       << m.p50PacketLatency << '\t' << m.p95PacketLatency << '\t'
       << m.p99PacketLatency << '\t' << m.p50LockHandover << '\t'
       << m.p95LockHandover << '\t' << m.p99LockHandover << '\t'
       << sum.cohTransferCycles << '\t' << sum.cohArbitrationCycles
       << '\t' << sum.cohBackoffCycles << '\t' << sum.cohSleepCycles
       << '\t' << sum.cohGrantGapCycles
       // The three window columns always hold 0; they stay so the
       // row layout (and every existing journal) stays valid.
       << '\t' << m.windowsOpened << '\t' << m.windowsClosed << '\t'
       << m.windowCycles;
    return os.str();
}

std::optional<RunMetrics>
metricsFromTsv(std::istringstream &is)
{
    RunMetrics m;
    ThreadCounters sum;
    if (!(is >> m.roiFinish >> m.threads >> sum.computeCycles
             >> sum.csCycles >> sum.blockedHeldCycles
             >> sum.blockedIdleCycles >> sum.acquisitions
             >> sum.spinWins >> sum.sleepWins >> sum.retries
             >> sum.sleeps >> m.packetsInjected >> m.flitsInjected
             >> m.lockPacketsInjected >> m.avgPacketLatency
             >> m.avgLockPacketLatency >> m.avgDataPacketLatency
             >> m.p50PacketLatency >> m.p95PacketLatency
             >> m.p99PacketLatency >> m.p50LockHandover
             >> m.p95LockHandover >> m.p99LockHandover
             >> sum.cohTransferCycles >> sum.cohArbitrationCycles
             >> sum.cohBackoffCycles >> sum.cohSleepCycles
             >> sum.cohGrantGapCycles >> m.windowsOpened
             >> m.windowsClosed >> m.windowCycles))
        // Lines from an older-layout cache file fail here and are
        // simply treated as misses (the run is redone and re-stored).
        return std::nullopt;
    // Aggregates are stored as one synthetic per-thread entry; every
    // derived percentage works off sums and m.threads.
    m.perThread.push_back(sum);
    return m;
}

/** Split "key-fields \t metrics-fields" on the 7th tab. */
std::optional<std::pair<std::string, RunMetrics>>
parsePayload(const std::string &line)
{
    std::size_t pos = 0;
    for (int tabs = 0; tabs < 7; ++tabs) {
        pos = line.find('\t', pos);
        if (pos == std::string::npos)
            return std::nullopt;
        ++pos;
    }
    std::istringstream is(line.substr(pos));
    auto m = metricsFromTsv(is);
    if (!m)
        return std::nullopt;
    return std::make_pair(line.substr(0, pos - 1), *m);
}

/** CRC32 stamp of a row payload (the "key \t metrics" text). */
std::uint32_t
payloadCrc(const std::string &payload)
{
    return crc32Update(0, payload.data(), payload.size());
}

/** Full journal row: "<crc-8-hex> \t key-fields \t metrics". */
std::string
formatRow(const std::string &payload)
{
    char crc[12];
    std::snprintf(crc, sizeof(crc), "%08x", payloadCrc(payload));
    return std::string(crc) + '\t' + payload;
}

/**
 * Validate one v2 journal row: 8 hex digits, a tab, then a payload
 * whose CRC32 matches the stamp. Returns the parsed payload or
 * nullopt for torn/corrupt rows.
 */
std::optional<std::pair<std::string, RunMetrics>>
parseRow(const std::string &line)
{
    if (line.size() < 10 || line[8] != '\t')
        return std::nullopt;
    char *end = nullptr;
    const std::string crcField = line.substr(0, 8);
    unsigned long stamp = std::strtoul(crcField.c_str(), &end, 16);
    if (end == nullptr || *end != '\0')
        return std::nullopt;
    const std::string payload = line.substr(9);
    if (payloadCrc(payload) != static_cast<std::uint32_t>(stamp))
        return std::nullopt;
    return parsePayload(payload);
}

} // namespace

void
ResultCache::loadLocked() const
{
    if (loaded_)
        return;
    loaded_ = true;
    if (ephemeral_)
        return;

    // Read the whole journal under the advisory lock so a writer's
    // append or compaction never interleaves with the scan (and so
    // the tail truncation below cannot race another process).
    int fd = ::open(path_.c_str(), O_RDONLY);
    if (fd < 0)
        return; // no journal yet
    ::flock(fd, LOCK_EX);
    std::string text;
    char buf[1 << 16];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0)
        text.append(buf, static_cast<std::size_t>(n));

    const std::size_t total = text.size();
    if (total == 0) {
        ::flock(fd, LOCK_UN);
        ::close(fd);
        return;
    }

    // Identify the format from the header line.
    bool v2 = false;
    std::size_t pos = 0;
    if (text[0] == '#') {
        std::size_t eol = text.find('\n');
        std::string header = text.substr(
            0, eol == std::string::npos ? total : eol);
        if (header == headerLine()) {
            v2 = true;
            pos = eol == std::string::npos ? total : eol + 1;
        } else {
            // Foreign or future version: nothing loadable. The next
            // flush compacts, rewriting the file in this version's
            // format from whatever this process computes.
            ocor_warn("ResultCache: %s has unknown header '%s'; "
                      "treating as empty",
                      path_.c_str(), header.c_str());
            legacy_ = true;
            ::flock(fd, LOCK_UN);
            ::close(fd);
            return;
        }
    } else {
        // Headerless v1 file (pre-journal): rows carry no CRC.
        // Loadable, but scheduled for migration on the next flush.
        legacy_ = true;
    }

    // lastGood: byte offset just past the last successfully parsed
    // row (or the header). Anything after it that fails to parse is
    // a torn/corrupt tail and is truncated away below.
    std::size_t lastGood = pos;
    while (pos < total) {
        std::size_t eol = text.find('\n', pos);
        const bool terminated = eol != std::string::npos;
        const std::size_t end = terminated ? eol : total;
        std::string line = text.substr(pos, end - pos);
        auto kv = v2 ? parseRow(line) : parsePayload(line);
        if (kv) {
            // Duplicate keys resolve last-write-wins: journal order
            // is append order, so the newest row is authoritative
            // and reloads are deterministic.
            mem_[kv->first] = std::move(kv->second);
            ++rowsLoaded_;
            lastGood = terminated ? end + 1 : end;
        } else {
            ++parseErrors_;
            if (terminated)
                // A corrupt row in the middle of the journal: skip
                // it (it is surfaced through parse_errors and
                // scrubbed by the next compaction) but keep reading;
                // rows after it are usually intact.
                legacy_ = true;
        }
        pos = terminated ? eol + 1 : total;
    }

    // Heal a torn tail: a crash mid-append leaves a partial final
    // row; truncating back to the last good row loses at most one
    // unflushed batch and never the file.
    if (lastGood < total) {
        if (::truncate(path_.c_str(),
                       static_cast<off_t>(lastGood)) == 0) {
            ++tailTruncations_;
            truncatedBytes_ += total - lastGood;
            ocor_warn("ResultCache: truncated %zu torn tail bytes "
                      "from %s (%" PRIu64 " rows recovered)",
                      total - lastGood, path_.c_str(), rowsLoaded_);
        } else {
            ocor_warn("ResultCache: cannot truncate torn tail of %s: "
                      "%s", path_.c_str(), std::strerror(errno));
        }
    }
    ::flock(fd, LOCK_UN);
    ::close(fd);
}

int
ResultCache::appendFdLocked()
{
    if (fd_ < 0)
        fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                     0644);
    return fd_;
}

void
ResultCache::flushLocked()
{
    if (ephemeral_) {
        pending_.clear();
        legacy_ = false;
        return;
    }
    if (legacy_) {
        // v1 migration / corrupt-row scrub: rewrite the whole
        // journal (pending rows included) instead of appending.
        loadLocked();
        compactLocked();
        return;
    }
    if (pending_.empty())
        return;
    int fd = appendFdLocked();
    if (fd < 0) {
        ocor_warn("ResultCache: cannot write %s", path_.c_str());
        pending_.clear();
        return;
    }

    // One contiguous buffer per batch: a crash mid-write tears at
    // most this batch, and the loader truncates the partial row.
    std::string batch;
    ::flock(fd, LOCK_EX);
    if (::lseek(fd, 0, SEEK_END) == 0)
        batch = std::string(headerLine()) + '\n';
    for (const auto &row : pending_)
        batch += row + '\n';
    const char *p = batch.data();
    std::size_t left = batch.size();
    while (left > 0) {
        ssize_t w = ::write(fd, p, left);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            ocor_warn("ResultCache: write to %s failed: %s",
                      path_.c_str(), std::strerror(errno));
            break;
        }
        p += w;
        left -= static_cast<std::size_t>(w);
    }
    ::fsync(fd);
    ::flock(fd, LOCK_UN);
    pending_.clear();
}

void
ResultCache::flush()
{
    std::lock_guard<std::mutex> lk(mu_);
    flushLocked();
}

void
ResultCache::compactLocked()
{
    if (ephemeral_) {
        pending_.clear();
        legacy_ = false;
        return;
    }
    loadLocked();
    pending_.clear();

    // Deterministic output: one row per key, sorted. (The in-memory
    // index is unordered; the sort below restores a stable order.)
    std::vector<std::string> keys;
    keys.reserve(mem_.size());
    // simlint: allow(unordered-iteration) -- keys are sorted below
    for (const auto &kv : mem_)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());

    const std::string tmp = path_ + ".compact.tmp";
    int tfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                     0644);
    if (tfd < 0) {
        ocor_warn("ResultCache: cannot write %s", tmp.c_str());
        return;
    }
    std::string out = std::string(headerLine()) + '\n';
    for (const auto &k : keys)
        out += formatRow(k + '\t' + metricsToTsv(mem_[k])) + '\n';
    const char *p = out.data();
    std::size_t left = out.size();
    bool ok = true;
    while (left > 0) {
        ssize_t w = ::write(tfd, p, left);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            ok = false;
            break;
        }
        p += w;
        left -= static_cast<std::size_t>(w);
    }
    ::fsync(tfd);
    ::close(tfd);
    if (!ok) {
        ocor_warn("ResultCache: compaction write failed for %s",
                  tmp.c_str());
        ::unlink(tmp.c_str());
        return;
    }

    // Atomic cut-over: readers see either the old journal or the
    // complete new one, never a half-written file. The append fd is
    // re-opened afterwards so future batches land in the new inode.
    int jfd = appendFdLocked();
    if (jfd >= 0)
        ::flock(jfd, LOCK_EX);
    if (::rename(tmp.c_str(), path_.c_str()) != 0) {
        ocor_warn("ResultCache: rename %s -> %s failed: %s",
                  tmp.c_str(), path_.c_str(), std::strerror(errno));
        ::unlink(tmp.c_str());
        if (jfd >= 0)
            ::flock(jfd, LOCK_UN);
        return;
    }
    // Durability of the rename itself: fsync the directory.
    std::string dir = ".";
    std::size_t slash = path_.find_last_of('/');
    if (slash != std::string::npos)
        dir = path_.substr(0, slash + 1);
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    if (jfd >= 0) {
        ::flock(jfd, LOCK_UN);
        ::close(jfd);
        fd_ = -1;
    }
    legacy_ = false;
    ++compactions_;
}

void
ResultCache::compact()
{
    std::lock_guard<std::mutex> lk(mu_);
    compactLocked();
}

std::optional<RunMetrics>
ResultCache::lookup(const CacheKey &key) const
{
    std::lock_guard<std::mutex> lk(mu_);
    loadLocked();
    auto it = mem_.find(key.toString());
    if (it == mem_.end())
        return std::nullopt;
    return it->second;
}

void
ResultCache::store(const CacheKey &key, const RunMetrics &metrics)
{
    std::lock_guard<std::mutex> lk(mu_);
    loadLocked();
    const std::string ks = key.toString();
    mem_[ks] = metrics;
    pending_.push_back(formatRow(ks + '\t' + metricsToTsv(metrics)));
    if (pending_.size() >= kFlushBatch)
        flushLocked();
}

RunMetrics
ResultCache::get(const BenchmarkProfile &profile,
                 const ExperimentConfig &exp, bool ocor_enabled,
                 Simulator::Options opts)
{
    const CacheKey key = makeCacheKey(profile, exp, ocor_enabled);
    const std::string ks = key.toString();

    std::promise<RunMetrics> prom;
    std::shared_future<RunMetrics> fut;
    bool runner = false;
    {
        std::lock_guard<std::mutex> lk(mu_);
        loadLocked();
        auto hit = mem_.find(ks);
        if (hit != mem_.end())
            return hit->second;
        auto inf = inflight_.find(ks);
        if (inf != inflight_.end()) {
            // Someone else is already simulating this key: wait for
            // their result instead of recomputing it.
            fut = inf->second;
        } else {
            runner = true;
            fut = prom.get_future().share();
            inflight_.emplace(ks, fut);
        }
    }
    if (!runner)
        return fut.get();

    // We won the race: simulate outside the lock.
    RunMetrics m = runOnce(profile, exp, ocor_enabled, opts);
    simulationsRun_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!m.cancelled) {
            mem_.emplace(ks, m);
            pending_.push_back(
                formatRow(ks + '\t' + metricsToTsv(m)));
            if (pending_.size() >= kFlushBatch)
                flushLocked();
        }
        // A cancelled (deadline-aborted) run is never cached: its
        // metrics are partial. Losers of the in-flight race still
        // observe it and let the supervisor decide on a retry.
        inflight_.erase(ks);
    }
    prom.set_value(m);
    return m;
}

BenchmarkResult
ResultCache::getComparison(const BenchmarkProfile &profile,
                           const ExperimentConfig &exp)
{
    BenchmarkResult r;
    r.name = profile.name;
    r.suite = profile.suite;
    r.highCsRate = profile.highCsRate;
    r.highNetUtil = profile.highNetUtil;
    r.base = get(profile, exp, false);
    r.ocor = get(profile, exp, true);
    return r;
}

std::uint64_t
ResultCache::rowsLoaded() const
{
    std::lock_guard<std::mutex> lk(mu_);
    loadLocked();
    return rowsLoaded_;
}

std::uint64_t
ResultCache::parseErrors() const
{
    std::lock_guard<std::mutex> lk(mu_);
    loadLocked();
    return parseErrors_;
}

std::uint64_t
ResultCache::tailTruncations() const
{
    std::lock_guard<std::mutex> lk(mu_);
    loadLocked();
    return tailTruncations_;
}

std::uint64_t
ResultCache::truncatedBytes() const
{
    std::lock_guard<std::mutex> lk(mu_);
    loadLocked();
    return truncatedBytes_;
}

std::uint64_t
ResultCache::compactions() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return compactions_;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    loadLocked();
    return mem_.size();
}

void
ResultCache::registerStats(StatsRegistry &reg,
                           const std::string &prefix)
{
    reg.addScalarFn(prefix + ".rows_loaded", [this]() {
        return static_cast<double>(rowsLoaded());
    });
    reg.addScalarFn(prefix + ".parse_errors", [this]() {
        return static_cast<double>(parseErrors());
    });
    reg.addScalarFn(prefix + ".tail_truncations", [this]() {
        return static_cast<double>(tailTruncations());
    });
    reg.addScalarFn(prefix + ".truncated_bytes", [this]() {
        return static_cast<double>(truncatedBytes());
    });
    reg.addScalarFn(prefix + ".compactions", [this]() {
        return static_cast<double>(compactions());
    });
    reg.addScalarFn(prefix + ".entries", [this]() {
        return static_cast<double>(size());
    });
    reg.addScalarFn(prefix + ".simulations_run", [this]() {
        return static_cast<double>(simulationsRun());
    });
}

} // namespace ocor
