#include "noc/arbiter.hh"

#include "common/log.hh"

namespace ocor
{

int
Arbiter::pick(std::span<const std::int64_t> ranks)
{
    if (ranks.size() != numInputs_)
        ocor_panic("Arbiter: %zu ranks for %u inputs", ranks.size(),
                   numInputs_);

    std::int64_t best = -1;
    for (auto r : ranks)
        best = r > best ? r : best;
    if (best < 0)
        return -1;

    // Round-robin among the max-rank candidates, starting at the
    // pointer so ties rotate fairly.
    for (unsigned idx = pointer_; idx < numInputs_; ++idx)
        if (ranks[idx] == best)
            return grant(idx);
    for (unsigned idx = 0; idx < pointer_; ++idx)
        if (ranks[idx] == best)
            return grant(idx);
    return -1; // unreachable
}

int
Arbiter::pickSparse(std::span<const unsigned> idx,
                    std::span<const std::int64_t> ranks)
{
    // One pass: the best rank so far, its first holder, and its
    // first holder at or after the pointer (the round-robin winner
    // when there is one).
    std::int64_t best = -1;
    unsigned first = 0;
    int after = -1;
    for (std::size_t i = 0; i < idx.size(); ++i) {
        if (ranks[i] > best) {
            best = ranks[i];
            first = idx[i];
            after = idx[i] >= pointer_ ? static_cast<int>(idx[i]) : -1;
        } else if (ranks[i] == best && after < 0 && idx[i] >= pointer_) {
            after = static_cast<int>(idx[i]);
        }
    }
    if (best < 0)
        return -1;
    return grant(after >= 0 ? static_cast<unsigned>(after) : first);
}

int
Arbiter::grantSingle(unsigned idx)
{
    if (idx >= numInputs_)
        ocor_panic("Arbiter: grantSingle(%u) with %u inputs", idx,
                   numInputs_);
    return grant(idx);
}

LpaResult
lpaSelect(const OcorConfig &cfg, const std::vector<LpaInput> &inputs)
{
    LpaResult res;
    if (inputs.size() > 64)
        ocor_panic("lpaSelect: more than 64 inputs");

    // Stage a: gate priority/progress words with the check bit.
    // Disabled OCOR behaves as if no packet carried priority.
    std::vector<OneHot> prio(inputs.size(), 0);
    std::vector<OneHot> prog(inputs.size(), 0);
    std::uint64_t valid_mask = 0;
    OneHot prog_or = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (!inputs[i].valid)
            continue;
        valid_mask |= std::uint64_t{1} << i;
        if (cfg.enabled && inputs[i].fields.check) {
            prio[i] = inputs[i].fields.priorityBits;
            prog[i] = cfg.ruleSlowProgressFirst
                ? inputs[i].fields.progressBits
                : OneHot{1}; // progress rule off: all equal
            prog_or |= prog[i];
        }
    }
    if (valid_mask == 0)
        return res;

    if (prog_or == 0) {
        // Only normal packets request: all tie at level 0.
        res.highestLevel = 0;
        res.indexMask = valid_mask;
        return res;
    }

    // Stage b: slowest progress = lowest set bit of the OR-reduction.
    OneHot best_prog = prog_or & (~prog_or + 1);

    // Stage c: among candidates in the winning progress segment, the
    // highest priority bit wins.
    OneHot prio_or = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i)
        if (prog[i] == best_prog)
            prio_or |= prio[i];
    OneHot best_prio = onehotHighest(prio_or);

    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i)
        if (prog[i] == best_prog && prio[i] == best_prio)
            mask |= std::uint64_t{1} << i;

    // Extended level word: progress-major flattening so callers can
    // compare LPA outputs across input channels (global stage).
    unsigned prog_level = cfg.numProgressLevels - 1
        - onehotDecode(best_prog);
    unsigned prio_level = onehotDecode(best_prio);
    res.highestLevel =
        1 + prio_level + (cfg.numRtrLevels + 2) * prog_level;
    res.indexMask = mask;
    return res;
}

} // namespace ocor
