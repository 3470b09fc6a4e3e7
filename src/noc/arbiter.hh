/**
 * @file
 * Arbitration logic: round-robin base arbiter and the Local Priority
 * Arbiter (LPA) of Figure 9.
 *
 * The router uses a rank-based arbiter everywhere: each candidate
 * carries an integer rank (from priorityRank()); the arbiter picks
 * the maximum rank and breaks ties round-robin. With OCOR disabled
 * every rank is 0 and the arbiter degenerates to the baseline
 * round-robin VA/SA of the 2-stage speculative router.
 *
 * The Lpa class additionally models the comparator-free one-hot
 * datapath of Figure 9 (priority check bit gating + OR-reduction +
 * leading-one select) and is unit-tested to order packets exactly as
 * the rank arbiter does.
 */

#ifndef OCOR_NOC_ARBITER_HH
#define OCOR_NOC_ARBITER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/onehot.hh"
#include "core/priority.hh"

namespace ocor
{

/** Max-rank arbiter with a round-robin pointer for tie breaking. */
class Arbiter
{
  public:
    explicit Arbiter(unsigned num_inputs)
        : numInputs_(num_inputs), pointer_(0)
    {}

    /**
     * Pick among candidates.
     *
     * @param ranks one entry per input; negative == not requesting.
     * @return winning input index, or -1 when nobody requests.
     */
    int pick(std::span<const std::int64_t> ranks);

    /**
     * pick() over a sparse request list: @p idx holds the requesting
     * inputs in increasing order and @p ranks their ranks (>= 0).
     * Picks the same winner and moves the pointer the same way as
     * pick() on the dense vector that is -1 everywhere else.
     */
    int pickSparse(std::span<const unsigned> idx,
                   std::span<const std::int64_t> ranks);

    /**
     * Fast path for the common single-requester case: grant input
     * @p idx directly, advancing the round-robin pointer exactly as
     * pick() would with one non-negative rank at @p idx. Callers
     * must only use this when @p idx is the sole requester —
     * otherwise fairness diverges from the full arbitration.
     */
    int grantSingle(unsigned idx);

    unsigned numInputs() const { return numInputs_; }
    unsigned pointer() const { return pointer_; }

  private:
    int grant(unsigned idx)
    {
        pointer_ = idx + 1 == numInputs_ ? 0 : idx + 1;
        return static_cast<int>(idx);
    }

    unsigned numInputs_;
    unsigned pointer_;
};

/** One candidate VC presented to the LPA. */
struct LpaInput
{
    bool valid = false;          ///< VC has a requesting flit
    PriorityFields fields;       ///< header fields of that flit
};

/** Output of the LPA (Figure 9): level word + index mask. */
struct LpaResult
{
    /**
     * Highest priority level present among valid inputs, as a level
     * number in the *extended* level space (progress-major, 1-based:
     * numProgressLevels x (numRtrLevels + 2) levels can exceed a
     * 64-bit one-hot word). Zero when only normal packets (or
     * nothing) request.
     */
    unsigned highestLevel = 0;

    /** Bit i set iff input i carries the highest priority. */
    std::uint64_t indexMask = 0;
};

/**
 * Comparator-free local priority arbitration (Figure 9).
 *
 * Stage a: the check bit gates each VC's priority bits; non-check
 * packets contribute no priority. Stage b: progress words are
 * OR-reduced and the *lowest* set bit (slowest progress = highest
 * priority) filters candidates. Stage c: priority words of the
 * filtered candidates are OR-reduced and the *highest* set bit
 * selects the winners. Normal packets win only when no priority
 * packet requests.
 */
LpaResult lpaSelect(const OcorConfig &cfg,
                    const std::vector<LpaInput> &inputs);

} // namespace ocor

#endif // OCOR_NOC_ARBITER_HH
