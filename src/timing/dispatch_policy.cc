#include "timing/dispatch_policy.hh"

#include <limits>

#include "common/log.hh"

namespace tcoram::timing {

namespace {

/**
 * Shared scan: first entry (in RR order) whose head has arrived by the
 * last completion — O(1) under backlog — else the first entry holding
 * the minimum head arrival, which is the only eligible one then.
 */
std::size_t
roundRobinScan(const DispatchView &v)
{
    const std::size_t n = v.size();
    const Cycles lc = v.lastCompletion();
    Cycles min_arrival = std::numeric_limits<Cycles>::max();
    std::size_t min_pos = 0;
    for (std::size_t k = 0; k < n; ++k) {
        const auto e = v.entry(k);
        if (e.headArrival <= lc)
            return k;
        if (e.headArrival < min_arrival) {
            min_arrival = e.headArrival;
            min_pos = k;
        }
    }
    return min_pos;
}

class RoundRobinPolicy final : public DispatchPolicy
{
  public:
    DispatchPolicyKind
    kind() const override
    {
        return DispatchPolicyKind::RoundRobin;
    }

    std::size_t
    pick(const DispatchView &v) override
    {
        return roundRobinScan(v);
    }
};

/**
 * Weight-w sessions take w consecutive slots before the cursor moves
 * on. The last-served session sits at scan position size()-1, so the
 * burst continuation is an O(1) check; expired or ineligible bursts
 * fall back to the round-robin scan.
 */
class WeightedRoundRobinPolicy final : public DispatchPolicy
{
  public:
    DispatchPolicyKind
    kind() const override
    {
        return DispatchPolicyKind::WeightedRoundRobin;
    }

    std::size_t
    pick(const DispatchView &v) override
    {
        const std::size_t n = v.size();
        if (lastSid_ != kNoSid) {
            const auto tail = v.entry(n - 1);
            if (tail.sid == lastSid_ && burst_ < std::max<unsigned>(
                    tail.weight, 1) && tail.headArrival <= v.lastCompletion()) {
                ++burst_;
                return n - 1;
            }
        }
        const std::size_t k = roundRobinScan(v);
        const auto e = v.entry(k);
        burst_ = (e.sid == lastSid_) ? burst_ + 1 : 1;
        lastSid_ = e.sid;
        return k;
    }

    void
    saveState(ByteWriter &w) const override
    {
        w.u32(lastSid_);
        w.u32(burst_);
    }

    void
    restoreState(ByteReader &r) override
    {
        lastSid_ = r.u32();
        burst_ = r.u32();
    }

  private:
    static constexpr std::uint32_t kNoSid = 0xffffffffu;
    std::uint32_t lastSid_ = kNoSid;
    unsigned burst_ = 0;
};

/**
 * Earliest deadline first over the eligible set; ties go to scan
 * order, so the choice is deterministic. O(active) per pick.
 */
class EarliestDeadlinePolicy final : public DispatchPolicy
{
  public:
    DispatchPolicyKind
    kind() const override
    {
        return DispatchPolicyKind::EarliestDeadline;
    }

    std::size_t
    pick(const DispatchView &v) override
    {
        const std::size_t n = v.size();
        const Cycles lc = v.lastCompletion();
        constexpr Cycles kMax = std::numeric_limits<Cycles>::max();

        std::size_t best = n;
        Cycles best_deadline = kMax;
        Cycles min_arrival = kMax;
        std::size_t min_pos = 0;
        Cycles min_pos_deadline = kMax;
        for (std::size_t k = 0; k < n; ++k) {
            const auto e = v.entry(k);
            if (e.headArrival <= lc && e.deadline < best_deadline) {
                best = k;
                best_deadline = e.deadline;
            }
            if (e.headArrival < min_arrival ||
                (e.headArrival == min_arrival &&
                 e.deadline < min_pos_deadline)) {
                min_arrival = e.headArrival;
                min_pos = k;
                min_pos_deadline = e.deadline;
            }
        }
        return best < n ? best : min_pos;
    }
};

} // namespace

const char *
dispatchPolicyName(DispatchPolicyKind kind)
{
    switch (kind) {
      case DispatchPolicyKind::RoundRobin: return "rr";
      case DispatchPolicyKind::WeightedRoundRobin: return "wrr";
      case DispatchPolicyKind::EarliestDeadline: return "edf";
    }
    tcoram_panic("unknown dispatch policy kind");
}

std::vector<std::string>
dispatchPolicyNames()
{
    return {"rr", "wrr", "edf"};
}

std::optional<DispatchPolicyKind>
parseDispatchPolicy(std::string_view name)
{
    if (name == "rr")
        return DispatchPolicyKind::RoundRobin;
    if (name == "wrr")
        return DispatchPolicyKind::WeightedRoundRobin;
    if (name == "edf")
        return DispatchPolicyKind::EarliestDeadline;
    return std::nullopt;
}

std::unique_ptr<DispatchPolicy>
makeDispatchPolicy(DispatchPolicyKind kind)
{
    switch (kind) {
      case DispatchPolicyKind::RoundRobin:
        return std::make_unique<RoundRobinPolicy>();
      case DispatchPolicyKind::WeightedRoundRobin:
        return std::make_unique<WeightedRoundRobinPolicy>();
      case DispatchPolicyKind::EarliestDeadline:
        return std::make_unique<EarliestDeadlinePolicy>();
    }
    tcoram_panic("unknown dispatch policy kind");
}

} // namespace tcoram::timing
