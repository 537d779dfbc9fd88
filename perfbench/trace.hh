/**
 * @file
 * The benchmark's layer trace, recorded from outside the library.
 *
 * Spans are opened and closed around calls into a layer, either by
 * the benchmark driver itself or by the decorators below, which wrap
 * the interfaces the library already exposes (the workload registry,
 * the ORAM device, the position map and the memory backend registry).
 * No span lives inside src/.
 *
 * A span is aggregated, when it closes, under its call path — its own
 * name appended to its parent's path ("grid.cell.run/dram") — so the
 * span that caused it is kept while memory stays bounded however many
 * million memory calls a grid makes. Self time is the span's duration
 * minus the part of it its child spans cover; children on one thread
 * are properly nested, so that part is the sum of the direct
 * children's durations.
 *
 * A Tracer is single-threaded: only the thread that created it may
 * record. A span opened from another thread is counted in
 * foreignCalls() and not recorded, so a misuse shows as a failure
 * rather than a data race.
 */

#ifndef TCORAM_PERFBENCH_TRACE_HH
#define TCORAM_PERFBENCH_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dram/memory_if.hh"
#include "oram/position_map.hh"
#include "timing/oram_device.hh"
#include "workload/workload_source.hh"

namespace perfbench {

class Tracer
{
  public:
    struct Aggregate
    {
        std::string path;
        std::size_t parent = kNoParent;
        const char *name = nullptr;
        std::uint64_t calls = 0;
        std::int64_t totalNs = 0;
        std::int64_t selfNs = 0;
    };

    static constexpr std::size_t kNoParent = ~std::size_t{0};

    Tracer() : owner_(std::this_thread::get_id()) {}

    /** Monotonic clock the spans are timed with. */
    static std::int64_t nowNs();

    /** Open a span named @p name (a string literal) at @p t_ns. */
    void begin(const char *name, std::int64_t t_ns);
    /** Close the innermost open span at @p t_ns. */
    void end(std::int64_t t_ns);

    /** Aggregate of call path @p path, or an all-zero one. */
    Aggregate at(std::string_view path) const;
    const std::vector<Aggregate> &aggregates() const { return aggs_; }
    bool idle() const { return stack_.empty(); }
    /** Spans attempted from a thread other than the owner. */
    std::uint64_t foreignCalls() const { return foreign_; }

    /** RAII span on the steady clock; a null tracer records nothing. */
    class Scope
    {
      public:
        Scope(Tracer *t, const char *name) : t_(t)
        {
            if (t_ != nullptr)
                t_->begin(name, nowNs());
        }
        ~Scope()
        {
            if (t_ != nullptr)
                t_->end(nowNs());
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_;
    };

  private:
    struct Frame
    {
        std::size_t agg;
        std::int64_t start;
        std::int64_t childNs;
    };

    std::size_t pathIndex(std::size_t parent, const char *name);

    std::thread::id owner_;
    std::vector<Frame> stack_;
    std::vector<Aggregate> aggs_;
    std::uint64_t foreign_ = 0;
};

/** WorkloadSource decorator: one "workload" span per getNext(). */
class TracedWorkloadSource : public tcoram::workload::WorkloadSource
{
  public:
    TracedWorkloadSource(
        const tcoram::workload::WorkloadParams &params,
        std::unique_ptr<tcoram::workload::WorkloadSource> inner,
        Tracer &tracer)
        : WorkloadSource(params), inner_(std::move(inner)), tracer_(tracer)
    {
    }

    const char *method() const override { return inner_->method(); }
    tcoram::workload::WorkloadOp getNext(std::uint32_t rank) override;
    std::uint64_t checkpointIntervalOps() const override
    {
        return inner_->checkpointIntervalOps();
    }

  private:
    std::unique_ptr<tcoram::workload::WorkloadSource> inner_;
    Tracer &tracer_;
};

/**
 * Register workload method kTracedKv: the built-in "kv" method wrapped
 * in a TracedWorkloadSource that records into @p tracer, which must
 * outlive every source the registry loads from it.
 */
inline constexpr const char *kTracedKv = "perfbench-traced-kv";
void registerTracedKv(Tracer &tracer);

/** OramDeviceIf decorator: one "submit" span per submit(), and the
 *  block id of every real transaction, in submission order. */
class TracedOramDevice : public tcoram::timing::OramDeviceIf
{
  public:
    TracedOramDevice(tcoram::timing::OramDeviceIf &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    const char *kind() const override { return inner_.kind(); }
    tcoram::timing::OramCompletion
    submit(tcoram::Cycles now,
           const tcoram::timing::OramTransaction &txn) override;
    tcoram::Cycles accessLatency() const override
    {
        return inner_.accessLatency();
    }
    tcoram::Cycles occupancyPerAccess() const override
    {
        return inner_.occupancyPerAccess();
    }
    std::uint64_t bytesPerAccess() const override
    {
        return inner_.bytesPerAccess();
    }
    std::uint64_t cryptoBytesPerAccess() const override
    {
        return inner_.cryptoBytesPerAccess();
    }
    std::uint64_t cryptoCallsPerAccess() const override
    {
        return inner_.cryptoCallsPerAccess();
    }
    std::uint64_t realAccesses() const override
    {
        return inner_.realAccesses();
    }
    std::uint64_t dummyAccesses() const override
    {
        return inner_.dummyAccesses();
    }

    const std::vector<std::uint64_t> &blockIds() const { return blockIds_; }

  private:
    tcoram::timing::OramDeviceIf &inner_;
    Tracer &tracer_;
    std::vector<std::uint64_t> blockIds_;
};

/** PositionMapIf decorator: one "posmap" span per get/set/update. */
class TracedPositionMap : public tcoram::oram::PositionMapIf
{
  public:
    TracedPositionMap(tcoram::oram::PositionMapIf &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    tcoram::Leaf get(tcoram::BlockId id) override;
    void set(tcoram::BlockId id, tcoram::Leaf leaf) override;
    tcoram::Leaf update(tcoram::BlockId id, tcoram::Leaf leaf) override;
    std::uint64_t size() const override { return inner_.size(); }

  private:
    tcoram::oram::PositionMapIf &inner_;
    Tracer &tracer_;
};

/** MemoryIf decorator: one "dram" span per call into the memory. */
class TracedMemory : public tcoram::dram::MemoryIf
{
  public:
    TracedMemory(std::unique_ptr<tcoram::dram::MemoryIf> inner,
                 Tracer &tracer)
        : inner_(std::move(inner)), tracer_(tracer)
    {
    }

    tcoram::dram::TxnToken issue(tcoram::Cycles now,
                                 const tcoram::dram::MemRequest &req) override;
    tcoram::Cycles nextEventAt() const override;
    std::span<const tcoram::dram::Retired>
    drainRetired(tcoram::Cycles up_to) override;
    tcoram::Cycles access(tcoram::Cycles now,
                          const tcoram::dram::MemRequest &req) override;
    tcoram::Cycles
    accessBatch(tcoram::Cycles now,
                std::span<const tcoram::dram::MemRequest> reqs) override;
    void resetTiming() override { inner_->resetTiming(); }
    std::uint64_t requestCount() const override
    {
        return inner_->requestCount();
    }
    std::uint64_t bytesMoved() const override
    {
        return inner_->bytesMoved();
    }

  private:
    std::unique_ptr<tcoram::dram::MemoryIf> inner_;
    Tracer &tracer_;
};

/**
 * Register memory backends kTracedBanked and kTracedFlat: the built-in
 * "banked" and "flat" memories wrapped in a TracedMemory recording
 * into @p tracer, which must outlive every memory the registry makes
 * from them.
 */
inline constexpr const char *kTracedBanked = "perfbench-traced-banked";
inline constexpr const char *kTracedFlat = "perfbench-traced-flat";
void registerTracedMemory(Tracer &tracer);

} // namespace perfbench

#endif // TCORAM_PERFBENCH_TRACE_HH
