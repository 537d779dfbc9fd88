#include "trace.hh"

#include <chrono>
#include <cstring>

#include "dram/backend_registry.hh"

namespace perfbench {

using namespace tcoram;

std::int64_t
Tracer::nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::size_t
Tracer::pathIndex(std::size_t parent, const char *name)
{
    for (std::size_t i = 0; i < aggs_.size(); ++i) {
        const Aggregate &a = aggs_[i];
        if (a.parent == parent &&
            (a.name == name || std::strcmp(a.name, name) == 0))
            return i;
    }
    Aggregate a;
    a.parent = parent;
    a.name = name;
    a.path = parent == kNoParent ? std::string(name)
                                 : aggs_[parent].path + "/" + name;
    aggs_.push_back(std::move(a));
    return aggs_.size() - 1;
}

void
Tracer::begin(const char *name, std::int64_t t_ns)
{
    if (std::this_thread::get_id() != owner_) {
        ++foreign_;
        return;
    }
    const std::size_t parent = stack_.empty() ? kNoParent : stack_.back().agg;
    stack_.push_back({pathIndex(parent, name), t_ns, 0});
}

void
Tracer::end(std::int64_t t_ns)
{
    if (std::this_thread::get_id() != owner_)
        return; // counted at begin()
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = t_ns - f.start;
    Aggregate &a = aggs_[f.agg];
    ++a.calls;
    a.totalNs += dur;
    a.selfNs += dur - f.childNs;
    if (!stack_.empty())
        stack_.back().childNs += dur;
}

Tracer::Aggregate
Tracer::at(std::string_view path) const
{
    for (const Aggregate &a : aggs_)
        if (a.path == path)
            return a;
    Aggregate zero;
    zero.path = std::string(path);
    return zero;
}

workload::WorkloadOp
TracedWorkloadSource::getNext(std::uint32_t rank)
{
    Tracer::Scope s(&tracer_, "workload");
    return inner_->getNext(rank);
}

void
registerTracedKv(Tracer &tracer)
{
    workload::WorkloadRegistry::instance().registerMethod(
        kTracedKv, [&tracer](const workload::WorkloadParams &p) {
            workload::WorkloadParams inner = p;
            inner.method = "kv";
            return std::make_unique<TracedWorkloadSource>(
                p, workload::loadWorkload(inner), tracer);
        });
}

timing::OramCompletion
TracedOramDevice::submit(Cycles now, const timing::OramTransaction &txn)
{
    if (txn.kind == timing::OramTransaction::Kind::Real)
        blockIds_.push_back(txn.blockId);
    Tracer::Scope s(&tracer_, "submit");
    return inner_.submit(now, txn);
}

Leaf
TracedPositionMap::get(BlockId id)
{
    Tracer::Scope s(&tracer_, "posmap");
    return inner_.get(id);
}

void
TracedPositionMap::set(BlockId id, Leaf leaf)
{
    Tracer::Scope s(&tracer_, "posmap");
    inner_.set(id, leaf);
}

Leaf
TracedPositionMap::update(BlockId id, Leaf leaf)
{
    Tracer::Scope s(&tracer_, "posmap");
    return inner_.update(id, leaf);
}

dram::TxnToken
TracedMemory::issue(Cycles now, const dram::MemRequest &req)
{
    Tracer::Scope s(&tracer_, "dram");
    return inner_->issue(now, req);
}

Cycles
TracedMemory::nextEventAt() const
{
    Tracer::Scope s(&tracer_, "dram");
    return inner_->nextEventAt();
}

std::span<const dram::Retired>
TracedMemory::drainRetired(Cycles up_to)
{
    Tracer::Scope s(&tracer_, "dram");
    return inner_->drainRetired(up_to);
}

Cycles
TracedMemory::access(Cycles now, const dram::MemRequest &req)
{
    Tracer::Scope s(&tracer_, "dram");
    return inner_->access(now, req);
}

Cycles
TracedMemory::accessBatch(Cycles now, std::span<const dram::MemRequest> reqs)
{
    Tracer::Scope s(&tracer_, "dram");
    return inner_->accessBatch(now, reqs);
}

void
registerTracedMemory(Tracer &tracer)
{
    for (const auto &[kind, inner_kind] :
         {std::pair{kTracedBanked, "banked"}, std::pair{kTracedFlat, "flat"}})
        dram::BackendRegistry::instance().registerBackend(
            kind, [&tracer, inner_kind](const dram::BackendSpec &spec) {
                dram::BackendSpec inner = spec;
                inner.kind = inner_kind;
                return std::make_unique<TracedMemory>(
                    dram::makeMemory(inner), tracer);
            });
}

} // namespace perfbench
