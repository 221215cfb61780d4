#include "vsyncsrc/vsync_distributor.h"

#include "sim/logging.h"

namespace dvs {

VsyncDistributor::VsyncDistributor(Simulator &sim, HwVsyncGenerator &hw)
    : sim_(sim), model_(hw.period())
{
    hw.add_listener([this](const VsyncEdge &e) { on_edge(e); });
}

void
VsyncDistributor::set_offset(VsyncChannel ch, Time offset)
{
    if (offset < 0)
        fatal("vsync channel offsets must be >= 0");
    offsets_[int(ch)] = offset;
}

Time
VsyncDistributor::offset(VsyncChannel ch) const
{
    return offsets_[int(ch)];
}

void
VsyncDistributor::request_callback(VsyncChannel ch, Callback fn)
{
    pending_[int(ch)].push_back(std::move(fn));
}

std::size_t
VsyncDistributor::pending(VsyncChannel ch) const
{
    return pending_[int(ch)].size();
}

void
VsyncDistributor::on_edge(const VsyncEdge &edge)
{
    model_.add_sample(edge.timestamp);

    for (int ch = 0; ch < kNumVsyncChannels; ++ch) {
        if (pending_[ch].empty())
            continue;
        // Snapshot and clear: callbacks requested during delivery belong
        // to the next edge. A recycled batch takes the snapshot's place,
        // so pending_[ch] keeps its capacity from edge to edge.
        std::vector<Callback> batch;
        if (!spare_.empty()) {
            batch.swap(spare_.back());
            spare_.pop_back();
        }
        batch.swap(pending_[ch]);
        const Time deliver_at = edge.timestamp + offsets_[ch];
        sim_.events().schedule(
            deliver_at,
            [this, edge, deliver_at, batch = std::move(batch)]() mutable {
                deliver(edge, deliver_at, batch);
            },
            EventPriority::kVsyncDist);
    }
}

void
VsyncDistributor::deliver(const VsyncEdge &edge, Time deliver_at,
                          std::vector<Callback> &batch)
{
    const SwVsync sw{edge.timestamp, deliver_at, edge.index, edge.rate_hz};
    for (const auto &fn : batch)
        fn(sw);
    batch.clear();
    spare_.push_back(std::move(batch));
}

} // namespace dvs
