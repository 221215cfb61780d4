#include "vsyncsrc/vsync_distributor.h"

namespace dvs {

VsyncDistributor::VsyncDistributor(Simulator &sim, HwVsyncGenerator &hw)
    : sim_(sim), model_(hw.period())
{
    hw.add_listener([this](const VsyncEdge &e) { on_edge(e); });
}

void
VsyncDistributor::request_callback(VsyncChannel ch, Callback fn)
{
    requests_[int(ch)].push_back(std::move(fn));
}

std::size_t
VsyncDistributor::pending(VsyncChannel ch) const
{
    return requests_[int(ch)].size() - scheduled_[int(ch)];
}

void
VsyncDistributor::on_edge(const VsyncEdge &edge)
{
    model_.add_sample(edge.timestamp);

    for (int ch = 0; ch < kNumVsyncChannels; ++ch) {
        // Snapshot: callbacks requested from here on, during delivery
        // included, belong to the next edge.
        const std::size_t batch = requests_[ch].size() - scheduled_[ch];
        if (batch == 0)
            continue;
        scheduled_[ch] += batch;
        sim_.events().schedule(
            edge.timestamp,
            [this, edge, ch, batch] { deliver(edge, ch, batch); },
            EventPriority::kVsyncDist);
    }
}

void
VsyncDistributor::deliver(const VsyncEdge &edge, int ch, std::size_t batch)
{
    const SwVsync sw{edge.timestamp, edge.index, edge.rate_hz};
    // Earlier batches were delivered first, so this one is at the front.
    for (std::size_t i = 0; i < batch; ++i) {
        // Moved out first: it may request again and grow the ring.
        Callback fn = requests_[ch].pop_front();
        --scheduled_[ch];
        fn(sw);
    }
}

} // namespace dvs
