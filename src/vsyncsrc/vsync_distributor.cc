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
    if (scheduled_[int(ch)] != 0)
        fatal("vsync channel offset changed with a delivery scheduled");
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
        const Time deliver_at = edge.timestamp + offsets_[ch];
        sim_.events().schedule(
            deliver_at,
            [this, edge, deliver_at, ch, batch] {
                deliver(edge, deliver_at, ch, batch);
            },
            EventPriority::kVsyncDist);
    }
}

void
VsyncDistributor::deliver(const VsyncEdge &edge, Time deliver_at, int ch,
                          std::size_t batch)
{
    const SwVsync sw{edge.timestamp, deliver_at, edge.index, edge.rate_hz};
    // Earlier batches were delivered first, so this one is at the front.
    for (std::size_t i = 0; i < batch; ++i) {
        // Moved out first: it may request again and grow the ring.
        Callback fn = requests_[ch].pop_front();
        --scheduled_[ch];
        fn(sw);
    }
}

} // namespace dvs
