#include "vsyncsrc/vsync_distributor.h"

namespace dvs {

VsyncDistributor::VsyncDistributor(Simulator &sim, HwVsyncGenerator &hw)
    : sim_(sim), model_(hw.period())
{
    // The hook first: if the generator already has one, this fails
    // before a listener is left pointing at the half-built distributor.
    hw.set_end_of_edge([this](const VsyncEdge &e) { end_of_edge(e); });
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

    // Snapshot: callbacks requested from here on, during delivery
    // included, belong to the next edge.
    for (int ch = 0; ch < kNumVsyncChannels; ++ch) {
        const std::size_t batch = requests_[ch].size() - scheduled_[ch];
        scheduled_[ch] += batch;
        edge_batch_[ch] = batch;
    }
}

void
VsyncDistributor::end_of_edge(const VsyncEdge &edge)
{
    for (int ch = 0; ch < kNumVsyncChannels; ++ch) {
        const std::size_t batch = edge_batch_[ch];
        if (batch == 0)
            continue;
        // Checked before every batch: a delivered callback may schedule
        // an event that runs before the next one.
        if (deferred_ != 0 ||
            sim_.events().pending_now_below(EventPriority::kVsyncDist)) {
            schedule_from(edge, ch);
            return;
        }
        deliver(edge, ch, batch);
    }
}

[[gnu::cold, gnu::noinline]] void
VsyncDistributor::schedule_from(const VsyncEdge &edge, int first_ch)
{
    // Channel order holds: once one batch waits for its event, every
    // later batch of the edge does too.
    for (int ch = first_ch; ch < kNumVsyncChannels; ++ch) {
        const std::size_t batch = edge_batch_[ch];
        if (batch == 0)
            continue;
        ++deferred_;
        sim_.events().schedule(
            edge.timestamp,
            [this, edge, ch, batch] {
                --deferred_;
                deliver(edge, ch, batch);
            },
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
