#include "display/panel.h"

namespace dvs {

Panel::Panel(HwVsyncGenerator &vsync, BufferQueue &queue) : queue_(queue)
{
    // Room for every listener a surface registers: the DTV, FPE,
    // watchdog, stats, classifier and monitor, and on a composed display
    // the arbiter forward, the display compositor and the display
    // monitor.
    listeners_.reserve(9);
    vsync.add_listener([this](const VsyncEdge &e) { on_vsync(e); });
}

void
Panel::on_vsync(const VsyncEdge &edge)
{
    PresentEvent ev;
    ev.present_time = edge.timestamp;
    ev.vsync_index = edge.index;
    ev.rate_hz = edge.rate_hz;

    FrameBuffer *head = queue_.peek_queued();
    bool eligible = head && (!latch_policy_ || latch_policy_(*head, edge));
    if (eligible && head->meta().pre_rendered &&
        head->meta().content_timestamp != kTimeNone) {
        // A pre-rendered buffer carries its display timestamp; latching
        // it earlier would make the animation appear fast (§4.4). Hold
        // it until its slot (half a period of tolerance for jitter).
        const Time quarter = period_from_hz(edge.rate_hz) / 2;
        if (head->meta().content_timestamp > edge.timestamp + quarter)
            eligible = false;
    }
    FrameBuffer *buf = eligible ? queue_.acquire(edge.timestamp) : nullptr;
    if (buf) {
        last_meta_ = buf->meta();
        has_content_ = true;
        ++presented_;
        ev.meta = buf->meta();
        ev.queue_time = buf->queue_time();
        ev.dequeue_time = buf->dequeue_time();
    } else {
        ev.repeat = true;
        ev.first = !has_content_;
        ev.meta = last_meta_;
        ++repeats_;
    }

    for (auto &fn : listeners_)
        fn(ev);
}

} // namespace dvs
