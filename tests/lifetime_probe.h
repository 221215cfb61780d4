/**
 * @file
 * A capture that counts its own lifetime, for tests of inline callable
 * storage.
 */

#ifndef DVS_TESTS_LIFETIME_PROBE_H
#define DVS_TESTS_LIFETIME_PROBE_H

/**
 * Capture that counts its own lifetime: `live` tracks every instance
 * (moved-from husks included), `owner_dtors` counts destructions of the
 * one instance that still owns the state.
 */
struct LifetimeProbe {
    int *live;
    int *owner_dtors;
    bool owner = true;

    LifetimeProbe(int *l, int *d) : live(l), owner_dtors(d) { ++*live; }
    LifetimeProbe(const LifetimeProbe &o)
        : live(o.live), owner_dtors(o.owner_dtors), owner(o.owner)
    {
        ++*live;
    }
    LifetimeProbe(LifetimeProbe &&o) noexcept
        : live(o.live), owner_dtors(o.owner_dtors), owner(o.owner)
    {
        o.owner = false;
        ++*live;
    }
    ~LifetimeProbe()
    {
        --*live;
        if (owner)
            ++*owner_dtors;
    }
};

#endif // DVS_TESTS_LIFETIME_PROBE_H
