/**
 * @file
 * FNV-1a (64-bit), the hash behind every report fingerprint.
 *
 * Fnv1a takes bytes the way std::string takes an append, so a formatter
 * templated over its sink can hash what it would have written without
 * building the string (RunReport::fingerprint()).
 */

#ifndef DVS_SIM_FNV_H
#define DVS_SIM_FNV_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dvs {

/** Incremental FNV-1a: value() after append(a), append(b) == fnv1a(ab). */
class Fnv1a
{
  public:
    void append(const char *p, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= static_cast<unsigned char>(p[i]);
            h_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** FNV-1a over a string — the report-fingerprint hash of the captures. */
inline std::uint64_t
fnv1a(std::string_view s)
{
    Fnv1a h;
    h.append(s.data(), s.size());
    return h.value();
}

} // namespace dvs

#endif // DVS_SIM_FNV_H
