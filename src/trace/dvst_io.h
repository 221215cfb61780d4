/**
 * @file
 * Binary primitives of the .dvst trace format.
 *
 * The session capture format is a sequence of CRC-guarded sections after
 * a fixed 8-byte header. Everything inside a section payload is built
 * from four primitives:
 *
 *  - fixed-width little-endian integers (header fields, CRCs, raw
 *    64-bit values such as seeds);
 *  - LEB128 varints for unsigned counts and, zigzag-folded, for signed
 *    quantities (timestamps and costs are delta-encoded, so they are
 *    small signed numbers);
 *  - doubles as their raw IEEE-754 bit pattern (8 LE bytes) — the
 *    replay contract is *bit*-exact, so no decimal round-trip is ever
 *    allowed to touch a recorded value;
 *  - length-prefixed UTF-8 strings.
 *
 * ByteWriter writes through a cursor into one buffer and frames sections
 * in place: begin_section() leaves a length placeholder that
 * end_section() fills in before appending the CRC of the payload bytes
 * already written, so no payload is ever copied.
 *
 * ByteReader never throws and never reads out of bounds: the first
 * malformed read latches an error message and every subsequent read
 * returns zero, so decoders can parse straight-line and check ok() once
 * per section. Corrupt inputs must always yield a clean error — the
 * fuzz tests flip every byte of a capture and expect load() to fail.
 */

#ifndef DVS_TRACE_DVST_IO_H
#define DVS_TRACE_DVST_IO_H

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "sim/fnv.h" // fnv1a(), the captures' report fingerprint

namespace dvs {

/**
 * CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over @p n bytes.
 * Slicing-by-8 over tables built at compile time, so it is safe to call
 * from any thread.
 */
std::uint32_t dvst_crc32(const void *data, std::size_t n);

/** Appends primitives to a byte buffer that grows geometrically. */
class ByteWriter
{
  public:
    void u8(std::uint8_t v)
    {
        *room(1) = char(v);
        ++pos_;
    }

    /** Fixed-width little-endian unsigned integer. */
    template <typename T>
    void le(T v)
    {
        char *p = room(sizeof(T));
        for (std::size_t i = 0; i < sizeof(T); ++i)
            p[i] = char(std::uint8_t(v >> (8 * i)));
        pos_ += sizeof(T);
    }

    void u16(std::uint16_t v) { le(v); }
    void u32(std::uint32_t v) { le(v); }
    void u64(std::uint64_t v) { le(v); }

    /** Unsigned LEB128. */
    void varint(std::uint64_t v)
    {
        char *const start = room(10);
        char *p = start;
        while (v >= 0x80) {
            *p++ = char(std::uint8_t(v) | 0x80);
            v >>= 7;
        }
        *p++ = char(v);
        pos_ += std::size_t(p - start);
    }

    /** Zigzag-folded LEB128. */
    void svarint(std::int64_t v)
    {
        // Zigzag: small magnitudes of either sign stay short.
        varint((std::uint64_t(v) << 1) ^ std::uint64_t(v >> 63));
    }

    /** Raw IEEE-754 bit pattern, 8 LE bytes. */
    void f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    /** Varint length + raw bytes. */
    void str(std::string_view s)
    {
        varint(s.size());
        raw(s.data(), s.size());
    }

    void raw(const void *data, std::size_t n)
    {
        if (n == 0)
            return;
        std::memcpy(room(n), data, n);
        pos_ += n;
    }

    /**
     * Open a framed section: 4-byte tag + u32 payload length placeholder.
     * Sections do not nest.
     */
    void begin_section(const char tag[4]);

    /** Close the open section: fill in its length, append its CRC-32. */
    void end_section();

    /** The bytes written so far; valid until the next write. */
    std::string_view bytes() const { return {buf_.data(), pos_}; }

    /** Hand over the bytes written and start empty. */
    std::string take();

  private:
    /** Cursor with room for @p n more bytes. */
    char *room(std::size_t n)
    {
        if (buf_.size() - pos_ < n)
            grow(n);
        return buf_.data() + pos_;
    }

    void grow(std::size_t n);

    std::string buf_; ///< capacity; bytes [0, pos_) are written
    std::size_t pos_ = 0;
    std::size_t section_ = kNoSection; ///< offset of the open section
    static constexpr std::size_t kNoSection = ~std::size_t(0);
};

/**
 * Bounds-checked reader over a byte span. All reads return 0 after the
 * first failure; check ok()/error() at section granularity.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view bytes)
        : p_(bytes.data()), end_(bytes.data() + bytes.size())
    {
    }

    bool ok() const { return ok_; }
    const std::string &error() const { return error_; }
    bool at_end() const { return !ok_ || p_ == end_; }
    std::size_t remaining() const { return std::size_t(end_ - p_); }

    /** Latch a decode error (first one wins). */
    void fail(const std::string &why);

    // A failure moves the cursor to the end, so after it every read of
    // at least one byte takes the truncation branch and returns 0.

    std::uint8_t u8()
    {
        if (p_ == end_) {
            truncated();
            return 0;
        }
        return std::uint8_t(*p_++);
    }

    /** Fixed-width little-endian unsigned integer. */
    template <typename T>
    T le()
    {
        if (remaining() < sizeof(T)) {
            truncated();
            return 0;
        }
        T v = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v = T(v | T(std::uint8_t(p_[i])) << (8 * i));
        p_ += sizeof(T);
        return v;
    }

    std::uint16_t u16() { return le<std::uint16_t>(); }
    std::uint32_t u32() { return le<std::uint32_t>(); }
    std::uint64_t u64() { return le<std::uint64_t>(); }

    std::uint64_t varint()
    {
        if (p_ != end_ && !(std::uint8_t(*p_) & 0x80))
            return std::uint8_t(*p_++);
        return varint_slow();
    }

    std::int64_t svarint()
    {
        const std::uint64_t z = varint();
        return std::int64_t(z >> 1) ^ -std::int64_t(z & 1);
    }

    double f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string str();

    /**
     * A count that prefixes a repeated group whose elements are at least
     * @p min_element_bytes each: bounded by the remaining payload so a
     * corrupted count can never drive a huge allocation.
     */
    std::uint64_t count(std::size_t min_element_bytes = 1);

  private:
    /** Latch "truncated payload" unless an error is already latched. */
    void truncated();

    /** Multi-byte, truncated or overlong varints. */
    std::uint64_t varint_slow();

    const char *p_;
    const char *end_;
    bool ok_ = true;
    std::string error_;
};

} // namespace dvs

#endif // DVS_TRACE_DVST_IO_H
