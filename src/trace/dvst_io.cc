#include "trace/dvst_io.h"

#include <algorithm>
#include <array>

#include "sim/logging.h"

namespace dvs {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables for the reflected CRC-32 (polynomial 0xEDB88320):
 * table 0 is the classic byte-at-a-time table, and table k advances a
 * byte's contribution by k more zero bytes.
 */
constexpr CrcTables
make_crc_tables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    return t;
}

constexpr CrcTables kCrc = make_crc_tables();

std::uint32_t
load_le32(const unsigned char *p)
{
    return std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8) |
           (std::uint32_t(p[2]) << 16) | (std::uint32_t(p[3]) << 24);
}

} // namespace

std::uint32_t
dvst_crc32(const void *data, std::size_t n)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint32_t crc = 0xFFFFFFFFu;
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = load_le32(p) ^ crc;
        const std::uint32_t hi = load_le32(p + 4);
        crc = kCrc[7][lo & 0xFF] ^ kCrc[6][(lo >> 8) & 0xFF] ^
              kCrc[5][(lo >> 16) & 0xFF] ^ kCrc[4][lo >> 24] ^
              kCrc[3][hi & 0xFF] ^ kCrc[2][(hi >> 8) & 0xFF] ^
              kCrc[1][(hi >> 16) & 0xFF] ^ kCrc[0][hi >> 24];
    }
    for (; n > 0; ++p, --n)
        crc = kCrc[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

// ----- ByteWriter ------------------------------------------------------

void
ByteWriter::grow(std::size_t n)
{
    buf_.resize(std::max({buf_.size() * 2, pos_ + n, std::size_t(64)}));
}

void
ByteWriter::begin_section(const char tag[4])
{
    if (section_ != kNoSection)
        panic("ByteWriter: section opened inside an open section");
    section_ = pos_;
    raw(tag, 4);
    u32(0); // payload length, filled in by end_section()
}

void
ByteWriter::end_section()
{
    if (section_ == kNoSection)
        panic("ByteWriter: end_section() without begin_section()");
    const std::size_t payload = section_ + 8;
    const std::size_t len = pos_ - payload;
    const std::uint32_t crc = dvst_crc32(buf_.data() + payload, len);
    for (std::size_t i = 0; i < 4; ++i)
        buf_[section_ + 4 + i] = char(std::uint8_t(len >> (8 * i)));
    section_ = kNoSection;
    u32(crc);
}

std::string
ByteWriter::take()
{
    buf_.resize(pos_);
    std::string out(std::move(buf_));
    buf_.clear();
    pos_ = 0;
    section_ = kNoSection;
    return out;
}

// ----- ByteReader ------------------------------------------------------

void
ByteReader::fail(const std::string &why)
{
    if (ok_) {
        ok_ = false;
        error_ = why;
        p_ = end_;
    }
}

void
ByteReader::truncated()
{
    if (ok_)
        fail("truncated payload");
}

std::uint64_t
ByteReader::varint_slow()
{
    std::uint64_t v = 0;
    const char *p = p_;
    for (int shift = 0; shift < 64; shift += 7) {
        if (p == end_) {
            truncated();
            return 0;
        }
        const std::uint8_t b = std::uint8_t(*p++);
        v |= std::uint64_t(b & 0x7F) << shift;
        if (!(b & 0x80)) {
            p_ = p;
            return v;
        }
    }
    fail("varint longer than 64 bits");
    return 0;
}

std::string
ByteReader::str()
{
    const std::uint64_t n = varint();
    if (remaining() < n) {
        truncated();
        return {};
    }
    std::string s(p_, n);
    p_ += n;
    return s;
}

std::uint64_t
ByteReader::count(std::size_t min_element_bytes)
{
    const std::uint64_t n = varint();
    if (!ok_)
        return 0;
    if (min_element_bytes < 1)
        min_element_bytes = 1;
    if (n > remaining() / min_element_bytes + 1) {
        fail("element count exceeds payload size");
        return 0;
    }
    return n;
}

} // namespace dvs
