/**
 * @file
 * Minimal binary serialization helpers for on-disk artifacts (the
 * persistent result cache).
 *
 * The format is little-endian, length-prefixed, and self-delimiting:
 * integers are fixed-width, doubles are bit-cast to 64-bit words so
 * they round-trip bit-exactly, and strings/blobs carry a 64-bit length
 * prefix. ByteReader never throws on malformed input — every `read*`
 * returns false once the buffer under-runs, and `ok()` latches the
 * failure — so a truncated or corrupted file degrades to "no data",
 * not a crash.
 */
#ifndef ALBERTA_SUPPORT_BINIO_H
#define ALBERTA_SUPPORT_BINIO_H

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace alberta::support {

/** Append-only builder for a binary payload. */
class ByteWriter
{
  public:
    void
    writeU32(std::uint32_t value)
    {
        appendRaw(&value, sizeof value);
    }

    void
    writeU64(std::uint64_t value)
    {
        appendRaw(&value, sizeof value);
    }

    /** Bit-exact double encoding (no decimal round-trip loss). */
    void
    writeDouble(double value)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &value, sizeof bits);
        writeU64(bits);
    }

    /** Length-prefixed string. */
    void
    writeString(std::string_view value)
    {
        writeU64(value.size());
        appendRaw(value.data(), value.size());
    }

    const std::string &bytes() const { return bytes_; }

  private:
    void
    appendRaw(const void *data, std::size_t size)
    {
        bytes_.append(static_cast<const char *>(data), size);
    }

    std::string bytes_;
};

/**
 * Bounds-checked reader over a byte buffer. All reads fail (return
 * false, latch `ok() == false`) instead of reading past the end.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

    bool
    readU32(std::uint32_t *out)
    {
        return readRaw(out, sizeof *out);
    }

    bool
    readU64(std::uint64_t *out)
    {
        return readRaw(out, sizeof *out);
    }

    bool
    readDouble(double *out)
    {
        std::uint64_t bits;
        if (!readU64(&bits))
            return false;
        std::memcpy(out, &bits, sizeof *out);
        return true;
    }

    bool
    readString(std::string *out)
    {
        std::uint64_t size;
        if (!readU64(&size) || size > remaining()) {
            ok_ = false;
            return false;
        }
        out->assign(bytes_.data() + pos_,
                    static_cast<std::size_t>(size));
        pos_ += static_cast<std::size_t>(size);
        return true;
    }

    /** True until any read under-runs the buffer. */
    bool ok() const { return ok_; }

    /** True when the whole buffer has been consumed. */
    bool atEnd() const { return pos_ == bytes_.size(); }

    std::size_t remaining() const { return bytes_.size() - pos_; }

  private:
    bool
    readRaw(void *out, std::size_t size)
    {
        if (!ok_ || size > remaining()) {
            ok_ = false;
            return false;
        }
        std::memcpy(out, bytes_.data() + pos_, size);
        pos_ += size;
        return true;
    }

    std::string_view bytes_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/** FNV-1a over a byte buffer (payload checksums). */
std::uint64_t fnv1a(std::string_view bytes);

} // namespace alberta::support

#endif // ALBERTA_SUPPORT_BINIO_H
