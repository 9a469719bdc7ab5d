/**
 * @file
 * The entry file format of runtime::ResultCache's disk tier, private
 * to result_cache.cc and its tests.
 *
 * One file per entry, named after the benchmark, the workload and the
 * key. It holds a magic number, the entry's 64-bit cache key, the
 * benchmark and workload names (the collision guard), and an
 * FNV-1a-checksummed binary payload holding the CachedRun (doubles
 * bit-exact). There is no format version: this file's sources are in
 * the model-source digest the key covers, so a layout change changes
 * every key. Writes go to a unique temporary file followed by an
 * atomic rename: concurrent writers are last-writer-wins and readers
 * never observe a torn entry.
 */
#ifndef ALBERTA_RUNTIME_CACHE_ENTRY_H
#define ALBERTA_RUNTIME_CACHE_ENTRY_H

#include <cstdint>
#include <string>
#include <string_view>

#include "runtime/result_cache.h"

namespace alberta::runtime::entry {

/** What reading one entry file found. */
enum class Read
{
    Hit,     //!< the entry for this key and these names, decoded
    Miss,    //!< absent, or written for another key or other names
    Corrupt, //!< unreadable: truncated, bad magic, checksum mismatch
};

/** Read the entry for @p key from directory @p dir into @p out when
 * it is a hit. */
Read read(const std::string &dir, std::uint64_t key,
          std::string_view benchmark, std::string_view workload,
          CachedRun *out);

/** Write @p run as the entry for @p key in @p dir, atomically; false
 * when the write failed (nothing is left behind). */
bool write(const std::string &dir, std::uint64_t key,
           std::string_view benchmark, std::string_view workload,
           const CachedRun &run);

} // namespace alberta::runtime::entry

#endif // ALBERTA_RUNTIME_CACHE_ENTRY_H
