//===- support/Serialize.h - Versioned binary snapshot I/O -------*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-level plumbing of the detector snapshot format.
///
/// A snapshot file is: the 8-byte magic "PROMSNAP", a host-endian
/// payload written through ByteWriter, and a trailing FNV-1a checksum of
/// everything before it. ByteReader memory-maps nothing and trusts
/// nothing: every read is bounds-checked, vector lengths are validated
/// against the remaining bytes before allocation, and the checksum is
/// verified before any field is consumed — truncated, oversized, or
/// bit-flipped files fail loading instead of producing a detector with
/// silently wrong calibration state.
///
/// Doubles round-trip through their IEEE-754 bit patterns, so restored
/// calibration scores are bit-identical to the saved ones (snapshots are
/// restart artifacts for the serving runtime, not a cross-architecture
/// interchange format: byte order is fixed to the host's, which the
/// supported targets share).
///
/// The rotation helpers at the bottom manage a *directory* of snapshots
/// for the self-recalibrating server: generation-numbered files
/// (snapshot.N.bin) plus a `latest` pointer committed by atomic rename,
/// so a crash between writing a generation and committing the pointer
/// never leaves a reader pointing at a partial file. The byte-level
/// layout of each generation file is documented in docs/SNAPSHOT_FORMAT.md.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_SUPPORT_SERIALIZE_H
#define PROM_SUPPORT_SERIALIZE_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace prom {
namespace support {

/// FNV-1a over \p N bytes; the snapshot integrity checksum.
uint64_t fnv1a(const uint8_t *Data, size_t N);

/// Appends primitive values to a byte buffer and writes the final
/// checksummed file.
class ByteWriter {
public:
  void writeU8(uint8_t V) { Bytes.push_back(V); }
  void writeU32(uint32_t V);
  void writeU64(uint64_t V);
  void writeI32(int32_t V) { writeU32(static_cast<uint32_t>(V)); }
  void writeF64(double V);
  /// Length-prefixed UTF-8 string.
  void writeString(const std::string &S);
  /// Length-prefixed vector of doubles.
  void writeDoubleVec(const std::vector<double> &V);

  const std::vector<uint8_t> &bytes() const { return Bytes; }

  /// Writes magic + payload + FNV-1a checksum to \p Path. Returns false on
  /// I/O failure.
  bool writeFile(const std::string &Path) const;

private:
  std::vector<uint8_t> Bytes;
};

/// Bounds-checked reader over a loaded snapshot payload. After any failed
/// read, failed() is sticky and every subsequent read returns a default.
class ByteReader {
public:
  /// Loads \p Path, verifies the magic and the trailing checksum, and
  /// exposes the payload between them. Returns false (and leaves the
  /// reader failed) for missing, short, or corrupt files.
  bool loadFile(const std::string &Path);

  bool failed() const { return Failed; }
  /// True when the payload was consumed exactly.
  bool atEnd() const { return !Failed && Cursor == Bytes.size(); }

  uint8_t readU8();
  uint32_t readU32();
  uint64_t readU64();
  int32_t readI32() { return static_cast<int32_t>(readU32()); }
  double readF64();
  std::string readString();
  /// Reads a length-prefixed vector; the length is validated against the
  /// remaining payload before anything is allocated.
  std::vector<double> readDoubleVec();

private:
  bool take(size_t N, const uint8_t *&Out);

  std::vector<uint8_t> Bytes;
  size_t Cursor = 0;
  bool Failed = true; ///< Until loadFile succeeds.
};

//===----------------------------------------------------------------------===//
// Snapshot rotation
//
// A rotation directory holds generation-numbered snapshot files
// ("snapshot.N.bin", N strictly increasing) and a `latest` pointer file
// whose content is the file name of the committed generation. Writers
// write the new generation fully, then commit the pointer via temp-file +
// rename (atomic on POSIX). Readers trust the pointer only if the file it
// names passes the checksummed load; otherwise they fall back to the
// newest generation that does — so a crash at any point leaves a loadable
// state behind.
//===----------------------------------------------------------------------===//

/// File name of generation \p Gen ("snapshot.<Gen>.bin").
std::string snapshotGenerationFile(uint64_t Gen);

/// Creates \p Dir if it does not exist, including missing parent
/// components (mkdir -p semantics; fleet tenants nest their rotation
/// directories under a common root). Returns false when the path cannot
/// be used as a directory.
bool ensureDirectory(const std::string &Dir);

/// Generation numbers of every "snapshot.N.bin" in \p Dir, ascending.
std::vector<uint64_t> listSnapshotGenerations(const std::string &Dir);

/// Atomically points \p Dir/latest at generation \p Gen (temp file +
/// rename). Call only after the generation file is fully written.
bool commitLatestPointer(const std::string &Dir, uint64_t Gen);

/// Generation the `latest` pointer names, or 0 when the pointer is
/// missing/unparseable (generations start at 1).
uint64_t latestPointerGeneration(const std::string &Dir);

/// Resolves the snapshot a restarting server should load: the pointed-to
/// generation when its file passes the checksummed load, else the newest
/// generation whose file does (a stale pointer — e.g. a crash after a
/// prune, or a corrupted generation — falls back instead of failing).
/// Returns the full path, or "" when no valid snapshot exists.
std::string resolveLatestSnapshot(const std::string &Dir);

/// Deletes old generations, keeping the newest \p KeepCount and — always —
/// the generation the `latest` pointer names. Returns how many files were
/// removed.
size_t pruneSnapshotGenerations(const std::string &Dir, size_t KeepCount);

/// Rotates generation \p Gen (0: the one after the newest on disk) into
/// \p Dir with the write protocol above: creates the directory, writes
/// the generation file through \p Save (given its full path), commits the
/// `latest` pointer, then prunes down to \p KeepCount generations.
/// Returns false, with the pointer left on the previous generation, when
/// a step before the commit fails.
bool rotateSnapshotGeneration(
    const std::string &Dir, uint64_t Gen, size_t KeepCount,
    const std::function<bool(const std::string &Path)> &Save);

} // namespace support
} // namespace prom

#endif // PROM_SUPPORT_SERIALIZE_H
