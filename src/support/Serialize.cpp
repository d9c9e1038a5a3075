//===- support/Serialize.cpp - Versioned binary snapshot I/O ----------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Serialize.h"

#include "support/FaultInjection.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

using namespace prom::support;

namespace {

constexpr char SnapshotMagic[8] = {'P', 'R', 'O', 'M', 'S', 'N', 'A', 'P'};

} // namespace

uint64_t prom::support::fnv1a(const uint8_t *Data, size_t N) {
  uint64_t Hash = 1469598103934665603ull;
  for (size_t I = 0; I < N; ++I) {
    Hash ^= Data[I];
    Hash *= 1099511628211ull;
  }
  return Hash;
}

void ByteWriter::writeU32(uint32_t V) {
  uint8_t Raw[sizeof(V)];
  std::memcpy(Raw, &V, sizeof(V));
  Bytes.insert(Bytes.end(), Raw, Raw + sizeof(V));
}

void ByteWriter::writeU64(uint64_t V) {
  uint8_t Raw[sizeof(V)];
  std::memcpy(Raw, &V, sizeof(V));
  Bytes.insert(Bytes.end(), Raw, Raw + sizeof(V));
}

void ByteWriter::writeF64(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  writeU64(Bits);
}

void ByteWriter::writeString(const std::string &S) {
  writeU32(static_cast<uint32_t>(S.size()));
  Bytes.insert(Bytes.end(), S.begin(), S.end());
}

void ByteWriter::writeDoubleVec(const std::vector<double> &V) {
  writeU64(V.size());
  for (double D : V)
    writeF64(D);
}

bool ByteWriter::writeFile(const std::string &Path) const {
  // An injected outright write failure: shaped like fopen/fwrite failing
  // (no file left behind), which is how a full disk or a bad path fails.
  if (faults::shouldFail("snapshot_write"))
    return false;

  // Assemble the full file image first: the checksum covers magic +
  // payload, so a corrupted header fails the same way a corrupted payload
  // does — and the fault points below can tear or flip a fully-formed
  // image exactly where real-world corruption would.
  std::vector<uint8_t> Image(SnapshotMagic,
                             SnapshotMagic + sizeof(SnapshotMagic));
  Image.insert(Image.end(), Bytes.begin(), Bytes.end());
  uint64_t Sum = fnv1a(Image.data(), Image.size());
  uint8_t Raw[sizeof(Sum)];
  std::memcpy(Raw, &Sum, sizeof(Sum));
  Image.insert(Image.end(), Raw, Raw + sizeof(Sum));

  size_t WriteLen = Image.size();
  if (faults::shouldFail("snapshot_truncate")) {
    // A torn write: only a prefix reaches the disk, yet the writer is
    // told it succeeded (buffered write + power loss). The checksummed
    // load is the defense that must catch this.
    WriteLen = Image.size() / 2;
  } else if (faults::shouldFail("snapshot_corrupt")) {
    // Silent media corruption: one payload byte flips after the checksum
    // was computed, so the file is full-length but fails verification.
    Image[Image.size() / 2] ^= 0x40;
  }

  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = WriteLen == 0 ||
            std::fwrite(Image.data(), 1, WriteLen, F) == WriteLen;
  return std::fclose(F) == 0 && Ok;
}

bool ByteReader::loadFile(const std::string &Path) {
  Failed = true;
  Bytes.clear();
  Cursor = 0;

  // An injected load failure covers unreadable files and corruption the
  // checksum would reject; it also fails generation *probing*, so
  // resolveLatestSnapshot's walk-back over older generations is what gets
  // exercised when this point is armed with a probability < 1.
  if (faults::shouldFail("snapshot_load"))
    return false;

  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  std::vector<uint8_t> All;
  uint8_t Buf[4096];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    All.insert(All.end(), Buf, Buf + Got);
  bool ReadOk = std::ferror(F) == 0;
  std::fclose(F);

  constexpr size_t MagicLen = sizeof(SnapshotMagic);
  constexpr size_t ChecksumLen = sizeof(uint64_t);
  if (!ReadOk || All.size() < MagicLen + ChecksumLen)
    return false;
  if (std::memcmp(All.data(), SnapshotMagic, MagicLen) != 0)
    return false;

  uint64_t Stored;
  std::memcpy(&Stored, All.data() + All.size() - ChecksumLen, ChecksumLen);
  if (fnv1a(All.data(), All.size() - ChecksumLen) != Stored)
    return false;

  Bytes.assign(All.begin() + MagicLen, All.end() - ChecksumLen);
  Failed = false;
  return true;
}

bool ByteReader::take(size_t N, const uint8_t *&Out) {
  if (Failed || Bytes.size() - Cursor < N) {
    Failed = true;
    return false;
  }
  Out = Bytes.data() + Cursor;
  Cursor += N;
  return true;
}

uint8_t ByteReader::readU8() {
  const uint8_t *P;
  return take(1, P) ? *P : 0;
}

uint32_t ByteReader::readU32() {
  const uint8_t *P;
  if (!take(sizeof(uint32_t), P))
    return 0;
  uint32_t V;
  std::memcpy(&V, P, sizeof(V));
  return V;
}

uint64_t ByteReader::readU64() {
  const uint8_t *P;
  if (!take(sizeof(uint64_t), P))
    return 0;
  uint64_t V;
  std::memcpy(&V, P, sizeof(V));
  return V;
}

double ByteReader::readF64() {
  uint64_t Bits = readU64();
  double V;
  std::memcpy(&V, &Bits, sizeof(V));
  return Failed ? 0.0 : V;
}

std::string ByteReader::readString() {
  uint32_t Len = readU32();
  const uint8_t *P;
  if (!take(Len, P))
    return std::string();
  return std::string(reinterpret_cast<const char *>(P), Len);
}

std::vector<double> ByteReader::readDoubleVec() {
  uint64_t Len = readU64();
  // Validate the length against the remaining payload before allocating:
  // a corrupt length field must fail, not OOM.
  if (Failed || Len > (Bytes.size() - Cursor) / sizeof(double)) {
    Failed = true;
    return {};
  }
  std::vector<double> V(static_cast<size_t>(Len));
  for (double &D : V)
    D = readF64();
  return V;
}

//===----------------------------------------------------------------------===//
// Snapshot rotation
//===----------------------------------------------------------------------===//

namespace {

constexpr const char *LatestPointerName = "latest";

std::string joinPath(const std::string &Dir, const std::string &Name) {
  if (Dir.empty() || Dir.back() == '/')
    return Dir + Name;
  return Dir + "/" + Name;
}

/// Parses "snapshot.<N>.bin" into N; false for anything else.
bool parseGenerationName(const char *Name, uint64_t &Gen) {
  unsigned long long Parsed = 0;
  int Consumed = 0;
  if (std::sscanf(Name, "snapshot.%llu.bin%n", &Parsed, &Consumed) != 1)
    return false;
  if (Name[Consumed] != '\0' || Parsed == 0)
    return false;
  Gen = Parsed;
  return true;
}

/// A generation is loadable when its file passes the full checksummed
/// load; mid-write or bit-flipped files fail exactly like corrupt
/// snapshots do.
bool generationLoads(const std::string &Dir, uint64_t Gen) {
  prom::support::ByteReader R;
  return R.loadFile(joinPath(Dir, prom::support::snapshotGenerationFile(Gen)));
}

} // namespace

std::string prom::support::snapshotGenerationFile(uint64_t Gen) {
  return "snapshot." + std::to_string(Gen) + ".bin";
}

bool prom::support::ensureDirectory(const std::string &Dir) {
  struct stat St;
  if (::stat(Dir.c_str(), &St) == 0)
    return S_ISDIR(St.st_mode);
  // Create missing parents first (mkdir -p): walk the separators and
  // mkdir each prefix, tolerating the ones that already exist.
  for (size_t Pos = Dir.find('/', 1); Pos != std::string::npos;
       Pos = Dir.find('/', Pos + 1)) {
    std::string Prefix = Dir.substr(0, Pos);
    if (::mkdir(Prefix.c_str(), 0755) != 0 && errno != EEXIST)
      return false;
  }
  if (::mkdir(Dir.c_str(), 0755) != 0 && errno != EEXIST)
    return false;
  return ::stat(Dir.c_str(), &St) == 0 && S_ISDIR(St.st_mode);
}

std::vector<uint64_t>
prom::support::listSnapshotGenerations(const std::string &Dir) {
  std::vector<uint64_t> Gens;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Gens;
  while (struct dirent *Entry = ::readdir(D)) {
    uint64_t Gen;
    if (parseGenerationName(Entry->d_name, Gen))
      Gens.push_back(Gen);
  }
  ::closedir(D);
  std::sort(Gens.begin(), Gens.end());
  return Gens;
}

bool prom::support::commitLatestPointer(const std::string &Dir,
                                        uint64_t Gen) {
  // An injected pointer-commit failure: the rename never happens, so the
  // previous committed generation stays pointed-to — a reader must keep
  // resolving the old state, never a half-committed one.
  if (faults::shouldFail("snapshot_rename"))
    return false;

  std::string Tmp = joinPath(Dir, std::string(LatestPointerName) + ".tmp");
  std::string Final = joinPath(Dir, LatestPointerName);
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return false;
  std::string Content = snapshotGenerationFile(Gen);
  bool Ok = std::fwrite(Content.data(), 1, Content.size(), F) ==
            Content.size();
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok) {
    std::remove(Tmp.c_str());
    return false;
  }
  // rename(2) replaces the old pointer atomically: a concurrent reader
  // sees either the previous committed generation or this one, never a
  // partial write.
  if (std::rename(Tmp.c_str(), Final.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

uint64_t prom::support::latestPointerGeneration(const std::string &Dir) {
  std::FILE *F = std::fopen(joinPath(Dir, LatestPointerName).c_str(), "rb");
  if (!F)
    return 0;
  char Buf[128] = {0};
  size_t Got = std::fread(Buf, 1, sizeof(Buf) - 1, F);
  std::fclose(F);
  Buf[Got] = '\0';
  // Trim a trailing newline so hand-edited pointers still parse.
  if (Got > 0 && Buf[Got - 1] == '\n')
    Buf[Got - 1] = '\0';
  uint64_t Gen;
  return parseGenerationName(Buf, Gen) ? Gen : 0;
}

std::string prom::support::resolveLatestSnapshot(const std::string &Dir) {
  uint64_t Pointed = latestPointerGeneration(Dir);
  if (Pointed != 0 && generationLoads(Dir, Pointed))
    return joinPath(Dir, snapshotGenerationFile(Pointed));

  // Stale or missing pointer: newest generation that actually loads. An
  // uncommitted newer file is only ever used when the committed one is
  // gone — the pointer, when valid, always wins above.
  std::vector<uint64_t> Gens = listSnapshotGenerations(Dir);
  for (auto It = Gens.rbegin(); It != Gens.rend(); ++It)
    if (generationLoads(Dir, *It))
      return joinPath(Dir, snapshotGenerationFile(*It));
  return std::string();
}

size_t prom::support::pruneSnapshotGenerations(const std::string &Dir,
                                               size_t KeepCount) {
  std::vector<uint64_t> Gens = listSnapshotGenerations(Dir);
  if (KeepCount == 0)
    KeepCount = 1;
  if (Gens.size() <= KeepCount)
    return 0;
  uint64_t Pointed = latestPointerGeneration(Dir);
  size_t Removed = 0;
  // Gens is ascending: everything before the newest KeepCount is stale —
  // except the generation the pointer still names, which must survive
  // until a newer generation is committed over it.
  for (size_t I = 0; I + KeepCount < Gens.size(); ++I) {
    if (Gens[I] == Pointed)
      continue;
    if (std::remove(
            joinPath(Dir, snapshotGenerationFile(Gens[I])).c_str()) == 0)
      ++Removed;
  }
  return Removed;
}

bool prom::support::rotateSnapshotGeneration(
    const std::string &Dir, uint64_t Gen, size_t KeepCount,
    const std::function<bool(const std::string &Path)> &Save) {
  if (Gen == 0) {
    std::vector<uint64_t> Gens = listSnapshotGenerations(Dir);
    Gen = Gens.empty() ? 1 : Gens.back() + 1;
  }
  if (!ensureDirectory(Dir) ||
      !Save(joinPath(Dir, snapshotGenerationFile(Gen))) ||
      !commitLatestPointer(Dir, Gen))
    return false;
  pruneSnapshotGenerations(Dir, KeepCount);
  return true;
}
