#include "snapshot/snapshot.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace specdag::snapshot {

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) {
  // FNV-1a folded over 8-byte lanes (one xor+multiply per word instead of
  // per byte): checkpoints run to tens of MB and the byte-wise loop was the
  // dominant cost of a checkpoint write. The tail bytes are folded as one
  // zero-padded word, with the total size mixed in last so appended zero
  // bytes change the digest.
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  constexpr std::uint64_t kPrime = 0x00000100000001B3ULL;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, data + i, 8);
    hash ^= word;
    hash *= kPrime;
  }
  if (i < size) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, size - i);
    hash ^= word;
    hash *= kPrime;
  }
  hash ^= static_cast<std::uint64_t>(size);
  hash *= kPrime;
  return hash;
}

namespace {

constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8;

}  // namespace

void save_file(const std::string& path, const std::vector<std::uint8_t>& payload) {
  Writer header;
  for (char c : kMagic) header.u8(static_cast<std::uint8_t>(c));
  header.u32(kFormatVersion);
  header.u32(kEndianMarker);
  header.u64(payload.size());
  header.u64(fnv1a64(payload.data(), payload.size()));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw SnapshotError("snapshot: cannot open " + tmp + " for writing");
    out.write(reinterpret_cast<const char*>(header.buffer().data()),
              static_cast<std::streamsize>(header.buffer().size()));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) throw SnapshotError("snapshot: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError("snapshot: cannot rename " + tmp + " to " + path);
  }
}

std::vector<std::uint8_t> load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw SnapshotError("snapshot: cannot open " + path);
  const std::streamsize file_size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> file(static_cast<std::size_t>(file_size));
  in.read(reinterpret_cast<char*>(file.data()), file_size);
  if (!in) throw SnapshotError("snapshot: cannot read " + path);
  if (file.size() < kHeaderBytes) {
    throw SnapshotError("snapshot: " + path + " is too short to be a checkpoint (" +
                        std::to_string(file.size()) + " bytes)");
  }
  Reader r(file);
  for (char c : kMagic) {
    if (r.u8() != static_cast<std::uint8_t>(c)) {
      throw SnapshotError("snapshot: " + path + " is not a specdag checkpoint (bad magic)");
    }
  }
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion) {
    throw SnapshotError("snapshot: " + path + " has format version " + std::to_string(version) +
                        ", this build reads version " + std::to_string(kFormatVersion));
  }
  if (r.u32() != kEndianMarker) {
    throw SnapshotError("snapshot: " + path + " was written on a different-endian machine");
  }
  const std::uint64_t payload_size = r.u64();
  const std::uint64_t checksum = r.u64();
  if (payload_size != file.size() - kHeaderBytes) {
    throw SnapshotError("snapshot: " + path + " is truncated (payload claims " +
                        std::to_string(payload_size) + " bytes, file holds " +
                        std::to_string(file.size() - kHeaderBytes) + ")");
  }
  std::vector<std::uint8_t> payload(file.begin() + kHeaderBytes, file.end());
  const std::uint64_t actual = fnv1a64(payload.data(), payload.size());
  if (actual != checksum) {
    throw SnapshotError("snapshot: " + path + " failed its checksum (corrupt)");
  }
  return payload;
}

void save_rng(Writer& w, const Rng& rng) {
  w.u64(rng.seed());
  std::ostringstream state;
  state << rng.engine();
  w.str(state.str());
}

Rng load_rng(Reader& r) {
  const std::uint64_t seed = r.u64();
  const std::string state = r.str();
  Rng rng(seed);
  std::istringstream in(state);
  in >> rng.engine();
  if (!in) throw SnapshotError("snapshot: corrupt RNG engine state");
  return rng;
}

}  // namespace specdag::snapshot
