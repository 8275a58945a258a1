#include "graph/graph_io.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/graph_validate.h"
#include "obs/trace.h"
#include "util/checksum.h"
#include "util/mmap_file.h"
#include "util/string_util.h"

namespace spammass::graph {

using util::Result;
using util::Status;

namespace {

// Text output is assembled in a buffer and flushed in slabs; the seed
// streamed one operator<< per field, which bottoms out in one virtual
// streambuf call per number.
constexpr size_t kTextFlushThreshold = 1u << 20;

void AppendUint(std::string* buf, uint64_t value) {
  char tmp[20];
  auto [ptr, ec] = std::to_chars(tmp, tmp + sizeof(tmp), value);
  (void)ec;  // Cannot fail: 20 chars hold any uint64.
  buf->append(tmp, static_cast<size_t>(ptr - tmp));
}

}  // namespace

util::Status WriteEdgeListText(const WebGraph& graph,
                               const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return Status::IoError("cannot open for writing: " + path);
  std::string buf;
  buf.reserve(kTextFlushThreshold + 64);
  buf += "# spammass edge list\n# nodes: ";
  AppendUint(&buf, graph.num_nodes());
  buf += "\n# edges: ";
  AppendUint(&buf, graph.num_edges());
  buf += '\n';
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (NodeId v : graph.OutNeighbors(u)) {
      AppendUint(&buf, u);
      buf += ' ';
      AppendUint(&buf, v);
      buf += '\n';
      if (buf.size() >= kTextFlushThreshold) {
        f.write(buf.data(), static_cast<std::streamsize>(buf.size()));
        buf.clear();
      }
    }
  }
  f.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!f) return Status::IoError("write failed: " + path);
  return Status::OK();
}

util::Result<WebGraph> ReadEdgeListText(const std::string& path) {
  SPAMMASS_TRACE_SPAN("graph.read_text", "path", std::string_view(path));
  std::ifstream f(path);
  if (!f) return Status::IoError("cannot open: " + path);
  GraphBuilder builder;
  std::string line;
  uint64_t lineno = 0;
  while (std::getline(f, line)) {
    ++lineno;
    std::string_view sv = util::Trim(line);
    if (sv.empty()) continue;
    if (sv[0] == '#') {
      // Honor an optional "# nodes: N" header so isolated trailing nodes
      // survive a round trip.
      constexpr std::string_view kNodesPrefix = "# nodes:";
      if (sv.substr(0, kNodesPrefix.size()) == kNodesPrefix) {
        std::string_view rest = sv.substr(kNodesPrefix.size());
        uint64_t declared = 0;
        if (util::ParseNumber(util::NextField(&rest), &declared) &&
            declared < kInvalidNode) {
          builder.EnsureNodes(static_cast<NodeId>(declared));
        }
      }
      continue;
    }
    std::string_view rest = sv;
    std::string_view source_field = util::NextField(&rest);
    std::string_view target_field = util::NextField(&rest);
    if (source_field.empty() || target_field.empty() ||
        !util::NextField(&rest).empty()) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": expected 'source target'");
    }
    uint64_t u = 0;
    if (!util::ParseNumber(source_field, &u)) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": bad source id '" +
                                     std::string(source_field) + "'");
    }
    uint64_t v = 0;
    if (!util::ParseNumber(target_field, &v)) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": bad target id '" +
                                     std::string(target_field) + "'");
    }
    if (u >= kInvalidNode || v >= kInvalidNode) {
      return Status::OutOfRange(path + ":" + std::to_string(lineno) +
                                ": node id exceeds 32-bit range");
    }
    NodeId max_id = static_cast<NodeId>(std::max(u, v));
    builder.EnsureNodes(max_id + 1);
    builder.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  return builder.Build();
}

namespace {

constexpr char kMagic[4] = {'S', 'M', 'W', 'G'};
constexpr uint32_t kVersionCurrent = 2;
constexpr uint32_t kFlagHostNames = 1u << 0;
// Format 2.2, the page-aligned paged layout. The flag and the minor version
// are both set so readers of the removed 2.0/2.1 layouts rejected paged
// files with a clean "unknown header flags" error instead of misparsing the
// section table as CSR data.
constexpr uint32_t kFlagPaged = 1u << 2;
constexpr uint32_t kMinorPaged = 2;

// v2.2 geometry: the header page and every section start on a 4 KiB
// boundary (the ubiquitous page size; mappings of the file are at least
// page-aligned, so each section pointer is safely castable to its element
// type). Section checksums cover the full body and a bounded head+tail
// sample; the load verifies both (the sample first, so truncation and
// damage at a section's ends are named before the full pass runs).
constexpr uint64_t kPageSize = 4096;
constexpr uint64_t kSampleBytes = 64 * 1024;
constexpr uint64_t kHeaderChecksumOffset = kPageSize - 8;
constexpr uint64_t kSectionTableOffset = 40;
constexpr uint64_t kSectionEntryBytes = 40;

enum SectionKind : uint32_t {
  kSecOutOffsets = 1,
  kSecTargets = 2,
  kSecInOffsets = 3,
  kSecSources = 4,
  kSecInvOutDegree = 5,
  kSecDangling = 6,
  kSecNameOffsets = 7,
  kSecNameBlob = 8,
};

constexpr uint64_t AlignUp(uint64_t v) {
  return (v + kPageSize - 1) / kPageSize * kPageSize;
}

/// One row of the v2.2 section table (40 bytes on disk, see
/// docs/graph_format.md).
struct SectionEntry {
  uint32_t kind = 0;
  uint32_t reserved = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t checksum_full = 0;
  uint64_t checksum_sample = 0;
};

void StoreEntry(const SectionEntry& e, uint8_t* out) {
  std::memcpy(out, &e.kind, 4);
  std::memcpy(out + 4, &e.reserved, 4);
  std::memcpy(out + 8, &e.offset, 8);
  std::memcpy(out + 16, &e.length, 8);
  std::memcpy(out + 24, &e.checksum_full, 8);
  std::memcpy(out + 32, &e.checksum_sample, 8);
}

SectionEntry LoadEntry(const uint8_t* in) {
  SectionEntry e;
  std::memcpy(&e.kind, in, 4);
  std::memcpy(&e.reserved, in + 4, 4);
  std::memcpy(&e.offset, in + 8, 8);
  std::memcpy(&e.length, in + 16, 8);
  std::memcpy(&e.checksum_full, in + 24, 8);
  std::memcpy(&e.checksum_sample, in + 32, 8);
  return e;
}

uint64_t FullSectionDigest(const uint8_t* data, uint64_t len) {
  util::Fnv1a64x8 hasher;
  if (len > 0) hasher.Update(data, len);
  return hasher.digest();
}

/// Bounded-sample digest: the first min(len, 64 KiB) bytes plus — when the
/// section is larger than one sample — its last 64 KiB. O(1) in the
/// section size; catches truncation, header/trailer damage, and any
/// corruption that lands in the sampled windows. Sections no larger than
/// the sample are covered in full, so the sample digest then equals a
/// whole-body check.
uint64_t SampleSectionDigest(const uint8_t* data, uint64_t len) {
  util::Fnv1a64x8 hasher;
  const uint64_t head = std::min(len, kSampleBytes);
  if (head > 0) hasher.Update(data, head);
  if (len > kSampleBytes) {
    hasher.Update(data + (len - kSampleBytes), kSampleBytes);
  }
  return hasher.digest();
}

/// A validated v2.2 mapping: typed views into the file plus the mapping
/// that keeps them alive. Host names are materialized (they are the one
/// non-bulk payload; zero-copy std::string is not possible anyway).
struct MappedV22 {
  std::shared_ptr<util::MmapFile> file;
  NodeId num_nodes = 0;
  uint64_t num_edges = 0;
  std::span<const uint64_t> out_offsets;
  std::span<const NodeId> targets;
  std::span<const uint64_t> in_offsets;
  std::span<const NodeId> sources;
  std::span<const double> inv_out_degree;
  std::span<const NodeId> dangling;
  bool has_names = false;
  std::vector<std::string> names;
};

template <typename T>
std::span<const T> SectionSpan(const uint8_t* base, const SectionEntry& e) {
  // Section offsets are 4 KiB-aligned within a page-aligned mapping, so
  // the pointer satisfies any element alignment.
  return {reinterpret_cast<const T*>(base + e.offset),
          static_cast<size_t>(e.length / sizeof(T))};
}

/// Maps `path` and validates it as a v2.2 file, in every build: header
/// page checksum, the complete section-table geometry (every section
/// 4 KiB-aligned, in canonical order, with the exact length its kind
/// demands, inside the file — after this no array access can fault),
/// every section's sample and full checksum, the dangling list's structure
/// (it indexes solver arrays), both CSR directions in full (ValidateCsr:
/// the sweeps and the transpose index through them), the derived arrays
/// against the out-offsets (ValidateDerivedArrays) and the host-name
/// offsets. Only the two directions are not cross-checked against each
/// other (docs/graph_format.md, "v2.2 trust model"). Files of the removed
/// v1, v2.0 and v2.1 containers are rejected by name.
Result<MappedV22> MapV22(const std::string& path) {
  auto open = util::MmapFile::Open(path);
  if (!open.ok()) return open.status();
  MappedV22 m;
  m.file = std::make_shared<util::MmapFile>(std::move(open).value());
  const uint8_t* base = m.file->data();
  const uint64_t file_size = m.file->size();
  if (file_size < sizeof(kMagic) ||
      std::memcmp(base, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + ": not a spammass binary graph");
  }
  // The version and minor words are read ahead of the header checksum only
  // to name a removed container: those files have no header page, so the
  // checksum or the size gate below would reject them with a message that
  // says nothing about why. v1 wrote version 1 (and is at least 24 bytes
  // long); v2.0 and v2.1 wrote version 2 with minor 0 or 1.
  uint32_t version = 0, minor = 0;
  if (file_size >= 16) {
    std::memcpy(&version, base + 4, 4);
    std::memcpy(&minor, base + 12, 4);
  }
  if (version == 1 || (version == kVersionCurrent && minor < kMinorPaged)) {
    return Status::InvalidArgument(
        path + (version == 1 ? ": SMWG v1" : ": SMWG v2.0/v2.1") +
        " file; only v2.2 paged graphs are read. Convert it with a build "
        "that still reads it (spammass_cli convert --edges <file> "
        "--format paged), see docs/graph_format.md, \"Removed versions\"");
  }
  if (file_size < kPageSize) {
    return Status::IoError(path + ": truncated (no v2.2 header page)");
  }

  // Header-page checksum before interpreting any other header field.
  uint64_t stored_header_digest = 0;
  std::memcpy(&stored_header_digest, base + kHeaderChecksumOffset, 8);
  if (FullSectionDigest(base, kHeaderChecksumOffset) != stored_header_digest) {
    return Status::InvalidArgument(path + ": header page checksum mismatch");
  }

  uint32_t flags = 0, section_count = 0, page_size = 0;
  uint64_t num_nodes = 0, num_edges = 0;
  std::memcpy(&flags, base + 8, 4);
  std::memcpy(&num_nodes, base + 16, 8);
  std::memcpy(&num_edges, base + 24, 8);
  std::memcpy(&section_count, base + 32, 4);
  std::memcpy(&page_size, base + 36, 4);
  if (version != kVersionCurrent) {
    return Status::InvalidArgument(path + ": unsupported version " +
                                   std::to_string(version));
  }
  if (minor != kMinorPaged) {
    return Status::InvalidArgument(path + ": unsupported minor version " +
                                   std::to_string(minor));
  }
  if ((flags & kFlagPaged) == 0 ||
      (flags & ~(kFlagHostNames | kFlagPaged)) != 0) {
    return Status::InvalidArgument(path + ": unknown header flags");
  }
  if (page_size != kPageSize) {
    return Status::InvalidArgument(path + ": unsupported page size");
  }
  if (num_nodes >= kInvalidNode) {
    return Status::OutOfRange(path + ": node count exceeds 32-bit range");
  }
  // Each edge occupies 4 bytes in `targets` alone; this bound also keeps
  // the length arithmetic below overflow-free on garbage counts.
  if (num_edges > file_size / 4 || num_nodes > file_size) {
    return Status::IoError(path + ": file shorter than header claims");
  }
  const bool has_names = (flags & kFlagHostNames) != 0;
  const uint32_t expected_sections = has_names ? 8 : 6;
  if (section_count != expected_sections) {
    return Status::InvalidArgument(path + ": unexpected section count");
  }

  const uint64_t offsets_len = (num_nodes + 1) * 8;
  const uint64_t ids_len = num_edges * 4;
  // kind, exact length (kInvalidLength = variable).
  constexpr uint64_t kVariableLength = ~uint64_t{0};
  struct ExpectedSection {
    uint32_t kind;
    uint64_t length;
  };
  const ExpectedSection expected[8] = {
      {kSecOutOffsets, offsets_len}, {kSecTargets, ids_len},
      {kSecInOffsets, offsets_len},  {kSecSources, ids_len},
      {kSecInvOutDegree, num_nodes * 8},
      {kSecDangling, kVariableLength},
      {kSecNameOffsets, offsets_len}, {kSecNameBlob, kVariableLength}};

  SectionEntry entries[8];
  uint64_t expected_offset = kPageSize;
  for (uint32_t i = 0; i < section_count; ++i) {
    const SectionEntry e =
        LoadEntry(base + kSectionTableOffset + i * kSectionEntryBytes);
    if (e.kind != expected[i].kind || e.reserved != 0) {
      return Status::InvalidArgument(path + ": unexpected section table");
    }
    if (e.offset % kPageSize != 0) {
      return Status::InvalidArgument(path + ": misaligned section " +
                                     std::to_string(e.kind));
    }
    if (e.offset != expected_offset) {
      return Status::InvalidArgument(path + ": non-canonical section layout");
    }
    if (expected[i].length != kVariableLength &&
        e.length != expected[i].length) {
      return Status::InvalidArgument(path + ": section " +
                                     std::to_string(e.kind) +
                                     " length mismatch");
    }
    if (e.kind == kSecDangling &&
        (e.length % 4 != 0 || e.length / 4 > num_nodes)) {
      return Status::InvalidArgument(path + ": dangling section malformed");
    }
    if (e.offset > file_size || e.length > file_size - e.offset) {
      return Status::IoError(path + ": file shorter than header claims");
    }
    entries[i] = e;
    expected_offset = AlignUp(e.offset + e.length);
  }
  // Every section ends inside the file, so a shorter file was cut in the
  // zero padding after the last one.
  if (file_size < expected_offset) {
    return Status::IoError(path +
                           ": truncated (file ends inside the last "
                           "section's page padding)");
  }
  if (file_size > expected_offset) {
    return Status::InvalidArgument(path + ": trailing bytes after payload");
  }

  // Every byte the spans below can reach is now inside the mapping, so no
  // access past this point can SIGBUS on a file matching its stat size.
  for (uint32_t i = 0; i < section_count; ++i) {
    const SectionEntry& e = entries[i];
    if (SampleSectionDigest(base + e.offset, e.length) != e.checksum_sample) {
      return Status::InvalidArgument(path + ": section " +
                                     std::to_string(e.kind) +
                                     " checksum mismatch");
    }
    if (FullSectionDigest(base + e.offset, e.length) != e.checksum_full) {
      return Status::InvalidArgument(path + ": section " +
                                     std::to_string(e.kind) +
                                     " checksum mismatch");
    }
  }

  m.num_nodes = static_cast<NodeId>(num_nodes);
  m.num_edges = num_edges;
  m.out_offsets = SectionSpan<uint64_t>(base, entries[0]);
  m.targets = SectionSpan<NodeId>(base, entries[1]);
  m.in_offsets = SectionSpan<uint64_t>(base, entries[2]);
  m.sources = SectionSpan<NodeId>(base, entries[3]);
  m.inv_out_degree = SectionSpan<double>(base, entries[4]);
  m.dangling = SectionSpan<NodeId>(base, entries[5]);
  m.has_names = has_names;

  // The dangling list indexes the solver's rank arrays, so its entries are
  // always fully bounds-checked (it is tiny next to the CSR).
  for (size_t i = 0; i < m.dangling.size(); ++i) {
    if (m.dangling[i] >= num_nodes ||
        (i > 0 && m.dangling[i] <= m.dangling[i - 1])) {
      return Status::InvalidArgument(path + ": dangling section malformed");
    }
  }

  // Every sweep gathers scaled[sources[e]] over in-CSR rows with no bounds
  // check, and the WebGraph::Transposed() view makes the mapped out-CSR
  // the in-CSR that TrustRank's seed solve gathers through. So both
  // directions are validated in full in every build (offsets monotone,
  // ids < n, rows sorted). Each reads exactly the pages a sweep reads
  // anyway.
  Status csr = ValidateCsr(m.num_nodes, m.in_offsets, m.sources, "in");
  if (csr.ok()) {
    csr = ValidateCsr(m.num_nodes, m.out_offsets, m.targets, "out");
  }
  if (!csr.ok()) return Status::InvalidArgument(path + ": " + csr.message());

  Status derived = ValidateDerivedArrays(m.num_nodes, m.out_offsets,
                                         m.inv_out_degree, m.dangling);
  if (!derived.ok()) {
    return Status(derived.code(), path + ": " + derived.message());
  }

  if (has_names) {
    const SectionEntry& off_entry = entries[6];
    const SectionEntry& blob_entry = entries[7];
    const auto name_offsets = SectionSpan<uint64_t>(base, off_entry);
    const uint8_t* blob = base + blob_entry.offset;
    const uint64_t blob_size = blob_entry.length;
    if (name_offsets.front() != 0 || name_offsets.back() != blob_size) {
      return Status::InvalidArgument(path + ": bad host-name offsets");
    }
    m.names.reserve(num_nodes);
    for (uint64_t i = 0; i < num_nodes; ++i) {
      if (name_offsets[i] > name_offsets[i + 1]) {
        return Status::InvalidArgument(path + ": bad host-name offsets");
      }
      m.names.emplace_back(reinterpret_cast<const char*>(blob) +
                               name_offsets[i],
                           name_offsets[i + 1] - name_offsets[i]);
    }
    // The names now live in strings; the two name sections, which end the
    // file, leave this process's RSS.
    m.file->DropResidentPages(off_entry.offset, file_size - off_entry.offset);
  }
  return m;
}

}  // namespace

util::Status WriteBinaryV22(const WebGraph& graph, const std::string& path) {
  SPAMMASS_TRACE_SPAN("graph.write_paged", "path", std::string_view(path));
  const bool has_names = !graph.host_names().empty();

  // Materialize the host-name sections first so every section is a stable
  // (pointer, length) pair below.
  std::vector<uint64_t> name_offsets;
  std::string name_blob;
  if (has_names) {
    name_offsets.reserve(graph.host_names().size() + 1);
    name_offsets.push_back(0);
    for (const std::string& name : graph.host_names()) {
      name_blob += name;
      name_offsets.push_back(name_blob.size());
    }
  }

  struct Section {
    uint32_t kind;
    const void* data;
    uint64_t length;
  };
  const auto out_offsets = graph.OutOffsets();
  const auto targets = graph.Targets();
  const auto in_offsets = graph.InOffsets();
  const auto sources = graph.Sources();
  const auto inv = graph.InvOutDegrees();
  const auto dangling = graph.DanglingNodes();
  std::vector<Section> sections = {
      {kSecOutOffsets, out_offsets.data(), out_offsets.size_bytes()},
      {kSecTargets, targets.data(), targets.size_bytes()},
      {kSecInOffsets, in_offsets.data(), in_offsets.size_bytes()},
      {kSecSources, sources.data(), sources.size_bytes()},
      {kSecInvOutDegree, inv.data(), inv.size_bytes()},
      {kSecDangling, dangling.data(), dangling.size_bytes()},
  };
  if (has_names) {
    sections.push_back({kSecNameOffsets, name_offsets.data(),
                        name_offsets.size() * sizeof(uint64_t)});
    sections.push_back({kSecNameBlob, name_blob.data(), name_blob.size()});
  }

  // Header page: fixed fields, section table, trailing page checksum.
  std::vector<uint8_t> page(kPageSize, 0);
  std::memcpy(page.data(), kMagic, sizeof(kMagic));
  const uint32_t version = kVersionCurrent;
  const uint32_t flags = kFlagPaged | (has_names ? kFlagHostNames : 0u);
  const uint32_t minor = kMinorPaged;
  const uint64_t num_nodes = graph.num_nodes();
  const uint64_t num_edges = graph.num_edges();
  const uint32_t section_count = static_cast<uint32_t>(sections.size());
  const uint32_t page_size = static_cast<uint32_t>(kPageSize);
  std::memcpy(page.data() + 4, &version, 4);
  std::memcpy(page.data() + 8, &flags, 4);
  std::memcpy(page.data() + 12, &minor, 4);
  std::memcpy(page.data() + 16, &num_nodes, 8);
  std::memcpy(page.data() + 24, &num_edges, 8);
  std::memcpy(page.data() + 32, &section_count, 4);
  std::memcpy(page.data() + 36, &page_size, 4);

  uint64_t cursor = kPageSize;
  for (size_t i = 0; i < sections.size(); ++i) {
    const Section& s = sections[i];
    const auto* bytes = static_cast<const uint8_t*>(s.data);
    SectionEntry entry;
    entry.kind = s.kind;
    entry.offset = cursor;
    entry.length = s.length;
    entry.checksum_full = FullSectionDigest(bytes, s.length);
    entry.checksum_sample = SampleSectionDigest(bytes, s.length);
    StoreEntry(entry,
               page.data() + kSectionTableOffset + i * kSectionEntryBytes);
    cursor = AlignUp(cursor + s.length);
  }
  const uint64_t header_digest =
      FullSectionDigest(page.data(), kHeaderChecksumOffset);
  std::memcpy(page.data() + kHeaderChecksumOffset, &header_digest, 8);

  std::ofstream f(path, std::ios::binary);
  if (!f) return Status::IoError("cannot open for writing: " + path);
  f.write(reinterpret_cast<const char*>(page.data()),
          static_cast<std::streamsize>(page.size()));
  const std::vector<char> zeros(kPageSize, 0);
  for (const Section& s : sections) {
    if (s.length > 0) {
      f.write(static_cast<const char*>(s.data),
              static_cast<std::streamsize>(s.length));
    }
    const uint64_t padding = AlignUp(s.length) - s.length;
    if (padding > 0) {
      f.write(zeros.data(), static_cast<std::streamsize>(padding));
    }
  }
  if (!f) return Status::IoError("write failed: " + path);
  return Status::OK();
}

util::Result<WebGraph> ReadBinaryMmap(const std::string& path) {
  SPAMMASS_TRACE_SPAN("graph.read_mmap", "path", std::string_view(path));
  auto mapped = MapV22(path);
  if (!mapped.ok()) return mapped.status();
  MappedV22& m = mapped.value();
  WebGraph g = WebGraph::FromMappedSections(
      m.num_nodes, m.out_offsets, m.targets, m.in_offsets, m.sources,
      m.inv_out_degree, m.dangling, m.file);
  // MapV22 read the out-CSR only to validate it, and a solve-only run never
  // reads it again, so its pages leave this process's RSS; the seed solve
  // over the transposed view maps them back from the page cache.
  const auto* out_begin =
      reinterpret_cast<const uint8_t*>(m.out_offsets.data());
  const auto* out_end =
      reinterpret_cast<const uint8_t*>(m.targets.data() + m.targets.size());
  m.file->DropResidentPages(static_cast<uint64_t>(out_begin - m.file->data()),
                            static_cast<uint64_t>(out_end - out_begin));
  if (m.has_names) g.set_host_names(std::move(m.names));
  // Load-time residency baseline; snapshot points (CLI stats, manifest
  // build) republish so exports see the post-compute state.
  PublishMappedResidency(g);
  return g;
}

util::Status WriteHostNames(const WebGraph& graph, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return Status::IoError("cannot open for writing: " + path);
  std::string buf;
  buf.reserve(kTextFlushThreshold + 64);
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    AppendUint(&buf, u);
    buf += '\t';
    buf += graph.HostName(u);
    buf += '\n';
    if (buf.size() >= kTextFlushThreshold) {
      f.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  f.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!f) return Status::IoError("write failed: " + path);
  return Status::OK();
}

util::Status ReadHostNames(const std::string& path, WebGraph* graph) {
  std::ifstream f(path);
  if (!f) return Status::IoError("cannot open: " + path);
  std::vector<std::string> names(graph->num_nodes());
  std::vector<bool> seen(graph->num_nodes(), false);
  std::string line;
  uint64_t lineno = 0;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": expected '<id>\\t<host>'");
    }
    uint64_t id = 0;
    if (!util::ParseNumber(std::string_view(line).substr(0, tab), &id) ||
        id >= graph->num_nodes()) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": bad node id");
    }
    names[id] = line.substr(tab + 1);
    seen[id] = true;
  }
  for (NodeId u = 0; u < graph->num_nodes(); ++u) {
    if (!seen[u]) {
      return Status::InvalidArgument(path + ": missing host name for node " +
                                     std::to_string(u));
    }
  }
  graph->set_host_names(std::move(names));
  return Status::OK();
}

}  // namespace spammass::graph
