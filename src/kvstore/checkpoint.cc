#include "kvstore/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/fault_injection.h"

namespace rtrec {

namespace {

// v3 stores the quantized payload raw behind a precision tag, so a
// quantized store round-trips bit-exactly. Any other magic, the retired
// float32 v2 included, is rejected.
constexpr char kMagic[8] = {'R', 'T', 'R', 'E', 'C', 'C', 'P', '3'};

// Little-endian raw encoding; the library targets little-endian hosts
// (all supported platforms), so memcpy-based IO is portable enough and
// is validated by the round-trip tests.

/// Accumulates one section's bytes in memory.
class SectionWriter {
 public:
  template <typename T>
  void Write(const T& value) {
    buf_.append(reinterpret_cast<const char*>(&value), sizeof(T));
  }
  void WriteBytes(const void* data, std::size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }
  const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

/// Cursor over one CRC-verified section's bytes.
class SectionReader {
 public:
  explicit SectionReader(std::string_view data) : data_(data) {}

  template <typename T>
  bool Read(T* value) {
    if (data_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  bool ReadBytes(void* dst, std::size_t len) {
    if (data_.size() - pos_ < len) return false;
    std::memcpy(dst, data_.data() + pos_, len);
    pos_ += len;
    return true;
  }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Per-entry frame: id, bias, scale, payload length, raw quantized
/// payload. The f32 scale slot served the retired int8 precision; it is
/// written as 0 so fp32 and fp16 files keep their v3 bytes.
void WritePackedEntry(SectionWriter& out, std::uint64_t id,
                      const FactorStore::PackedView& view) {
  out.Write(id);
  out.Write(view.bias);
  out.Write(0.0f);
  out.Write(static_cast<std::uint32_t>(view.size));
  out.WriteBytes(view.data, view.size);
}

/// Appends one `u64 len | bytes | u32 crc` framed section to `file`.
void AppendSection(std::string& file, const SectionWriter& section) {
  const std::string& bytes = section.bytes();
  const std::uint64_t len = bytes.size();
  const std::uint32_t crc = Crc32(bytes);
  file.append(reinterpret_cast<const char*>(&len), sizeof(len));
  file.append(bytes);
  file.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
}

/// Extracts the next framed section from `file` at `*pos`, verifying its
/// CRC. On success advances `*pos` past the frame.
Status NextSection(std::string_view file, std::size_t* pos,
                   std::string_view* section, const char* what) {
  std::uint64_t len = 0;
  if (file.size() - *pos < sizeof(len)) {
    return Status::Corruption(std::string("truncated ") + what +
                              " section header");
  }
  std::memcpy(&len, file.data() + *pos, sizeof(len));
  *pos += sizeof(len);
  if (file.size() - *pos < len + sizeof(std::uint32_t)) {
    return Status::Corruption(std::string("truncated ") + what + " section");
  }
  std::string_view bytes = file.substr(*pos, len);
  *pos += len;
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, file.data() + *pos, sizeof(stored_crc));
  *pos += sizeof(stored_crc);
  if (Crc32(bytes) != stored_crc) {
    return Status::Corruption(std::string("CRC mismatch in ") + what +
                              " section");
  }
  *section = bytes;
  return Status::OK();
}

// --- Staging: everything parsed from the file before anything is applied.

/// One entry staged verbatim: the quantized payload as stored.
struct RawFactorEntry {
  std::uint64_t id = 0;
  float bias = 0.0f;
  std::vector<std::byte> data;
};

struct FactorStaging {
  std::uint32_t num_factors = 0;
  /// Precision the file's payloads are encoded in.
  FactorPrecision precision = FactorPrecision::kFloat32;
  double rating_sum = 0.0;
  std::uint64_t rating_count = 0;
  std::vector<RawFactorEntry> users;
  std::vector<RawFactorEntry> videos;
};

struct SimStaging {
  std::vector<std::pair<std::uint64_t, std::vector<SimilarVideo>>> lists;
};

struct HistoryStaging {
  std::vector<std::pair<std::uint64_t, std::vector<HistoryEntry>>> users;
};

bool ReadPackedEntry(SectionReader& in, RawFactorEntry* entry,
                     std::size_t expected_bytes) {
  if (!in.Read(&entry->id)) return false;
  if (!in.Read(&entry->bias)) return false;
  float unused_scale = 0.0f;
  if (!in.Read(&unused_scale)) return false;
  std::uint32_t n = 0;
  if (!in.Read(&n)) return false;
  if (n != expected_bytes) return false;
  entry->data.resize(n);
  return in.ReadBytes(entry->data.data(), n);
}

Status ParseFactorSection(std::string_view bytes, FactorStaging* out) {
  SectionReader in(bytes);
  std::uint8_t precision_tag = 0;
  std::uint64_t num_users = 0, num_videos = 0;
  if (!in.Read(&out->num_factors) || !in.Read(&precision_tag) ||
      !in.Read(&out->rating_sum) || !in.Read(&out->rating_count) ||
      !in.Read(&num_users) || !in.Read(&num_videos)) {
    return Status::Corruption("truncated factor header");
  }
  if (precision_tag > static_cast<std::uint8_t>(FactorPrecision::kFloat16)) {
    return Status::Corruption("unknown factor precision tag " +
                              std::to_string(precision_tag));
  }
  out->precision = static_cast<FactorPrecision>(precision_tag);
  const std::size_t expected_bytes =
      out->num_factors * FactorWidthBytes(out->precision);
  out->users.reserve(num_users);
  for (std::uint64_t i = 0; i < num_users; ++i) {
    RawFactorEntry entry;
    if (!ReadPackedEntry(in, &entry, expected_bytes)) {
      return Status::Corruption("truncated user entry");
    }
    out->users.push_back(std::move(entry));
  }
  out->videos.reserve(num_videos);
  for (std::uint64_t i = 0; i < num_videos; ++i) {
    RawFactorEntry entry;
    if (!ReadPackedEntry(in, &entry, expected_bytes)) {
      return Status::Corruption("truncated video entry");
    }
    out->videos.push_back(std::move(entry));
  }
  if (!in.AtEnd()) return Status::Corruption("trailing bytes after factors");
  return Status::OK();
}

Status ParseSimSection(std::string_view bytes, SimStaging* out) {
  SectionReader in(bytes);
  std::uint64_t num_lists = 0;
  if (!in.Read(&num_lists)) {
    return Status::Corruption("truncated sim-table header");
  }
  out->lists.reserve(num_lists);
  for (std::uint64_t i = 0; i < num_lists; ++i) {
    std::uint64_t id = 0;
    std::uint32_t count = 0;
    if (!in.Read(&id) || !in.Read(&count)) {
      return Status::Corruption("truncated sim-table list");
    }
    std::vector<SimilarVideo> entries;
    entries.reserve(count);
    for (std::uint32_t e = 0; e < count; ++e) {
      std::uint64_t video = 0;
      double sim = 0.0;
      std::int64_t time = 0;
      if (!in.Read(&video) || !in.Read(&sim) || !in.Read(&time)) {
        return Status::Corruption("truncated sim-table entry");
      }
      entries.push_back(SimilarVideo{video, sim, time});
    }
    out->lists.emplace_back(id, std::move(entries));
  }
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes after sim table");
  }
  return Status::OK();
}

Status ParseHistorySection(std::string_view bytes, HistoryStaging* out) {
  SectionReader in(bytes);
  std::uint64_t num_histories = 0;
  if (!in.Read(&num_histories)) {
    return Status::Corruption("truncated history header");
  }
  out->users.reserve(num_histories);
  for (std::uint64_t i = 0; i < num_histories; ++i) {
    std::uint64_t user = 0;
    std::uint32_t count = 0;
    if (!in.Read(&user) || !in.Read(&count)) {
      return Status::Corruption("truncated history record");
    }
    std::vector<HistoryEntry> entries;
    entries.reserve(count);
    for (std::uint32_t e = 0; e < count; ++e) {
      std::uint64_t video = 0;
      double weight = 0.0;
      std::int64_t time = 0;
      if (!in.Read(&video) || !in.Read(&weight) || !in.Read(&time)) {
        return Status::Corruption("truncated history entry");
      }
      entries.push_back(HistoryEntry{video, weight, time});
    }
    out->users.emplace_back(user, std::move(entries));
  }
  if (!in.AtEnd()) return Status::Corruption("trailing bytes after history");
  return Status::OK();
}

}  // namespace

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::Unavailable("cannot open '" + tmp + "' for writing: " +
                               std::strerror(errno));
  }
  std::size_t written = 0;
  while (written < contents.size()) {
    ssize_t n = ::write(fd, contents.data() + written,
                        contents.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::Internal("write failed on '" + tmp + "': " +
                              std::strerror(err));
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::Internal("fsync failed on '" + tmp + "': " +
                            std::strerror(err));
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    int err = errno;
    ::unlink(tmp.c_str());
    return Status::Internal("rename to '" + path + "' failed: " +
                            std::strerror(err));
  }
  // Durability of the rename itself (best-effort: some filesystems refuse
  // to open directories for fsync).
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

Status SaveCheckpoint(const std::string& path, const FactorStore* factors,
                      const SimTableStore* sim_table,
                      const HistoryStore* history) {
  RTREC_RETURN_IF_ERROR(RTREC_FAULT_POINT("kvstore.checkpoint.write"));

  // --- Factor section (v3: precision tag + raw quantized payloads, so
  // a quantized store round-trips without a dequantize/requantize hop).
  SectionWriter factor_section;
  const std::uint32_t num_factors =
      factors == nullptr ? 0
                         : static_cast<std::uint32_t>(factors->num_factors());
  factor_section.Write(num_factors);
  const std::uint8_t precision_tag =
      factors == nullptr
          ? 0
          : static_cast<std::uint8_t>(factors->precision());
  factor_section.Write(precision_tag);
  double rating_sum = 0.0;
  std::uint64_t rating_count = 0;
  if (factors != nullptr) factors->GetRatingStats(&rating_sum, &rating_count);
  factor_section.Write(rating_sum);
  factor_section.Write(rating_count);
  std::uint64_t num_users = factors == nullptr ? 0 : factors->NumUsers();
  std::uint64_t num_videos = factors == nullptr ? 0 : factors->NumVideos();
  factor_section.Write(num_users);
  factor_section.Write(num_videos);
  if (factors != nullptr) {
    factors->ForEachUserPacked(
        [&factor_section](UserId id, const FactorStore::PackedView& view) {
          WritePackedEntry(factor_section, id, view);
        });
    factors->ForEachVideoPacked(
        [&factor_section](VideoId id, const FactorStore::PackedView& view) {
          WritePackedEntry(factor_section, id, view);
        });
  }

  // --- Similar-video section: count, then per directed list.
  SectionWriter sim_section;
  std::uint64_t num_lists = 0;
  if (sim_table != nullptr) {
    sim_table->ForEachList(
        [&num_lists](VideoId, std::span<const SimilarVideo>) {
          ++num_lists;
        });
  }
  sim_section.Write(num_lists);
  if (sim_table != nullptr) {
    sim_table->ForEachList(
        [&sim_section](VideoId id, std::span<const SimilarVideo> entries) {
          sim_section.Write(static_cast<std::uint64_t>(id));
          sim_section.Write(static_cast<std::uint32_t>(entries.size()));
          for (const SimilarVideo& e : entries) {
            sim_section.Write(static_cast<std::uint64_t>(e.video));
            sim_section.Write(e.similarity);
            sim_section.Write(static_cast<std::int64_t>(e.update_time));
          }
        });
  }

  // --- History section.
  SectionWriter history_section;
  std::uint64_t num_histories =
      history == nullptr ? 0 : history->NumUsers();
  history_section.Write(num_histories);
  if (history != nullptr) {
    history->ForEach(
        [&history_section](UserId user,
                           const std::vector<HistoryEntry>& entries) {
          history_section.Write(static_cast<std::uint64_t>(user));
          history_section.Write(static_cast<std::uint32_t>(entries.size()));
          for (const HistoryEntry& e : entries) {
            history_section.Write(static_cast<std::uint64_t>(e.video));
            history_section.Write(e.weight);
            history_section.Write(static_cast<std::int64_t>(e.time));
          }
        });
  }

  std::string file;
  file.append(kMagic, sizeof(kMagic));
  AppendSection(file, factor_section);
  AppendSection(file, sim_section);
  AppendSection(file, history_section);
  return WriteFileAtomic(path, file);
}

Status LoadCheckpoint(const std::string& path, FactorStore* factors,
                      SimTableStore* sim_table, HistoryStore* history) {
  RTREC_RETURN_IF_ERROR(RTREC_FAULT_POINT("kvstore.checkpoint.read"));

  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream contents;
  contents << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::Internal("read failed on '" + path + "'");
  }
  const std::string file = contents.str();

  if (file.size() < sizeof(kMagic) ||
      std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad checkpoint magic in '" + path + "'");
  }

  // Phase 1: verify + parse every section into staging. Nothing below may
  // touch the target stores.
  std::size_t pos = sizeof(kMagic);
  std::string_view factor_bytes, sim_bytes, history_bytes;
  RTREC_RETURN_IF_ERROR(NextSection(file, &pos, &factor_bytes, "factor"));
  RTREC_RETURN_IF_ERROR(NextSection(file, &pos, &sim_bytes, "sim-table"));
  RTREC_RETURN_IF_ERROR(NextSection(file, &pos, &history_bytes, "history"));
  if (pos != file.size()) {
    return Status::Corruption("trailing bytes after checkpoint sections");
  }

  FactorStaging factor_staging;
  SimStaging sim_staging;
  HistoryStaging history_staging;
  RTREC_RETURN_IF_ERROR(ParseFactorSection(factor_bytes, &factor_staging));
  RTREC_RETURN_IF_ERROR(ParseSimSection(sim_bytes, &sim_staging));
  RTREC_RETURN_IF_ERROR(ParseHistorySection(history_bytes, &history_staging));

  if (factors != nullptr && factor_staging.num_factors != 0) {
    if (static_cast<int>(factor_staging.num_factors) !=
        factors->num_factors()) {
      return Status::InvalidArgument(
          "checkpoint dimensionality " +
          std::to_string(factor_staging.num_factors) +
          " != store dimensionality " +
          std::to_string(factors->num_factors()));
    }
    if (factor_staging.precision != factors->precision()) {
      return Status::InvalidArgument(
          std::string("checkpoint precision ") +
          FactorPrecisionToString(factor_staging.precision) +
          " != store precision " +
          FactorPrecisionToString(factors->precision()));
    }
  }

  // Phase 2: everything verified — apply the staged state. Payload sizes
  // were checked against num_factors and the precision above, so every
  // raw install succeeds.
  if (factors != nullptr) {
    for (const RawFactorEntry& e : factor_staging.users) {
      factors->PutUserPacked(e.id, e.bias, e.data.data(), e.data.size());
    }
    for (const RawFactorEntry& e : factor_staging.videos) {
      factors->PutVideoPacked(e.id, e.bias, e.data.data(), e.data.size());
    }
    factors->RestoreRatingStats(factor_staging.rating_sum,
                                factor_staging.rating_count);
  }
  if (sim_table != nullptr) {
    for (auto& [id, entries] : sim_staging.lists) {
      sim_table->LoadList(id, std::move(entries));
    }
  }
  if (history != nullptr) {
    for (auto& [user, entries] : history_staging.users) {
      history->LoadUser(user, std::move(entries));
    }
  }
  return Status::OK();
}

}  // namespace rtrec
