#ifndef RTREC_KVSTORE_CHECKPOINT_H_
#define RTREC_KVSTORE_CHECKPOINT_H_

#include <string>

#include "common/status.h"
#include "kvstore/factor_store.h"
#include "kvstore/history_store.h"
#include "kvstore/sim_table_store.h"

namespace rtrec {

/// Binary checkpointing of the engine's serving state — the operational
/// complement to the always-on stream: on restart, the model resumes
/// from the last snapshot instead of an empty (cold) state, exactly what
/// a production deployment of the paper's system needs since its model
/// exists only as KV-store contents.
///
/// Format: little-endian, magic "RTRECCP3", then three length-prefixed
/// sections — factor (dimensionality, storage precision, two reserved
/// rating slots, user entries, video entries), similar-video (directed
/// lists), and history — each framed as
///   u64 section_length | section bytes | u32 CRC-32 of the bytes
/// so corruption anywhere in a section is detected before a single byte
/// of it is interpreted.
///
/// Factor vectors are persisted as the store's *raw quantized payload*
/// (precision tag in the header), so a quantized store round-trips
/// bit-exactly instead of through a dequantize/requantize hop. Each
/// entry still carries the f32 scale slot of the retired int8 precision,
/// always 0, so fp32 and fp16 files keep their v3 bytes. The factor
/// header's f64 sum and u64 count once held the running rating mean μ;
/// μ is 0 now (see OnlineMf), so the writer puts 0 in both and the reader
/// requires them but ignores their values, and older files still load.
/// User and video entries are written in ascending id order, so the
/// bytes do not depend on the store's table layout; the reader accepts
/// any order, including the hash-map order older writers produced.
/// A file whose dimensionality or precision differs from the target
/// store's is InvalidArgument; an unknown precision tag (2, the int8 tag,
/// included) is Corruption, as is any other magic, the retired float32 v2
/// format included.
///
/// Crash safety: SaveCheckpoint serializes to memory, writes `path`.tmp,
/// fsyncs it, and atomically renames it over `path` (then fsyncs the
/// directory), so a crash mid-save leaves the previous checkpoint intact.
/// LoadCheckpoint parses the whole file into staging buffers and applies
/// them to the target stores only after every section verified — a
/// corrupt or truncated file can never half-clobber live stores; on any
/// error the targets are exactly as they were before the call.
///
/// Fault points: "kvstore.checkpoint.write" and "kvstore.checkpoint.read"
/// (see common/fault_injection.h).

/// Serializes the three stores to `path` (atomic overwrite). Any may be
/// null to skip its section (an empty section is written).
Status SaveCheckpoint(const std::string& path, const FactorStore* factors,
                      const SimTableStore* sim_table,
                      const HistoryStore* history);

/// Restores into the given stores; null targets skip their section.
/// `factors` must be configured with the same num_factors and precision
/// as the saved state. On any non-OK return the target stores are
/// untouched.
Status LoadCheckpoint(const std::string& path, FactorStore* factors,
                      SimTableStore* sim_table, HistoryStore* history);

/// Durably replaces `path` with `contents`: tmp file, fsync, atomic
/// rename, directory fsync. A crash (or error return) at any point
/// leaves either the old file or the new one, never a mix. Used for the
/// checkpoint files themselves and for snapshot manifests, which must
/// only name files that were fully written.
Status WriteFileAtomic(const std::string& path, const std::string& contents);

}  // namespace rtrec

#endif  // RTREC_KVSTORE_CHECKPOINT_H_
