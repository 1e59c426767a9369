// Binary delta encoding, standing in for the paper's JBDiff. An rsync-style
// rolling-hash matcher finds blocks of the old file inside the new file and
// emits a COPY/INSERT opcode stream; `patch` re-applies it. RockFS stores one
// delta per close() as the log-entry data ld_fu (paper §3.2), falling back to
// the whole file when the delta would be larger (make_log_delta).
//
// Stored deltas are pinned byte for byte (Diff.EncodeOutputIsPinned), so the
// output of encode is a contract, with bs the block size:
//   - the scan is greedy and runs left to right over the new file;
//   - the bs-byte window at `pos` matches when its bytes equal an old block
//     that starts at a multiple of bs (only whole blocks count);
//   - among byte-equal old blocks, the highest offset wins;
//   - a match extends the open COPY when it starts where that COPY ends, and
//     otherwise starts a new COPY; either way the scan moves on by bs;
//   - an unmatched window adds one literal byte and slides by one;
//   - a tail shorter than bs is literal, and each literal run is one INSERT.
// The rolling hash only filters candidates: a byte comparison decides every
// match, so the hash cannot change an output byte.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/result.h"

namespace rockfs::diff {

/// Computes a delta such that patch(old_data, delta) == new_data.
/// `block_size` tunes the matcher granularity (0 picks a default).
Bytes encode(BytesView old_data, BytesView new_data, std::size_t block_size = 0);

/// Applies a delta produced by encode. Fails with kCorrupted on malformed
/// input or out-of-range copy references.
Result<Bytes> patch(BytesView old_data, BytesView delta);

/// The paper's log-entry payload policy: the delta, or the whole file when
/// the delta is not smaller (a flag records which one was chosen).
struct LogDelta {
  bool whole_file = false;  // true when `payload` is the full new version
  Bytes payload;

  Bytes serialize() const;
  static Result<LogDelta> deserialize(BytesView b);
};

LogDelta make_log_delta(BytesView old_data, BytesView new_data);

/// Applies a LogDelta to reconstruct the new version from the old.
Result<Bytes> apply_log_delta(BytesView old_data, const LogDelta& delta);

}  // namespace rockfs::diff
