#pragma once

/// \file file_io.hpp
/// Whole-file writes that report a full disk. An ofstream buffers its
/// bytes, so a write that cannot reach the disk (ENOSPC, /dev/full) often
/// fails only when the buffer is flushed at close(); checking the stream
/// before closing it passes silently. write_file closes first and then
/// checks; the checkpoint, plan, manifest and shard writers, the dlcomp
/// CLI's output files (compress, decompress, --history-out) and the
/// benches' --metrics dumps go through it. bench_report --history appends
/// instead, and closes its stream before checking it for the same
/// reason.

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

namespace dlcomp {

/// Replaces `path` with `data`; throws Error when the file cannot be
/// opened or any byte fails to reach it.
void write_file(const std::string& path, std::span<const std::byte> data);
void write_file(const std::string& path, std::string_view text);

}  // namespace dlcomp
