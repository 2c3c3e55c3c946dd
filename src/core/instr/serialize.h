#pragma once

#include <string>
#include <string_view>

#include "core/instr/instructions.h"

namespace dpipe {

/// The line-based text format of an instruction program — the hand-off
/// artifact between DiffusionPipe's front-end (planner) and back-end
/// (execution engine), mirroring the paper's step 6. The format is
/// versioned and self-describing; doubles are written as "%.17g"
/// (CanonicalWriter), so the text round-trips losslessly:
///
///   dpipe-program v1
///   group_size <D>
///   num_backbones <n>
///   device <d> preamble|steady <count>
///   <kind> b=<backbone> s=<stage> m=<micro> c=<component> l=<lo>:<hi>
///          n=<samples> p=<peer> sz=<size_mb>
///   ...
[[nodiscard]] std::string program_to_string(const InstructionProgram& program);

/// Parses a program previously written by program_to_string. Throws
/// std::invalid_argument on malformed input (wrong magic, unknown
/// instruction kind, truncated or malformed numeric fields, stray bytes,
/// inconsistent device count).
[[nodiscard]] InstructionProgram program_from_string(std::string_view text);

}  // namespace dpipe
