#pragma once

#include <string>
#include <vector>

#include "core/instr/instructions.h"

namespace dpipe {

/// One well-formedness violation, anchored to the device whose stream (or
/// pairing) is broken. device < 0 marks program-global issues.
struct ValidationIssue {
  int device = -1;
  std::string message;
};

struct ValidationReport {
  std::vector<ValidationIssue> issues;

  [[nodiscard]] bool ok() const { return issues.empty(); }
  /// All issues, one per line ("device <d>: <message>").
  [[nodiscard]] std::string to_string() const;
};

/// Static well-formedness checker for InstructionPrograms — the contract a
/// back-end (simulated or real) may assume before replaying a stream.
/// Model-free: everything is checked against the program itself.
///
/// Invariants (see DESIGN.md §9):
///  - shape/field sanity: stream count matches group_size, indices in
///    range, compute ops carry non-empty layer ranges and positive samples;
///  - stage monotonicity: stages 0..S-1 all hosted (a device may host
///    several virtual stages of one backbone — the interleaved placement),
///    replica layer ranges agree and tile the component contiguously in
///    stage order;
///  - micro-batch fencing: per (device, backbone, stage) every micro
///    0..M-1 runs
///    forward exactly once and backward exactly once, each backward after
///    its forward, each forward fed by exactly one preceding load (stage 0)
///    or recv-activation, boundary sends/recvs present exactly where a
///    neighbouring stage exists and on the correct side of their compute;
///  - send/recv pairing: the multiset of sends equals the multiset of
///    receives under the boundary key (src, dst, backbone, receiver stage,
///    micro, direction) with matching payload sizes — dangling receives,
///    dangling sends and mismatched peers are all rejected;
///  - allreduce/optimizer ordering: per hosted (device, backbone, stage)
///    exactly one allreduce after the last backward and exactly one
///    optimizer step after the allreduce, covering the stage's layer
///    range; all replicas of the stage participate with equal payloads;
///  - the preamble contains only kFrozenForward ops.
class ProgramValidator {
 public:
  [[nodiscard]] ValidationReport validate(
      const InstructionProgram& program) const;

  /// validate() plus the stricter contract the functional runtime's
  /// interpreter needs to bind a program onto one rt::Sequential: a single
  /// backbone; every stage owned by exactly one device (replicated stages
  /// are not bindable); every device owning at least one stage (a device
  /// may own several, in any placement); and FIFO micro order per owned
  /// stage (backward micro order equals forward micro order — required by
  /// the runtime's FIFO autograd stashes; 1F1B satisfies this, GPipe's LIFO
  /// order does not). Transfers need no order of their own: the
  /// interpreter pairs each receive with its send by (direction, stage
  /// boundary, micro).
  [[nodiscard]] ValidationReport validate_runtime_bindable(
      const InstructionProgram& program) const;
};

/// Throws std::invalid_argument carrying the full report when `program`
/// fails ProgramValidator::validate. Back-ends call this before replay.
void require_valid_program(const InstructionProgram& program);

/// Compact human-readable identity of one instruction, e.g. "fwd b0 s2 m3",
/// "frozen c1 l0:1", "opt b0 s1". Stable across back-ends.
[[nodiscard]] std::string op_signature(const Instruction& instr);

/// Per-device record of executed *device-occupying* ops (load, forward,
/// backward, frozen, optimizer — communication excluded), as op_signature()
/// strings in execution order: the cross-backend parity artifact.
using ExecutionLog = std::vector<std::vector<std::string>>;

/// Expected ExecutionLog of `iterations` replays of the program, preamble
/// first. Both back-ends must execute in exactly this order: the runtime's
/// PipelineTrainer::execution_log() and the engine's
/// EngineResult::execution_log are compared against it.
[[nodiscard]] ExecutionLog occupancy_trace(const InstructionProgram& program,
                                           int iterations);

}  // namespace dpipe
