#include "core/instr/validate.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "common/canonical.h"
#include "common/error.h"

namespace dpipe {

namespace {

/// Everything observed about one (device, backbone, stage) while scanning
/// a stream. Keying by stage (not just device) lets one device host
/// several virtual stages of the same backbone — the interleaved placement
/// — with each owned stage fenced independently.
struct HostRecord {
  int stage = -1;          ///< Hosted stage (from fwd/bwd ops); -1 = none.
  int component = -1;
  int layer_begin = 0;
  int layer_end = 0;
  double samples = -1.0;
  std::map<int, std::vector<int>> fwd_pos;   ///< micro -> stream positions.
  std::map<int, std::vector<int>> bwd_pos;
  std::map<int, std::vector<int>> load_pos;
  std::map<int, std::vector<int>> recv_act_pos;
  std::map<int, std::vector<int>> send_act_pos;
  std::map<int, std::vector<int>> recv_grad_pos;
  std::map<int, std::vector<int>> send_grad_pos;
  std::vector<int> fwd_micro_order;  ///< Micro of each fwd, stream order.
  std::vector<int> bwd_micro_order;
  std::vector<int> allreduce_pos;
  std::vector<double> allreduce_size;
  std::vector<int> optimizer_pos;
  std::vector<Instruction> optimizer_instr;
};

/// Boundary identity of a message: (src, dst, backbone, receiver stage,
/// micro, is-gradient). Sends are emitted with the sender's stage id, so
/// the receiver stage is stage+1 for activations and stage-1 for grads.
using MsgKey = std::tuple<int, int, int, int, int, bool>;

struct MsgSide {
  int count = 0;
  double size_mb = 0.0;
  bool size_conflict = false;
};

std::string msg_name(const MsgKey& key) {
  CanonicalWriter out;
  out << (std::get<5>(key) ? "gradient" : "activation") << " b"
      << std::get<2>(key) << " s" << std::get<3>(key) << " m"
      << std::get<4>(key) << " (" << std::get<0>(key) << "->"
      << std::get<1>(key) << ")";
  return out.take();
}

void note(ValidationReport& report, int device, std::string message) {
  report.issues.push_back({device, std::move(message)});
}

}  // namespace

std::string ValidationReport::to_string() const {
  CanonicalWriter out;
  for (const ValidationIssue& issue : issues) {
    if (issue.device >= 0) {
      out << "device " << issue.device << ": ";
    }
    out << issue.message << "\n";
  }
  return out.take();
}

ValidationReport ProgramValidator::validate(
    const InstructionProgram& program) const {
  ValidationReport report;
  const int D = program.group_size;
  if (D < 1 || program.num_backbones < 1) {
    note(report, -1, "group_size and num_backbones must be positive");
    return report;
  }
  if (static_cast<int>(program.per_device.size()) != D ||
      static_cast<int>(program.preamble.size()) != D) {
    note(report, -1, "per_device/preamble stream count != group_size");
    return report;
  }

  // ---- Pass 1: per-device scan (field sanity + host records). ----
  /// (dev, backbone, stage) — every instruction kind that feeds a host
  /// record carries its stage (loads are stage 0, sends the sender's
  /// stage), so records of co-hosted virtual stages never mix.
  std::map<std::tuple<int, int, int>, HostRecord> hosts;
  std::map<MsgKey, MsgSide> sends;
  std::map<MsgKey, MsgSide> recvs;

  const auto record_msg = [&](std::map<MsgKey, MsgSide>& side,
                              const MsgKey& key, double size_mb) {
    MsgSide& m = side[key];
    if (m.count > 0 && m.size_mb != size_mb) {
      m.size_conflict = true;
    }
    ++m.count;
    m.size_mb = size_mb;
  };

  for (int dev = 0; dev < D; ++dev) {
    const std::vector<Instruction>& stream = program.per_device[dev];
    for (int pos = 0; pos < static_cast<int>(stream.size()); ++pos) {
      const Instruction& i = stream[pos];
      if (i.backbone < 0 || i.backbone >= program.num_backbones) {
        note(report, dev, std::string("backbone index out of range in ") +
                              to_string(i.kind));
        continue;
      }
      const auto host_of = [&](int stage) -> HostRecord& {
        return hosts[{dev, i.backbone, stage}];
      };
      switch (i.kind) {
        case InstrKind::kLoadMicroBatch:
          if (i.stage != 0) {
            note(report, dev, "load must target stage 0");
          }
          if (i.micro < 0) {
            note(report, dev, "load without a micro-batch index");
          }
          if (i.samples <= 0.0) {
            note(report, dev, "load with non-positive samples");
          }
          host_of(i.stage).load_pos[i.micro].push_back(pos);
          break;
        case InstrKind::kForward:
        case InstrKind::kBackward: {
          const bool fwd = i.kind == InstrKind::kForward;
          if (i.micro < 0) {
            note(report, dev, std::string(to_string(i.kind)) +
                                  " without a micro-batch index");
          }
          if (i.component < 0 || i.layer_begin < 0 ||
              i.layer_begin >= i.layer_end) {
            note(report, dev, std::string(to_string(i.kind)) +
                                  " with invalid component/layer range");
          }
          if (i.samples <= 0.0) {
            note(report, dev, std::string(to_string(i.kind)) +
                                  " with non-positive samples");
          }
          HostRecord& host = host_of(i.stage);
          if (host.stage < 0) {
            host.stage = i.stage;
            host.component = i.component;
            host.layer_begin = i.layer_begin;
            host.layer_end = i.layer_end;
            host.samples = i.samples;
          } else {
            if (host.component != i.component ||
                host.layer_begin != i.layer_begin ||
                host.layer_end != i.layer_end) {
              note(report, dev,
                   std::string(to_string(i.kind)) +
                       " layer range disagrees with the hosted stage");
            }
            if (host.samples != i.samples) {
              note(report, dev, std::string(to_string(i.kind)) +
                                    " samples disagree across micros");
            }
          }
          if (i.stage < 0) {
            note(report, dev, std::string(to_string(i.kind)) +
                                  " with negative stage");
          }
          if (fwd) {
            host.fwd_pos[i.micro].push_back(pos);
            host.fwd_micro_order.push_back(i.micro);
          } else {
            host.bwd_pos[i.micro].push_back(pos);
            host.bwd_micro_order.push_back(i.micro);
          }
          break;
        }
        case InstrKind::kSendActivation:
        case InstrKind::kSendGradient:
        case InstrKind::kRecvActivation:
        case InstrKind::kRecvGradient: {
          const bool send = i.kind == InstrKind::kSendActivation ||
                            i.kind == InstrKind::kSendGradient;
          const bool grad = i.kind == InstrKind::kSendGradient ||
                            i.kind == InstrKind::kRecvGradient;
          if (i.peer < 0 || i.peer >= D) {
            note(report, dev, std::string(to_string(i.kind)) +
                                  " peer out of range");
            break;
          }
          if (i.peer == dev) {
            note(report, dev, std::string(to_string(i.kind)) +
                                  " targets its own device");
            break;
          }
          if (i.micro < 0) {
            note(report, dev, std::string(to_string(i.kind)) +
                                  " without a micro-batch index");
            break;
          }
          if (i.size_mb < 0.0) {
            note(report, dev, std::string(to_string(i.kind)) +
                                  " with negative payload");
          }
          HostRecord& host = host_of(i.stage);
          if (send) {
            const int receiver_stage = i.stage + (grad ? -1 : 1);
            record_msg(sends, {dev, i.peer, i.backbone, receiver_stage,
                               i.micro, grad},
                       i.size_mb);
            if (grad) {
              host.send_grad_pos[i.micro].push_back(pos);
            } else {
              host.send_act_pos[i.micro].push_back(pos);
            }
          } else {
            record_msg(recvs, {i.peer, dev, i.backbone, i.stage, i.micro,
                               grad},
                       i.size_mb);
            if (grad) {
              host.recv_grad_pos[i.micro].push_back(pos);
            } else {
              host.recv_act_pos[i.micro].push_back(pos);
            }
          }
          break;
        }
        case InstrKind::kFrozenForward:
          if (i.component < 0 || i.layer_begin < 0 ||
              i.layer_begin >= i.layer_end) {
            note(report, dev, "frozen op with invalid component/layer range");
          }
          if (i.samples <= 0.0) {
            note(report, dev, "frozen op with non-positive samples");
          }
          break;
        case InstrKind::kAllReduceGrads:
          host_of(i.stage).allreduce_pos.push_back(pos);
          host_of(i.stage).allreduce_size.push_back(i.size_mb);
          break;
        case InstrKind::kOptimizerStep:
          if (i.layer_begin < 0 || i.layer_begin >= i.layer_end) {
            note(report, dev, "optimizer step with invalid layer range");
          }
          host_of(i.stage).optimizer_pos.push_back(pos);
          host_of(i.stage).optimizer_instr.push_back(i);
          break;
      }
    }
    for (const Instruction& i : program.preamble[dev]) {
      if (i.kind != InstrKind::kFrozenForward) {
        note(report, dev, std::string("preamble contains ") +
                              to_string(i.kind) +
                              " (only frozen forwards allowed)");
      } else if (i.component < 0 || i.layer_begin >= i.layer_end ||
                 i.samples <= 0.0) {
        note(report, dev, "preamble frozen op with invalid fields");
      }
    }
  }

  // ---- Pass 2: backbone topology (stage monotonicity). ----
  // num stages / num micros per backbone, inferred from the program.
  std::vector<int> num_stages(program.num_backbones, 0);
  std::vector<int> num_micros(program.num_backbones, 0);
  // (backbone, stage) -> hosting devices.
  std::map<std::pair<int, int>, std::vector<int>> stage_devices;
  for (const auto& [key, host] : hosts) {
    const auto [dev, backbone, stage] = key;
    if (host.stage < 0) {
      // Channel/allreduce/optimizer/load ops for a stage this device never
      // runs forward/backward on.
      note(report, dev,
           "backbone " + std::to_string(backbone) + " stage " +
               std::to_string(stage) +
               " ops on a device that does not host that stage");
      continue;
    }
    num_stages[backbone] = std::max(num_stages[backbone], host.stage + 1);
    for (const auto& [micro, positions] : host.fwd_pos) {
      num_micros[backbone] = std::max(num_micros[backbone], micro + 1);
    }
    stage_devices[{backbone, host.stage}].push_back(dev);
  }
  for (int b = 0; b < program.num_backbones; ++b) {
    int expected_begin = 0;
    for (int s = 0; s < num_stages[b]; ++s) {
      const auto it = stage_devices.find({b, s});
      if (it == stage_devices.end()) {
        note(report, -1, "stage " + std::to_string(s) + " of backbone " +
                             std::to_string(b) + " is hosted by no device");
        expected_begin = -1;
        continue;
      }
      const HostRecord& first = hosts.at({it->second.front(), b, s});
      for (const int dev : it->second) {
        const HostRecord& host = hosts.at({dev, b, s});
        if (host.component != first.component ||
            host.layer_begin != first.layer_begin ||
            host.layer_end != first.layer_end) {
          note(report, dev,
               "replicas of backbone " + std::to_string(b) + " stage " +
                   std::to_string(s) + " disagree on the layer range");
        }
      }
      if (expected_begin >= 0 && first.layer_begin != expected_begin) {
        note(report, -1,
             "backbone " + std::to_string(b) + " stage " +
                 std::to_string(s) +
                 " layer range is not contiguous with its predecessor");
      }
      expected_begin = first.layer_end;
    }
  }

  // ---- Pass 3: per-host micro fencing + allreduce/optimizer ordering. ----
  for (const auto& [key, host] : hosts) {
    const int dev = std::get<0>(key);
    const int backbone = std::get<1>(key);
    if (host.stage < 0) {
      continue;
    }
    const int S = num_stages[backbone];
    const int M = num_micros[backbone];
    const bool first_stage = host.stage == 0;
    const bool last_stage = host.stage == S - 1;
    int last_bwd_pos = -1;
    const std::string tag =
        "backbone " + std::to_string(backbone) + " stage " +
        std::to_string(host.stage);
    for (int m = 0; m < M; ++m) {
      const auto fwd_it = host.fwd_pos.find(m);
      const auto bwd_it = host.bwd_pos.find(m);
      if (fwd_it == host.fwd_pos.end() || fwd_it->second.size() != 1) {
        note(report, dev, tag + " micro " + std::to_string(m) +
                              " must run forward exactly once");
        continue;
      }
      if (bwd_it == host.bwd_pos.end() || bwd_it->second.size() != 1) {
        note(report, dev, tag + " micro " + std::to_string(m) +
                              " must run backward exactly once");
        continue;
      }
      const int fwd = fwd_it->second.front();
      const int bwd = bwd_it->second.front();
      if (bwd < fwd) {
        note(report, dev, tag + " micro " + std::to_string(m) +
                              " runs backward before forward");
      }
      last_bwd_pos = std::max(last_bwd_pos, bwd);
      // What must feed the forward / follow the compute.
      const auto check_one = [&](const std::map<int, std::vector<int>>& side,
                                 bool expected, bool before, int anchor,
                                 const char* what) {
        const auto it = side.find(m);
        const int count =
            it == side.end() ? 0 : static_cast<int>(it->second.size());
        if (!expected) {
          if (count != 0) {
            note(report, dev, tag + " micro " + std::to_string(m) +
                                  ": unexpected " + what);
          }
          return;
        }
        if (count != 1) {
          note(report, dev, tag + " micro " + std::to_string(m) +
                                " needs exactly one " + what);
          return;
        }
        const int pos = it->second.front();
        if (before ? pos > anchor : pos < anchor) {
          note(report, dev, tag + " micro " + std::to_string(m) + ": " +
                                what + " on the wrong side of its compute");
        }
      };
      check_one(host.load_pos, first_stage, true, fwd, "micro-batch load");
      check_one(host.recv_act_pos, !first_stage, true, fwd,
                "activation receive");
      check_one(host.send_act_pos, !last_stage, false, fwd,
                "activation send");
      check_one(host.recv_grad_pos, !last_stage, true, bwd,
                "gradient receive");
      check_one(host.send_grad_pos, !first_stage, false, bwd,
                "gradient send");
    }
    for (const auto& [micro, positions] : host.fwd_pos) {
      if (micro >= M) {
        note(report, dev, tag + " forward micro index beyond range");
      }
    }
    // The allreduce is issued by the backward of the highest micro index
    // (asynchronously — GPipe's LIFO order runs that backward first); the
    // optimizer step is the fence that must follow *every* backward and
    // the allreduce itself.
    const auto trigger_it = host.bwd_pos.find(M - 1);
    const int trigger_pos =
        trigger_it != host.bwd_pos.end() && trigger_it->second.size() == 1
            ? trigger_it->second.front()
            : -1;
    if (host.allreduce_pos.size() != 1) {
      note(report, dev, tag + " needs exactly one gradient allreduce");
    } else {
      if (host.allreduce_pos.front() < trigger_pos) {
        note(report, dev, tag + " issues its allreduce before the backward "
                              "that triggers it");
      }
    }
    if (host.optimizer_pos.size() != 1) {
      note(report, dev, tag + " needs exactly one optimizer step");
    } else {
      const Instruction& opt = host.optimizer_instr.front();
      if (host.optimizer_pos.front() < last_bwd_pos) {
        note(report, dev, tag + " steps the optimizer before the last "
                              "backward");
      }
      if (!host.allreduce_pos.empty() &&
          host.optimizer_pos.front() < host.allreduce_pos.front()) {
        note(report, dev, tag + " steps the optimizer before its allreduce");
      }
      if (opt.stage != host.stage) {
        note(report, dev, tag + " optimizer step targets another stage");
      }
      if (opt.component != host.component ||
          opt.layer_begin != host.layer_begin ||
          opt.layer_end != host.layer_end) {
        note(report, dev,
             tag + " optimizer step does not cover the stage's layers");
      }
    }
  }

  // ---- Pass 4: allreduce group composition. ----
  for (const auto& [key, devices] : stage_devices) {
    const auto [backbone, stage] = key;
    double size = -1.0;
    for (const int dev : devices) {
      const HostRecord& host = hosts.at({dev, backbone, stage});
      if (host.allreduce_size.empty()) {
        continue;  // Reported in pass 3.
      }
      if (size < 0.0) {
        size = host.allreduce_size.front();
      } else if (size != host.allreduce_size.front()) {
        note(report, dev,
             "backbone " + std::to_string(backbone) + " stage " +
                 std::to_string(stage) +
                 " replicas disagree on the allreduce payload");
      }
    }
  }

  // ---- Pass 5: send/recv multiset pairing. ----
  for (const auto& [key, recv] : recvs) {
    const auto it = sends.find(key);
    if (it == sends.end()) {
      note(report, std::get<1>(key),
           "dangling receive: no matching send for " + msg_name(key));
      continue;
    }
    if (it->second.count != recv.count) {
      note(report, std::get<1>(key),
           "send/recv count mismatch for " + msg_name(key));
    }
    if (it->second.size_mb != recv.size_mb || recv.size_conflict ||
        it->second.size_conflict) {
      note(report, std::get<1>(key),
           "send/recv payload size mismatch for " + msg_name(key));
    }
  }
  for (const auto& [key, send] : sends) {
    if (recvs.find(key) == recvs.end()) {
      note(report, std::get<0>(key),
           "dangling send: no matching receive for " + msg_name(key));
    }
  }
  return report;
}

ValidationReport ProgramValidator::validate_runtime_bindable(
    const InstructionProgram& program) const {
  ValidationReport report = validate(program);
  if (!report.ok()) {
    return report;
  }
  if (program.num_backbones != 1) {
    note(report, -1, "runtime binding requires a single backbone");
    return report;
  }
  // Every stage is owned by exactly one device, and every device owns at
  // least one stage (several, in any placement, is fine). Per owned stage
  // the backward micro order must equal the forward micro order: the
  // runtime's autograd stashes are FIFO.
  const int D = program.group_size;
  std::set<int> owned;  ///< Stages owned by the devices seen so far.
  for (int dev = 0; dev < D; ++dev) {
    std::map<int, std::vector<int>> fwd_order;  ///< stage -> micros.
    std::map<int, std::vector<int>> bwd_order;
    for (const Instruction& i : program.per_device[dev]) {
      if (i.kind == InstrKind::kForward) {
        fwd_order[i.stage].push_back(i.micro);
      } else if (i.kind == InstrKind::kBackward) {
        bwd_order[i.stage].push_back(i.micro);
      }
    }
    if (fwd_order.empty()) {
      note(report, dev, "device hosts no stage; runtime binding needs "
                        "every device to own at least one stage");
      continue;
    }
    for (const auto& [stage, micros] : fwd_order) {
      if (!owned.insert(stage).second) {
        note(report, dev, "stage " + std::to_string(stage) +
                              " is owned by more than one device "
                              "(replicated stages are not bindable); "
                              "runtime binding requires each stage owned "
                              "exactly once");
        continue;
      }
      if (micros != bwd_order[stage]) {
        note(report, dev,
             "stage " + std::to_string(stage) +
                 ": backward micro order differs from forward micro order; "
                 "the runtime's FIFO autograd stashes require FIFO "
                 "schedules (1F1B)");
      }
    }
  }
  return report;
}

void require_valid_program(const InstructionProgram& program) {
  const ValidationReport report = ProgramValidator().validate(program);
  if (!report.ok()) {
    throw std::invalid_argument("invalid instruction program:\n" +
                                report.to_string());
  }
}

std::string op_signature(const Instruction& instr) {
  CanonicalWriter out;
  switch (instr.kind) {
    case InstrKind::kLoadMicroBatch:
      out << "load b" << instr.backbone << " m" << instr.micro;
      break;
    case InstrKind::kForward:
      out << "fwd b" << instr.backbone << " s" << instr.stage << " m"
          << instr.micro;
      break;
    case InstrKind::kBackward:
      out << "bwd b" << instr.backbone << " s" << instr.stage << " m"
          << instr.micro;
      break;
    case InstrKind::kFrozenForward:
      out << "frozen c" << instr.component << " l" << instr.layer_begin
          << ":" << instr.layer_end;
      break;
    case InstrKind::kOptimizerStep:
      out << "opt b" << instr.backbone << " s" << instr.stage;
      break;
    default:
      out << to_string(instr.kind);
      break;
  }
  return out.take();
}

ExecutionLog occupancy_trace(const InstructionProgram& program,
                             int iterations) {
  DPIPE_REQUIRE(iterations >= 1, "need at least one iteration");
  const auto occupies = [](InstrKind kind) {
    return kind == InstrKind::kLoadMicroBatch ||
           kind == InstrKind::kForward || kind == InstrKind::kBackward ||
           kind == InstrKind::kFrozenForward ||
           kind == InstrKind::kOptimizerStep;
  };
  ExecutionLog trace(program.per_device.size());
  for (std::size_t dev = 0; dev < program.per_device.size(); ++dev) {
    for (const Instruction& i : program.preamble[dev]) {
      trace[dev].push_back(op_signature(i));
    }
    for (int k = 0; k < iterations; ++k) {
      for (const Instruction& i : program.per_device[dev]) {
        if (occupies(i.kind)) {
          trace[dev].push_back(op_signature(i));
        }
      }
    }
  }
  return trace;
}

}  // namespace dpipe
