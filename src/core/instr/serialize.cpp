#include "core/instr/serialize.h"

#include <array>
#include <cstdint>
#include <string_view>

#include "common/canonical.h"
#include "common/error.h"

namespace dpipe {

namespace {

constexpr std::array<InstrKind, 10> kAllKinds = {
    InstrKind::kLoadMicroBatch, InstrKind::kForward,
    InstrKind::kBackward,       InstrKind::kSendActivation,
    InstrKind::kRecvActivation, InstrKind::kSendGradient,
    InstrKind::kRecvGradient,   InstrKind::kFrozenForward,
    InstrKind::kAllReduceGrads, InstrKind::kOptimizerStep};

InstrKind kind_from_string(std::string_view text) {
  for (const InstrKind kind : kAllKinds) {
    if (text == to_string(kind)) {
      return kind;
    }
  }
  throw std::invalid_argument("unknown instruction kind: " +
                              std::string(text));
}

void write_instruction(CanonicalWriter& out, const Instruction& i) {
  out << to_string(i.kind) << " b=" << i.backbone << " s=" << i.stage
      << " m=" << i.micro << " c=" << i.component << " l=" << i.layer_begin
      << ':' << i.layer_end << " n=" << i.samples << " p=" << i.peer
      << " sz=" << i.size_mb << '\n';
}

Instruction parse_instruction(std::string_view line) {
  CanonicalReader fields(line);
  Instruction i;
  i.kind = kind_from_string(fields.token("instruction kind"));
  i.backbone = fields.integer_field<int>("b=");
  i.stage = fields.integer_field<int>("s=");
  i.micro = fields.integer_field<int>("m=");
  i.component = fields.integer_field<int>("c=");
  const std::string_view range = fields.field("l=");
  const std::size_t colon = range.find(':');
  require(colon != std::string_view::npos, "malformed layer range");
  i.layer_begin = parse_integer<int>(range.substr(0, colon), "l=");
  i.layer_end = parse_integer<int>(range.substr(colon + 1), "l=");
  i.samples = fields.real_field("n=");
  i.peer = fields.integer_field<int>("p=");
  i.size_mb = fields.real_field("sz=");
  fields.expect_end("instruction line");
  return i;
}

}  // namespace

InstructionProgram program_from_string(std::string_view text) {
  CanonicalReader in(text);
  require(in.line("program header") == "dpipe-program v1",
          "not a dpipe-program v1 file");
  // Every header line is parsed whole: `<key> <integer>` and nothing else.
  const auto header_value = [&in](std::string_view key) {
    CanonicalReader header(in.line(key));
    header.keyword(key);
    const int value = header.integer<int>(key);
    header.expect_end(key);
    return value;
  };
  InstructionProgram program;
  program.group_size = header_value("group_size");
  require(program.group_size >= 1, "invalid group_size");
  program.num_backbones = header_value("num_backbones");
  require(program.num_backbones >= 1, "invalid num_backbones");
  // group_size comes from the input, so nothing is sized by it until the
  // input has backed it: sections are collected as they are read, and the
  // per-device tables are built only once all 2 * group_size arrived.
  struct Section {
    int dev;
    bool steady;
    std::vector<Instruction> instructions;
  };
  std::vector<Section> sections;
  const std::int64_t num_sections = 2 * std::int64_t{program.group_size};
  for (std::int64_t section = 0; section < num_sections; ++section) {
    const std::string_view line = in.line("device section");
    CanonicalReader header(line);
    header.keyword("device");
    const int dev = header.integer<int>("device");
    const std::string_view phase = header.token("device phase");
    const auto count = header.integer<std::size_t>("instruction count");
    header.expect_end("device section header");
    require(dev >= 0 && dev < program.group_size &&
                (phase == "preamble" || phase == "steady"),
            "malformed device section header: " + std::string(line));
    Section& target =
        sections.emplace_back(Section{dev, phase == "steady", {}});
    for (std::size_t n = 0; n < count; ++n) {
      target.instructions.push_back(parse_instruction(in.line("instruction")));
    }
  }
  program.preamble.resize(program.group_size);
  program.per_device.resize(program.group_size);
  for (Section& section : sections) {
    std::vector<Instruction>& target = section.steady
                                           ? program.per_device[section.dev]
                                           : program.preamble[section.dev];
    require(target.empty(), "duplicate device section: device " +
                                std::to_string(section.dev));
    target = std::move(section.instructions);
  }
  return program;
}

std::string program_to_string(const InstructionProgram& program) {
  CanonicalWriter out;
  out << "dpipe-program v1\n";
  out << "group_size " << program.group_size << '\n';
  out << "num_backbones " << program.num_backbones << '\n';
  for (int dev = 0; dev < program.group_size; ++dev) {
    out << "device " << dev << " preamble "
        << program.preamble[dev].size() << '\n';
    for (const Instruction& i : program.preamble[dev]) {
      write_instruction(out, i);
    }
    out << "device " << dev << " steady " << program.per_device[dev].size()
        << '\n';
    for (const Instruction& i : program.per_device[dev]) {
      write_instruction(out, i);
    }
  }
  return out.take();
}

}  // namespace dpipe
