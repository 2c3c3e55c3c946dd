#include "core/instr/serialize.h"

#include <array>
#include <cstdint>
#include <istream>
#include <sstream>

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

InstrKind kind_from_string(const std::string& text) {
  for (const InstrKind kind : kAllKinds) {
    if (text == to_string(kind)) {
      return kind;
    }
  }
  throw std::invalid_argument("unknown instruction kind: " + text);
}

void write_instruction(CanonicalWriter& out, const Instruction& i) {
  out << to_string(i.kind) << " b=" << i.backbone << " s=" << i.stage
      << " m=" << i.micro << " c=" << i.component << " l=" << i.layer_begin
      << ':' << i.layer_end << " n=" << i.samples << " p=" << i.peer
      << " sz=" << i.size_mb << '\n';
}

/// Throws std::invalid_argument unless `tokens`, read from `line`, holds
/// nothing after the fields already parsed.
void require_line_consumed(std::istream& tokens, const std::string& line) {
  std::string extra;
  require(!(tokens >> extra), "trailing bytes on line: " + line);
}

Instruction parse_instruction(const std::string& line) {
  std::istringstream tokens(line);
  Instruction i;
  i.kind = kind_from_string(read_token(tokens, "instruction kind"));
  i.backbone = read_integer_field<int>(tokens, "b=");
  i.stage = read_integer_field<int>(tokens, "s=");
  i.micro = read_integer_field<int>(tokens, "m=");
  i.component = read_integer_field<int>(tokens, "c=");
  const std::string range_token = read_token(tokens, "l=");
  const std::string_view range = field_value(range_token, "l=");
  const std::size_t colon = range.find(':');
  require(colon != std::string_view::npos, "malformed layer range");
  i.layer_begin = parse_integer<int>(range.substr(0, colon), "l=");
  i.layer_end = parse_integer<int>(range.substr(colon + 1), "l=");
  i.samples = read_double_field(tokens, "n=");
  i.peer = read_integer_field<int>(tokens, "p=");
  i.size_mb = read_double_field(tokens, "sz=");
  require_line_consumed(tokens, line);
  return i;
}

}  // namespace

InstructionProgram load_program(std::istream& in) {
  std::string line;
  require(std::getline(in, line) && line == "dpipe-program v1",
          "not a dpipe-program v1 file");
  // Every header line is parsed whole: `<key> <integer>` and nothing else.
  const auto header_value = [&in, &line](const std::string& key) {
    require(static_cast<bool>(std::getline(in, line)), "expected " + key);
    std::istringstream header(line);
    expect_keyword(header, key);
    const int value = read_integer<int>(header, key);
    require_line_consumed(header, line);
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
    require(static_cast<bool>(std::getline(in, line)),
            "truncated program: missing device section");
    std::istringstream header(line);
    expect_keyword(header, "device");
    const int dev = read_integer<int>(header, "device");
    const std::string phase = read_token(header, "device phase");
    const auto count = read_integer<std::size_t>(header, "instruction count");
    require_line_consumed(header, line);
    require(dev >= 0 && dev < program.group_size &&
                (phase == "preamble" || phase == "steady"),
            "malformed device section header: " + line);
    Section& target =
        sections.emplace_back(Section{dev, phase == "steady", {}});
    for (std::size_t n = 0; n < count; ++n) {
      require(static_cast<bool>(std::getline(in, line)),
              "truncated program: missing instruction");
      target.instructions.push_back(parse_instruction(line));
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

InstructionProgram program_from_string(const std::string& text) {
  std::istringstream in(text);
  return load_program(in);
}

}  // namespace dpipe
