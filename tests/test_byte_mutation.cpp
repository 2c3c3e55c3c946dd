// Seeded mutation harness over golden inputs of the readers of outside
// bytes: plan requests, .dpipe programs, checkpoints, plan entries and wire
// responses, and the frame reader. Each mutant (truncated, a byte flipped,
// a span spliced in, a line duplicated or dropped) must either throw the
// reader's documented exception type or parse to a value whose
// re-serialization parses back to identical bytes. Any other exception
// (bad_alloc, length_error, out_of_range, logic_error, ...) fails the test.
// tools/tier1.sh runs this suite under ASan + UBSan with allocations capped
// at 256 MB, so a reader that sizes an allocation by a hostile count aborts.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "core/instr/serialize.h"
#include "core/planner/planner.h"
#include "model/zoo.h"
#include "runtime/pipeline_exec.h"
#include "service/plan_store.h"
#include "service/protocol.h"
#include "service/request.h"

namespace dpipe {
namespace {

constexpr int kMutantsPerReader = 300;

/// splitmix64: a fixed, portable sequence for a given seed.
class MutationRng {
 public:
  explicit MutationRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n) for n >= 1.
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// [begin, end) byte offsets of each line of `text`, '\n' included.
std::vector<std::pair<std::size_t, std::size_t>> lines_of(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t eol = text.find('\n', begin);
    const std::size_t end = eol == std::string::npos ? text.size() : eol + 1;
    lines.emplace_back(begin, end);
    begin = end;
  }
  return lines;
}

/// One mutant of the non-empty `golden`; the mutation kind cycles with
/// `index` so every kind gets the same share.
std::string mutate(const std::string& golden, int index, MutationRng& rng) {
  std::string text = golden;
  switch (index % 5) {
    case 0:  // Truncate.
      text.resize(rng.below(text.size()));
      break;
    case 1: {  // Flip one byte (xor with a non-zero mask).
      const std::size_t at = rng.below(text.size());
      text[at] = static_cast<char>(text[at] ^ (1 + rng.below(255)));
      break;
    }
    case 2: {  // Splice a span of the input in at another offset.
      const std::size_t from = rng.below(text.size());
      const std::size_t length = 1 + rng.below(std::min<std::size_t>(
                                         64, text.size() - from));
      text.insert(rng.below(text.size() + 1), golden.substr(from, length));
      break;
    }
    case 3:
    case 4: {  // Duplicate or drop one line.
      const auto lines = lines_of(golden);
      const auto [begin, end] = lines[rng.below(lines.size())];
      if (index % 5 == 3) {
        text.insert(end, golden.substr(begin, end - begin));
      } else {
        text.erase(begin, end - begin);
      }
      break;
    }
  }
  return text;
}

/// Runs kMutantsPerReader seeded mutants of `golden` through `roundtrip`,
/// which parses its argument and returns the re-serialized bytes. Every
/// mutant must either throw `Rejected` or yield bytes that round-trip to
/// themselves.
template <typename Rejected>
void check_reader(const std::string& golden, std::uint64_t seed,
                  const std::function<std::string(const std::string&)>&
                      roundtrip) {
  ASSERT_FALSE(golden.empty());
  ASSERT_EQ(roundtrip(golden), golden);
  MutationRng rng(seed);
  int rejected = 0;
  for (int index = 0; index < kMutantsPerReader; ++index) {
    const std::string mutant = mutate(golden, index, rng);
    std::string reserialized;
    try {
      reserialized = roundtrip(mutant);
    } catch (const Rejected&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << index << " threw "
                    << typeid(e).name() << ": " << e.what();
      continue;
    }
    try {
      EXPECT_EQ(roundtrip(reserialized), reserialized)
          << "mutant " << index << " does not re-serialize stably";
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << index
                    << " re-serializes to bytes that do not parse: "
                    << e.what();
    }
  }
  // The harness is only meaningful if the readers reject most mutants.
  EXPECT_GT(rejected, kMutantsPerReader / 2);
}

PlanRequest golden_request() {
  PlanRequest request;
  request.model = make_stable_diffusion_v21();
  request.cluster = make_p4de_cluster(1);
  request.options.global_batch = 128.0;
  request.options.stage_candidates = {2};
  request.options.micro_candidates = {2, 4};
  request.options.group_candidates = {2, 4};
  return request;
}

/// A real planned, validated cache entry for golden_request().
const CachedPlan& golden_entry() {
  static const CachedPlan entry = [] {
    const PlanRequest request = golden_request();
    const Plan plan =
        Planner(request.model, request.cluster, request.options).plan();
    CachedPlan built;
    built.request_text = canonical_request_text(request);
    built.fingerprint = fingerprint_bytes(built.request_text);
    built.model_fp = model_fingerprint(request.model);
    built.cluster_fp = cluster_fingerprint(request.cluster);
    built.config = plan.config;
    built.partition_opts = plan.partition_opts;
    built.explored = plan.explored;
    built.program_text = program_to_string(plan.program);
    return built;
  }();
  return entry;
}

std::string entry_bytes(const CachedPlan& entry) {
  CanonicalWriter out;
  save_plan_entry(out, entry);
  return out.take();
}

std::string checkpoint_bytes(const rt::TrainerCheckpoint& ckpt) {
  std::ostringstream out;
  rt::save_checkpoint(out, ckpt);
  return out.str();
}

rt::TrainerCheckpoint load_checkpoint_bytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return rt::load_checkpoint(in);
}

/// A 2-stage Adam trainer's checkpoint after two iterations.
const std::string& golden_checkpoint() {
  static const std::string bytes = [] {
    const rt::DdpmProblem problem(rt::DdpmConfig{});
    rt::PipelineRtConfig cfg;
    cfg.num_stages = 2;
    cfg.num_microbatches = 2;
    cfg.global_batch = 8;
    cfg.use_adam = true;
    rt::PipelineTrainer trainer(problem, cfg);
    trainer.train(2);
    return checkpoint_bytes(trainer.checkpoint());
  }();
  return bytes;
}

/// The raw bytes of `payloads` framed by write_frame, as read off a pipe.
std::string framed(const std::vector<std::string>& payloads) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  for (const std::string& payload : payloads) {
    write_frame(fds[1], payload);
  }
  ::close(fds[1]);
  std::string bytes;
  char buf[4096];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof(buf))) > 0;) {
    bytes.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  return bytes;
}

/// Every frame read_frame yields from `bytes` written into a pipe, up to
/// clean EOF. The bytes fit in the pipe's buffer, so they are written
/// whole before the first read.
std::vector<std::string> read_frames(const std::string& bytes) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  EXPECT_EQ(::write(fds[1], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fds[1]);
  std::vector<std::string> frames;
  try {
    while (std::optional<std::string> frame = read_frame(fds[0])) {
      frames.push_back(std::move(*frame));
    }
  } catch (...) {
    ::close(fds[0]);
    throw;
  }
  ::close(fds[0]);
  return frames;
}

TEST(ByteMutation, RequestText) {
  check_reader<std::invalid_argument>(
      canonical_request_text(golden_request()), 1,
      [](const std::string& text) {
        return canonical_request_text(parse_request_text(text));
      });
}

TEST(ByteMutation, DpipeProgram) {
  check_reader<std::invalid_argument>(
      golden_entry().program_text, 2, [](const std::string& text) {
        return program_to_string(program_from_string(text));
      });
}

TEST(ByteMutation, Checkpoint) {
  check_reader<std::invalid_argument>(
      golden_checkpoint(), 3, [](const std::string& bytes) {
        return checkpoint_bytes(load_checkpoint_bytes(bytes));
      });
}

TEST(ByteMutation, PlanEntry) {
  check_reader<std::invalid_argument>(
      entry_bytes(golden_entry()), 4, [](const std::string& bytes) {
        return entry_bytes(load_plan_entry(bytes));
      });
}

TEST(ByteMutation, PlanResponse) {
  check_reader<std::invalid_argument>(
      encode_plan_response(golden_entry(), true), 5,
      [](const std::string& payload) {
        const PlanResponse response = decode_plan_response(payload);
        return response.ok
                   ? encode_plan_response(*response.plan, response.cache_hit)
                   : encode_error_response(response.error);
      });
}

TEST(ByteMutation, FramesOverAPipe) {
  const std::string golden =
      framed({encode_plan_request(golden_request()), "stats\n", ""});
  ASSERT_LT(golden.size(), 32768u);  // Well inside a pipe's buffer.
  check_reader<std::runtime_error>(golden, 6, [](const std::string& bytes) {
    return framed(read_frames(bytes));
  });
}

TEST(ByteMutation, CheckpointTensorBeyondRemainingBytesFailsBeforeAllocating) {
  // A tensor's elements take at least two bytes each (a hex digit and a
  // separator). A header claiming more elements than half the remaining
  // bytes fails before its storage is allocated: one element over the
  // bound, and 2^27 floats (512 MB, above the sanitizer run's allocation
  // cap, so allocating it first would abort the run).
  const std::string& good = golden_checkpoint();
  const std::string marker = "pending_cond ";
  const std::string head = good.substr(0, good.find(marker) + marker.size());
  const std::string payload = "0 0 0 0\n";
  const std::string over_by_one = "1\ntensor 1 " +
                                  std::to_string(payload.size() / 2 + 1) +
                                  "\n" + payload;
  EXPECT_THROW((void)load_checkpoint_bytes(head + over_by_one),
               std::invalid_argument);
  EXPECT_THROW(
      (void)load_checkpoint_bytes(head + "1\ntensor 1 134217728\n" + payload),
      std::invalid_argument);
}

}  // namespace
}  // namespace dpipe
