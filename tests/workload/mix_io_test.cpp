#include "workload/mix_io.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/expect.hpp"
#include "base/rng.hpp"
#include "workload/presets.hpp"

namespace repro::workload {
namespace {

TEST(MixIo, RoundTripsDefaults) {
  const WorkloadMix original;
  const WorkloadMix parsed = parse_mix(mix_to_text(original));
  EXPECT_EQ(parsed.name, original.name);
  EXPECT_DOUBLE_EQ(parsed.concurrent_job_fraction,
                   original.concurrent_job_fraction);
  EXPECT_DOUBLE_EQ(parsed.mean_idle_cycles, original.mean_idle_cycles);
  EXPECT_EQ(parsed.numeric.trip_law.max_batches,
            original.numeric.trip_law.max_batches);
  EXPECT_EQ(parsed.numeric.tuning.concurrent_working_set,
            original.numeric.tuning.concurrent_working_set);
}

TEST(MixIo, RoundTripsEveryPreset) {
  for (const WorkloadMix& mix : session_presets()) {
    const WorkloadMix parsed = parse_mix(mix_to_text(mix));
    EXPECT_EQ(parsed.name, mix.name);
    EXPECT_DOUBLE_EQ(parsed.concurrent_job_fraction,
                     mix.concurrent_job_fraction);
    EXPECT_DOUBLE_EQ(parsed.numeric.trip_law.weight_narrow,
                     mix.numeric.trip_law.weight_narrow);
    EXPECT_DOUBLE_EQ(parsed.numeric.dependence_prob,
                     mix.numeric.dependence_prob);
  }
  const WorkloadMix high = high_concurrency_mix();
  const WorkloadMix parsed = parse_mix(mix_to_text(high));
  EXPECT_EQ(parsed.numeric.tuning.concurrent_steps_scale,
            high.numeric.tuning.concurrent_steps_scale);
}

TEST(MixIo, RoundTripsContentionMixes) {
  for (const WorkloadMix& mix :
       {lock_contention_mix(LockType::kTicket),
        lock_contention_mix(LockType::kMcs), rcu_search_mix()}) {
    const WorkloadMix parsed = parse_mix(mix_to_text(mix));
    EXPECT_EQ(parsed.name, mix.name);
    EXPECT_DOUBLE_EQ(parsed.contention_job_fraction,
                     mix.contention_job_fraction);
    EXPECT_DOUBLE_EQ(parsed.contention.rcu_fraction,
                     mix.contention.rcu_fraction);
    EXPECT_EQ(parsed.contention.lock.lock, mix.contention.lock.lock);
    EXPECT_EQ(parsed.contention.lock.contenders,
              mix.contention.lock.contenders);
    EXPECT_EQ(parsed.contention.lock.critical_steps,
              mix.contention.lock.critical_steps);
    EXPECT_EQ(parsed.contention.lock.parallel_steps,
              mix.contention.lock.parallel_steps);
    EXPECT_EQ(parsed.contention.lock.ticket_handoff_steps,
              mix.contention.lock.ticket_handoff_steps);
    EXPECT_EQ(parsed.contention.rcu.readers, mix.contention.rcu.readers);
    EXPECT_EQ(parsed.contention.rcu.writer_every,
              mix.contention.rcu.writer_every);
  }
}

TEST(MixIo, UnknownLockTypeThrows) {
  EXPECT_THROW((void)parse_mix("contention.lock.type = spinlock\n"),
               ContractViolation);
}

TEST(MixIo, CommentsAndBlanksIgnored) {
  const WorkloadMix parsed = parse_mix(
      "# a comment\n"
      "\n"
      "name = commented-mix\n"
      "   # indented comment\n"
      "concurrent_job_fraction = 0.25\n");
  EXPECT_EQ(parsed.name, "commented-mix");
  EXPECT_DOUBLE_EQ(parsed.concurrent_job_fraction, 0.25);
}

TEST(MixIo, UnknownKeyThrows) {
  EXPECT_THROW((void)parse_mix("bogus_key = 1\n"), ContractViolation);
}

TEST(MixIo, MalformedLinesThrow) {
  EXPECT_THROW((void)parse_mix("concurrent_job_fraction 0.5\n"),
               ContractViolation);
  EXPECT_THROW((void)parse_mix("concurrent_job_fraction = \n"),
               ContractViolation);
  EXPECT_THROW((void)parse_mix("mean_idle_cycles = fast\n"),
               ContractViolation);
  EXPECT_THROW((void)parse_mix("trip.min_batches = -3\n"),
               ContractViolation);
}

TEST(MixIo, ParsedMixIsValidated) {
  // A fraction above 1 parses numerically but fails validation.
  EXPECT_THROW((void)parse_mix("concurrent_job_fraction = 1.5\n"),
               ContractViolation);
}

TEST(MixIo, NonFiniteValuesThrow) {
  EXPECT_THROW((void)parse_mix("mean_idle_cycles = inf\n"), ContractViolation);
  EXPECT_THROW((void)parse_mix("mean_idle_cycles = nan\n"), ContractViolation);
  EXPECT_THROW((void)parse_mix("trip.weight_uniform = inf\n"),
               ContractViolation);
}

TEST(MixIo, IdleGapsTooLongToDrawThrow) {
  // Finite, but the drawn gap would overflow its Cycle cast.
  EXPECT_THROW((void)parse_mix("mean_idle_cycles = 1e300\n"),
               ContractViolation);
  WorkloadMix mix;
  mix.mean_idle_cycles = 1e300;
  EXPECT_THROW(mix.validate(), ContractViolation);
  mix.mean_idle_cycles = 1e12;
  EXPECT_NO_THROW(mix.validate());
}

TEST(MixIo, U32FieldsRejectValuesPastTheirRange) {
  // 2^32 + 2 used to wrap silently to 2.
  EXPECT_THROW((void)parse_mix("numeric.max_loops = 4294967298\n"),
               ContractViolation);
  EXPECT_EQ(parse_mix("numeric.max_loops = 4294967295\n").numeric.max_loops,
            4294967295u);
}

/// Every preset and contention mix, as text.
std::vector<std::string> mix_texts() {
  std::vector<std::string> texts;
  for (const WorkloadMix& mix : session_presets()) {
    texts.push_back(mix_to_text(mix));
  }
  for (const WorkloadMix& mix :
       {high_concurrency_mix(), lock_contention_mix(LockType::kTicket),
        lock_contention_mix(LockType::kMcs), rcu_search_mix()}) {
    texts.push_back(mix_to_text(mix));
  }
  return texts;
}

// Seeded mutants of every mix file — a flipped bit, a truncation, a
// deleted or duplicated byte, or a digit run pushed to a huge or
// negative value — must either parse to a mix that validates or throw
// ContractViolation. A crash, or any other exception, fails.
TEST(MixFuzz, MutatedMixFilesParseToValidMixesOrThrow) {
  Rng rng(0x313F);
  int parsed = 0;
  int mutants = 0;
  for (const std::string& text : mix_texts()) {
    for (int i = 0; i < 200; ++i, ++mutants) {
      std::string mutant = text;
      const std::size_t at = rng.uniform(text.size());
      switch (rng.uniform(5)) {
        case 0:
          mutant[at] = static_cast<char>(
              static_cast<unsigned char>(mutant[at]) ^ (1u << rng.uniform(8)));
          break;
        case 1:
          mutant.resize(at);
          break;
        case 2:
          mutant.erase(at, 1);
          break;
        case 3:
          mutant.insert(at, 1, mutant[at]);
          break;
        default: {
          const std::size_t digit = mutant.find_first_of("0123456789", at);
          if (digit != std::string::npos) {
            mutant.insert(digit, rng.bernoulli(0.5) ? "99999999999" : "-");
          }
        }
      }
      try {
        parse_mix(mutant).validate();
        ++parsed;
      } catch (const ContractViolation&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutant " << mutants << " threw " << e.what();
      }
    }
  }
  // Flips inside names and comments still parse: the parser is reached.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, mutants);
}

TEST(MixIo, ParsedMixDrivesAGenerator) {
  const WorkloadMix mix = parse_mix(mix_to_text(session_presets()[2]));
  os::System system{os::SystemConfig{}};
  WorkloadGenerator generator(mix, 99);
  for (Cycle c = 0; c < 30000; ++c) {
    generator.tick(system);
    system.tick();
  }
  EXPECT_GT(generator.jobs_generated(), 0u);
}

}  // namespace
}  // namespace repro::workload
