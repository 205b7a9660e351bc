// Table-driven argument-hardening tests for the tmemo_sim binary itself
// (docs/RESILIENCE.md). Every malformed invocation must exit with status 2
// and print exactly one "tmemo_sim: ..." diagnostic line to stderr — never
// crash, hang, or silently coerce a bad value. The binary path is injected
// by CMake as TMEMO_SIM_BIN.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>
#include <sys/wait.h>

namespace {

struct RunOutcome {
  int exit_code = -1;
  std::string output; // stdout + stderr, interleaved
};

/// Runs the simulator with `args` appended after argv[0]; captures both
/// streams through one pipe so the diagnostic-line assertions see stderr.
RunOutcome run_sim(const std::string& args) {
  const std::string cmd = std::string(TMEMO_SIM_BIN) + " " + args + " 2>&1";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  RunOutcome out;
  if (pipe == nullptr) return out;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    out.output.append(buf.data(), n);
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) out.exit_code = WEXITSTATUS(status);
  return out;
}

std::size_t count_lines(const std::string& text) {
  std::size_t lines = 0;
  for (const char c : text) {
    if (c == '\n') ++lines;
  }
  if (!text.empty() && text.back() != '\n') ++lines;
  return lines;
}

/// A valid-but-cheap prefix, so a case that is wrongly accepted still
/// finishes quickly instead of running a full-size workload.
constexpr const char* kCheapRun = "--kernel haar --scale 0.01 --error-rate 0";

struct BadCase {
  const char* name;
  const char* args;
};

// Prints the case as its name, so the listed test IDs carry no raw bytes.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.name; }

// Each entry must be rejected: unknown flags, missing values, malformed
// numerics, out-of-range values, and inconsistent flag combinations.
constexpr BadCase kRejected[] = {
    {"unknown_flag", "--frobnicate"},
    {"unknown_flag_after_valid", "--kernel haar --frobnicate 3"},
    {"jobs_zero", "--jobs 0"},
    {"jobs_negative", "--jobs -3"},
    {"jobs_garbage", "--jobs notanumber"},
    {"jobs_trailing_junk", "--jobs 4x"},
    {"jobs_huge", "--jobs 1000000000"},
    {"error_rate_negative", "--error-rate -0.1"},
    {"error_rate_above_one", "--error-rate 1.5"},
    {"error_rate_nan", "--error-rate nan"},
    {"error_rate_inf", "--error-rate inf"},
    {"error_rate_empty", "--error-rate \"\""},
    {"threshold_nan", "--threshold nan"},
    {"threshold_negative", "--threshold -0.5"},
    {"scale_zero", "--scale 0"},
    {"scale_negative", "--scale -1"},
    {"voltage_zero", "--voltage 0"},
    {"lut_depth_zero", "--lut-depth 0"},
    {"lut_depth_huge", "--lut-depth 123456789"},
    {"seed_negative", "--seed -1"},
    {"seed_fractional", "--seed 1.5"},
    {"csv_takes_no_value", "--csv=yes"},
    {"inject_rate_above_one", "--inject-lut-seu 2"},
    {"max_attempts_zero", "--max-attempts 0"},
    {"retries_negative", "--retries -1"},
    {"timeout_negative", "--timeout-ms -5"},
    {"job_timeout_garbage", "--job-timeout-ms soon"},
    {"isolation_bogus", "--isolation container"},
    {"remote_requires_listen", "--isolation remote"},
    {"listen_requires_remote", "--listen 127.0.0.1:7070"},
    {"listen_missing_value", "--isolation remote --listen"},
    {"remote_local_workers_require_remote", "--remote-local-workers 2"},
    {"remote_local_workers_negative",
     "--isolation remote --listen 127.0.0.1:0 --remote-local-workers -1"},
    {"crash_injection_remote_rejected",
     "--isolation remote --listen 127.0.0.1:0 --inject-worker-crash 1:segv"},
    {"crash_injection_needs_process",
     "--inject-worker-crash 1:segv"},
    {"crash_spec_malformed",
     "--isolation process --inject-worker-crash banana"},
    {"crash_spec_bad_signal",
     "--isolation process --inject-worker-crash 1:sigfoo"},
    {"inject_fs_malformed", "--inject-fs banana"},
    {"inject_fs_unknown_key", "--inject-fs frobnicate=0.5"},
    {"inject_fs_prob_above_one", "--inject-fs enospc=2"},
    {"inject_fs_missing_value", "--inject-fs"},
    {"checkpoint_every_zero", "--checkpoint-every 0"},
    {"checkpoint_every_garbage", "--checkpoint-every soon"},
    {"checkpoint_requires_journal", "--checkpoint-every 4"},
    {"sweep_unknown_axis", "--sweep banana:0:1:3"},
    {"sweep_nan_endpoint", "--sweep error-rate:nan:0.04:3"},
    {"sweep_huge_count", "--sweep error-rate:0:0.04:99999999"},
    {"sweep_and_voltage_conflict", "--sweep voltage:0.8:1.0:3 --voltage 0.9"},
    {"missing_value_at_end", "--kernel"},
    {"kernel_unknown", "--kernel destroyer"},
};

class RejectedArgs : public ::testing::TestWithParam<BadCase> {};

TEST_P(RejectedArgs, ExitsTwoWithOneDiagnosticLine) {
  const BadCase& c = GetParam();
  const RunOutcome out =
      run_sim(std::string(kCheapRun) + " " + c.args);
  EXPECT_EQ(out.exit_code, 2) << "args: " << c.args << "\n" << out.output;
  EXPECT_EQ(count_lines(out.output), 1u)
      << "args: " << c.args << "\n" << out.output;
  EXPECT_EQ(out.output.rfind("tmemo_sim: ", 0), 0u)
      << "args: " << c.args << "\n" << out.output;
  EXPECT_NE(out.output.find("--help"), std::string::npos)
      << "args: " << c.args << "\n" << out.output;
}

INSTANTIATE_TEST_SUITE_P(Table, RejectedArgs, ::testing::ValuesIn(kRejected),
                         [](const auto& the_case) {
                           return std::string(the_case.param.name);
                         });

TEST(AcceptedArgs, CheapValidRunExitsZero) {
  const RunOutcome out = run_sim(kCheapRun);
  EXPECT_EQ(out.exit_code, 0) << out.output;
}

TEST(AcceptedArgs, HelpExitsZeroAndMentionsIsolation) {
  const RunOutcome out = run_sim("--help");
  EXPECT_EQ(out.exit_code, 0) << out.output;
  EXPECT_NE(out.output.find("--isolation"), std::string::npos);
  EXPECT_NE(out.output.find("--inject-worker-crash"), std::string::npos);
}

TEST(AcceptedArgs, RetriesAliasMapsToMaxAttempts) {
  // --retries 0 is the documented alias for --max-attempts 1; both valid.
  const RunOutcome out =
      run_sim(std::string(kCheapRun) + " --retries 0");
  EXPECT_EQ(out.exit_code, 0) << out.output;
}

TEST(AcceptedArgs, CheckpointedJournalRunExitsZero) {
  const std::string journal =
      ::testing::TempDir() + "tmemo_cli_ckpt.journal";
  std::remove(journal.c_str());
  std::remove((journal + ".checkpoint").c_str());
  const RunOutcome out = run_sim(std::string(kCheapRun) + " --journal " +
                                 journal + " --checkpoint-every 1");
  EXPECT_EQ(out.exit_code, 0) << out.output;
  // Cadence 1: the single job's append snapshots into a checkpoint.
  EXPECT_TRUE(std::ifstream(journal + ".checkpoint").good());
  std::remove(journal.c_str());
  std::remove((journal + ".checkpoint").c_str());
}

// -- Artifact-durability exit contract (docs/RESILIENCE.md) -------------------
// An artifact that cannot be made durable is its own failure class: exit 3,
// a "tmemo_sim: ..." diagnostic, and never a torn file at the final path.

TEST(ArtifactFaults, InjectedJsonWriteFailureExitsThreeLeavingNoTornFile) {
  const std::string json = ::testing::TempDir() + "tmemo_cli_inject.json";
  std::remove(json.c_str());
  const RunOutcome out =
      run_sim(std::string(kCheapRun) +
              " --inject-fs seed=1,enospc=1 --json " + json);
  EXPECT_EQ(out.exit_code, 3) << out.output;
  EXPECT_NE(out.output.find("tmemo_sim: "), std::string::npos) << out.output;
  EXPECT_FALSE(std::ifstream(json).good())
      << "a failed commit must not publish anything at the final path";
}

TEST(ArtifactFaults, InjectedJournalFaultExitsThree) {
  const std::string journal =
      ::testing::TempDir() + "tmemo_cli_inject.journal";
  std::remove(journal.c_str());
  const RunOutcome out =
      run_sim(std::string(kCheapRun) + " --journal " + journal +
              " --inject-fs seed=1,enospc=1");
  EXPECT_EQ(out.exit_code, 3) << out.output;
  EXPECT_NE(out.output.find("tmemo_sim: "), std::string::npos) << out.output;
  std::remove(journal.c_str());
}

TEST(ArtifactFaults, InjectFsWithZeroProbabilitiesIsANoOp) {
  const RunOutcome out =
      run_sim(std::string(kCheapRun) + " --inject-fs seed=1,enospc=0");
  EXPECT_EQ(out.exit_code, 0) << out.output;
}

} // namespace
