// Tests for the CLI argument parser and the command layer.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cli/args.h"
#include "cli/commands.h"
#include "gf/simd_mul.h"

namespace rsmem::cli {
namespace {

Args parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"rsmem_cli"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, ParsesCommandFlagsAndSwitches) {
  const Args args = parse({"analyze", "--n", "18", "--csv", "--seu",
                           "1.7e-5"});
  EXPECT_EQ(args.command(), "analyze");
  EXPECT_EQ(args.get_long("n"), 18);
  EXPECT_TRUE(args.get_switch("csv"));
  EXPECT_FALSE(args.get_switch("periodic"));
  EXPECT_DOUBLE_EQ(args.get_double("seu"), 1.7e-5);
  EXPECT_TRUE(args.has("n"));
  EXPECT_FALSE(args.has("k"));
}

TEST(Args, DefaultsAndRequired) {
  const Args args = parse({"mttf"});
  EXPECT_EQ(args.get_long_or("n", 18), 18);
  EXPECT_DOUBLE_EQ(args.get_double_or("seu", 0.5), 0.5);
  EXPECT_EQ(args.get_string_or("arrangement", "simplex"), "simplex");
  EXPECT_THROW(args.get_string("missing"), ArgError);
  EXPECT_THROW(args.get_double("missing"), ArgError);
}

TEST(Args, ParseErrors) {
  EXPECT_THROW(parse({}), ArgError);                       // no command
  EXPECT_THROW(parse({"--flag", "x"}), ArgError);          // flag first
  EXPECT_THROW(parse({"cmd", "bare"}), ArgError);          // non-flag token
  EXPECT_THROW(parse({"cmd", "--a", "1", "--a", "2"}), ArgError);  // dup
  const Args bad_num = parse({"cmd", "--x", "12abc"});
  EXPECT_THROW(bad_num.get_double("x"), ArgError);
  EXPECT_THROW(bad_num.get_long("x"), ArgError);
  const Args has_value = parse({"cmd", "--x", "1"});
  EXPECT_THROW(has_value.get_switch("x"), ArgError);  // switch with value
}

TEST(Args, DoubleList) {
  const Args args = parse({"sweep", "--values", "1e-5,2e-6,3"});
  const std::vector<double> values = args.get_double_list("values");
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 1e-5);
  EXPECT_DOUBLE_EQ(values[2], 3.0);
  const Args bad = parse({"sweep", "--values", "1,,2"});
  EXPECT_THROW(bad.get_double_list("values"), ArgError);
}

TEST(Args, NonFiniteNumbersAreRejected) {
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "infinity", "1e999"}) {
    const Args args = parse({"cmd", "--x", bad});
    EXPECT_THROW(args.get_double("x"), ArgError) << bad;
    EXPECT_THROW(args.get_double_or("x", 1.0), ArgError) << bad;
    const std::string list = std::string("1,") + bad;
    const Args list_args = parse({"cmd", "--values", list.c_str()});
    EXPECT_THROW(list_args.get_double_list("values"), ArgError) << bad;
  }
}

TEST(Args, RequireKnownCatchesTypos) {
  const Args args = parse({"analyze", "--huors", "48"});
  EXPECT_THROW(args.require_known({"hours"}), ArgError);
  const Args ok = parse({"analyze", "--hours", "48"});
  EXPECT_NO_THROW(ok.require_known({"hours"}));
}

// ---- command layer ----

int run(std::initializer_list<const char*> tokens, std::string* out_text,
        std::string* err_text = nullptr) {
  std::vector<const char*> argv{"rsmem_cli"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  std::ostringstream out, err;
  const int code =
      run_cli(static_cast<int>(argv.size()), argv.data(), out, err);
  if (out_text) *out_text = out.str();
  if (err_text) *err_text = err.str();
  return code;
}

TEST(Cli, HelpListsCommands) {
  std::string out;
  EXPECT_EQ(run({"help"}, &out), 0);
  EXPECT_NE(out.find("analyze"), std::string::npos);
  EXPECT_NE(out.find("simulate"), std::string::npos);
  EXPECT_NE(out.find("mttf"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  std::string out, err;
  EXPECT_EQ(run({"frobnicate"}, &out, &err), 2);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST(Cli, VersionNamesSelectedGfBackend) {
  std::string out;
  EXPECT_EQ(run({"version"}, &out), 0);
  EXPECT_NE(out.find("rsmem_cli"), std::string::npos);
  EXPECT_NE(out.find("build:"), std::string::npos);
  // The reported backend must be the one the dispatcher actually selected.
  const std::string want =
      std::string("gf backend: ") + rsmem::gf::simd::active().name + "\n";
  EXPECT_NE(out.find(want), std::string::npos) << out;
}

TEST(Cli, VersionListsCompiledAndSupportedBackends) {
  std::string out;
  EXPECT_EQ(run({"version"}, &out), 0);
  // The scalar backend is always compiled in and always usable, so both
  // inventory lines exist and contain at least it; the supported list must
  // include the selected backend and only name compiled backends.
  const auto line_after = [&](const std::string& tag) {
    const std::size_t at = out.find(tag);
    EXPECT_NE(at, std::string::npos) << out;
    if (at == std::string::npos) return std::string();
    const std::size_t end = out.find('\n', at);
    return out.substr(at + tag.size(),
                      end == std::string::npos ? std::string::npos
                                               : end - at - tag.size());
  };
  const std::string compiled = line_after("gf backends compiled:");
  const std::string supported = line_after("gf backends supported:");
  EXPECT_NE(compiled.find("scalar"), std::string::npos) << compiled;
  EXPECT_NE(supported.find("scalar"), std::string::npos) << supported;
  EXPECT_NE(supported.find(rsmem::gf::simd::active().name),
            std::string::npos)
      << supported;
  for (const rsmem::gf::simd::Backend b : rsmem::gf::simd::kAllBackends) {
    if (rsmem::gf::simd::backend_supported(b)) {
      EXPECT_NE(supported.find(rsmem::gf::simd::to_string(b)),
                std::string::npos)
          << supported;
      EXPECT_NE(compiled.find(rsmem::gf::simd::to_string(b)),
                std::string::npos)
          << compiled;
    }
  }
}

TEST(Cli, AnalyzeProducesCurve) {
  std::string out;
  EXPECT_EQ(run({"analyze", "--seu", "1.7e-5", "--hours", "48", "--points",
                 "3"},
                &out),
            0);
  EXPECT_NE(out.find("48.00"), std::string::npos);
  EXPECT_NE(out.find("P_fail"), std::string::npos);
}

TEST(Cli, AnalyzeCsvAndPeriodic) {
  std::string out;
  EXPECT_EQ(run({"analyze", "--seu", "1e-2", "--tsc", "1800", "--periodic",
                 "--csv", "--points", "3"},
                &out),
            0);
  EXPECT_NE(out.find("hours,P_fail,BER"), std::string::npos);
}

TEST(Cli, AnalyzeRejectsBadFlags) {
  std::string out, err;
  EXPECT_EQ(run({"analyze", "--bogus", "1"}, &out, &err), 2);
  EXPECT_NE(err.find("unknown flag"), std::string::npos);
  EXPECT_EQ(run({"analyze", "--points", "1"}, &out, &err), 2);
  EXPECT_EQ(run({"analyze", "--arrangement", "triplex"}, &out, &err), 2);
}

TEST(Cli, NonFiniteHoursExitWithUsageError) {
  // Each of these printed silent zeros or never returned before the flags
  // were checked for finiteness.
  std::string out, err;
  EXPECT_EQ(run({"analyze", "--arrangement", "duplex", "--seu", "1.7e-5",
                 "--hours", "nan", "--points", "3"},
                &out, &err),
            2);
  EXPECT_NE(err.find("--hours"), std::string::npos);
  EXPECT_EQ(run({"analyze", "--arrangement", "duplex", "--seu", "1.7e-5",
                 "--tsc", "900", "--periodic", "--hours", "inf", "--points",
                 "3"},
                &out, &err),
            2);
  for (const char* hours : {"nan", "inf"}) {
    EXPECT_EQ(run({"simulate", "--arrangement", "duplex", "--seu", "0.02",
                   "--hours", hours, "--trials", "200"},
                  &out, &err),
              2)
        << hours;
  }
}

TEST(Cli, MttfOutputsHours) {
  std::string out;
  EXPECT_EQ(run({"mttf", "--perm", "1e-3"}, &out), 0);
  EXPECT_NE(out.find("MTTF"), std::string::npos);
  EXPECT_NE(out.find("months"), std::string::npos);
  // Zero-rate spec: library throws, CLI reports exit code 1.
  std::string err;
  EXPECT_EQ(run({"mttf"}, &out, &err), 1);
}

TEST(Cli, SimulateReportsEstimate) {
  std::string out;
  EXPECT_EQ(run({"simulate", "--seu", "2e-3", "--trials", "50", "--hours",
                 "48", "--seed", "9"},
                &out),
            0);
  EXPECT_NE(out.find("P_fail estimate"), std::string::npos);
  EXPECT_NE(out.find("Markov prediction"), std::string::npos);
  std::string err;
  EXPECT_EQ(run({"simulate", "--policy", "nonsense"}, &out, &err), 2);
}

TEST(Cli, SimulateParallelMatchesSingleThread) {
  // The campaign engine guarantees bit-identical results for every thread
  // count; everything above the campaign/throughput footer must match.
  const std::vector<const char*> base{"simulate", "--seu",  "2e-3",
                                      "--trials", "400",    "--hours", "24",
                                      "--seed",   "9",      "--chunk", "64"};
  const auto run_with_threads = [&](const char* threads, std::string* out) {
    std::vector<const char*> cmd{base};
    cmd.push_back("--threads");
    cmd.push_back(threads);
    std::vector<const char*> argv{"rsmem_cli"};
    argv.insert(argv.end(), cmd.begin(), cmd.end());
    std::ostringstream os, es;
    const int rc = run_cli(static_cast<int>(argv.size()), argv.data(), os, es);
    *out = os.str();
    return rc;
  };
  std::string out1, out8;
  EXPECT_EQ(run_with_threads("1", &out1), 0);
  EXPECT_EQ(run_with_threads("8", &out8), 0);
  const auto strip_footer = [](const std::string& s) {
    return s.substr(0, s.find("campaign:"));
  };
  EXPECT_FALSE(strip_footer(out1).empty());
  EXPECT_EQ(strip_footer(out1), strip_footer(out8));
  EXPECT_NE(out8.find("trials/s"), std::string::npos);
  // Invalid shard size is a usage error.
  std::string out, err;
  EXPECT_EQ(run({"simulate", "--chunk", "0"}, &out, &err), 2);
}

TEST(Cli, CostPrintsBothModels) {
  std::string out;
  EXPECT_EQ(run({"cost", "--n", "36"}, &out), 0);
  EXPECT_NE(out.find("308"), std::string::npos);  // the paper fit
  EXPECT_NE(out.find("structural"), std::string::npos);
}

TEST(Cli, SensitivityCommand) {
  std::string out;
  EXPECT_EQ(run({"sensitivity", "--seu", "1.7e-5", "--hours", "48"}, &out),
            0);
  EXPECT_NE(out.find("E[seu rate]"), std::string::npos);
  // Elasticity ~ 2: printed as 1.99x or 2.00x.
  EXPECT_TRUE(out.find("1.99") != std::string::npos ||
              out.find("2.00") != std::string::npos)
      << out;
}

TEST(Cli, SparingCommand) {
  std::string out;
  EXPECT_EQ(run({"sparing", "--modules", "8", "--spares-max", "2",
                 "--module-rate", "1e-5", "--hours", "10000"},
                &out),
            0);
  EXPECT_NE(out.find("reliability"), std::string::npos);
  std::string err;
  EXPECT_EQ(run({"sparing", "--spares-max", "2"}, &out, &err), 2);  // rate
  EXPECT_EQ(run({"sparing", "--module-rate", "1e-5", "--spares-max", "-1"},
                &out, &err),
            2);
}

TEST(Cli, ParetoCommand) {
  std::string out;
  EXPECT_EQ(run({"pareto", "--seu", "1.7e-5", "--perm", "1e-6", "--hours",
                 "48"},
                &out),
            0);
  EXPECT_NE(out.find("(36,16)"), std::string::npos);
  EXPECT_NE(out.find("*"), std::string::npos);  // some Pareto point
}

TEST(Cli, LatencyCommand) {
  std::string out;
  EXPECT_EQ(run({"latency", "--read-rate", "1e5", "--cycles", "74",
                 "--horizon", "0.2"},
                &out),
            0);
  EXPECT_NE(out.find("mean latency [us]"), std::string::npos);
  std::string err;
  EXPECT_EQ(run({"latency", "--cycles", "74"}, &out, &err), 2);  // rate req
  // Diverging load reported as an error, not a hang.
  EXPECT_EQ(run({"latency", "--read-rate", "1e9", "--cycles", "74"}, &out,
                &err),
            1);
}

TEST(Cli, ChipkillCommand) {
  std::string out;
  EXPECT_EQ(run({"chipkill", "--chip-rate", "1e-7", "--words", "1024",
                 "--hours", "8760"},
                &out),
            0);
  EXPECT_NE(out.find("chip-kill (correlated)"), std::string::npos);
  EXPECT_NE(out.find("independent words"), std::string::npos);
}

TEST(Cli, SweepOverSeuRates) {
  std::string out;
  EXPECT_EQ(run({"sweep", "--param", "seu", "--values",
                 "7.3e-7,3.6e-6,1.7e-5", "--hours", "48"},
                &out),
            0);
  EXPECT_NE(out.find("7.3"), std::string::npos);
  std::string err;
  EXPECT_EQ(run({"sweep", "--param", "bogus", "--values", "1"}, &out, &err),
            2);
}

// ---- serve / query / loadgen flag handling ----

TEST(Cli, ServeRejectsConflictingAndMalformedEndpoints) {
  std::string out, err;
  // --socket and --listen are mutually exclusive.
  EXPECT_EQ(run({"serve", "--socket", "/tmp/x.sock", "--listen",
                 "localhost:0"},
                &out, &err),
            2);
  EXPECT_NE(err.find("not both"), std::string::npos);
  // Malformed host:port endpoints are InvalidConfig => exit 2.
  for (const char* bad : {"nocolon", ":8080", "localhost:", "localhost:abc",
                          "localhost:70000", "unix:"}) {
    err.clear();
    EXPECT_EQ(run({"serve", "--listen", bad}, &out, &err), 2) << bad;
    EXPECT_NE(err.find("InvalidConfig"), std::string::npos) << err;
  }
  // Scheduler knobs must be sane.
  EXPECT_EQ(run({"serve", "--max-queue", "0"}, &out, &err), 2);
  EXPECT_EQ(run({"serve", "--batch", "0"}, &out, &err), 2);
  EXPECT_EQ(run({"serve", "--threads", "-1"}, &out, &err), 2);
  // Typos are caught by require_known.
  EXPECT_EQ(run({"serve", "--sockett", "/tmp/x.sock"}, &out, &err), 2);
  // A server with zero shards cannot route anything.
  err.clear();
  EXPECT_EQ(run({"serve", "--shards", "0"}, &out, &err), 2);
  EXPECT_NE(err.find("InvalidConfig"), std::string::npos);
  EXPECT_NE(err.find("shards"), std::string::npos);
}

TEST(Cli, QueryRejectsBadFlagsWithoutConnecting) {
  std::string out, err;
  // Negative deadline is InvalidConfig => exit 2, before any socket IO.
  EXPECT_EQ(run({"query", "--deadline", "-5"}, &out, &err), 2);
  EXPECT_NE(err.find("InvalidConfig"), std::string::npos);
  EXPECT_NE(err.find("deadline"), std::string::npos);
  // Malformed --at endpoint.
  err.clear();
  EXPECT_EQ(run({"query", "--at", "host:port:extra:colon"}, &out, &err), 2);
  EXPECT_NE(err.find("InvalidConfig"), std::string::npos);
  // Unknown query kind.
  EXPECT_EQ(run({"query", "--kind", "frobnicate"}, &out, &err), 2);
}

TEST(Cli, QueryAgainstMissingSocketFailsWithTypedError) {
  std::string out, err;
  EXPECT_EQ(run({"query", "--at", "unix:/tmp/rsmem-no-such-daemon.sock",
                 "--kind", "ping"},
                &out, &err),
            1);
  EXPECT_NE(err.find("error ["), std::string::npos);
}

TEST(Cli, LoadgenValidatesShape) {
  std::string out, err;
  EXPECT_EQ(run({"loadgen", "--clients", "0"}, &out, &err), 2);
  EXPECT_NE(err.find("InvalidConfig"), std::string::npos);
  EXPECT_EQ(run({"loadgen", "--requests", "0"}, &out, &err), 2);
  EXPECT_EQ(run({"loadgen", "--kind", "ping"}, &out, &err), 2);
  EXPECT_EQ(run({"loadgen", "--at", "bad-endpoint"}, &out, &err), 2);
  EXPECT_EQ(run({"loadgen", "--deadline", "-1"}, &out, &err), 2);
  // Sharding and open-loop knobs are validated before any server starts.
  EXPECT_EQ(run({"loadgen", "--shards", "0"}, &out, &err), 2);
  EXPECT_EQ(run({"loadgen", "--rate", "-1"}, &out, &err), 2);
  // --shard-sweep needs a self-hosted server (no --at) and sane counts.
  EXPECT_EQ(run({"loadgen", "--at", "unix:/tmp/x.sock", "--shard-sweep",
                 "1,2"},
                &out, &err),
            2);
  EXPECT_EQ(run({"loadgen", "--shard-sweep", "0,2"}, &out, &err), 2);
  EXPECT_EQ(run({"loadgen", "--shard-sweep", "1.5"}, &out, &err), 2);
}

TEST(Cli, LoadgenOpenLoopSelfHostedSmokeRun) {
  // Open-loop mode across 2 shards over the real wire protocol; a small
  // uncapped burst that must complete with zero errors and zero rejections.
  std::string out, err;
  EXPECT_EQ(run({"loadgen", "--clients", "2", "--requests", "4", "--distinct",
                 "2", "--threads", "2", "--hours", "24", "--shards", "2",
                 "--open-loop", "--max-queue", "256"},
                &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("open"), std::string::npos);
  EXPECT_NE(out.find("rejected"), std::string::npos);
}

TEST(Cli, LoadgenSelfHostedSmokeRun) {
  // A tiny end-to-end run over the real wire protocol: in-process server
  // on a private Unix socket, 2 clients x 4 requests over 2 distinct keys.
  std::string out, err;
  EXPECT_EQ(run({"loadgen", "--clients", "2", "--requests", "4", "--distinct",
                 "2", "--threads", "2", "--hours", "24"},
                &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("requests"), std::string::npos);
  EXPECT_NE(out.find("hit rate"), std::string::npos);
  EXPECT_NE(out.find("p99"), std::string::npos);
}

TEST(Cli, HelpListsServiceCommands) {
  std::string out;
  EXPECT_EQ(run({"help"}, &out), 0);
  EXPECT_NE(out.find("serve"), std::string::npos);
  EXPECT_NE(out.find("query"), std::string::npos);
  EXPECT_NE(out.find("loadgen"), std::string::npos);
  EXPECT_NE(out.find("chaos"), std::string::npos);
}

TEST(Cli, ServeValidatesHardeningFlags) {
  std::string out, err;
  // Negative timeouts/rates and a sub-minimum frame cap are all typed
  // InvalidConfig => exit 2, before any socket is bound.
  EXPECT_EQ(run({"serve", "--idle-timeout-ms", "-1"}, &out, &err), 2);
  EXPECT_NE(err.find("InvalidConfig"), std::string::npos) << err;
  err.clear();
  EXPECT_EQ(run({"serve", "--max-frames-per-second", "-2"}, &out, &err), 2);
  EXPECT_NE(err.find("InvalidConfig"), std::string::npos) << err;
  err.clear();
  EXPECT_EQ(run({"serve", "--max-frame-bytes", "10"}, &out, &err), 2);
  EXPECT_NE(err.find("InvalidConfig"), std::string::npos) << err;
  // The new flags are spelled right or rejected (require_known).
  EXPECT_EQ(run({"serve", "--snapshott", "/tmp/x.snap"}, &out, &err), 2);
}

TEST(Cli, ChaosValidatesPresetAndShape) {
  std::string out, err;
  // Only the serve-churn preset exists; anything else is a usage error.
  EXPECT_EQ(run({"chaos", "--preset", "frobnicate"}, &out, &err), 2);
  EXPECT_NE(err.find("serve-churn"), std::string::npos) << err;
  err.clear();
  EXPECT_EQ(run({"chaos", "--requests", "0"}, &out, &err), 2);
  EXPECT_EQ(run({"chaos", "--distinct", "0"}, &out, &err), 2);
  EXPECT_EQ(run({"chaos", "--timeout-ms", "0"}, &out, &err), 2);
  EXPECT_EQ(run({"chaos", "--seedd", "1"}, &out, &err), 2);
}

TEST(Cli, ChaosCampaignSmokeRun) {
  std::string out;
  EXPECT_EQ(run({"chaos", "--preset", "serve-churn", "--seed", "3",
                 "--requests", "4", "--distinct", "2"},
                &out),
            0);
  EXPECT_NE(out.find("CHAOS CAMPAIGN PASSED"), std::string::npos) << out;
  EXPECT_NE(out.find("snapshot-warm-start"), std::string::npos);
  EXPECT_NE(out.find("mixed-storm"), std::string::npos);
}

TEST(Cli, VersionReportsChaosShim) {
  std::string out;
  EXPECT_EQ(run({"version"}, &out), 0);
  EXPECT_NE(out.find("chaos shim: available"), std::string::npos) << out;
}

}  // namespace
}  // namespace rsmem::cli
