// Scripted test of the interactive driver (tools/fedaqp_shell.cc): pipes
// a script through the built binary and checks an output marker for
// every verb that needs no second process, in script order, then for
// inputs the shell must refuse. Every settings verb tears down a
// FederationClient and builds another, so the file runs in the CI
// ThreadSanitizer job.

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace fedaqp {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream file(path);
  std::stringstream text;
  text << file.rdbuf();
  return text.str();
}

/// `script` is one shell command per line. `command => marker` and a
/// following `  => marker` line each name text the command's output must
/// contain; markers must appear in script order, each after the last.
/// No text in `absent` may appear anywhere in the output.
void ExpectScript(const std::string& name, const std::string& script,
                  const std::vector<std::string>& absent = {}) {
  const std::string base = ::testing::TempDir() + "/fedaqp_shell_" + name;
  std::vector<std::pair<std::string, std::string>> markers;
  {
    std::ofstream commands(base + ".in");
    std::istringstream lines(script);
    std::string line, command;
    while (std::getline(lines, line)) {
      const size_t arrow = line.find("=> ");
      if (line.compare(0, 5, "  => ") != 0) {  // a command line
        command = line.substr(0, arrow == std::string::npos ? arrow
                                                            : arrow - 1);
        commands << command << "\n";
      }
      if (arrow != std::string::npos) {
        markers.emplace_back(command, line.substr(arrow + 3));
      }
    }
  }
  const std::string run = std::string("'") + FEDAQP_SHELL_BINARY + "' < '" +
                          base + ".in' > '" + base + ".out' 2> '" + base +
                          ".err'";
  ASSERT_EQ(std::system(run.c_str()), 0) << ReadFile(base + ".err");
  const std::string out = ReadFile(base + ".out");
  size_t pos = 0;
  for (const auto& [command, marker] : markers) {
    const size_t found = out.find(marker, pos);
    ASSERT_NE(found, std::string::npos)
        << "after `" << command << "`: missing \"" << marker
        << "\"\nremaining output:\n" << out.substr(pos);
    pos = found + marker.size();
  }
  for (const std::string& text : absent) {
    EXPECT_EQ(out.find(text), std::string::npos)
        << "unexpected \"" << text << "\" in output:\n" << out;
  }
}

TEST(ShellTest, ScriptCoversEveryLocalVerb) {
  // The synchronous queries take tickets 1-7, so the three submissions
  // are tickets 8-10. Servers take ephemeral ports; nothing connects.
  // The closing refusals are checked before anything is built or dialled
  // (read as size_t, `threads -1` is SIZE_MAX threads; cast to uint16_t,
  // `:70000` is port 4464), and the last lines show none of them landed.
  ExpectScript("verbs", R"(help
  => open adult|amazon <rows> <providers> [seed]
  => submit <analyst> [exact] count|sum|sumsq <dim lo hi>
open adult 20000 4 => opened adult: 4 providers
budget 1 0.001 100 0.1 => ok (ledgers reset)
rate 0.2 => ok (ledgers reset)
mode smc => ok (ledgers reset)
mode dp => ok (ledgers reset)
threads 2 2 => ok (ledgers reset)
sched barrier => ok (ledgers reset)
sched graph => ok (ledgers reset)
count 0 10 60 => private =
sum 0 10 60 => private =
sumsq 0 10 60 => private =
exact count 0 10 60 => exact =
batch 3 count 0 2 6 => batch: 3/3 answered
submit alice count 0 10 60 prio=high deadline=30
  => ticket 8 submitted (analyst=alice, prio=high)
submit bob count 0 5 50 rounds=3
  => ticket 9 submitted (analyst=bob, prio=normal)
submit carol exact sum 0 10 60 prio=low
  => ticket 10 submitted (analyst=carol, prio=low)
await 8 => ticket 8 =
await 9 => ticket 9 =
  => round 3:
await 10 => ticket 10 =
cancel 9 => ticket 9: too late to cancel (result stands)
tickets => alice    prio=high   done:
  => bob      prio=normal done:
  => exact    prio=low    done:
groupby 1 count 0 10 60 => (parallel composition: eps=
cache on 5 => cache on, planner horizon 5 (ledgers reset)
cache off => cache off (ledgers reset)
cache on => cache on (ledgers reset)
count 0 10 60 => private =
plan shell count 0 10 60 / count 0 20 40 => [0] cached
  => [1] eps=1.0000
  => plan: 2/2 answerable (1 predicted cache hits)
fair on => fair admission on: DWRR
weight alice 3 => weight[alice] = 3
loadgen 200 0.3 => offered 200 q/s for
fair off => fair admission off: FIFO
schema => [8] income in [0, 2)
status => cache:
  => sr=0.20; mode=dp; sched=graph
  => scheduler:
stats cache. => cache.lookups
trace on => tracing on (
count 0 10 40 => private =
trace export )" + ::testing::TempDir() + R"(/fedaqp_shell_trace.json => wrote
trace off => tracing off (
audit shell => register eps=100.000000
  => charge   eps=1.000000
loglevel => loglevel is
loglevel warn => loglevel set to warn
serve 0 => provider 3 listening on port
serve-ledger 0 => ledger service on port
ledger off => no shared ledger attached
frobnicate => unknown command 'frobnicate' (try `help`)
batch => usage: batch <k> count|sum|sumsq <dim lo hi>
threads -1
  => error: InvalidArgument: threads must be in [1, 256], got '-1'
threads 0 => threads must be in [1, 256], got '0'
threads 100000 => threads must be in [1, 256], got '100000'
threads 2 -3 => scan shards must be in [1, 256], got '-3'
open adult -1 4 => rows must be in [1, 100000000], got '-1'
open adult 20000 0 => providers must be in [1, 256], got '0'
batch -1 count 0 10 60 => batch size must be in [1, 100000], got '-1'
submit alice count 0 10 60 rounds=-1
  => rounds must be in [1, 1000], got '-1'
cache on -1 => horizon must be in [1, 1000000], got '-1'
weight alice 4294967296 => weight must be in [1, 4294967295]
ledger connect 127.0.0.1:70000
  => error: InvalidArgument: rpc: bad port in '127.0.0.1:70000'
ledger connect 127.0.0.1:9 -1 => coordinator id must be in [1, 4294967295]
ledger off => no shared ledger attached
count 0 10 60 => private =
quit)");
}

TEST(ShellTest, GroupByIsChargedOnTheAnalystLedger) {
  // Grant eps 3 at eps 1 per query: `count` takes 1, and the group-by's
  // buckets take the rest one by one until the ledger refuses. Every
  // charge is on the shell analyst's one ledger and in its audit log.
  ExpectScript("groupby", R"(open adult 20000 4 => opened adult: 4 providers
budget 1 0.001 3 1 => ok (ledgers reset)
count 0 10 60 => private =
groupby 1 count 0 10 60 => error: BudgetExhausted: privacy budget exhausted
audit shell => register eps=3.000000
  => charge   eps=1.000000
  => charge   eps=1.000000
  => charge   eps=1.000000
status => shell      spent (eps=3.0000, delta=0.003000), remaining (eps=0.00
  => sr=0.20; mode=dp; sched=graph
quit)",
               {"[groupby]", "eps=4.0000"});
}

TEST(ShellTest, PlanPredictsTheChargeAdmissionApplies) {
  // With a horizon, each query is charged remaining / horizon at its
  // admission, a progressive one too; the plan walks the workload the
  // same way.
  ExpectScript("plan", R"(open adult 20000 4 => opened adult: 4 providers
budget 1 0.001 2 1 => ok (ledgers reset)
cache on 4 => cache on, planner horizon 4 (ledgers reset)
plan shell count 0 10 60 / count 0 30 40 => [0] eps=0.5000
  => [1] eps=0.3750
  => plan: 2/2 answerable (0 predicted cache hits)
count 0 10 60 => private =
count 0 30 40 => private =
submit shell count 0 20 50 rounds=4 => ticket 3 submitted
await 3 => ticket 3 =
audit shell => register eps=2.000000
  => charge   eps=0.500000
  => charge   eps=0.375000
  => charge   eps=0.281250
quit)");
}

}  // namespace
}  // namespace fedaqp
