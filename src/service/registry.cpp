#include "service/registry.h"

#include <sstream>

#include "accel/aes.h"
#include "accel/dataflow.h"
#include "accel/multi_action.h"
#include "accel/optflow.h"
#include "accel/widepipe.h"

namespace aqed::service {

namespace {

fault::DesignUnderTest MemCtrlDut(accel::MemCtrlConfig config) {
  fault::DesignUnderTest dut;
  dut.name = std::string("memctrl-") + accel::MemCtrlConfigName(config);
  dut.build = [config](ir::TransitionSystem& ts) {
    return accel::BuildMemCtrl(ts, config).acc;
  };
  // Campaign bounds are tighter than the Table 1 study's: mutant
  // counterexamples are shallow (they corrupt the first transaction — every
  // FC detection in the campaign lands at depth <= 7), and refutation cost
  // grows steeply with depth. Bound 7 keeps even the hardest surviving
  // mutant's FC refutation several times under the escalated deadline
  // ladder, so no final verdict ever rides on a wall-clock race and
  // classifications stay identical across --jobs counts.
  dut.options = core::AqedOptions::Builder(MemCtrlStudyOptions(config))
                    .WithFcBound(7)
                    .WithSacSpec(accel::MemCtrlSpec(config))
                    .WithSacBound(8)
                    .Build();
  dut.golden = accel::MemCtrlGolden(config);
  dut.conventional = MemCtrlConventionalOptions(config);
  return dut;
}

core::AqedOptions HlsOptions(uint32_t tau, uint32_t rdin_bound,
                             core::SpecFn spec, uint32_t sac_bound) {
  core::RbOptions rb;
  rb.tau = tau;
  rb.rdin_bound = rdin_bound;
  auto builder = core::AqedOptions::Builder()
                     .WithRb(rb)
                     .WithFcBound(10)
                     .WithRbBound(tau + 8)
                     .WithConflictBudget(400000);
  if (spec) builder.WithSacSpec(std::move(spec)).WithSacBound(sac_bound);
  return builder.Build();
}

harness::CampaignOptions HlsConventional() {
  harness::CampaignOptions options;
  options.num_seeds = 10;
  options.testbench.max_cycles = 300;
  options.testbench.hang_timeout = 150;
  return options;
}

}  // namespace

core::AqedOptions MemCtrlStudyOptions(accel::MemCtrlConfig config) {
  core::RbOptions rb;
  rb.tau = accel::MemCtrlResponseBound(config);
  rb.in_min = config == accel::MemCtrlConfig::kDoubleBuffer ? 2 : 1;
  return core::AqedOptions::Builder()
      .WithRb(rb)
      .WithFcBound(14)
      .WithRbBound(20)
      .WithConflictBudget(400000)
      .Build();
}

harness::CampaignOptions MemCtrlConventionalOptions(
    accel::MemCtrlConfig config) {
  harness::CampaignOptions options;
  options.num_seeds = 20;
  options.testbench.max_cycles = 300;   // one directed-test run
  options.testbench.data_pool = 6;
  options.testbench.hang_timeout = 200;
  // Results are compared when the test completes, as application-level
  // testbenches do — a failing conventional trace is the whole test.
  options.testbench.end_of_test_checking = true;
  options.testbench.pinned_inputs = {{"clk_en", 1}};
  if (config == accel::MemCtrlConfig::kLineBuffer) {
    options.testbench.host_ready_prob = 256;
  }
  return options;
}

std::vector<fault::DesignUnderTest> BuiltinDesigns(
    const CatalogOptions& options) {
  std::vector<fault::DesignUnderTest> designs;
  designs.push_back(MemCtrlDut(accel::MemCtrlConfig::kFifo));
  designs.push_back(MemCtrlDut(accel::MemCtrlConfig::kDoubleBuffer));
  designs.push_back(MemCtrlDut(accel::MemCtrlConfig::kLineBuffer));
  designs.push_back(
      {"alu",
       [](ir::TransitionSystem& ts) { return accel::BuildAlu(ts, {}).acc; },
       HlsOptions(accel::AluResponseBound(), 0, accel::AluSpec(), 8),
       accel::AluGolden(), HlsConventional()});
  designs.push_back({"dataflow",
                     [](ir::TransitionSystem& ts) {
                       return accel::BuildDataflow(ts, {}).acc;
                     },
                     HlsOptions(accel::DataflowResponseBound(),
                                accel::DataflowRdinBound(),
                                accel::DataflowSpec(), 8),
                     accel::DataflowGolden(), HlsConventional()});
  designs.push_back({"optflow",
                     [](ir::TransitionSystem& ts) {
                       return accel::BuildOptFlow(ts, {}).acc;
                     },
                     HlsOptions(accel::OptFlowResponseBound(), 0,
                                accel::OptFlowSpec(), 8),
                     accel::OptFlowGolden(), HlsConventional()});
  {
    // The decomposition showcase (accel/widepipe.h) in its small,
    // monolithically tractable configuration — FC-only: the pipe has no
    // backpressure (RB is trivial) and its point is consistency across
    // transaction timing, which is exactly what FC checks. The bench-sized
    // configuration is exercised by decomp_test, not by campaigns.
    const accel::WidePipeConfig widepipe{
        .lanes = 2, .stages = 2, .width = 4, .bug_stage = -1};
    designs.push_back({"widepipe",
                       [widepipe](ir::TransitionSystem& ts) {
                         return accel::BuildWidePipe(ts, widepipe).acc;
                       },
                       core::AqedOptions::Builder()
                           .WithBound(8)
                           .WithConflictBudget(400000)
                           .Build(),
                       accel::WidePipeGolden(widepipe), HlsConventional()});
  }
  if (options.with_aes) {
    // Mini-AES with one round: the heaviest design here — a single round
    // keeps FC refutations inside the per-job deadline while preserving the
    // key schedule, queue, and batch logic mutants land in.
    accel::AesConfig aes;
    aes.rounds = 1;
    // The duplicated (orig + dup) S-box datapath makes AES FC refutations
    // several times costlier per depth than the other designs', so FC gets
    // a shallow bound covering queue/handshake mutants; the (single-copy,
    // far cheaper) SAC spec carries detection of the round-datapath and
    // key-schedule mutants FC cannot reach at that depth.
    const auto aes_options =
        core::AqedOptions::Builder(
            HlsOptions(accel::AesResponseBound(aes), 0, accel::AesSpec(aes),
                       8))
            .WithFcBound(7)
            .Build();
    designs.push_back({"aes",
                       [aes](ir::TransitionSystem& ts) {
                         return accel::BuildAes(ts, aes).acc;
                       },
                       aes_options, accel::AesGolden(aes), HlsConventional()});
  }
  return designs;
}

const fault::DesignUnderTest* FindDesign(
    std::span<const fault::DesignUnderTest> designs, std::string_view name) {
  for (const fault::DesignUnderTest& design : designs) {
    if (design.name == name) return &design;
  }
  return nullptr;
}

StatusOr<std::vector<fault::DesignUnderTest>> SelectDesigns(
    std::span<const fault::DesignUnderTest> catalog,
    std::span<const std::string> names) {
  std::vector<fault::DesignUnderTest> selected;
  for (const std::string& name : names) {
    const fault::DesignUnderTest* design = FindDesign(catalog, name);
    if (design == nullptr) {
      std::string message = "unknown design '" + name + "' (catalog: ";
      for (size_t i = 0; i < catalog.size(); ++i) {
        if (i > 0) message += ", ";
        message += catalog[i].name;
      }
      return Status::Error(message + ")");
    }
    selected.push_back(*design);
  }
  if (selected.empty()) {
    selected.assign(catalog.begin(), catalog.end());
  }
  return selected;
}

StatusOr<std::vector<fault::DesignUnderTest>> SelectDesigns(
    std::span<const fault::DesignUnderTest> catalog, std::string_view names) {
  std::vector<std::string> split;
  std::stringstream stream{std::string(names)};
  for (std::string name; std::getline(stream, name, ',');) {
    if (!name.empty()) split.push_back(name);
  }
  return SelectDesigns(catalog, split);
}

}  // namespace aqed::service
