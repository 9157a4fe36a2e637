// Wide multi-lane multi-stage pipeline — the deliberately-too-big design
// for A-QED² functional decomposition (ISSUE 9 / ROADMAP item 2).
//
// `lanes` parallel `width`-bit words flow through `stages` identical
// nonlinear mixing stages (two symbolic multiplies per lane per stage — a
// squaring S-box plus a keyed product — and a rotate-by-one neighbor add,
// so lanes interact and nothing folds to constants). There is no
// backpressure: the pipe advances every cycle a valid word is behind it
// (in_ready and host_ready are constant true), latency is exactly `stages`.
//
// Monolithically, the FC check must prove two `stages`-deep compositions of
// 2*lanes*stages multiplies equal across different capture frames — a
// multiplier-equivalence CNF that blows past any reasonable deadline well
// before the datapath stops looking like a toy. Decomposed per stage, each
// fragment is one stage deep (cut at the previous stage's registers: the
// stage sees a free valid bit and free data words — a strict
// over-approximation of the upstream pipeline), and all clean stages are
// isomorphic, so dedup + the solve cache reduce an S-stage clean check to
// ONE one-stage solve. This is the paper's decomposition win in its purest
// form, and the subject of decomp_test's acceptance gate.
//
// The injected bug (`bug_stage` >= 0) is deliberately timing-dependent —
// the kind FC catches and per-transaction spec checks miss: stage k latches
// lane 0 of the word it accepts into a shadow register; when two valid
// words arrive back-to-back, the second one's lane-0 result is XORed with
// the shadow (the *previous* word's lane 0). A lone transaction computes
// correctly; a transaction tailgating another is corrupted. The FC monitor
// sees it as orig(D) != dup(D) whenever the duplicate tailgates a filler.
#pragma once

#include <cstdint>

#include "aqed/interface.h"
#include "decomp/decomposition.h"
#include "harness/random_testbench.h"
#include "ir/transition_system.h"

namespace aqed::accel {

struct WidePipeConfig {
  uint32_t lanes = 4;
  uint32_t stages = 6;
  uint32_t width = 16;
  int32_t bug_stage = -1;  // -1 = clean; k = inject the tailgate bug there
};

struct WidePipeDesign {
  core::AcceleratorInterface acc;
};

WidePipeDesign BuildWidePipe(ir::TransitionSystem& ts,
                             const WidePipeConfig& config);

// The per-stage decomposition of the same design: sub-accelerator "stage<k>"
// cuts at stage k-1's registers (stage 0 keeps the real host inputs) and
// checks FC for its one stage. Valid for any WidePipeConfig.
decomp::Decomposition WidePipeDecomposition(const WidePipeConfig& config);

// C++ reference model of the clean pipe: `stages` rounds of the lane
// function over one batch of `lanes` words (conventional-flow baseline).
harness::GoldenFn WidePipeGolden(const WidePipeConfig& config);

// The bench/acceptance configuration: big enough that the monolithic FC
// check reliably blows a multi-second deadline, while every one-stage
// fragment solves in well under a second.
WidePipeConfig WidePipeBenchConfig();

// BMC bound covering the monolithic pipeline (latency + tailgate slack).
uint32_t WidePipeMonolithicBound(const WidePipeConfig& config);
// BMC bound for a one-stage fragment (latency 1 + tailgate slack).
uint32_t WidePipeSubBound();

}  // namespace aqed::accel
