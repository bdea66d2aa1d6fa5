// Umbrella header for the CHAOS++ runtime: include this to get the full
// public API of the paper's runtime support library.
//
//   Phase A  partitioners            partition/{bisection,chain,layout}.hpp
//   Phase B  data remapping          core/remap.hpp + comm/engine.hpp
//   Phase C  iteration partitioning  core/iteration.hpp
//   Phase D  iteration remapping     core/iteration.hpp
//   Phase E  inspector               core/hash_table.hpp + core/schedule.hpp
//   Phase F  executor                comm/engine.hpp + compile/schedule_plan.hpp,
//                                    core/lightweight.hpp
//
// chaos::Runtime (runtime/runtime.hpp) is the descriptor-based facade over
// all six phases — new code should drive them through its typed handles
// rather than the free functions below (see docs/API.md).
#pragma once

#include "core/hash_table.hpp"
#include "core/iteration.hpp"
#include "core/lightweight.hpp"
#include "core/remap.hpp"
#include "core/schedule.hpp"
#include "core/stamp.hpp"
#include "core/translation_table.hpp"
#include "partition/bisection.hpp"
#include "partition/chain.hpp"
#include "partition/layout.hpp"
#include "partition/metrics.hpp"
#include "runtime/runtime.hpp"
#include "sim/machine.hpp"
