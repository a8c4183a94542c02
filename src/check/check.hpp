#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "dag/dag.hpp"
#include "exec/elastic.hpp"
#include "sparse/csr.hpp"

/// \file check.hpp
/// Deep invariant validators for the artifacts the pipeline hands between
/// layers: schedules (Def. 2.1), fold rank maps, folded work lists, and
/// core-budget grants. Each validator re-derives the
/// invariant from first principles — it shares no code with the
/// construction it audits, so a bug in the builder cannot hide in the
/// checker.
///
/// Two ways in:
///
///  * Tests call the validators directly (tests/test_check.cpp), both on
///    shipped construction paths (which must validate clean) and on
///    hand-crafted invalid inputs (which must be rejected).
///  * `STS_CHECKS=1` builds (-DSTS_CHECKS=ON) run them automatically at
///    every construction site — schedule analysis, folding, core-grant
///    accounting — and throw std::logic_error on violation.
///    The hooks compile away entirely in default builds, same pattern as
///    STS_TRACING; see docs/STATIC_ANALYSIS.md for the invariant table.
#ifndef STS_CHECKS
#define STS_CHECKS 0
#endif

namespace sts::check {

/// Validator outcome: `ok`, or a violation description naming the first
/// offending element (validators stop at the first violation).
struct CheckResult {
  bool ok = true;
  std::string message;

  static CheckResult failure(std::string message) {
    return CheckResult{false, std::move(message)};
  }
};

/// Throws std::logic_error("<who>: <message>") unless `result.ok`.
void enforce(const CheckResult& result, const char* who);

/// Definition 2.1 plus coverage, audited independently of
/// core::validateSchedule:
///  * assignment arrays sized to the DAG, cores in [0, numCores),
///    supersteps in [0, numSupersteps);
///  * the execution order covers every vertex exactly once, and group
///    (s, p) holds exactly the vertices with that assignment;
///  * every DAG edge (u, v) is satisfied by the superstep order:
///    superstep(u) < superstep(v), or equal-superstep with core(u) ==
///    core(v) and u before v in the group's execution order.
CheckResult validateSchedule(const dag::Dag& dag,
                             const core::Schedule& schedule);

/// A fold map's "bijectivity" invariant: `rank_map` has `width` entries,
/// every value lands in [0, target), and every target slot is hit at least
/// once — i.e. the induced map on rank classes is a bijection onto
/// [0, target), so folding never silently drops an execution slot (an
/// empty folded rank would idle a granted core forever). core::foldRankMap
/// guarantees this for both of its candidates: p mod t by construction, the
/// packed map by repairing every empty slot with a rank from a shared one.
CheckResult validateRankMap(int width, int target,
                            std::span<const int> rank_map);

/// Folded work lists cover [0, num_rows) exactly once with consistent
/// superstep boundaries: per thread, step_ptr has num_steps + 1 monotone
/// entries from 0 to the thread's vertex count; across threads, every row
/// appears exactly once.
CheckResult validateFoldedLists(const exec::detail::FoldedLists& lists,
                                sts::index_t num_steps,
                                sts::index_t num_rows);

/// Core-set grant audit: every live grant's ids are distinct members of
/// `universe`, and the grants are pairwise disjoint — the "never overlap"
/// invariant placement relies on (engine/core_budget.hpp).
CheckResult auditCoreGrants(std::span<const int> universe,
                            std::span<const std::vector<int>> live_grants);

}  // namespace sts::check
