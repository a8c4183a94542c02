#include "check/check.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace sts::check {

namespace {

std::string at(const char* what, long long value) {
  return std::string(what) + " " + std::to_string(value);
}

}  // namespace

void enforce(const CheckResult& result, const char* who) {
  if (!result.ok) {
    throw std::logic_error(std::string(who) + ": " + result.message);
  }
}

CheckResult validateSchedule(const dag::Dag& dag,
                             const core::Schedule& schedule) {
  const sts::index_t n = dag.numVertices();
  if (schedule.numVertices() != n) {
    return CheckResult::failure("schedule covers " +
                                std::to_string(schedule.numVertices()) +
                                " vertices, DAG has " + std::to_string(n));
  }
  const int cores = schedule.numCores();
  const sts::index_t steps = schedule.numSupersteps();
  if (n > 0 && (cores < 1 || steps < 1)) {
    return CheckResult::failure("non-empty schedule with " +
                                std::to_string(cores) + " cores, " +
                                std::to_string(steps) + " supersteps");
  }
  for (sts::index_t v = 0; v < n; ++v) {
    if (schedule.coreOf(v) < 0 || schedule.coreOf(v) >= cores) {
      return CheckResult::failure("core assignment out of range at " +
                                  at("vertex", v));
    }
    if (schedule.superstepOf(v) < 0 || schedule.superstepOf(v) >= steps) {
      return CheckResult::failure("superstep assignment out of range at " +
                                  at("vertex", v));
    }
  }

  // Execution-order coverage: a permutation of the vertex set, with every
  // group holding exactly the vertices assigned to it. pos[] doubles as
  // the in-order position for the same-superstep edge check below.
  const auto order = schedule.executionOrder();
  if (order.size() != static_cast<std::size_t>(n)) {
    return CheckResult::failure(
        "execution order lists " + std::to_string(order.size()) +
        " vertices, schedule has " + std::to_string(n));
  }
  std::vector<sts::offset_t> pos(static_cast<std::size_t>(n), -1);
  for (std::size_t k = 0; k < order.size(); ++k) {
    const sts::index_t v = order[k];
    if (v < 0 || v >= n) {
      return CheckResult::failure("execution order names " + at("vertex", v));
    }
    if (pos[static_cast<std::size_t>(v)] != -1) {
      return CheckResult::failure("execution order repeats " + at("vertex", v));
    }
    pos[static_cast<std::size_t>(v)] = static_cast<sts::offset_t>(k);
  }
  for (sts::index_t s = 0; s < steps; ++s) {
    for (int p = 0; p < cores; ++p) {
      for (const sts::index_t v : schedule.group(s, p)) {
        if (schedule.coreOf(v) != p || schedule.superstepOf(v) != s) {
          return CheckResult::failure(
              at("vertex", v) + " listed in group (" + std::to_string(s) +
              ", " + std::to_string(p) + ") but assigned (" +
              std::to_string(schedule.superstepOf(v)) + ", " +
              std::to_string(schedule.coreOf(v)) + ")");
        }
      }
    }
  }

  // Definition 2.1: every edge resolves at a barrier or inside one core's
  // in-order group. Same-superstep cross-core edges are invalid however
  // the groups are ordered; same-group edges must respect the order.
  for (sts::index_t u = 0; u < n; ++u) {
    for (const sts::index_t v : dag.children(u)) {
      const sts::index_t su = schedule.superstepOf(u);
      const sts::index_t sv = schedule.superstepOf(v);
      if (su > sv) {
        return CheckResult::failure(
            "edge (" + std::to_string(u) + ", " + std::to_string(v) +
            ") runs against the superstep order (" + std::to_string(su) +
            " > " + std::to_string(sv) + ")");
      }
      if (su == sv) {
        if (schedule.coreOf(u) != schedule.coreOf(v)) {
          return CheckResult::failure(
              "same-superstep edge (" + std::to_string(u) + ", " +
              std::to_string(v) + ") crosses cores " +
              std::to_string(schedule.coreOf(u)) + " -> " +
              std::to_string(schedule.coreOf(v)));
        }
        if (pos[static_cast<std::size_t>(u)] >=
            pos[static_cast<std::size_t>(v)]) {
          return CheckResult::failure(
              "intra-group edge (" + std::to_string(u) + ", " +
              std::to_string(v) + ") violates the execution order");
        }
      }
    }
  }
  return {};
}

CheckResult validateRankMap(int width, int target,
                            std::span<const int> rank_map) {
  if (width < 1 || target < 1 || target > width) {
    return CheckResult::failure("fold " + std::to_string(width) + " -> " +
                                std::to_string(target) + " is not a fold");
  }
  if (rank_map.size() != static_cast<std::size_t>(width)) {
    return CheckResult::failure("rank map has " +
                                std::to_string(rank_map.size()) +
                                " entries for width " + std::to_string(width));
  }
  std::vector<bool> hit(static_cast<std::size_t>(target), false);
  for (int p = 0; p < width; ++p) {
    const int q = rank_map[static_cast<std::size_t>(p)];
    if (q < 0 || q >= target) {
      return CheckResult::failure("rank map sends " + at("rank", p) +
                                  " outside [0, " + std::to_string(target) +
                                  ")");
    }
    hit[static_cast<std::size_t>(q)] = true;
  }
  for (int q = 0; q < target; ++q) {
    if (!hit[static_cast<std::size_t>(q)]) {
      return CheckResult::failure("rank map never reaches " + at("slot", q) +
                                  " (an idle folded rank)");
    }
  }
  return {};
}

CheckResult validateFoldedLists(const exec::detail::FoldedLists& lists,
                                sts::index_t num_steps,
                                sts::index_t num_rows) {
  if (lists.verts.size() != lists.step_ptr.size() || lists.verts.empty()) {
    return CheckResult::failure(
        "lists have " + std::to_string(lists.verts.size()) +
        " vertex threads, " + std::to_string(lists.step_ptr.size()) +
        " boundary threads");
  }
  std::vector<bool> seen(static_cast<std::size_t>(num_rows), false);
  sts::index_t covered = 0;
  for (std::size_t t = 0; t < lists.verts.size(); ++t) {
    const auto& ptr = lists.step_ptr[t];
    if (ptr.size() != static_cast<std::size_t>(num_steps) + 1 ||
        ptr.front() != 0 ||
        ptr.back() != static_cast<sts::offset_t>(lists.verts[t].size())) {
      return CheckResult::failure("thread " + std::to_string(t) +
                                  " has inconsistent superstep boundaries");
    }
    if (!std::is_sorted(ptr.begin(), ptr.end())) {
      return CheckResult::failure("thread " + std::to_string(t) +
                                  " has decreasing superstep boundaries");
    }
    for (const sts::index_t v : lists.verts[t]) {
      if (v < 0 || v >= num_rows) {
        return CheckResult::failure("thread " + std::to_string(t) +
                                    " lists " + at("row", v));
      }
      if (seen[static_cast<std::size_t>(v)]) {
        return CheckResult::failure(at("row", v) +
                                    " appears twice across the work lists");
      }
      seen[static_cast<std::size_t>(v)] = true;
      ++covered;
    }
  }
  if (covered != num_rows) {
    return CheckResult::failure("work lists cover " + std::to_string(covered) +
                                " of " + std::to_string(num_rows) + " rows");
  }
  return {};
}

CheckResult auditCoreGrants(std::span<const int> universe,
                            std::span<const std::vector<int>> live_grants) {
  std::unordered_set<int> pool(universe.begin(), universe.end());
  std::unordered_set<int> leased;
  for (std::size_t g = 0; g < live_grants.size(); ++g) {
    for (const int id : live_grants[g]) {
      if (pool.find(id) == pool.end()) {
        return CheckResult::failure("grant " + std::to_string(g) +
                                    " leases " + at("core", id) +
                                    " outside the budget's universe");
      }
      if (!leased.insert(id).second) {
        return CheckResult::failure("grant " + std::to_string(g) +
                                    " overlaps another live grant on " +
                                    at("core", id));
      }
    }
  }
  return {};
}

}  // namespace sts::check
