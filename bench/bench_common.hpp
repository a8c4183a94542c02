#pragma once

#include <omp.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "exec/tile.hpp"
#include "harness/datasets.hpp"
#include "obs/trace.hpp"

/// \file bench_common.hpp
/// Shared banner/format helpers for the per-table bench binaries.

namespace sts::bench {

/// Positive-integer environment knob: `name`'s value when it parses to a
/// positive int, `fallback` otherwise (the shared convention of every
/// STS_*_WIDTH/REPS/... bench knob).
inline int envInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const int parsed = std::atoi(value);
  return parsed > 0 ? parsed : fallback;
}

/// Host metadata fields for the machine-readable bench outputs (no braces,
/// ready to splice into a JSON object): core count, OpenMP width, and the
/// detected cache geometry (exec::cacheGeometry — sysfs with conservative
/// fallbacks, `cache_detected` telling the two apart). The geometry is what
/// sized the tile path on this host and what tools/roofline.py uses to
/// explain cache-resident >100% roofline fractions.
inline std::string hostMetaJson() {
  const exec::CacheGeometry& geo = exec::cacheGeometry();
  return "\"hardware_cores\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"omp_max_threads\":" + std::to_string(omp_get_max_threads()) +
         ",\"cache_detected\":" + (geo.detected ? "true" : "false") +
         ",\"l1d_bytes\":" + std::to_string(geo.l1d_bytes) +
         ",\"l2_bytes\":" + std::to_string(geo.l2_bytes) +
         ",\"l3_bytes\":" + std::to_string(geo.l3_bytes) +
         ",\"cache_line_bytes\":" + std::to_string(geo.line_bytes) +
         ",\"l1d_shared_cpus\":" + std::to_string(geo.l1d_shared_cpus) +
         ",\"l2_shared_cpus\":" + std::to_string(geo.l2_shared_cpus) +
         ",\"l3_shared_cpus\":" + std::to_string(geo.l3_shared_cpus);
}

inline void banner(const std::string& experiment, const std::string& paper_ref,
                   const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s  (reproduces %s)\n", experiment.c_str(), paper_ref.c_str());
  std::printf("%s\n", what.c_str());
  std::printf("host substitution: single container, %u hardware threads; "
              "scale=%.2f reps=%d (STS_BENCH_SCALE / STS_BENCH_REPS)\n",
              std::thread::hardware_concurrency(), harness::benchScale(),
              harness::benchReps());
  std::printf("==============================================================\n\n");
}

/// Starts a solve-path trace session when `STS_TRACE_OUT` names an output
/// file, and returns it (nullptr otherwise — the zero-cost default). Every
/// bench/example main() calls this once before the measured work; pair it
/// with finishTrace() after the last solve. Under -DSTS_TRACING=OFF the
/// session still starts but records nothing (the instrumentation points
/// compiled away), so the written JSON is an empty-but-valid trace.
inline std::shared_ptr<obs::TraceSession> maybeTraceFromEnv() {
  const char* path = std::getenv("STS_TRACE_OUT");
  if (path == nullptr || path[0] == '\0') return nullptr;
  auto session = obs::TraceSession::start();
  session->nameCurrentThread("main");
  return session;
}

/// Stops `session` (no-op on nullptr) and writes the Perfetto/chrome
/// trace_event JSON to the STS_TRACE_OUT path, reporting span and drop
/// counts so truncated rings are visible at the console.
inline void finishTrace(const std::shared_ptr<obs::TraceSession>& session) {
  if (session == nullptr) return;
  session->stop();
  const char* path = std::getenv("STS_TRACE_OUT");
  if (path == nullptr || path[0] == '\0') return;
  if (!session->writeJson(path)) {
    std::fprintf(stderr, "trace: failed to write %s\n", path);
    return;
  }
  std::printf("trace: wrote %s (%llu events, %zu threads, %llu dropped)\n",
              path, static_cast<unsigned long long>(session->totalEvents()),
              session->numThreads(),
              static_cast<unsigned long long>(session->droppedEvents()));
}

inline void datasetSummary(const std::string& name,
                           const harness::Dataset& set) {
  std::printf("[%s] %zu matrices:\n", name.c_str(), set.size());
  for (const auto& entry : set) {
    std::printf("  %-16s %9d rows %10lld nnz  avg-wavefront %8.1f\n",
                entry.name.c_str(), entry.lower.rows(),
                static_cast<long long>(entry.lower.nnz()),
                harness::averageWavefrontSize(entry.lower));
  }
  std::printf("\n");
}

}  // namespace sts::bench
