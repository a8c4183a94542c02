/// Incomplete-Cholesky preconditioned conjugate gradient (ICCG).
///
/// The triangular-solve bottleneck of ICCG is the original motivation for
/// parallel SpTRSV scheduling (Rothberg–Gupta 1992, cited as [RG92] in the
/// paper). Each CG iteration applies the preconditioner M^{-1} = L^{-T}
/// L^{-1} — two triangular solves with a FIXED sparsity pattern, which is
/// exactly the analyze-once / solve-many regime where scheduling time
/// amortizes (paper §7.7).
///
///   ./iccg_preconditioner

#include <cmath>
#include <cstdio>
#include <vector>

#include "datagen/grids.hpp"
#include "exec/solver.hpp"
#include "sparse/ic0.hpp"

namespace {

using sts::sparse::CsrMatrix;

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
  for (size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

}  // namespace

int main() {
  using namespace sts;

  // SPD system: 3-D Poisson on a 24^3 grid.
  const CsrMatrix a = datagen::grid3dLaplacian7(24, 24, 24);
  const auto n = static_cast<size_t>(a.rows());
  std::printf("ICCG on %s\n", a.summary().c_str());

  // IC(0) factorization: A ~ L L^T.
  const auto ic = sparse::incompleteCholesky(a);
  std::printf("IC(0): shift %.1e after %d retries\n", ic.applied_shift,
              ic.retries);

  // Two scheduled solvers with the SAME schedule family: L (forward) and
  // L^T (backward). The SpMV in the CG loop runs on the same team.
  const int team = 2;
  exec::SolverOptions opts;
  opts.scheduler = exec::SchedulerKind::kGrowLocal;
  opts.num_threads = team;
  auto forward = exec::TriangularSolver::analyze(ic.lower, opts);
  auto backward = exec::TriangularSolver::analyze(ic.lower.transposed(), opts);
  std::printf("analysis: forward %.2f ms (%d supersteps), backward %.2f ms\n",
              forward.analysisSeconds() * 1e3,
              forward.schedule().numSupersteps(),
              backward.analysisSeconds() * 1e3);

  // CG with preconditioner M^{-1} r = L^{-T} (L^{-1} r).
  const std::vector<double> b(n, 1.0);
  std::vector<double> x(n, 0.0);
  std::vector<double> r = b;  // r = b - A*0
  std::vector<double> z(n, 0.0), tmp(n, 0.0), p(n, 0.0), ap(n, 0.0);

  auto apply_preconditioner = [&](const std::vector<double>& rhs,
                                  std::vector<double>& out) {
    forward.solve(rhs, tmp);
    backward.solve(tmp, out);
  };

  apply_preconditioner(r, z);
  p = z;
  double rz = dot(r, z);
  const double r0 = std::sqrt(dot(r, r));
  int iterations = 0;
  int solves = 2;
  for (; iterations < 500; ++iterations) {
    a.multiply(p, ap, team);  // A p into the reused buffer
    const double alpha = rz / dot(p, ap);
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    const double rnorm = std::sqrt(dot(r, r));
    if (rnorm / r0 < 1e-8) break;
    apply_preconditioner(r, z);
    solves += 2;
    const double rz_new = dot(r, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    for (size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }

  const auto ax = a.multiply(x);
  double res = 0.0;
  for (size_t i = 0; i < n; ++i) res = std::max(res, std::abs(ax[i] - b[i]));
  std::printf("converged in %d iterations (%d triangular solves), "
              "residual %.2e\n",
              iterations + 1, solves, res);
  std::printf("each analysis amortizes over the %d solves of this single "
              "linear solve -- and the pattern is reused across time steps "
              "in practice\n", solves);
  return res < 1e-5 ? 0 : 1;
}
