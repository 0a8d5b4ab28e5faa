// Experiment E9 — §2 Implementation: "Our software runs the SPDZ protocol,
// which speeds up computation by running a lot of the required SMPC
// computations in an offline phase."
//
// Measures (i) Beaver-triple generation throughput for the scalar reference
// dealer vs the batched kernel dealer — same seed, bit-identical pool — and
// (ii) online secure-product latency with a warm triple pool vs. generating
// triples on demand inside the online phase.
//
// The line "SPDZ_OFFLINE ... speedup=..." is machine-parsed by ci/run_tests.sh
// (the batched dealer must beat the scalar reference by at least the portable
// 2x floor; see EXPERIMENTS.md E9 for the full speedup on this machine).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/stopwatch.h"
#include "smpc/cluster.h"
#include "smpc/spdz.h"

int main() {
  std::printf("=== E9: SPDZ offline/online split ===\n\n");

  // Offline throughput: scalar reference vs batched kernels, same run,
  // same seed. The pools they build are bit-identical (smpc_property_test
  // pins this); only the wall clock differs.
  // Steady-state measurement: each variant keeps ONE dealer alive and
  // refills its (drained) pool every rep — that is the serving system's
  // real regime, where the pool arrays' retained capacity means refills
  // run in warm, already-faulted memory for scalar and batched alike. The
  // first rep pays cold page faults for both; best-of-N reports the warm
  // floor.
  const size_t kCount = 200000;
  const int kReps = 4;
  double scalar_ms = 1e30, batched_ms = 1e30;
  {
    mip::smpc::SpdzDealer dealer(3, 1234);
    for (int rep = 0; rep < kReps; ++rep) {
      mip::Stopwatch sw;
      dealer.PrecomputeTriplesScalar(kCount);
      scalar_ms = std::min(scalar_ms, sw.ElapsedMillis());
      (void)dealer.TakeTriples(kCount);  // drain (untimed), keep capacity
    }
  }
  {
    mip::smpc::SpdzDealer dealer(3, 1234);
    for (int rep = 0; rep < kReps; ++rep) {
      mip::Stopwatch sw;
      dealer.PrecomputeTriples(kCount);
      batched_ms = std::min(batched_ms, sw.ElapsedMillis());
      (void)dealer.TakeTriples(kCount);
    }
  }
  std::printf("offline phase, %zu triples, 3 parties:\n", kCount);
  std::printf("  scalar reference : %9.1f ms  (%.0f triples/s)\n", scalar_ms,
              kCount / scalar_ms * 1e3);
  std::printf("  batched          : %9.1f ms  (%.0f triples/s)\n", batched_ms,
              kCount / batched_ms * 1e3);
  std::printf("SPDZ_OFFLINE scalar_ms=%.2f batched_ms=%.2f speedup=%.2f\n\n",
              scalar_ms, batched_ms, scalar_ms / batched_ms);

  std::printf("%12s | %16s | %16s | %8s\n", "elements",
              "warm pool ms", "on-demand ms", "speedup");
  for (size_t n : {512, 4096, 32768}) {
    const std::vector<double> a(n, 1.5);
    const std::vector<double> b(n, -2.0);

    mip::smpc::SmpcConfig config;
    config.scheme = mip::smpc::SmpcScheme::kFullThreshold;

    // Warm: triples precomputed before the online phase starts.
    mip::smpc::SmpcCluster warm(config);
    warm.PrecomputeTriples(n);
    (void)warm.ImportShares("j", a);
    (void)warm.ImportShares("j", b);
    mip::Stopwatch sw;
    (void)warm.Compute("j", mip::smpc::SmpcOp::kProduct);
    const double warm_ms = sw.ElapsedMillis();

    // Cold: every multiplication generates its triple online.
    mip::smpc::SmpcCluster cold(config);
    (void)cold.ImportShares("j", a);
    (void)cold.ImportShares("j", b);
    sw.Reset();
    (void)cold.Compute("j", mip::smpc::SmpcOp::kProduct);
    const double cold_ms = sw.ElapsedMillis();

    std::printf("%12zu | %16.2f | %16.2f | %7.2fx\n", n, warm_ms, cold_ms,
                cold_ms / warm_ms);
  }
  std::printf(
      "\nShape vs paper: moving triple generation offline removes the "
      "dominant cost\nfrom the online critical path, exactly the SPDZ "
      "design rationale the paper cites;\nbatching the dealer shrinks the "
      "offline phase itself by the speedup above.\n");
  return 0;
}
