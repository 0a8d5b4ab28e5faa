#ifndef MIP_ENGINE_OPTIMIZER_H_
#define MIP_ENGINE_OPTIMIZER_H_

#include "engine/plan.h"

namespace mip::engine {

/// \brief Ablation switches for the plan optimizer, plus the two handles
/// it plans against. Predicate pushdown, projection pruning and limit
/// pushdown are exact and always run; the switches below cover the rules
/// that are either not bit-exact or worth benchmarking against their
/// ablation. All default on. Database owns one of these
/// (Database::optimizer_options()) and turns the optimizer off wholesale
/// via set_optimizer_enabled(false) (or MIP_OPTIMIZER=0) for the on-vs-off
/// parity tests and CI diff job.
struct OptimizerOptions {
  /// Decomposes Aggregate-over-MergeUnion into per-part partial aggregates
  /// (shipped as SQL to remote parts) plus a combine stage. This is the one
  /// rule that reassociates float sums — results match the direct path up to
  /// rounding, which is why it is its own ablation switch. COUNT(DISTINCT)
  /// does not decompose and bypasses the rule.
  bool merge_aggregate_pushdown = true;

  /// Converts a disk Scan into an IndexScan when the storage's access-path
  /// preview (real, footer-guided index probes) shows the index path would
  /// decode strictly fewer segments than zone maps alone. Exact: an index
  /// probe only skips segments it proves hold zero candidate rows, and the
  /// Filter above the scan re-applies the predicate either way — an
  /// ablation switch purely for benchmarking the two access paths (E18).
  bool index_scan = true;

  /// Chooses a physical strategy per Join node (broadcast vs collect) by
  /// comparing modeled wire costs fed by the statistics layer, and
  /// annotates EXPLAIN with estimated cardinalities and costs. Exact:
  /// strategy is physical only — both strategies produce byte-identical
  /// results — so this is an ablation switch (MIP_COST_MODEL=0) for
  /// benchmarking, never a correctness knob. Off = every join collects,
  /// the only pre-cost-model behavior.
  bool cost_model = true;

  /// Forces every join's strategy regardless of the cost model: -1 = let
  /// the model choose, otherwise a JoinStrategy value. Benchmarks use it to
  /// measure both sides of the crossover on identical data; the executor
  /// falls back per part when a forced broadcast cannot be pushed.
  int force_join_strategy = -1;

  /// Lifetime join counters (may be null): the strategy chooser tallies
  /// joins planned and broadcast/collect decisions here. Database fills it
  /// in per plan.
  JoinCounters* join_counters = nullptr;

  /// The disk store behind TableKind::kDisk scans (may be null) — the same
  /// one PlanExecutorOptions::storage executes them against. Its previews
  /// drive the segment annotation and the Scan-vs-IndexScan choice; null
  /// leaves disk scans unannotated plain Scans. Database fills it in per
  /// plan.
  const TableStorage* storage = nullptr;
};

/// \brief Applies the ordered rule-pass pipeline to `plan`, mutating/
/// replacing nodes, and returns the optimized root. Passes run in a fixed
/// order — each rewrite pass first (it changes tree shape), then the
/// annotation/choice passes over the final shape:
///
///   1. merge-aggregate decomposition   (rewrite)
///   2. predicate pushdown              (rewrite; includes join-derived
///                                       key filters pushed into both sides)
///   3. projection pruning              (rewrite)
///   4. limit pushdown                  (rewrite)
///   5. disk access path                (annotate + costed choice: segment
///                                       counts, Scan vs IndexScan, from
///                                       the storage's previews)
///   6. join-strategy choice            (costed choice: broadcast vs
///                                       collect, from the stats layer)
///
/// Invariant: the optimized plan is byte-identical to the input plan for
/// every query, except under merge_aggregate_pushdown (float reassociation,
/// see above).
Result<PlanPtr> OptimizePlan(PlanPtr plan, const PlanCatalog& catalog,
                             const OptimizerOptions& options);

}  // namespace mip::engine

#endif  // MIP_ENGINE_OPTIMIZER_H_
