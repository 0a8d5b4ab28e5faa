#include "engine/optimizer.h"

#include <algorithm>
#include <atomic>
#include <functional>

#include "common/string_util.h"
#include "engine/sql_parser.h"

namespace mip::engine {

namespace {

// --- Rule 1: merge-aggregate decomposition ---------------------------------

/// True when every aggregate decomposes into partial aggregates plus a
/// combiner. COUNT(DISTINCT x) does not: distinct counts cannot be summed
/// across parts, so the query bypasses the rule and aggregates the
/// materialized union directly (this is also what makes the old side-path's
/// null-expression hole for kCountDistinct structurally unreachable here).
bool SpecsDecompose(const std::vector<AggregateSpec>& specs) {
  for (const AggregateSpec& spec : specs) {
    if (spec.func == AggFunc::kCountDistinct) return false;
  }
  return true;
}

/// Rewrites Aggregate -> [Filter] -> MergeUnion into
///
///   Project(final __key*/__agg* expressions)
///     Aggregate(combine partials)
///       MergeUnion(per-part partial aggregates)
///
/// where remote parts ship their partial as SQL text (run_sql) and every
/// other part gets a locally planned + optimized partial subplan — which
/// recurses through nested merge tables exactly like the interpreter's
/// recursive ExecuteSql did.
Result<PlanPtr> RewriteMergeAggregate(const PlanNode& agg,
                                      const PlanNode* where_filter,
                                      const PlanNode& merge,
                                      const PlanCatalog& catalog,
                                      const OptimizerOptions& options) {
  // --- Per-part partial SQL ------------------------------------------------
  std::string select = "SELECT ";
  bool first = true;
  auto add = [&select, &first](const std::string& item) {
    if (!first) select += ", ";
    first = false;
    select += item;
  };
  for (size_t i = 0; i < agg.keys.size(); ++i) {
    add(LowerExprToSql(*agg.keys[i]) + " AS " + agg.key_names[i]);
  }
  for (size_t j = 0; j < agg.aggs.size(); ++j) {
    const AggregateSpec& spec = agg.aggs[j];
    const std::string p = "__p" + std::to_string(j);
    const std::string arg =
        spec.arg != nullptr ? LowerExprToSql(*spec.arg) : "";
    switch (spec.func) {
      case AggFunc::kCountStar:
        add("count(*) AS " + p + "_a");
        break;
      case AggFunc::kCount:
        add("count(" + arg + ") AS " + p + "_a");
        break;
      case AggFunc::kSum:
        add("sum(" + arg + ") AS " + p + "_a");
        break;
      case AggFunc::kMin:
        add("min(" + arg + ") AS " + p + "_a");
        break;
      case AggFunc::kMax:
        add("max(" + arg + ") AS " + p + "_a");
        break;
      case AggFunc::kAvg:
        add("sum(" + arg + ") AS " + p + "_a");
        add("count(" + arg + ") AS " + p + "_b");
        break;
      case AggFunc::kVarSamp:
      case AggFunc::kStddevSamp:
        add("sum(" + arg + ") AS " + p + "_a");
        add("count(" + arg + ") AS " + p + "_b");
        add("sum((" + arg + ") * (" + arg + ")) AS " + p + "_c");
        break;
      case AggFunc::kCountDistinct:
        return Status::Internal("COUNT(DISTINCT) must bypass the rule");
    }
  }
  std::string tail;
  if (where_filter != nullptr) {
    tail += " WHERE " + LowerExprToSql(*where_filter->predicate);
  }
  if (!agg.keys.empty()) {
    tail += " GROUP BY ";
    for (size_t i = 0; i < agg.keys.size(); ++i) {
      if (i > 0) tail += ", ";
      tail += LowerExprToSql(*agg.keys[i]);
    }
  }

  auto new_merge = MakePlanNode(PlanKind::kMergeUnion);
  new_merge->table_name = merge.table_name;
  for (const PlanPtr& part : merge.children) {
    if (part->kind == PlanKind::kRemoteScan) {
      // True pushdown: the partial aggregate runs on the remote node.
      auto scan = MakePlanNode(PlanKind::kRemoteScan);
      scan->table_name = part->table_name;
      scan->location = part->location;
      scan->remote_name = part->remote_name;
      scan->sql_override = select + " FROM " + part->remote_name + tail;
      new_merge->children.push_back(std::move(scan));
    } else {
      // Local partial: plan and optimize the partial query against this
      // catalog.
      const std::string sql = select + " FROM " + part->table_name + tail;
      MIP_ASSIGN_OR_RETURN(SqlStatement stmt, ParseSql(sql));
      auto* partial_select = std::get_if<SelectStmt>(&stmt);
      if (partial_select == nullptr) {
        return Status::Internal("partial aggregate SQL is not a SELECT");
      }
      MIP_ASSIGN_OR_RETURN(PlanPtr sub, PlanSelect(*partial_select, catalog));
      MIP_ASSIGN_OR_RETURN(sub, OptimizePlan(std::move(sub), catalog,
                                             options));
      new_merge->children.push_back(std::move(sub));
    }
  }

  // --- Combine stage -------------------------------------------------------
  auto combine = MakePlanNode(PlanKind::kAggregate);
  for (const std::string& name : agg.key_names) {
    combine->keys.push_back(Col(name));
  }
  combine->key_names = agg.key_names;
  for (size_t j = 0; j < agg.aggs.size(); ++j) {
    const std::string p = "__p" + std::to_string(j);
    auto add_spec = [&combine](AggFunc func, const std::string& in,
                               const std::string& out) {
      AggregateSpec spec;
      spec.func = func;
      spec.arg = Col(in);
      spec.output_name = out;
      combine->aggs.push_back(std::move(spec));
    };
    switch (agg.aggs[j].func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
      case AggFunc::kSum:
        add_spec(AggFunc::kSum, p + "_a", p + "_ca");
        break;
      case AggFunc::kMin:
        add_spec(AggFunc::kMin, p + "_a", p + "_ca");
        break;
      case AggFunc::kMax:
        add_spec(AggFunc::kMax, p + "_a", p + "_ca");
        break;
      case AggFunc::kAvg:
        add_spec(AggFunc::kSum, p + "_a", p + "_ca");
        add_spec(AggFunc::kSum, p + "_b", p + "_cb");
        break;
      case AggFunc::kVarSamp:
      case AggFunc::kStddevSamp:
        add_spec(AggFunc::kSum, p + "_a", p + "_ca");
        add_spec(AggFunc::kSum, p + "_b", p + "_cb");
        add_spec(AggFunc::kSum, p + "_c", p + "_cc");
        break;
      case AggFunc::kCountDistinct:
        return Status::Internal("COUNT(DISTINCT) must bypass the rule");
    }
  }
  combine->children = {std::move(new_merge)};

  // --- Final __key*/__agg* projection --------------------------------------
  auto proj = MakePlanNode(PlanKind::kProject);
  for (const std::string& name : agg.key_names) {
    proj->exprs.push_back(Col(name));
    proj->names.push_back(name);
  }
  for (size_t j = 0; j < agg.aggs.size(); ++j) {
    const std::string p = "__p" + std::to_string(j);
    ExprPtr value;
    switch (agg.aggs[j].func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        // Sums of partial counts come back as doubles; cast to bigint so
        // the pushdown result matches the direct path's types.
        value = Call("cast_bigint", {Col(p + "_ca")});
        break;
      case AggFunc::kSum:
      case AggFunc::kMin:
      case AggFunc::kMax:
        value = Col(p + "_ca");
        break;
      case AggFunc::kAvg:
        value = Div(Col(p + "_ca"), Col(p + "_cb"));
        break;
      case AggFunc::kVarSamp:
      case AggFunc::kStddevSamp: {
        // (sum_sq - sum^2 / n) / (n - 1)
        ExprPtr n = Col(p + "_cb");
        ExprPtr var = Div(Sub(Col(p + "_cc"),
                              Div(Mul(Col(p + "_ca"), Col(p + "_ca")), n)),
                          Sub(n, LitDouble(1.0)));
        value = agg.aggs[j].func == AggFunc::kStddevSamp ? Call("sqrt", {var})
                                                         : var;
        break;
      }
      case AggFunc::kCountDistinct:
        // The decomposability gate above makes this unreachable; returning
        // instead of falling through guarantees no null expression is ever
        // projected (the latent bug in the old side path).
        return Status::Internal("COUNT(DISTINCT) must bypass the rule");
    }
    proj->exprs.push_back(std::move(value));
    proj->names.push_back("__agg" + std::to_string(j));
  }
  proj->children = {std::move(combine)};
  return proj;
}

Result<PlanPtr> ApplyMergeAggregateRule(PlanPtr node,
                                        const PlanCatalog& catalog,
                                        const OptimizerOptions& options) {
  for (PlanPtr& child : node->children) {
    MIP_ASSIGN_OR_RETURN(child, ApplyMergeAggregateRule(std::move(child),
                                                        catalog, options));
  }
  if (node->kind != PlanKind::kAggregate) return node;
  const PlanNode* where_filter = nullptr;
  const PlanNode* below = node->children[0].get();
  if (below->kind == PlanKind::kFilter) {
    where_filter = below;
    below = below->children[0].get();
  }
  if (below->kind != PlanKind::kMergeUnion) return node;
  if (!SpecsDecompose(node->aggs)) return node;
  return RewriteMergeAggregate(*node, where_filter, *below, catalog, options);
}

// --- Rule 2: predicate pushdown --------------------------------------------

void CollectColumnRefs(const Expr& e, std::vector<std::string>* out) {
  if (e.kind == ExprKind::kColumnRef) {
    for (const std::string& name : *out) {
      if (EqualsIgnoreCase(name, e.column_name)) return;
    }
    out->push_back(e.column_name);
    return;
  }
  for (const auto& a : e.args) CollectColumnRefs(*a, out);
}

/// A predicate may move into a RemoteScan only when the remote node is
/// guaranteed to evaluate it identically AND any bind error the local path
/// would have raised still surfaces (hence the schema check: unknown-column
/// predicates stay local).
bool EligibleRemoteFilter(const Expr& predicate, const PlanNode& scan,
                          const PlanCatalog& catalog) {
  if (!scan.sql_override.empty() || scan.remote_filter != nullptr) {
    return false;
  }
  if (!IsRemotelyEvaluable(predicate)) return false;
  Result<Schema> schema = catalog.TableSchema(scan.table_name);
  if (!schema.ok()) return false;
  std::vector<std::string> refs;
  CollectColumnRefs(predicate, &refs);
  for (const std::string& name : refs) {
    if (schema->FieldIndex(name) < 0) return false;
  }
  return true;
}

/// Splits `e` on AND into its conjuncts (no clones; callers clone what they
/// keep).
void FlattenConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
    FlattenConjuncts(e->args[0], out);
    FlattenConjuncts(e->args[1], out);
    return;
  }
  out->push_back(e);
}

bool AllRefsResolve(const Expr& e, const Schema& schema) {
  std::vector<std::string> refs;
  CollectColumnRefs(e, &refs);
  for (const std::string& name : refs) {
    if (schema.FieldIndex(name) < 0) return false;
  }
  return true;
}

bool AnyRefResolves(const Expr& e, const Schema& schema) {
  std::vector<std::string> refs;
  CollectColumnRefs(e, &refs);
  for (const std::string& name : refs) {
    if (schema.FieldIndex(name) >= 0) return true;
  }
  return false;
}

/// Clone of `e` with every column ref named `from` renamed to `to`.
ExprPtr RenameColumnRefs(const Expr& e, const std::string& from,
                         const std::string& to) {
  ExprPtr out = CloneExpr(e);
  std::function<void(Expr*)> walk = [&](Expr* n) {
    if (n->kind == ExprKind::kColumnRef &&
        EqualsIgnoreCase(n->column_name, from)) {
      n->column_name = to;
    }
    for (const ExprPtr& a : n->args) walk(a.get());
  };
  walk(out.get());
  return out;
}

/// Sinks eligible conjuncts of a Filter sitting above a Join into the join's
/// inputs (the Filter itself stays above — every push below must be sound on
/// its own, and keeping the original preserves the full predicate including
/// anything that could not move).
///
///   - A conjunct whose refs all resolve in the left input filters the left
///     side for INNER and LEFT joins alike (rows it drops would have been
///     dropped — or never null-extended differently — above).
///   - INNER only: a conjunct whose refs all resolve in the right input and
///     none in the left (the "_r" collision rename means a ref resolving in
///     the left names the LEFT column after the join) filters the right side.
///   - INNER only, and only when each join key resolves on exactly one side:
///     a conjunct constraining just one join key is mirrored to the other
///     key and distributed like any other conjunct — `a.k = b.k AND a.k = 5`
///     implies `b.k = 5` on every surviving row, so both remote scans get
///     the derived filter instead of shipping one side unfiltered.
///
/// New per-side Filters are returned un-recursed; the caller's recursion
/// sinks them further (into remote_filter, MergeUnion parts, prune hints).
void PushJoinPredicates(const PlanNode& filter, PlanNode* join,
                        const PlanCatalog& catalog) {
  Result<Schema> left_schema = InferPlanSchema(*join->children[0], catalog);
  Result<Schema> right_schema = InferPlanSchema(*join->children[1], catalog);
  if (!left_schema.ok() || !right_schema.ok()) return;
  const bool inner = join->join_type == JoinType::kInner;

  std::vector<ExprPtr> conjuncts;
  FlattenConjuncts(filter.predicate, &conjuncts);

  // Derived key filters need unambiguous key sides: each key name resolving
  // on exactly one input (a key living on both sides would make the
  // executor's ON-side resolution — and therefore the implication — murky).
  std::string left_side_key, right_side_key;
  if (inner) {
    const bool lk_l = left_schema->FieldIndex(join->left_key) >= 0;
    const bool lk_r = right_schema->FieldIndex(join->left_key) >= 0;
    const bool rk_l = left_schema->FieldIndex(join->right_key) >= 0;
    const bool rk_r = right_schema->FieldIndex(join->right_key) >= 0;
    if (lk_l && !lk_r && rk_r && !rk_l) {
      left_side_key = join->left_key;
      right_side_key = join->right_key;
    } else if (lk_r && !lk_l && rk_l && !rk_r) {
      left_side_key = join->right_key;
      right_side_key = join->left_key;
    }
  }
  const size_t original_count = conjuncts.size();
  if (!left_side_key.empty()) {
    for (size_t i = 0; i < original_count; ++i) {
      std::vector<std::string> refs;
      CollectColumnRefs(*conjuncts[i], &refs);
      if (refs.size() != 1) continue;
      if (EqualsIgnoreCase(refs[0], left_side_key)) {
        conjuncts.push_back(
            RenameColumnRefs(*conjuncts[i], left_side_key, right_side_key));
      } else if (EqualsIgnoreCase(refs[0], right_side_key)) {
        conjuncts.push_back(
            RenameColumnRefs(*conjuncts[i], right_side_key, left_side_key));
      }
    }
  }

  std::vector<ExprPtr> to_left;
  std::vector<ExprPtr> to_right;
  for (const ExprPtr& c : conjuncts) {
    if (AllRefsResolve(*c, *left_schema)) {
      to_left.push_back(CloneExpr(*c));
    } else if (inner && AllRefsResolve(*c, *right_schema) &&
               !AnyRefResolves(*c, *left_schema)) {
      to_right.push_back(CloneExpr(*c));
    }
  }
  auto wrap = [&](size_t side, std::vector<ExprPtr>& preds) {
    if (preds.empty()) return;
    ExprPtr combined = preds[0];
    for (size_t i = 1; i < preds.size(); ++i) {
      combined = And(std::move(combined), std::move(preds[i]));
    }
    auto f = MakePlanNode(PlanKind::kFilter);
    f->predicate = std::move(combined);
    f->children = {join->children[side]};
    join->children[side] = std::move(f);
  };
  wrap(0, to_left);
  wrap(1, to_right);
}

PlanPtr PushPredicates(PlanPtr node, const PlanCatalog& catalog) {
  if (node->kind == PlanKind::kFilter) {
    PlanPtr child = node->children[0];
    if (child->kind == PlanKind::kMergeUnion) {
      // concat-then-filter == filter-per-part-then-concat, row for row.
      for (PlanPtr& part : child->children) {
        auto filter = MakePlanNode(PlanKind::kFilter);
        filter->predicate = CloneExpr(*node->predicate);
        filter->children = {std::move(part)};
        part = PushPredicates(std::move(filter), catalog);
      }
      return child;
    }
    if (child->kind == PlanKind::kRemoteScan &&
        EligibleRemoteFilter(*node->predicate, *child, catalog)) {
      child->remote_filter = node->predicate;
      return child;
    }
    if (child->kind == PlanKind::kJoin) {
      // Sink eligible conjuncts (including join-key-derived ones) into the
      // join inputs; the Filter stays above, and the recursion below pushes
      // the new per-side Filters the rest of the way down.
      PushJoinPredicates(*node, child.get(), catalog);
      // Fall through: the Filter node is returned below.
    }
    if (child->kind == PlanKind::kScan && child->disk &&
        child->prune_filter == nullptr) {
      // Copy (don't move) the predicate down as a zone-map pruning hint.
      // The Filter node stays: pruning only ever skips segments whose zone
      // maps prove no row can pass, so keeping the filter makes the hint
      // advisory — a storage layer that ignores it is still correct.
      child->prune_filter = CloneExpr(*node->predicate);
      // Fall through: the Filter node is returned below, child unchanged
      // in place.
    }
  }
  for (PlanPtr& child : node->children) {
    child = PushPredicates(std::move(child), catalog);
  }
  return node;
}

// --- Rule 3: projection pruning --------------------------------------------

/// Whether a scan subtree can honor a pruned column list. MergeUnion parts
/// must all agree (prune everywhere or nowhere) or Concat would see
/// mismatched schemas.
bool CanPruneScan(const PlanNode& node,
                  const std::vector<std::string>& required,
                  const PlanCatalog& catalog) {
  if (required.empty()) return false;
  switch (node.kind) {
    case PlanKind::kScan: {
      if (node.prebound != nullptr) return false;
      Result<Schema> schema = catalog.TableSchema(node.table_name);
      if (!schema.ok()) return false;
      for (const std::string& name : required) {
        // An unknown column must keep the full scan so the bind error (and
        // its message) surfaces exactly as in the unoptimized plan.
        if (schema->FieldIndex(name) < 0) return false;
      }
      return required.size() < schema->num_fields();
    }
    case PlanKind::kRemoteScan: {
      if (!node.sql_override.empty()) return false;
      for (const std::string& name : required) {
        if (!IsSqlIdentifier(name)) return false;
      }
      Result<Schema> schema = catalog.TableSchema(node.table_name);
      if (!schema.ok()) return false;
      for (const std::string& name : required) {
        if (schema->FieldIndex(name) < 0) return false;
      }
      return required.size() < schema->num_fields();
    }
    case PlanKind::kMergeUnion: {
      for (const PlanPtr& child : node.children) {
        if (!CanPruneScan(*child, required, catalog)) return false;
      }
      return !node.children.empty();
    }
    default:
      return false;
  }
}

/// The columns a scan (or merge) subtree must produce for a parent that
/// needs `required`. A parent that needs rows but no values (`COUNT(*)`,
/// `SELECT 1`) passes an empty list; the scan then keeps one column, the
/// table's first field, to carry the row count instead of reading them all.
std::vector<std::string> ScanColumns(const PlanNode& node,
                                     const std::vector<std::string>& required,
                                     const PlanCatalog& catalog) {
  if (!required.empty()) return required;
  Result<Schema> schema = catalog.TableSchema(node.table_name);
  if (!schema.ok() || schema->num_fields() == 0) return {};
  return {schema->field(0).name};
}

void AddRequired(std::vector<std::string>* required, const std::string& name) {
  for (const std::string& existing : *required) {
    if (EqualsIgnoreCase(existing, name)) return;
  }
  required->push_back(name);
}

/// `required` lists the only columns the parent needs, in first-mention
/// order; nullptr means "all columns".
void PruneColumns(PlanNode* node, const std::vector<std::string>* required,
                  const PlanCatalog& catalog) {
  switch (node->kind) {
    case PlanKind::kScan:
    case PlanKind::kIndexScan:
    case PlanKind::kRemoteScan:
      if (required != nullptr) {
        std::vector<std::string> columns =
            ScanColumns(*node, *required, catalog);
        if (CanPruneScan(*node, columns, catalog)) {
          node->columns = std::move(columns);
        }
      }
      return;
    case PlanKind::kMergeUnion: {
      std::vector<std::string> columns;
      const std::vector<std::string>* pass = nullptr;
      if (required != nullptr) {
        columns = ScanColumns(*node, *required, catalog);
        if (CanPruneScan(*node, columns, catalog)) pass = &columns;
      }
      for (PlanPtr& child : node->children) {
        PruneColumns(child.get(), pass, catalog);
      }
      return;
    }
    case PlanKind::kJoin:
      // The "_r" collision renaming makes column provenance ambiguous; no
      // pruning through joins.
      for (PlanPtr& child : node->children) {
        PruneColumns(child.get(), nullptr, catalog);
      }
      return;
    case PlanKind::kFilter: {
      if (required == nullptr) {
        PruneColumns(node->children[0].get(), nullptr, catalog);
        return;
      }
      std::vector<std::string> merged = *required;
      CollectColumnRefs(*node->predicate, &merged);
      PruneColumns(node->children[0].get(), &merged, catalog);
      return;
    }
    case PlanKind::kSort: {
      if (required == nullptr) {
        PruneColumns(node->children[0].get(), nullptr, catalog);
        return;
      }
      std::vector<std::string> merged = *required;
      for (const std::string& key : node->sort_keys) {
        AddRequired(&merged, key);
      }
      PruneColumns(node->children[0].get(), &merged, catalog);
      return;
    }
    case PlanKind::kProject: {
      std::vector<std::string> refs;
      bool star = false;
      if (!node->exprs.empty()) {
        for (const ExprPtr& e : node->exprs) CollectColumnRefs(*e, &refs);
      } else {
        for (const SelectItem& item : node->items) {
          if (item.star) {
            star = true;
          } else {
            CollectColumnRefs(*item.expr, &refs);
          }
        }
      }
      PruneColumns(node->children[0].get(), star ? nullptr : &refs, catalog);
      return;
    }
    case PlanKind::kAggregate: {
      std::vector<std::string> refs;
      for (const ExprPtr& key : node->keys) CollectColumnRefs(*key, &refs);
      for (const AggregateSpec& spec : node->aggs) {
        if (spec.arg != nullptr) CollectColumnRefs(*spec.arg, &refs);
      }
      PruneColumns(node->children[0].get(), &refs, catalog);
      return;
    }
    case PlanKind::kDistinct:
    case PlanKind::kLimit:
      PruneColumns(node->children[0].get(), required, catalog);
      return;
  }
}

// --- Rule 4: limit pushdown ------------------------------------------------

/// Pushes a row budget below 1:1 stages into scans. Stops at anything that
/// filters, reorders, or regroups rows — limiting their *input* would change
/// the result. The originating Limit node is kept (a pushed scan produces at
/// most, not exactly, the budget).
void AnnotateLimit(PlanNode* node, int64_t limit) {
  switch (node->kind) {
    case PlanKind::kRemoteScan:
      if (!node->sql_override.empty()) return;
      [[fallthrough]];
    case PlanKind::kScan:
      node->scan_limit =
          node->scan_limit < 0 ? limit : std::min(node->scan_limit, limit);
      return;
    case PlanKind::kProject:
      AnnotateLimit(node->children[0].get(), limit);
      return;
    case PlanKind::kMergeUnion:
      // Each part needs at most `limit` rows; the outer Limit still trims
      // the concatenation.
      for (PlanPtr& child : node->children) {
        AnnotateLimit(child.get(), limit);
      }
      return;
    case PlanKind::kLimit:
      AnnotateLimit(node->children[0].get(), std::min(limit, node->limit));
      return;
    default:
      return;
  }
}

void PushLimits(PlanNode* node) {
  if (node->kind == PlanKind::kLimit) {
    AnnotateLimit(node->children[0].get(), node->limit);
  }
  for (PlanPtr& child : node->children) {
    PushLimits(child.get());
  }
}

// --- Rule 5: disk access path (segment annotation + Scan vs IndexScan) ----

/// For each disk scan, fills seg_total/seg_pruned from the storage's
/// zone-map preview so EXPLAIN shows the skip decisions the executor will
/// make. Then, with `index_scan` on and a pruning hint present, asks the
/// storage whether probing the ordered secondary indexes would decode
/// strictly fewer segments than zone maps alone; if so, retags the node
/// kIndexScan and records the index path's stats for EXPLAIN (`index:
/// probes=N rows=M`). The preview does real (cheap, footer-guided) probes,
/// so the match-fraction estimate is exact at plan time. Results are
/// unaffected either way — an index probe only skips segments it proves
/// empty, and the Filter above re-applies the predicate; only the decode
/// count changes. Scans without a pruning hint stay scans: with nothing to
/// probe for, the index path degenerates to the zone path.
void ChooseDiskAccessPath(PlanNode* node, const TableStorage& storage,
                          bool index_scan) {
  if (node->kind == PlanKind::kScan && node->disk) {
    const Expr* hint = node->prune_filter.get();
    Result<ScanStats> zone = storage.PrunePreview(node->table_name, hint);
    if (zone.ok()) {
      node->seg_total = zone->total;
      node->seg_pruned = zone->pruned;
    }
    if (index_scan && hint != nullptr) {
      Result<IndexPreview> preview =
          storage.PreviewIndexScan(node->table_name, hint);
      if (preview.ok() && preview->use_index) {
        node->kind = PlanKind::kIndexScan;
        node->idx_probes = preview->stats.index_probes;
        node->idx_rows = preview->stats.index_rows;
        node->seg_total = preview->stats.total;
        node->seg_pruned = preview->stats.pruned;
      }
    }
  }
  for (PlanPtr& child : node->children) {
    ChooseDiskAccessPath(child.get(), storage, index_scan);
  }
}

// --- Rule 6: join-strategy choice (broadcast vs collect) -------------------

/// Textbook selectivity guesses, refined by column statistics when the stats
/// layer can see the column (equality -> 1/NDV, IS NULL -> null fraction).
/// Estimates feed the physical strategy choice only — never results.
double EstimateSelectivity(const Expr& e, const TableStats* stats) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      if (e.literal.is_null()) return 0.0;
      return e.literal.AsBool() ? 1.0 : 0.0;
    case ExprKind::kUnary:
      switch (e.unary_op) {
        case UnaryOp::kNot:
          return 1.0 - EstimateSelectivity(*e.args[0], stats);
        case UnaryOp::kIsNull:
        case UnaryOp::kIsNotNull: {
          double frac = 0.1;
          if (stats != nullptr && stats->row_count > 0 &&
              e.args[0]->kind == ExprKind::kColumnRef) {
            const ColumnStats* c =
                stats->FindColumn(e.args[0]->column_name);
            if (c != nullptr) {
              frac = static_cast<double>(c->null_count) /
                     static_cast<double>(stats->row_count);
            }
          }
          return e.unary_op == UnaryOp::kIsNull ? frac : 1.0 - frac;
        }
        default:
          return 0.25;
      }
    case ExprKind::kBinary:
      switch (e.binary_op) {
        case BinaryOp::kAnd:
          return EstimateSelectivity(*e.args[0], stats) *
                 EstimateSelectivity(*e.args[1], stats);
        case BinaryOp::kOr:
          return std::min(1.0, EstimateSelectivity(*e.args[0], stats) +
                                   EstimateSelectivity(*e.args[1], stats));
        case BinaryOp::kEq: {
          const Expr* col = nullptr;
          if (e.args[0]->kind == ExprKind::kColumnRef) {
            col = e.args[0].get();
          } else if (e.args[1]->kind == ExprKind::kColumnRef) {
            col = e.args[1].get();
          }
          if (col != nullptr && stats != nullptr) {
            const ColumnStats* c = stats->FindColumn(col->column_name);
            if (c != nullptr && c->ndv > 0) {
              return std::min(1.0, 1.0 / static_cast<double>(c->ndv));
            }
          }
          return 0.1;
        }
        case BinaryOp::kNe:
          return 0.9;
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return 1.0 / 3.0;
        default:
          return 0.25;
      }
    default:
      return 0.25;
  }
}

/// Statistics of the base relation feeding a subtree (for NDV / null-count
/// lookups). Follows row-preserving-ish wrappers down to the scans; any
/// other shape is unknown.
Result<TableStats> SubtreeStats(const PlanNode& node,
                                const PlanCatalog& catalog) {
  switch (node.kind) {
    case PlanKind::kScan:
    case PlanKind::kIndexScan:
      if (node.prebound != nullptr) return ComputeTableStats(*node.prebound);
      return catalog.GetTableStats(node.table_name);
    case PlanKind::kRemoteScan:
      if (!node.sql_override.empty()) {
        return Status::NotImplemented("no stats under a SQL override");
      }
      return catalog.GetTableStats(node.table_name);
    case PlanKind::kMergeUnion: {
      std::vector<TableStats> parts;
      for (const PlanPtr& child : node.children) {
        MIP_ASSIGN_OR_RETURN(TableStats s, SubtreeStats(*child, catalog));
        parts.push_back(std::move(s));
      }
      return MergeTableStats(parts);
    }
    case PlanKind::kFilter:
    case PlanKind::kSort:
    case PlanKind::kLimit:
    case PlanKind::kDistinct:
      return SubtreeStats(*node.children[0], catalog);
    default:
      return Status::NotImplemented("no stats for this plan shape");
  }
}

/// Estimated output rows of a subtree, or -1 when the stats layer cannot
/// see enough to say.
double EstimateRows(const PlanNode& node, const PlanCatalog& catalog) {
  switch (node.kind) {
    case PlanKind::kScan:
    case PlanKind::kIndexScan:
    case PlanKind::kRemoteScan: {
      double rows = -1.0;
      if (node.prebound != nullptr) {
        rows = static_cast<double>(node.prebound->num_rows());
      } else if (node.kind == PlanKind::kRemoteScan &&
                 !node.sql_override.empty()) {
        return -1.0;
      } else {
        Result<TableStats> stats = catalog.GetTableStats(node.table_name);
        if (!stats.ok() || stats->row_count < 0) return -1.0;
        rows = static_cast<double>(stats->row_count);
        if (node.remote_filter != nullptr) {
          rows *= EstimateSelectivity(*node.remote_filter, &*stats);
        }
      }
      if (node.scan_limit >= 0) {
        rows = std::min(rows, static_cast<double>(node.scan_limit));
      }
      return rows;
    }
    case PlanKind::kMergeUnion: {
      double total = 0.0;
      for (const PlanPtr& child : node.children) {
        const double rows = EstimateRows(*child, catalog);
        if (rows < 0) return -1.0;
        total += rows;
      }
      return total;
    }
    case PlanKind::kFilter: {
      const double rows = EstimateRows(*node.children[0], catalog);
      if (rows < 0) return -1.0;
      Result<TableStats> stats = SubtreeStats(*node.children[0], catalog);
      return rows * EstimateSelectivity(
                        *node.predicate, stats.ok() ? &*stats : nullptr);
    }
    case PlanKind::kJoin: {
      const double l = EstimateRows(*node.children[0], catalog);
      const double r = EstimateRows(*node.children[1], catalog);
      if (l < 0 || r < 0) return -1.0;
      // Classic equi-join estimate: |L||R| / max(NDV of the key). The key
      // may be named from either input, so probe both stats for both names
      // and keep the largest NDV seen.
      double ndv = -1.0;
      for (int side = 0; side < 2; ++side) {
        Result<TableStats> stats = SubtreeStats(*node.children[side], catalog);
        if (!stats.ok()) continue;
        for (const std::string* key : {&node.left_key, &node.right_key}) {
          const ColumnStats* c = stats->FindColumn(*key);
          if (c != nullptr && c->ndv > 0) {
            ndv = std::max(ndv, static_cast<double>(c->ndv));
          }
        }
      }
      if (ndv >= 1.0) return l * r / ndv;
      return std::max(l, r);
    }
    case PlanKind::kLimit: {
      const double rows = EstimateRows(*node.children[0], catalog);
      const double limit = static_cast<double>(node.limit);
      return rows < 0 ? limit : std::min(rows, limit);
    }
    case PlanKind::kSort:
    case PlanKind::kDistinct:
    case PlanKind::kProject:
      return EstimateRows(*node.children[0], catalog);
    case PlanKind::kAggregate:
      return -1.0;  // group counts are not modeled
  }
  return -1.0;
}

/// Rows a subtree pulls across the wire to the master when it executes
/// there (the collect path). -1 = unknown. Terms common to both strategies
/// (e.g. fetching the build side) appear in both costs, so only the
/// difference ever decides.
double EstimateRemoteRows(const PlanNode& node, const PlanCatalog& catalog) {
  switch (node.kind) {
    case PlanKind::kRemoteScan:
      return EstimateRows(node, catalog);
    case PlanKind::kScan:
    case PlanKind::kIndexScan:
      return 0.0;
    default: {
      double total = 0.0;
      for (const PlanPtr& child : node.children) {
        const double rows = EstimateRemoteRows(*child, catalog);
        if (rows < 0) return -1.0;
        total += rows;
      }
      return total;
    }
  }
}

/// Rough wire bytes per row of a subtree's output. The compressed codec is
/// column-major and adaptive, but 8 bytes per field plus framing tracks
/// *relative* sizes well enough to rank two strategies over the same data.
double RowBytes(const PlanNode& node, const PlanCatalog& catalog) {
  Result<Schema> schema = InferPlanSchema(node, catalog);
  if (!schema.ok()) return -1.0;
  return 8.0 * static_cast<double>(schema->num_fields()) + 8.0;
}

/// Picks broadcast vs collect per Join node by modeled wire cost, and
/// annotates the node with the estimates behind the choice (EXPLAIN shows
/// them outside canonical mode). Strategy is physical only: both paths
/// produce byte-identical results, so a wrong estimate costs time, never
/// correctness. With the cost model off (or nothing pushable) every join
/// collects — exactly the pre-cost-model behavior.
void ChooseJoinStrategy(PlanNode* node, const PlanCatalog& catalog,
                        const OptimizerOptions& options) {
  for (PlanPtr& child : node->children) {
    ChooseJoinStrategy(child.get(), catalog, options);
  }
  if (node->kind != PlanKind::kJoin) return;
  if (options.join_counters != nullptr) {
    options.join_counters->joins_planned.fetch_add(1,
                                                   std::memory_order_relaxed);
  }

  JoinStrategy chosen = JoinStrategy::kCollect;
  if (options.cost_model) {
    const PlanNode& left = *node->children[0];
    const PlanNode& right = *node->children[1];
    const double l = EstimateRows(left, catalog);
    const double r = EstimateRows(right, catalog);
    if (l >= 0 && r >= 0) {
      node->est_left_rows = l;
      node->est_right_rows = r;
      node->est_out_rows = EstimateRows(*node, catalog);
    }

    // Broadcast is on the table only when at least one left part can take
    // the pushed join and its size is known (from the remote site's
    // get_stats, the same site that would serve the run_sql_bound).
    int pushable = 0;
    double pushable_rows = 0.0;
    bool parts_known = true;
    auto add_part = [&](const PlanNode& part) {
      if (!BroadcastPushablePart(part, *node)) return;
      const double rows = EstimateRows(part, catalog);
      if (rows < 0) {
        parts_known = false;
        return;
      }
      ++pushable;
      pushable_rows += rows;
    };
    if (left.kind == PlanKind::kMergeUnion) {
      for (const PlanPtr& part : left.children) add_part(*part);
    } else {
      add_part(left);
    }

    if (pushable > 0 && parts_known && l >= 0 && r >= 0 &&
        node->est_out_rows >= 0) {
      const double left_bytes = RowBytes(left, catalog);
      const double right_bytes = RowBytes(right, catalog);
      const double remote_left = EstimateRemoteRows(left, catalog);
      const double remote_right = EstimateRemoteRows(right, catalog);
      if (left_bytes >= 0 && right_bytes >= 0 && remote_left >= 0 &&
          remote_right >= 0) {
        // Wire traffic under each strategy. Collect: both sides cross to
        // the master. Broadcast: the build side crosses once, then ships to
        // every pushable part, joined rows come back, and any unpushable
        // remote part still collects.
        node->cost_collect =
            remote_left * left_bytes + remote_right * right_bytes;
        node->cost_broadcast =
            remote_right * right_bytes +
            r * right_bytes * static_cast<double>(pushable) +
            node->est_out_rows * (left_bytes + right_bytes) +
            (remote_left - pushable_rows) * left_bytes;
        if (node->cost_broadcast < node->cost_collect) {
          chosen = JoinStrategy::kBroadcast;
        }
      }
    }
  }
  if (options.force_join_strategy >= 0) {
    chosen = static_cast<JoinStrategy>(options.force_join_strategy);
  }
  node->strategy = chosen;
  if (options.join_counters != nullptr) {
    auto& counter = chosen == JoinStrategy::kBroadcast
                        ? options.join_counters->broadcast_chosen
                        : options.join_counters->collect_chosen;
    counter.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

Result<PlanPtr> OptimizePlan(PlanPtr plan, const PlanCatalog& catalog,
                             const OptimizerOptions& options) {
  if (options.merge_aggregate_pushdown) {
    MIP_ASSIGN_OR_RETURN(
        plan, ApplyMergeAggregateRule(std::move(plan), catalog, options));
  }
  plan = PushPredicates(std::move(plan), catalog);
  PruneColumns(plan.get(), nullptr, catalog);
  PushLimits(plan.get());
  if (options.storage != nullptr) {
    ChooseDiskAccessPath(plan.get(), *options.storage, options.index_scan);
  }
  // Last: strategy choice reads columns/scan_limit annotations left by the
  // rewrite passes, so it must see the final tree.
  ChooseJoinStrategy(plan.get(), catalog, options);
  return plan;
}

}  // namespace mip::engine
