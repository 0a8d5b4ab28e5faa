#ifndef MIP_ENGINE_DATABASE_H_
#define MIP_ENGINE_DATABASE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/exec_context.h"
#include "engine/function_registry.h"
#include "engine/optimizer.h"
#include "engine/plan.h"
#include "engine/sql_ast.h"
#include "engine/storage_iface.h"
#include "engine/table.h"

namespace mip::engine {

/// \brief An in-memory analytics database instance: catalog + SQL executor +
/// UDF registry.
///
/// Every federation Worker hosts one Database (the MonetDB stand-in). It
/// supports base tables, MonetDB-style REMOTE tables (scans served by
/// another node through a RemoteSite) and MERGE tables
/// (non-materialized UNION ALL views over parts) — the two features MIP's
/// non-secure aggregation path is built on.
///
/// SELECTs run through a three-stage pipeline: PlanSelect builds a logical
/// plan, OptimizePlan rewrites it (predicate/projection/limit pushdown into
/// remote scans, merge-aggregate decomposition), and ExecutePlan walks the
/// result with the vectorized operators. `EXPLAIN <select>` renders the
/// optimized plan instead of executing it. The Database itself is the
/// planner's catalog (PlanCatalog).
class Database : public PlanCatalog {
 public:
  explicit Database(std::string name = "mipdb");

  /// Non-copyable (owns a function registry with closures), movable.
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  const std::string& name() const { return name_; }

  /// The site serving REMOTE tables: whole-table scans, pushed SQL
  /// (filters, pruned projections, LIMITs, partial aggregates), broadcast
  /// joins and the planner's schema/stats probes all go through one
  /// RemoteSite::Call. The federation layer installs its MasterNode, which
  /// routes over the transport. Non-owning; the site must outlive the
  /// database. Without one, remote tables fail with an execution error and
  /// the cost model sees no remote statistics.
  void set_remote_site(RemoteSite* site) { remote_site_ = site; }

  /// Execution context for query operators (morsel parallelism). nullptr
  /// (the default) resolves to ExecContext::Default(), i.e. the process-wide
  /// MIP_THREADS-sized pool; pass &ExecContext::Serial() to force
  /// single-threaded execution. The context must outlive the database.
  void set_exec_context(const ExecContext* exec) { exec_context_ = exec; }
  const ExecContext* exec_context() const { return exec_context_; }

  /// Master switch for the plan optimizer (default on; the environment
  /// variable MIP_OPTIMIZER=0 flips the default off). With the optimizer off,
  /// SELECTs execute the naive plan: whole-table fetches, local filtering —
  /// byte-identical results, more bytes on the wire.
  void set_optimizer_enabled(bool enabled) { optimizer_enabled_ = enabled; }
  bool optimizer_enabled() const { return optimizer_enabled_; }

  /// The planner ablations every SELECT is optimized under (see
  /// OptimizerOptions; all on by default, MIP_COST_MODEL=0 turns the cost
  /// model off). Its join_counters and storage fields are ignored: every
  /// plan gets this database's own.
  OptimizerOptions& optimizer_options() { return optimizer_options_; }
  const OptimizerOptions& optimizer_options() const {
    return optimizer_options_;
  }

  /// Lifetime join counters (planned / broadcast / collect / build rows /
  /// probe rows), surfaced by the gateway's /metrics. Never null.
  JoinCounters* join_counters() const { return join_counters_.get(); }

  /// Attaches a disk-resident table store (storage::StorageEngine behind
  /// the TableStorage interface) and registers every table it holds as a
  /// TableKind::kDisk catalog entry next to the in-memory ones. Non-owning:
  /// the storage must outlive the database. Fails on a name collision with
  /// an existing entry. Bumps the catalog version.
  Status AttachStorage(TableStorage* storage);
  TableStorage* storage() const { return storage_; }

  /// Appends rows to a disk table through the attached storage (creating
  /// the table and its catalog entry when new) and bumps the catalog
  /// version — the ingest path tools and tests use for bulk loads; SQL
  /// INSERT into a disk entry routes here too.
  Status IngestDisk(const std::string& table_name, const Table& rows);

  /// Creates an empty base table.
  Status CreateTable(const std::string& table_name, Schema schema);

  /// Registers (or replaces) a fully built base table — the ETL entry point.
  Status PutTable(const std::string& table_name, Table table);

  Status DropTable(const std::string& table_name);
  bool HasTable(const std::string& table_name) const;
  std::vector<std::string> TableNames() const;

  /// The named base or disk table. A base table comes back as stored,
  /// sharing its column buffers (no rows are copied); a disk table is
  /// scanned. Remote and merge tables are read only through a SELECT, whose
  /// plan scans their sites; here they are an InvalidArgument.
  Result<Table> GetTable(const std::string& table_name) const;

  /// Schema without materializing. Remote schemas come from a get_schema
  /// probe (cached thereafter; a failed probe returns its error); merge uses
  /// its first part.
  Result<Schema> GetSchema(const std::string& table_name) const;

  /// Executes one SQL statement. DDL/DML return an empty table; EXPLAIN
  /// returns a one-column table ("plan") with one row per plan line.
  Result<Table> ExecuteSql(const std::string& sql);

  /// Executes a parsed SELECT through the plan/optimize/execute pipeline.
  Result<Table> ExecuteSelect(const SelectStmt& stmt) const;

  /// Monotonic counter bumped by every catalog or data mutation (DDL,
  /// INSERT, PutTable/DropTable). Paired with PlanFingerprint it keys the
  /// gateway's result cache: any mutation changes the version, so stale
  /// cached results simply stop matching — no explicit invalidation walk.
  uint64_t catalog_version() const { return catalog_version_; }

  /// Parses `sql` and, when it is a plain SELECT, returns its optimized
  /// plan — the gateway's cache key (PlanFingerprint) and execution handle.
  /// Any other statement kind returns nullptr with OK status (the caller
  /// routes it through ExecuteSql). Read-only on the catalog: the schema
  /// and stats caches it fills carry their own lock, so callers planning
  /// concurrently only need to keep DDL/DML out (a shared lock).
  Result<PlanPtr> TryPlanSelectSql(const std::string& sql) const;

  /// Executes a plan built by TryPlanSelectSql / BuildOptimizedPlan.
  /// Read-only on the catalog (remote round trips happen through the
  /// installed RemoteSite), so concurrent executions may share it.
  Result<Table> ExecutePlannedSelect(const PlanNode& plan) const;

  /// Plans and executes the SELECT `sql` with `bound` visible under
  /// `bound_name` to this statement only — the broadcast-join build side a
  /// worker serves run_sql_bound with. The binding is an overlay on the
  /// catalog: no entry is registered, the catalog version does not move and
  /// the bound table enters no cache, so concurrent statements share the
  /// catalog the same way as TryPlanSelectSql. A statement other than a
  /// SELECT, or a `bound_name` that names a catalog table, is
  /// InvalidArgument.
  Result<Table> ExecuteBoundSelect(const std::string& sql,
                                   const std::string& bound_name,
                                   const Table& bound) const;

  /// Renders the optimized logical plan for a SELECT as a text tree.
  Result<std::string> ExplainSelect(const SelectStmt& stmt) const;

  // PlanCatalog implementation (the planner's view of this catalog).
  Result<TableInfo> Describe(const std::string& table_name) const override;
  Result<Schema> TableSchema(const std::string& table_name) const override {
    return GetSchema(table_name);
  }
  /// Table statistics for the cost model: base tables are profiled in
  /// process (and cached), disk tables fold their segment footers, merge
  /// tables merge their parts' stats, remote tables ask their site
  /// (get_stats). Cached per table, keyed by catalog version — any mutation
  /// simply stops matching, like the gateway's result cache.
  Result<TableStats> GetTableStats(
      const std::string& table_name) const override;
  Result<Table> RunTableFunction(
      const std::string& func_name,
      const std::vector<Value>& args) const override;

  FunctionRegistry* functions() { return &functions_; }
  const FunctionRegistry* functions() const { return &functions_; }

 private:
  struct Entry {
    enum class Kind { kBase, kRemote, kMerge, kDisk };
    Kind kind = Kind::kBase;
    Table table;              // kBase
    std::string location;     // kRemote
    std::string remote_name;  // kRemote
    std::vector<std::string> parts;  // kMerge
  };

  /// Plan -> optimized plan against `catalog` (this database, or a
  /// statement's bound-table overlay on it), honoring optimizer_enabled_
  /// and optimizer_options_.
  Result<PlanPtr> BuildOptimizedPlan(const SelectStmt& stmt,
                                     const PlanCatalog& catalog) const;

  /// Executes `plan`, materializing base-table scans through `get_table`.
  Result<Table> RunPlan(
      const PlanNode& plan,
      std::function<Result<Table>(const std::string&)> get_table) const;

  std::string name_;
  std::map<std::string, Entry> tables_;
  FunctionRegistry functions_;
  RemoteSite* remote_site_ = nullptr;  // non-owning; see set_remote_site
  TableStorage* storage_ = nullptr;  // non-owning; see AttachStorage
  bool optimizer_enabled_ = true;
  OptimizerOptions optimizer_options_;
  uint64_t catalog_version_ = 1;
  const ExecContext* exec_context_ = nullptr;
  /// Behind a pointer (atomics are immovable) so Database stays movable.
  std::unique_ptr<JoinCounters> join_counters_;
  /// Guards the two planning caches below, which const planning fills
  /// while callers hold only a shared lock on the catalog. Behind a pointer
  /// so Database stays movable.
  std::unique_ptr<std::mutex> cache_mu_;
  /// Remote-table schemas learned via get_schema probes, keyed by
  /// lower-cased local name. Invalidated on PutTable/DropTable.
  mutable std::map<std::string, Schema> remote_schema_cache_;
  /// Table statistics keyed by lower-cased name, tagged with the catalog
  /// version they were computed under; a stale tag is a miss.
  mutable std::map<std::string, std::pair<uint64_t, TableStats>> stats_cache_;
};

}  // namespace mip::engine

#endif  // MIP_ENGINE_DATABASE_H_
