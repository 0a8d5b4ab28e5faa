#ifndef MIP_ENGINE_REMOTE_SITE_H_
#define MIP_ENGINE_REMOTE_SITE_H_

#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "engine/table.h"

namespace mip::engine {

/// \brief The four requests the engine sends to another node. Each kind is
/// one wire envelope type, named by RemoteKindName.
enum class RemoteKind {
  kRunSql,       ///< "run_sql": run `sql` there, reply with its result
  kRunSqlBound,  ///< "run_sql_bound": run the SELECT `sql` with `bound`
                 ///< visible as `temp_name` to that statement only (the
                 ///< broadcast-join transport)
  kGetSchema,    ///< "get_schema": a zero-row table with the schema
  kGetStats,     ///< "get_stats": the table statistics (StatsToTable)
};

const char* RemoteKindName(RemoteKind kind);

/// One request to a remote site. Fields a kind does not use stay empty.
struct RemoteRequest {
  RemoteKind kind = RemoteKind::kRunSql;
  std::string table_name;  ///< kGetSchema / kGetStats
  std::string sql;         ///< kRunSql / kRunSqlBound
  std::string temp_name;   ///< kRunSqlBound
  /// kRunSqlBound: the build side. Non-owning and never copied; the caller
  /// keeps it alive for the call.
  const Table* bound = nullptr;
};

/// \brief The engine's one way to reach another node. REMOTE-table scans,
/// pushed SQL, broadcast joins and the planner's schema/stats probes all go
/// through Call. The federation's MasterNode implements it with the same
/// send loop its algorithm steps use, with one attempt and no deadline, so
/// a failing site fails the call with its own status. Tests serve it from
/// a second Database. Calls arrive concurrently: from concurrent query
/// executions, and from one query, whose executor sends the parts of a
/// merge table through OrderedFanOut on the exec pool. A failing part does
/// not stop the parts after it from being sent; the query still returns
/// the first failure in part order, so the extra traffic is paid only on
/// the failure path.
class RemoteSite {
 public:
  virtual ~RemoteSite() = default;
  virtual Result<Table> Call(const std::string& location,
                             const RemoteRequest& request) = 0;
};

/// `site->Call(location, request)`, or an ExecutionError naming the remote
/// table and the host database when no site is installed.
Result<Table> CallRemoteSite(RemoteSite* site, const std::string& location,
                             const RemoteRequest& request,
                             const std::string& table_name,
                             const std::string& db_name);

/// Writes the envelope payload for `request`. A kRunSqlBound build side goes
/// through SerializeTableForWire; the other fields are plain strings.
void EncodeRemoteRequest(const RemoteRequest& request, BufferWriter* w);

/// Size of the same payload with a bound build side in the fixed-width
/// layout (SerializeTable): the raw side of the codec ledger.
size_t RawRemoteRequestBytes(const RemoteRequest& request);

/// Parses the payload of an envelope of type `type`. A kRunSqlBound build
/// side is decoded into `*bound` and the request points at it. Any other
/// type is InvalidArgument.
Result<RemoteRequest> DecodeRemoteRequest(const std::string& type,
                                          BufferReader* r, Table* bound);

}  // namespace mip::engine

#endif  // MIP_ENGINE_REMOTE_SITE_H_
