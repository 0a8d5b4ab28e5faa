#include "engine/remote_site.h"

#include <algorithm>
#include <iterator>

namespace mip::engine {

namespace {

constexpr RemoteKind kAllKinds[] = {RemoteKind::kRunSql,
                                    RemoteKind::kRunSqlBound,
                                    RemoteKind::kGetSchema,
                                    RemoteKind::kGetStats};

}  // namespace

const char* RemoteKindName(RemoteKind kind) {
  switch (kind) {
    case RemoteKind::kRunSql:
      return "run_sql";
    case RemoteKind::kRunSqlBound:
      return "run_sql_bound";
    case RemoteKind::kGetSchema:
      return "get_schema";
    case RemoteKind::kGetStats:
      return "get_stats";
  }
  return "?";
}

Result<Table> CallRemoteSite(RemoteSite* site, const std::string& location,
                             const RemoteRequest& request,
                             const std::string& table_name,
                             const std::string& db_name) {
  if (site == nullptr) {
    return Status::ExecutionError("remote table '" + table_name +
                                  "' has no remote site installed on "
                                  "database " +
                                  db_name);
  }
  return site->Call(location, request);
}

namespace {

/// The one request layout; `compressed` picks the bound table's codec.
void WriteRemoteRequest(const RemoteRequest& request, bool compressed,
                        BufferWriter* w) {
  switch (request.kind) {
    case RemoteKind::kRunSql:
      w->WriteString(request.sql);
      return;
    case RemoteKind::kRunSqlBound:
      w->WriteString(request.temp_name);
      w->WriteString(request.sql);
      if (compressed) {
        SerializeTableForWire(*request.bound, w);
      } else {
        SerializeTable(*request.bound, w);
      }
      return;
    case RemoteKind::kGetSchema:
    case RemoteKind::kGetStats:
      w->WriteString(request.table_name);
      return;
  }
}

}  // namespace

void EncodeRemoteRequest(const RemoteRequest& request, BufferWriter* w) {
  WriteRemoteRequest(request, /*compressed=*/true, w);
}

size_t RawRemoteRequestBytes(const RemoteRequest& request) {
  BufferWriter counter = BufferWriter::Counter();
  WriteRemoteRequest(request, /*compressed=*/false, &counter);
  return counter.size();
}

Result<RemoteRequest> DecodeRemoteRequest(const std::string& type,
                                          BufferReader* r, Table* bound) {
  RemoteRequest request;
  const RemoteKind* kind = std::find_if(
      std::begin(kAllKinds), std::end(kAllKinds),
      [&type](RemoteKind k) { return type == RemoteKindName(k); });
  if (kind == std::end(kAllKinds)) {
    return Status::InvalidArgument("unknown message type '" + type + "'");
  }
  request.kind = *kind;
  if (request.kind == RemoteKind::kGetSchema ||
      request.kind == RemoteKind::kGetStats) {
    MIP_ASSIGN_OR_RETURN(request.table_name, r->ReadString());
    return request;
  }
  if (request.kind == RemoteKind::kRunSqlBound) {
    MIP_ASSIGN_OR_RETURN(request.temp_name, r->ReadString());
  }
  MIP_ASSIGN_OR_RETURN(request.sql, r->ReadString());
  if (request.kind == RemoteKind::kRunSqlBound) {
    MIP_ASSIGN_OR_RETURN(*bound, DeserializeTable(r));
    request.bound = bound;
  }
  return request;
}

}  // namespace mip::engine
