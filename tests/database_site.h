// A RemoteSite served in process by a second Database, for engine tests that
// need REMOTE tables without a federation.

#ifndef MIP_TESTS_DATABASE_SITE_H_
#define MIP_TESTS_DATABASE_SITE_H_

#include <mutex>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/remote_site.h"

namespace mip::engine {

/// Answers run_sql by executing on `db` and get_schema with a zero-row
/// table; get_stats and run_sql_bound are NotImplemented, so the cost model
/// stays blind and every join collects. Records each call's location; the
/// parts of a merge table call concurrently, so the order of `locations`
/// is the order the calls arrived in, not part order.
class DatabaseSite : public RemoteSite {
 public:
  explicit DatabaseSite(Database* db) : db_(db) {}

  Result<Table> Call(const std::string& location,
                     const RemoteRequest& request) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      locations.push_back(location);
    }
    switch (request.kind) {
      case RemoteKind::kRunSql:
        return db_->ExecuteSql(request.sql);
      case RemoteKind::kGetSchema: {
        MIP_ASSIGN_OR_RETURN(Schema schema,
                             db_->GetSchema(request.table_name));
        return Table::Empty(std::move(schema));
      }
      default:
        return Status::NotImplemented(
            std::string(RemoteKindName(request.kind)) +
            " is not served by DatabaseSite");
    }
  }

  std::vector<std::string> locations;

 private:
  std::mutex mu_;
  Database* db_;
};

}  // namespace mip::engine

#endif  // MIP_TESTS_DATABASE_SITE_H_
