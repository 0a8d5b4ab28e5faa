#include "storage/store.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <set>

#include "common/string_util.h"
#include "storage/io.h"
#include "storage/wal.h"

namespace mip::storage {

namespace {

/// Rough in-memory footprint of a batch — drives the flush threshold, so
/// only the order of magnitude matters.
uint64_t EstimateTableBytes(const engine::Table& table) {
  uint64_t bytes = 0;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const engine::Column& col = table.column(c);
    switch (col.type()) {
      case engine::DataType::kBool:
        bytes += table.num_rows();
        break;
      case engine::DataType::kInt64:
      case engine::DataType::kFloat64:
        bytes += 8 * table.num_rows();
        break;
      case engine::DataType::kString:
        for (const std::string& s : col.strings()) bytes += 16 + s.size();
        break;
    }
    if (col.has_validity()) bytes += table.num_rows() / 8 + 1;
  }
  return bytes;
}

bool SchemasCompatible(const engine::Schema& a, const engine::Schema& b) {
  if (a.num_fields() != b.num_fields()) return false;
  for (size_t i = 0; i < a.num_fields(); ++i) {
    if (a.field(i).type != b.field(i).type) return false;
    if (!EqualsIgnoreCase(a.field(i).name, b.field(i).name)) return false;
  }
  return true;
}

bool IsReservedColumn(const std::string& name) {
  const std::string prefix = kReservedColumnPrefix;
  return ToLower(name).compare(0, prefix.size(), prefix) == 0;
}

/// Rebuilds `rows` under the table's canonical schema (field names may
/// differ only in case; types were already checked).
Result<engine::Table> Canonicalize(const engine::Schema& canonical,
                                   const engine::Table& rows) {
  std::vector<engine::Column> columns;
  columns.reserve(rows.num_columns());
  for (size_t c = 0; c < rows.num_columns(); ++c) {
    columns.push_back(rows.column(c));
  }
  return engine::Table::Make(canonical, std::move(columns));
}

/// Parses "<prefix><decimal id><suffix>", e.g. seg-12.mip / wal-3.log.
bool ParseIdFileName(const std::string& name, const std::string& prefix,
                     const std::string& suffix, uint64_t* id) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  uint64_t v = 0;
  for (char ch : digits) {
    if (ch < '0' || ch > '9') return false;
    v = v * 10 + static_cast<uint64_t>(ch - '0');
  }
  *id = v;
  return true;
}

bool HasSuffix(const std::string& name, const std::string& suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::string StorageEngine::SegmentPath(uint64_t id) const {
  return dir_ + "/seg-" + std::to_string(id) + ".mip";
}

std::string StorageEngine::IndexPath(uint64_t id) const {
  return dir_ + "/idx-" + std::to_string(id) + ".mix";
}

std::string StorageEngine::WalPath(uint64_t id) const {
  return dir_ + "/wal-" + std::to_string(id) + ".log";
}

std::string StorageEngine::ManifestPath() const { return dir_ + "/MANIFEST"; }

Result<std::unique_ptr<StorageEngine>> StorageEngine::Open(
    const std::string& dir, const StorageOptions& options) {
  if (dir.empty()) return Status::InvalidArgument("empty data directory");
  MIP_RETURN_NOT_OK(EnsureDir(dir));
  std::unique_ptr<StorageEngine> store(new StorageEngine(dir, options));
  MIP_RETURN_NOT_OK(store->RecoverLocked());
  return store;
}

StorageEngine::~StorageEngine() { StopBackgroundCompaction(); }

Status StorageEngine::RecoverLocked() {
  // 1. Committed root.
  Manifest manifest;
  if (FileExists(ManifestPath())) {
    MIP_ASSIGN_OR_RETURN(manifest, LoadManifest(ManifestPath()));
  }
  wal_id_ = manifest.wal_id;
  next_segment_id_ = manifest.next_segment_id;
  next_index_id_ = manifest.next_index_id;

  // 2. Validate every committed segment's footer; committed data that fails
  // validation is a hard error, not something to silently drop. Indexes are
  // the opposite: they are derived accelerators, so an unreadable index is
  // marked invalid (its segment falls back to the zone-map path) and Open
  // proceeds — recovery must never fail, and scans must never be wrong,
  // because of a corrupt sidecar.
  for (const ManifestTable& mt : manifest.tables) {
    TableState state;
    state.schema = mt.schema;
    uint64_t prev_group = 0;
    std::set<uint64_t> closed_groups;
    for (const ManifestSegment& ms : mt.segments) {
      Result<SegmentFooter> footer = ReadSegmentFooter(SegmentPath(ms.id));
      if (!footer.ok()) {
        return Status::IOError("table '" + mt.name + "' segment " +
                               std::to_string(ms.id) +
                               " failed validation: " +
                               footer.status().message());
      }
      // Compacted segments store the hidden position column after the user
      // schema (compaction.h).
      const engine::Schema expect =
          ms.group == 0 ? mt.schema : SchemaWithPos(mt.schema);
      if (footer->num_rows != ms.rows ||
          !SchemasCompatible(footer->schema(), expect)) {
        return Status::IOError("table '" + mt.name + "' segment " +
                               std::to_string(ms.id) +
                               " disagrees with manifest");
      }
      // A compaction group's segments must be contiguous — order
      // restoration walks them as one run.
      if (ms.group != prev_group && closed_groups.count(ms.group) > 0) {
        return Status::IOError("table '" + mt.name + "' compaction group " +
                               std::to_string(ms.group) + " is fragmented");
      }
      if (prev_group != 0 && ms.group != prev_group) {
        closed_groups.insert(prev_group);
      }
      prev_group = ms.group;

      SegmentState seg;
      seg.id = ms.id;
      seg.group = ms.group;
      seg.footer = std::move(*footer);
      for (const ManifestIndex& mi : ms.indexes) {
        IndexState idx;
        idx.id = mi.id;
        idx.column = mi.column;
        Result<IndexFooter> ifooter = ReadIndexFooter(IndexPath(mi.id));
        const int field = mt.schema.FieldIndex(mi.column);
        if (ifooter.ok() && field >= 0 &&
            EqualsIgnoreCase(ifooter->column, mi.column) &&
            ifooter->type == mt.schema.field(field).type &&
            ifooter->num_rows == ms.rows) {
          idx.footer = std::move(*ifooter);
          idx.valid = true;
        }
        seg.indexes.push_back(std::move(idx));
      }
      state.segments.push_back(std::move(seg));
    }
    tables_.emplace(ToLower(mt.name), std::move(state));
  }

  // 3. Sweep orphans: segments/indexes the manifest does not reference (a
  // flush or compaction that died before its manifest committed), WALs from
  // dead epochs, tmp files.
  MIP_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir_));
  for (const std::string& name : names) {
    uint64_t id = 0;
    bool orphan = false;
    if (HasSuffix(name, ".tmp")) {
      orphan = true;
    } else if (ParseIdFileName(name, "seg-", ".mip", &id)) {
      orphan = true;
      for (const auto& [key, state] : tables_) {
        for (const SegmentState& seg : state.segments) {
          if (seg.id == id) orphan = false;
        }
      }
    } else if (ParseIdFileName(name, "idx-", ".mix", &id)) {
      orphan = true;
      for (const auto& [key, state] : tables_) {
        for (const SegmentState& seg : state.segments) {
          for (const IndexState& idx : seg.indexes) {
            if (idx.id == id) orphan = false;
          }
        }
      }
    } else if (ParseIdFileName(name, "wal-", ".log", &id)) {
      orphan = (id != wal_id_);
    }
    if (orphan) MIP_RETURN_NOT_OK(RemoveFile(dir_ + "/" + name));
  }

  // 4. Replay the live WAL into memtables, truncating a torn tail.
  MIP_ASSIGN_OR_RETURN(WalReplay replay, ReplayWal(WalPath(wal_id_)));
  if (replay.torn) {
    MIP_RETURN_NOT_OK(TruncateFile(WalPath(wal_id_), replay.valid_bytes));
  }
  ctr_wal_replays_.fetch_add(replay.records.size(),
                             std::memory_order_relaxed);
  for (WalRecord& record : replay.records) {
    MIP_RETURN_NOT_OK(ApplyToMemtableLocked(record.table_name, record.rows));
  }

  // 5. Index any segment the manifest lists without its indexes, so a
  // --data-dir boot comes up fully indexed.
  if (options_.build_missing_indexes) {
    MIP_RETURN_NOT_OK(EnsureIndexesLocked());
  }
  return Status::OK();
}

std::vector<std::string> StorageEngine::IndexedColumns(
    const engine::Schema& schema) const {
  std::vector<std::string> columns;
  for (const engine::Field& f : schema.fields()) {
    if (IsReservedColumn(f.name)) continue;  // hidden position column
    if (options_.auto_index) {
      columns.push_back(f.name);
      continue;
    }
    for (const std::string& want : options_.index_columns) {
      if (EqualsIgnoreCase(want, f.name)) {
        columns.push_back(f.name);
        break;
      }
    }
  }
  return columns;
}

Status StorageEngine::BuildSegmentIndexes(const engine::Table& data,
                                          uint64_t* next_index_id,
                                          std::vector<IndexState>* out) const {
  for (const std::string& name : IndexedColumns(data.schema())) {
    MIP_ASSIGN_OR_RETURN(const engine::Column* col, data.ColumnByName(name));
    IndexState idx;
    idx.id = (*next_index_id)++;
    idx.column = name;
    MIP_ASSIGN_OR_RETURN(idx.footer,
                         WriteIndex(IndexPath(idx.id), name, *col));
    idx.valid = true;
    out->push_back(std::move(idx));
  }
  return Status::OK();
}

Manifest StorageEngine::BuildManifestLocked(uint64_t wal_id) const {
  Manifest manifest;
  manifest.wal_id = wal_id;
  manifest.next_segment_id = next_segment_id_;
  manifest.next_index_id = next_index_id_;
  for (const auto& [key, state] : tables_) {
    ManifestTable mt;
    mt.name = key;
    mt.schema = state.schema;
    for (const SegmentState& seg : state.segments) {
      ManifestSegment ms;
      ms.id = seg.id;
      ms.rows = seg.footer.num_rows;
      ms.group = seg.group;
      // Invalid indexes stay referenced: the sweep must not delete their
      // files out from under a later forensic look, and EnsureIndexes must
      // not paper over them — only a flush/compaction rewrite replaces them.
      for (const IndexState& idx : seg.indexes) {
        ms.indexes.push_back(ManifestIndex{idx.id, idx.column});
      }
      mt.segments.push_back(std::move(ms));
    }
    manifest.tables.push_back(std::move(mt));
  }
  return manifest;
}

Status StorageEngine::EnsureIndexesLocked() {
  bool built_any = false;
  for (auto& [key, state] : tables_) {
    const std::vector<std::string> wanted = IndexedColumns(state.schema);
    if (wanted.empty()) continue;
    for (SegmentState& seg : state.segments) {
      engine::Table data;
      bool loaded = false;
      for (const std::string& name : wanted) {
        bool have = false;
        for (const IndexState& idx : seg.indexes) {
          // An existing entry — even an invalid one — blocks a rebuild;
          // see BuildManifestLocked.
          if (EqualsIgnoreCase(idx.column, name)) have = true;
        }
        if (have) continue;
        if (!loaded) {
          MIP_ASSIGN_OR_RETURN(data,
                               ReadSegmentData(SegmentPath(seg.id),
                                               seg.footer));
          loaded = true;
        }
        MIP_ASSIGN_OR_RETURN(const engine::Column* col,
                             data.ColumnByName(name));
        IndexState idx;
        idx.id = next_index_id_++;
        idx.column = name;
        MIP_ASSIGN_OR_RETURN(idx.footer,
                             WriteIndex(IndexPath(idx.id), name, *col));
        idx.valid = true;
        seg.indexes.push_back(std::move(idx));
        built_any = true;
      }
    }
  }
  if (!built_any) return Status::OK();
  // Same WAL epoch: only derived files changed, the data did not.
  return SaveManifest(ManifestPath(), BuildManifestLocked(wal_id_));
}

Status StorageEngine::ApplyToMemtableLocked(const std::string& name,
                                            const engine::Table& rows) {
  const std::string key = ToLower(name);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    TableState state;
    state.schema = rows.schema();
    it = tables_.emplace(key, std::move(state)).first;
  }
  TableState& state = it->second;
  if (!SchemasCompatible(state.schema, rows.schema())) {
    return Status::TypeError("append to '" + name +
                             "' does not match its schema (" +
                             state.schema.ToString() + ")");
  }
  MIP_ASSIGN_OR_RETURN(engine::Table batch,
                       Canonicalize(state.schema, rows));
  state.memtable_rows += batch.num_rows();
  memtable_bytes_ += EstimateTableBytes(batch);
  state.memtable.push_back(std::move(batch));
  return Status::OK();
}

Status StorageEngine::AppendRows(const std::string& name,
                                 const engine::Table& rows) {
  if (name.empty()) return Status::InvalidArgument("empty table name");
  for (const engine::Field& f : rows.schema().fields()) {
    if (IsReservedColumn(f.name)) {
      return Status::InvalidArgument(
          "column name '" + f.name + "' uses the reserved '" +
          kReservedColumnPrefix + "' prefix");
    }
  }
  std::unique_lock lock(mu_);
  // Validate against the existing schema BEFORE logging, so the WAL never
  // holds a record that replay would reject.
  auto it = tables_.find(ToLower(name));
  if (it != tables_.end() &&
      !SchemasCompatible(it->second.schema, rows.schema())) {
    return Status::TypeError("append to '" + name +
                             "' does not match its schema (" +
                             it->second.schema.ToString() + ")");
  }
  if (rows.num_rows() == 0 && it != tables_.end()) return Status::OK();
  // WAL first: once the fsync returns, the batch is durable.
  MIP_RETURN_NOT_OK(AppendWalRecord(WalPath(wal_id_), name, rows));
  MIP_RETURN_NOT_OK(ApplyToMemtableLocked(name, rows));
  if (memtable_bytes_ >= options_.memtable_budget_bytes) {
    return FlushLocked();
  }
  return Status::OK();
}

Status StorageEngine::Flush() {
  std::unique_lock lock(mu_);
  return FlushLocked();
}

Status StorageEngine::FlushLocked() {
  // 1. Write memtables out as immutable segments, each with its ordered
  // indexes (every write is itself atomic; nothing references these files
  // until the manifest commits).
  std::map<std::string, std::vector<SegmentState>> flushed;
  uint64_t next_id = next_segment_id_;
  uint64_t next_idx = next_index_id_;
  bool wrote = false;
  for (auto& [key, state] : tables_) {
    if (state.memtable.empty()) continue;
    MIP_ASSIGN_OR_RETURN(engine::Table all,
                         engine::Table::Concat(state.memtable));
    for (size_t off = 0; off < all.num_rows();
         off += options_.target_segment_rows) {
      const size_t count =
          std::min<size_t>(options_.target_segment_rows, all.num_rows() - off);
      const engine::Table chunk = all.Slice(off, count);
      SegmentState seg;
      seg.id = next_id++;
      MIP_ASSIGN_OR_RETURN(seg.footer,
                           WriteSegment(SegmentPath(seg.id), chunk));
      MIP_RETURN_NOT_OK(BuildSegmentIndexes(chunk, &next_idx, &seg.indexes));
      flushed[key].push_back(std::move(seg));
      wrote = true;
    }
  }

  // 2. Commit point: the new manifest references the new segments + indexes
  // and the next WAL epoch. A crash before this line leaves only orphans.
  Manifest manifest;
  manifest.wal_id = wal_id_ + 1;
  manifest.next_segment_id = next_id;
  manifest.next_index_id = next_idx;
  for (auto& [key, state] : tables_) {
    ManifestTable mt;
    mt.name = key;
    mt.schema = state.schema;
    auto describe = [&mt](const SegmentState& seg) {
      ManifestSegment ms;
      ms.id = seg.id;
      ms.rows = seg.footer.num_rows;
      ms.group = seg.group;
      for (const IndexState& idx : seg.indexes) {
        ms.indexes.push_back(ManifestIndex{idx.id, idx.column});
      }
      mt.segments.push_back(std::move(ms));
    };
    for (const SegmentState& seg : state.segments) describe(seg);
    auto fit = flushed.find(key);
    if (fit != flushed.end()) {
      for (const SegmentState& seg : fit->second) describe(seg);
    }
    manifest.tables.push_back(std::move(mt));
  }
  MIP_RETURN_NOT_OK(SaveManifest(ManifestPath(), manifest));

  // 3. The old WAL's records are now all represented by segments; drop it.
  // A crash between the manifest commit and this unlink is healed by the
  // stale-epoch sweep in recovery.
  const std::string old_wal = WalPath(wal_id_);
  if (FileExists(old_wal)) MIP_RETURN_NOT_OK(RemoveFile(old_wal));

  wal_id_ += 1;
  next_segment_id_ = next_id;
  next_index_id_ = next_idx;
  memtable_bytes_ = 0;
  for (auto& [key, state] : tables_) {
    auto fit = flushed.find(key);
    if (fit != flushed.end()) {
      for (SegmentState& seg : fit->second) {
        state.segments.push_back(std::move(seg));
      }
    }
    state.memtable.clear();
    state.memtable_rows = 0;
  }
  if (wrote) ctr_flushes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

std::vector<std::string> StorageEngine::StorageTableNames() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, state] : tables_) names.push_back(key);
  return names;
}

Result<engine::Schema> StorageEngine::StorageTableSchema(
    const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("no disk table named '" + name + "'");
  }
  return it->second.schema;
}

namespace {

/// Shared per-scan index-probe state: intervals are built once per column
/// (they depend on the conjuncts and the column type, not the segment).
struct ProbeContext {
  std::vector<std::string> columns;  // distinct conjunct columns (lowered)
  std::map<std::string, KeyInterval> intervals;
};

ProbeContext MakeProbeContext(const std::vector<PruneConjunct>& conjuncts) {
  ProbeContext ctx;
  for (const PruneConjunct& c : conjuncts) {
    const std::string col = ToLower(c.column);
    if (std::find(ctx.columns.begin(), ctx.columns.end(), col) ==
        ctx.columns.end()) {
      ctx.columns.push_back(col);
    }
  }
  return ctx;
}

}  // namespace

Result<engine::Table> StorageEngine::ScanLocked(
    const TableState& state, const engine::Expr* prune_filter,
    engine::ScanStats* stats, bool use_index) const {
  std::vector<PruneConjunct> conjuncts;
  if (prune_filter != nullptr) {
    conjuncts = ExtractPruneConjuncts(*prune_filter);
  }
  ProbeContext ctx = MakeProbeContext(conjuncts);

  engine::ScanStats local;
  local.total = static_cast<int64_t>(state.segments.size());

  // Probes one segment's indexes; returns true when a probe proves the
  // segment holds zero candidate rows. A probe that fails (corrupt sidecar
  // discovered at read time) is treated as "no index" — fall back to
  // decoding the segment, never to wrong results.
  auto index_proves_empty = [&](const SegmentState& seg) -> bool {
    uint64_t min_candidates = 0;
    bool probed = false;
    for (const std::string& col : ctx.columns) {
      const IndexState* index = nullptr;
      for (const IndexState& idx : seg.indexes) {
        if (idx.valid && EqualsIgnoreCase(idx.column, col)) {
          index = &idx;
          break;
        }
      }
      if (index == nullptr) continue;
      auto iit = ctx.intervals.find(col);
      if (iit == ctx.intervals.end()) {
        iit = ctx.intervals
                  .emplace(col, BuildKeyInterval(index->footer.type, col,
                                                 conjuncts))
                  .first;
      }
      const KeyInterval& interval = iit->second;
      if (!interval.restricts && !interval.empty) continue;
      Result<IndexProbe> probe =
          ProbeIndex(IndexPath(index->id), index->footer, interval);
      ++local.index_probes;
      ctr_index_probes_.fetch_add(1, std::memory_order_relaxed);
      if (!probe.ok()) continue;
      if (probe->candidates > 0) {
        ctr_index_hits_.fetch_add(1, std::memory_order_relaxed);
      }
      if (!probed || probe->candidates < min_candidates) {
        min_candidates = probe->candidates;
      }
      probed = true;
      if (min_candidates == 0) break;
    }
    if (!probed) return false;
    local.index_rows += static_cast<int64_t>(min_candidates);
    return min_candidates == 0;
  };

  std::vector<engine::Table> parts;
  const std::vector<SegmentState>& segs = state.segments;
  size_t i = 0;
  while (i < segs.size()) {
    const uint64_t group = segs[i].group;
    size_t j = i + 1;
    if (group != 0) {
      while (j < segs.size() && segs[j].group == group) ++j;
    }
    std::vector<engine::Table> group_parts;
    for (size_t k = i; k < j; ++k) {
      const SegmentState& seg = segs[k];
      if (!SegmentCanMatch(seg.footer, conjuncts)) {
        ++local.pruned;
        continue;
      }
      if (use_index && index_proves_empty(seg)) {
        ++local.pruned;
        continue;
      }
      ++local.scanned;
      MIP_ASSIGN_OR_RETURN(engine::Table part,
                           ReadSegmentData(SegmentPath(seg.id), seg.footer));
      group_parts.push_back(std::move(part));
    }
    if (group != 0 && !group_parts.empty()) {
      // Compacted group: surviving rows carry the hidden position column;
      // put them back in pre-compaction order and strip it.
      MIP_ASSIGN_OR_RETURN(engine::Table merged,
                           engine::Table::Concat(group_parts));
      MIP_ASSIGN_OR_RETURN(engine::Table restored, RestoreGroupOrder(merged));
      parts.push_back(std::move(restored));
    } else {
      for (engine::Table& part : group_parts) parts.push_back(std::move(part));
    }
    i = j;
  }
  // Memtable rows ride along unpruned — they have no zone maps and the
  // Filter above the scan re-applies the predicate anyway.
  for (const engine::Table& batch : state.memtable) parts.push_back(batch);

  ctr_segments_scanned_.fetch_add(static_cast<uint64_t>(local.scanned),
                                  std::memory_order_relaxed);
  ctr_segments_pruned_.fetch_add(static_cast<uint64_t>(local.pruned),
                                 std::memory_order_relaxed);
  if (stats != nullptr) *stats = local;
  if (parts.empty()) return engine::Table::Empty(state.schema);
  return engine::Table::Concat(parts);
}

Result<engine::Table> StorageEngine::ScanTable(
    const std::string& name, const engine::Expr* prune_filter,
    engine::ScanStats* stats) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("no disk table named '" + name + "'");
  }
  return ScanLocked(it->second, prune_filter, stats, /*use_index=*/false);
}

Result<engine::Table> StorageEngine::IndexScanTable(
    const std::string& name, const engine::Expr* prune_filter,
    engine::ScanStats* stats) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("no disk table named '" + name + "'");
  }
  return ScanLocked(it->second, prune_filter, stats, /*use_index=*/true);
}

Result<engine::TableStats> StorageEngine::StorageTableStats(
    const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("no disk table named '" + name + "'");
  }
  const TableState& state = it->second;
  engine::TableStats stats;
  stats.row_count = 0;
  stats.columns.resize(state.schema.num_fields());
  for (size_t f = 0; f < state.schema.num_fields(); ++f) {
    stats.columns[f].name = state.schema.field(f).name;
  }
  auto fold = [&](const std::string& col_name, const ZoneMap& zone,
                  engine::DataType type) {
    const int f = state.schema.FieldIndex(col_name);
    if (f < 0) return;  // hidden compaction column
    engine::ColumnStats& cs = stats.columns[f];
    cs.null_count += static_cast<int64_t>(zone.null_count);
    if (!zone.has_range) return;
    double lo = 0.0, hi = 0.0;
    switch (type) {
      case engine::DataType::kBool:
      case engine::DataType::kInt64:
        lo = static_cast<double>(zone.min_i);
        hi = static_cast<double>(zone.max_i);
        break;
      case engine::DataType::kFloat64:
        lo = zone.min_d;
        hi = zone.max_d;
        break;
      case engine::DataType::kString:
        return;  // numeric ranges only; the cost model ignores string ranges
    }
    if (!cs.has_range) {
      cs.has_range = true;
      cs.min_value = lo;
      cs.max_value = hi;
    } else {
      cs.min_value = std::min(cs.min_value, lo);
      cs.max_value = std::max(cs.max_value, hi);
    }
  };
  for (const SegmentState& seg : state.segments) {
    stats.row_count += static_cast<int64_t>(seg.footer.num_rows);
    for (const SegmentColumn& col : seg.footer.columns) {
      fold(col.name, col.zone, col.type);
    }
  }
  for (const engine::Table& batch : state.memtable) {
    stats.row_count += static_cast<int64_t>(batch.num_rows());
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      fold(batch.schema().field(c).name, ComputeZoneMap(batch.column(c)),
           batch.column(c).type());
    }
  }
  return stats;
}

Result<engine::ScanStats> StorageEngine::PrunePreview(
    const std::string& name, const engine::Expr* prune_filter) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("no disk table named '" + name + "'");
  }
  std::vector<PruneConjunct> conjuncts;
  if (prune_filter != nullptr) {
    conjuncts = ExtractPruneConjuncts(*prune_filter);
  }
  engine::ScanStats stats;
  stats.total = static_cast<int64_t>(it->second.segments.size());
  for (const SegmentState& seg : it->second.segments) {
    if (SegmentCanMatch(seg.footer, conjuncts)) {
      ++stats.scanned;
    } else {
      ++stats.pruned;
    }
  }
  return stats;
}

Result<engine::IndexPreview> StorageEngine::PreviewIndexScan(
    const std::string& name, const engine::Expr* prune_filter) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("no disk table named '" + name + "'");
  }
  std::vector<PruneConjunct> conjuncts;
  if (prune_filter != nullptr) {
    conjuncts = ExtractPruneConjuncts(*prune_filter);
  }
  ProbeContext ctx = MakeProbeContext(conjuncts);

  engine::IndexPreview preview;
  preview.stats.total = static_cast<int64_t>(it->second.segments.size());
  int64_t zone_scanned = 0;  // segments the zone-map-only path would decode
  for (const SegmentState& seg : it->second.segments) {
    if (!SegmentCanMatch(seg.footer, conjuncts)) {
      ++preview.stats.pruned;
      continue;
    }
    ++zone_scanned;
    uint64_t min_candidates = 0;
    bool probed = false;
    for (const std::string& col : ctx.columns) {
      const IndexState* index = nullptr;
      for (const IndexState& idx : seg.indexes) {
        if (idx.valid && EqualsIgnoreCase(idx.column, col)) {
          index = &idx;
          break;
        }
      }
      if (index == nullptr) continue;
      auto iit = ctx.intervals.find(col);
      if (iit == ctx.intervals.end()) {
        iit = ctx.intervals
                  .emplace(col, BuildKeyInterval(index->footer.type, col,
                                                 conjuncts))
                  .first;
      }
      const KeyInterval& interval = iit->second;
      if (!interval.restricts && !interval.empty) continue;
      Result<IndexProbe> probe =
          ProbeIndex(IndexPath(index->id), index->footer, interval);
      ++preview.probes;
      if (!probe.ok()) continue;
      if (!probed || probe->candidates < min_candidates) {
        min_candidates = probe->candidates;
      }
      probed = true;
      if (min_candidates == 0) break;
    }
    if (probed) {
      preview.rows += static_cast<int64_t>(min_candidates);
      if (min_candidates == 0) {
        ++preview.stats.pruned;
        continue;
      }
    }
    ++preview.stats.scanned;
  }
  preview.stats.index_probes = preview.probes;
  preview.stats.index_rows = preview.rows;
  // The index path wins when its probes prove segments empty that zone maps
  // alone would decode — fewer segments touched is the whole game here
  // (stream codecs forbid row-level gathers, so decode count IS the cost).
  preview.use_index =
      preview.probes > 0 && preview.stats.scanned < zone_scanned;
  return preview;
}

engine::StorageCounters StorageEngine::Counters() const {
  engine::StorageCounters c;
  c.segments_scanned = ctr_segments_scanned_.load(std::memory_order_relaxed);
  c.segments_pruned = ctr_segments_pruned_.load(std::memory_order_relaxed);
  c.index_probes = ctr_index_probes_.load(std::memory_order_relaxed);
  c.index_hits = ctr_index_hits_.load(std::memory_order_relaxed);
  c.flushes = ctr_flushes_.load(std::memory_order_relaxed);
  c.compactions = ctr_compactions_.load(std::memory_order_relaxed);
  c.wal_replays = ctr_wal_replays_.load(std::memory_order_relaxed);
  return c;
}

Status StorageEngine::VerifyIndexes() const {
  std::shared_lock lock(mu_);
  for (const auto& [key, state] : tables_) {
    for (const SegmentState& seg : state.segments) {
      for (const IndexState& idx : seg.indexes) {
        // Re-read the footer from disk (not the cached copy) so an index
        // that was already invalid at Open — or rotted since — surfaces
        // here as the typed error the silent scan fallback swallows.
        Result<IndexFooter> footer = ReadIndexFooter(IndexPath(idx.id));
        if (!footer.ok()) {
          return Status::IOError(
              "table '" + key + "' index " + std::to_string(idx.id) +
              " (column '" + idx.column + "'): " + footer.status().message());
        }
        Status st = VerifyIndex(IndexPath(idx.id), *footer);
        if (!st.ok()) {
          return Status::IOError(
              "table '" + key + "' index " + std::to_string(idx.id) +
              " (column '" + idx.column + "'): " + st.message());
        }
      }
    }
  }
  return Status::OK();
}

Result<uint64_t> StorageEngine::SegmentCount(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("no disk table named '" + name + "'");
  }
  return static_cast<uint64_t>(it->second.segments.size());
}

Result<uint64_t> StorageEngine::IndexCount(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("no disk table named '" + name + "'");
  }
  uint64_t count = 0;
  for (const SegmentState& seg : it->second.segments) {
    for (const IndexState& idx : seg.indexes) {
      if (idx.valid) ++count;
    }
  }
  return count;
}

Result<uint64_t> StorageEngine::MemtableRows(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("no disk table named '" + name + "'");
  }
  return it->second.memtable_rows;
}

}  // namespace mip::storage
