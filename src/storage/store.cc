#include "storage/store.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <random>
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

/// A new epoch's WAL salt (wal.h): random, so no tenant can predict it;
/// never 0, the unseeded CRC; never the previous epoch's, so none of the
/// previous epoch's records verifies under it.
uint32_t NextWalSalt(uint32_t previous) {
  std::random_device device;
  uint32_t salt = 0;
  while (salt == 0 || salt == previous) salt = device();
  return salt;
}

}  // namespace

std::string StorageEngine::SegmentPath(uint64_t id) const {
  return dir_ + "/seg-" + std::to_string(id) + ".mip";
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
  wal_salt_ = manifest.wal_salt;
  next_segment_id_ = manifest.next_segment_id;

  // 2. Validate every committed segment's footer; committed data that fails
  // validation is a hard error, not something to silently drop. Indexes are
  // the opposite: they are derived accelerators, so an unreadable index is
  // left out (its column falls back to the zone-map path) and Open
  // proceeds — recovery must never fail, and scans must never be wrong,
  // because of a corrupt index block.
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

      state.segments.push_back(
          LoadSegment(ms.id, ms.group, std::move(*footer)));
    }
    tables_.emplace(ToLower(mt.name), std::move(state));
  }

  // 3. Sweep orphans: segments the manifest does not reference (a flush or
  // compaction that died before its manifest committed), index files of
  // the previous storage format (their indexes are gone with it; a
  // compaction rebuilds them inside the segments), WALs from dead epochs,
  // tmp files other than the manifest's spare.
  MIP_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir_));
  std::vector<uint64_t> stale_wals;
  for (const std::string& name : names) {
    uint64_t id = 0;
    bool orphan = false;
    if (HasSuffix(name, ".tmp")) {
      orphan = name != "MANIFEST.tmp";
    } else if (ParseIdFileName(name, "seg-", ".mip", &id)) {
      orphan = true;
      for (const auto& [key, state] : tables_) {
        for (const SegmentState& seg : state.segments) {
          if (seg.id == id) orphan = false;
        }
      }
    } else if (ParseIdFileName(name, "idx-", ".mix", &id)) {
      orphan = true;
    } else if (ParseIdFileName(name, "wal-", ".log", &id) && id != wal_id_) {
      stale_wals.push_back(id);
    }
    if (orphan) MIP_RETURN_NOT_OK(RemoveFile(dir_ + "/" + name));
  }
  // A flush that committed its manifest but died before recycling its WAL
  // left the file under the previous epoch's name: finish the rename rather
  // than free the file. Only a salted epoch may take it over — unseeded
  // (salt 0) replay would verify the old records. Any other stale WAL is an
  // orphan.
  std::sort(stale_wals.begin(), stale_wals.end());
  if (!stale_wals.empty() && wal_salt_ != 0 &&
      !FileExists(WalPath(wal_id_))) {
    MIP_RETURN_NOT_OK(RenameFile(WalPath(stale_wals.back()), WalPath(wal_id_)));
    stale_wals.pop_back();
  }
  for (uint64_t id : stale_wals) MIP_RETURN_NOT_OK(RemoveFile(WalPath(id)));

  // 4. Replay the live WAL into memtables. Its tail is where the valid
  // prefix ends; the next append overwrites whatever follows.
  MIP_ASSIGN_OR_RETURN(WalReplay replay,
                       ReplayWal(WalPath(wal_id_), wal_salt_));
  wal_tail_ = replay.valid_bytes;
  ctr_wal_replays_.fetch_add(replay.records.size(),
                             std::memory_order_relaxed);
  for (WalRecord& record : replay.records) {
    MIP_RETURN_NOT_OK(ApplyToMemtableLocked(record.table_name, record.rows));
  }
  return Status::OK();
}

StorageEngine::SegmentState StorageEngine::LoadSegment(
    uint64_t id, uint64_t group, SegmentFooter footer) const {
  SegmentState seg;
  seg.id = id;
  seg.group = group;
  for (Result<IndexDirectory>& dir :
       ReadIndexDirectories(SegmentPath(id), footer)) {
    if (dir.ok()) seg.indexes.push_back(std::move(*dir));
  }
  seg.footer = std::move(footer);
  return seg;
}

ManifestSegment StorageEngine::DescribeSegment(const SegmentState& seg) {
  return ManifestSegment{seg.id, seg.footer.num_rows, seg.group};
}

Manifest StorageEngine::BuildManifestLocked(uint64_t wal_id,
                                            uint32_t wal_salt) const {
  Manifest manifest;
  manifest.wal_id = wal_id;
  manifest.wal_salt = wal_salt;
  manifest.next_segment_id = next_segment_id_;
  for (const auto& [key, state] : tables_) {
    ManifestTable mt;
    mt.name = key;
    mt.schema = state.schema;
    for (const SegmentState& seg : state.segments) {
      mt.segments.push_back(DescribeSegment(seg));
    }
    manifest.tables.push_back(std::move(mt));
  }
  return manifest;
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
  MIP_RETURN_NOT_OK(
      AppendWalRecord(WalPath(wal_id_), wal_salt_, &wal_tail_, name, rows));
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
  // With every memtable empty, the committed manifest already says it all.
  bool pending = false;
  for (const auto& [key, state] : tables_) pending |= !state.memtable.empty();
  if (!pending) return Status::OK();

  // 1. Write memtables out as immutable segments, each holding its ordered
  // indexes (every write is itself atomic; nothing references these files
  // until the manifest commits).
  std::map<std::string, std::vector<SegmentState>> flushed;
  uint64_t next_id = next_segment_id_;
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
      const uint64_t id = next_id++;
      MIP_ASSIGN_OR_RETURN(SegmentFooter footer,
                           WriteSegment(SegmentPath(id), chunk));
      flushed[key].push_back(LoadSegment(id, 0, std::move(footer)));
      wrote = true;
    }
  }

  // 2. Commit point: the new manifest references the new segments and the
  // next WAL epoch under a fresh salt. A crash before the swap
  // leaves only orphans.
  const uint32_t salt = NextWalSalt(wal_salt_);
  Manifest manifest = BuildManifestLocked(wal_id_ + 1, salt);
  manifest.next_segment_id = next_id;
  for (ManifestTable& mt : manifest.tables) {
    auto fit = flushed.find(mt.name);
    if (fit == flushed.end()) continue;
    for (const SegmentState& seg : fit->second) {
      mt.segments.push_back(DescribeSegment(seg));
    }
  }
  MIP_RETURN_NOT_OK(SaveManifest(ManifestPath(), manifest));

  const uint64_t old_wal_id = wal_id_;
  wal_id_ += 1;
  wal_salt_ = salt;
  wal_tail_ = 0;
  next_segment_id_ = next_id;
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

  // 3. Recycle the old WAL: its records are all in segments now, and none
  // of them verifies under the new salt, so it becomes the new epoch's file
  // under a rename onto an unused name — which frees nothing, where an
  // unlink would. A crash before the rename is finished by recovery.
  const std::string old_wal = WalPath(old_wal_id);
  if (!FileExists(old_wal)) return Status::OK();
  return RenameFile(old_wal, WalPath(wal_id_));
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

StorageEngine::SegmentSelection StorageEngine::SelectSegmentsLocked(
    const TableState& state, const engine::Expr* prune_filter,
    bool use_index) const {
  std::vector<PruneConjunct> conjuncts;
  if (prune_filter != nullptr) {
    conjuncts = ExtractPruneConjuncts(*prune_filter);
  }
  // Index path only: the distinct conjunct columns (lowered) to probe, in
  // first-mention order. A column's key interval depends on the conjuncts
  // and its type, not the segment, so it is built once on first probe.
  std::vector<std::string> probe_columns;
  if (use_index) {
    for (const PruneConjunct& c : conjuncts) {
      const std::string col = ToLower(c.column);
      if (std::find(probe_columns.begin(), probe_columns.end(), col) ==
          probe_columns.end()) {
        probe_columns.push_back(col);
      }
    }
  }
  std::map<std::string, KeyInterval> intervals;

  SegmentSelection sel;
  sel.decode.assign(state.segments.size(), false);
  sel.stats.total = static_cast<int64_t>(state.segments.size());
  for (size_t s = 0; s < state.segments.size(); ++s) {
    const SegmentState& seg = state.segments[s];
    if (!SegmentCanMatch(seg.footer, conjuncts)) {
      ++sel.stats.pruned;
      continue;
    }
    ++sel.zone_survivors;
    // Probe the segment's indexes; the smallest candidate count across the
    // restricted columns bounds the rows the segment can contribute. A probe
    // that fails (corrupt index block discovered at read time) is treated as
    // "no index" — fall back to decoding the segment, never to wrong results.
    uint64_t min_candidates = 0;
    bool probed = false;
    for (const std::string& col : probe_columns) {
      const IndexDirectory* index = nullptr;
      for (const IndexDirectory& idx : seg.indexes) {
        if (EqualsIgnoreCase(idx.column, col)) {
          index = &idx;
          break;
        }
      }
      if (index == nullptr) continue;
      auto iit = intervals.find(col);
      if (iit == intervals.end()) {
        iit = intervals
                  .emplace(col, BuildKeyInterval(index->type, col, conjuncts))
                  .first;
      }
      const KeyInterval& interval = iit->second;
      if (!interval.restricts && !interval.empty) continue;
      Result<IndexProbe> probe =
          ProbeIndex(SegmentPath(seg.id), *index, interval);
      ++sel.stats.index_probes;
      if (!probe.ok()) continue;
      if (probe->candidates > 0) ++sel.index_hits;
      if (!probed || probe->candidates < min_candidates) {
        min_candidates = probe->candidates;
      }
      probed = true;
      if (min_candidates == 0) break;
    }
    if (probed) {
      sel.stats.index_rows += static_cast<int64_t>(min_candidates);
      if (min_candidates == 0) {
        ++sel.stats.pruned;
        continue;
      }
    }
    ++sel.stats.scanned;
    sel.decode[s] = true;
  }
  return sel;
}

Status StorageEngine::AppendSegmentRows(const std::vector<SegmentState>& segs,
                                        const std::vector<bool>& decode,
                                        engine::Table* out) const {
  size_t i = 0;
  while (i < segs.size()) {
    const uint64_t group = segs[i].group;
    size_t j = i + 1;
    if (group != 0) {
      while (j < segs.size() && segs[j].group == group) ++j;
    }
    if (group == 0) {
      if (decode[i]) {
        MIP_RETURN_NOT_OK(
            AppendSegmentData(SegmentPath(segs[i].id), segs[i].footer, out));
      }
    } else {
      // Compacted group: the surviving rows carry the hidden position
      // column; decode them together, then gather them into `out` in
      // pre-compaction order without it.
      uint64_t rows = 0, group_rows = 0;
      for (size_t k = i; k < j; ++k) {
        group_rows += segs[k].footer.num_rows;
        if (decode[k]) rows += segs[k].footer.num_rows;
      }
      if (rows > 0) {
        engine::Table survivors =
            engine::Table::Empty(SchemaWithPos(out->schema()));
        survivors.Reserve(static_cast<size_t>(rows));
        for (size_t k = i; k < j; ++k) {
          if (!decode[k]) continue;
          MIP_RETURN_NOT_OK(AppendSegmentData(SegmentPath(segs[k].id),
                                              segs[k].footer, &survivors));
        }
        MIP_RETURN_NOT_OK(RestoreGroupOrder(survivors, group, group_rows, out));
      }
    }
    i = j;
  }
  return Status::OK();
}

Result<engine::Table> StorageEngine::ScanLocked(
    const TableState& state, const engine::ScanSpec& spec,
    engine::ScanStats* stats) const {
  // The projected schema (validated exactly as the default Scan's
  // SelectTableColumns would) and its field positions in the table schema.
  engine::Schema schema = state.schema;
  if (!spec.columns.empty()) {
    MIP_ASSIGN_OR_RETURN(engine::Table empty,
                         engine::SelectTableColumns(
                             engine::Table::Empty(state.schema), spec.columns));
    schema = empty.schema();
  }
  std::vector<size_t> fields;
  for (const engine::Field& field : schema.fields()) {
    fields.push_back(static_cast<size_t>(state.schema.FieldIndex(field.name)));
  }
  const SegmentSelection sel =
      SelectSegmentsLocked(state, spec.prune_filter, spec.use_index);

  // One reservation for everything the scan returns, then every segment
  // and memtable batch appends straight into it.
  uint64_t rows = state.memtable_rows;
  for (size_t s = 0; s < state.segments.size(); ++s) {
    if (sel.decode[s]) rows += state.segments[s].footer.num_rows;
  }
  engine::Table out = engine::Table::Empty(schema);
  out.Reserve(static_cast<size_t>(rows));
  MIP_RETURN_NOT_OK(AppendSegmentRows(state.segments, sel.decode, &out));
  // Memtable rows ride along unpruned — they have no zone maps and the
  // Filter above the scan re-applies the predicate anyway. Each batch
  // contributes its projected columns as pointer copies of its buffers.
  for (const engine::Table& batch : state.memtable) {
    std::vector<engine::Column> columns;
    columns.reserve(fields.size());
    for (size_t f : fields) columns.push_back(batch.column(f));
    MIP_ASSIGN_OR_RETURN(engine::Table projected,
                         engine::Table::Make(schema, std::move(columns)));
    MIP_RETURN_NOT_OK(out.Append(projected));
  }

  // Only an executing scan counts toward the lifetime counters; previews
  // run the same selection without touching them.
  ctr_segments_scanned_.fetch_add(static_cast<uint64_t>(sel.stats.scanned),
                                  std::memory_order_relaxed);
  ctr_segments_pruned_.fetch_add(static_cast<uint64_t>(sel.stats.pruned),
                                 std::memory_order_relaxed);
  ctr_index_probes_.fetch_add(static_cast<uint64_t>(sel.stats.index_probes),
                              std::memory_order_relaxed);
  ctr_index_hits_.fetch_add(sel.index_hits, std::memory_order_relaxed);
  if (stats != nullptr) *stats = sel.stats;
  return out;
}

Result<engine::Table> StorageEngine::Scan(const std::string& name,
                                          const engine::ScanSpec& spec,
                                          engine::ScanStats* stats) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("no disk table named '" + name + "'");
  }
  return ScanLocked(it->second, spec, stats);
}

Result<engine::Table> StorageEngine::ScanTable(
    const std::string& name, const engine::Expr* prune_filter,
    engine::ScanStats* stats) const {
  return Scan(name, engine::ScanSpec{{}, prune_filter, false}, stats);
}

Result<engine::Table> StorageEngine::IndexScanTable(
    const std::string& name, const engine::Expr* prune_filter,
    engine::ScanStats* stats) const {
  return Scan(name, engine::ScanSpec{{}, prune_filter, true}, stats);
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
  return SelectSegmentsLocked(it->second, prune_filter, /*use_index=*/false)
      .stats;
}

Result<engine::IndexPreview> StorageEngine::PreviewIndexScan(
    const std::string& name, const engine::Expr* prune_filter) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("no disk table named '" + name + "'");
  }
  const SegmentSelection sel =
      SelectSegmentsLocked(it->second, prune_filter, /*use_index=*/true);
  engine::IndexPreview preview;
  preview.stats = sel.stats;
  // The index path wins when its probes prove segments empty that zone maps
  // alone would decode — fewer segments touched is the whole game here
  // (stream codecs forbid row-level gathers, so decode count IS the cost).
  preview.use_index =
      sel.stats.index_probes > 0 && sel.stats.scanned < sel.zone_survivors;
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
      // Every index the footer lists, read from disk — so an index already
      // left out at Open, or rotted since, surfaces here as the typed error
      // the silent scan fallback swallows.
      Status st = VerifyIndex(SegmentPath(seg.id), seg.footer);
      if (!st.ok()) {
        return Status::IOError("table '" + key + "' segment " +
                               std::to_string(seg.id) + ": " + st.message());
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
    count += seg.indexes.size();
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
