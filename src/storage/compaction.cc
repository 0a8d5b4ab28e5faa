#include "storage/compaction.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <numeric>

#include "common/string_util.h"
#include "storage/io.h"
#include "storage/store.h"

namespace mip::storage {

bool IsReservedColumn(const std::string& name) {
  const std::string prefix = kReservedColumnPrefix;
  return ToLower(name).compare(0, prefix.size(), prefix) == 0;
}

engine::Schema SchemaWithPos(const engine::Schema& schema) {
  engine::Schema out = schema;
  // Cannot collide: AppendRows rejects user columns with the reserved
  // prefix before they ever reach the WAL.
  (void)out.AddField(
      engine::Field{kHiddenPosColumn, engine::DataType::kInt64});
  return out;
}

Result<engine::Table> SortForCompaction(const engine::Table& table,
                                        const std::string& cluster_key) {
  MIP_ASSIGN_OR_RETURN(const engine::Column* key,
                       table.ColumnByName(cluster_key));
  const size_t n = table.num_rows();
  // Sort category: nulls first, then values, then NaNs — any deterministic
  // total order works (scans restore the original order), this one just
  // keeps the value blocks' zone maps clean of sentinel rows.
  auto category = [key](int64_t i) -> int {
    if (!key->IsValid(static_cast<size_t>(i))) return 0;
    if (key->type() == engine::DataType::kFloat64 &&
        std::isnan(key->DoubleAt(static_cast<size_t>(i)))) {
      return 2;
    }
    return 1;
  };
  auto less = [key, &category](int64_t a, int64_t b) -> bool {
    const int ca = category(a), cb = category(b);
    if (ca != cb) return ca < cb;
    if (ca != 1) return false;  // ties keep original order (stable sort)
    const size_t ia = static_cast<size_t>(a), ib = static_cast<size_t>(b);
    switch (key->type()) {
      case engine::DataType::kBool:
        return key->BoolAt(ia) < key->BoolAt(ib);
      case engine::DataType::kInt64:
        return key->IntAt(ia) < key->IntAt(ib);
      case engine::DataType::kFloat64:
        return key->DoubleAt(ia) < key->DoubleAt(ib);
      case engine::DataType::kString:
        return key->StringAt(ia) < key->StringAt(ib);
    }
    return false;
  };
  std::vector<int64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), less);

  engine::Table sorted = table.Take(order);
  std::vector<engine::Column> columns;
  columns.reserve(sorted.num_columns() + 1);
  for (size_t c = 0; c < sorted.num_columns(); ++c) {
    columns.push_back(std::move(sorted.mutable_column(c)));
  }
  // Output row i came from original row order[i] — exactly the position
  // column the read path inverts.
  columns.push_back(engine::Column::FromInts(order));
  return engine::Table::Make(SchemaWithPos(table.schema()),
                             std::move(columns));
}

Status RestoreGroupOrder(const engine::Table& group, uint64_t group_id,
                         uint64_t group_rows, engine::Table* out) {
  const int pos_idx = group.schema().FieldIndex(kHiddenPosColumn);
  if (pos_idx < 0) {
    return Status::IOError("compaction group is missing its '" +
                           std::string(kHiddenPosColumn) + "' column");
  }
  bool columns_match = out->num_columns() + 1 == group.num_columns();
  for (size_t c = 0, dst = 0; columns_match && c < group.num_columns(); ++c) {
    if (static_cast<int>(c) == pos_idx) continue;
    columns_match = group.column(c).type() == out->column(dst++).type();
  }
  if (!columns_match) {
    return Status::Internal("compaction group does not match its table");
  }
  const std::vector<int64_t>& pos =
      group.column(static_cast<size_t>(pos_idx)).ints();

  // No comparison sort: a bitmap over the group's positions marks each
  // surviving row (a repeated or out-of-range position means a corrupt
  // group), a running count per word ranks the positions, and each row goes
  // to its position's rank. The bitmap is 1/64 of the group's rows.
  struct Word {
    uint64_t bits = 0;
    size_t rank = 0;  // surviving positions below this word's first
  };
  std::vector<Word> words(static_cast<size_t>((group_rows + 63) / 64));
  for (const int64_t p : pos) {
    const uint64_t bit = uint64_t{1} << (p & 63);
    if (p < 0 || static_cast<uint64_t>(p) >= group_rows ||
        (words[p >> 6].bits & bit) != 0) {
      return Status::IOError(
          "corrupt compaction group " + std::to_string(group_id) +
          ": position " + std::to_string(p) + " is repeated or outside [0, " +
          std::to_string(group_rows) + ")");
    }
    words[p >> 6].bits |= bit;
  }
  size_t rank = 0;
  for (Word& word : words) {
    word.rank = rank;
    rank += static_cast<size_t>(std::popcount(word.bits));
  }
  std::vector<int64_t> order(pos.size());
  for (size_t i = 0; i < pos.size(); ++i) {
    const Word& word = words[pos[i] >> 6];
    const int low = static_cast<int>(pos[i] & 63);
    // In a full word (every row of a dense group) the offset is the rank.
    const int below =
        word.bits == ~uint64_t{0}
            ? low
            : std::popcount(word.bits & ((uint64_t{1} << low) - 1));
    order[word.rank + static_cast<size_t>(below)] = static_cast<int64_t>(i);
  }
  size_t dst = 0;
  for (size_t c = 0; c < group.num_columns(); ++c) {
    if (static_cast<int>(c) == pos_idx) continue;
    out->mutable_column(dst++).AppendTake(group.column(c), order);
  }
  return out->SyncRowCount();
}

Status StorageEngine::Compact(const std::string& name,
                              const CompactionHooks& hooks) {
  auto checkpoint = [&hooks](const std::string& step) -> Status {
    if (hooks.checkpoint) return hooks.checkpoint(step);
    return Status::OK();
  };
  // One compaction at a time; scans and appends proceed concurrently and
  // only contend on mu_ at the commit below.
  std::lock_guard<std::mutex> serialize(compact_mu_);

  const std::string key = ToLower(name);
  std::vector<SegmentState> inputs;
  engine::Schema schema;
  {
    std::shared_lock lock(mu_);
    auto it = tables_.find(key);
    if (it == tables_.end()) {
      return Status::NotFound("no disk table named '" + name + "'");
    }
    if (it->second.segments.size() < 2) return Status::OK();
    inputs = it->second.segments;
    schema = it->second.schema;
  }
  if (schema.num_fields() == 0) return Status::OK();
  MIP_RETURN_NOT_OK(checkpoint("begin"));

  // 1. Read every input row in visible order (group-aware, no pruning).
  // Unlocked: segment files are immutable, and only compactions delete
  // them — which this mutex serializes.
  uint64_t input_rows = 0;
  for (const SegmentState& seg : inputs) input_rows += seg.footer.num_rows;
  engine::Table all = engine::Table::Empty(schema);
  all.Reserve(static_cast<size_t>(input_rows));
  MIP_RETURN_NOT_OK(AppendSegmentRows(
      inputs, std::vector<bool>(inputs.size(), true), &all));

  // 2. Re-sort by the clustering key (configured, or the first column) and
  // remember every row's original position.
  std::string cluster = schema.field(0).name;
  if (!options_.cluster_key.empty()) {
    const int fi = schema.FieldIndex(options_.cluster_key);
    if (fi >= 0) cluster = schema.field(static_cast<size_t>(fi)).name;
  }
  MIP_ASSIGN_OR_RETURN(engine::Table sorted, SortForCompaction(all, cluster));

  // 3. Reserve output ids up front (brief exclusive hold; an aborted
  // compaction just burns the ids).
  const uint64_t rows = sorted.num_rows();
  const uint64_t per = std::max<uint64_t>(1, options_.target_segment_rows);
  const uint64_t nsegs = (rows + per - 1) / per;
  uint64_t first_seg = 0;
  {
    std::unique_lock lock(mu_);
    first_seg = next_segment_id_;
    next_segment_id_ += nsegs;
  }
  // Nonzero and unique per compaction (distinct first_seg reservations), so
  // adjacent groups in a segment list can never merge.
  const uint64_t group_id = first_seg + 1;

  // 4. Write the new segments, each holding its indexes. Nothing references
  // these files until the commit; a crash anywhere in here leaves orphans
  // for the next Open's sweep.
  std::vector<SegmentState> outputs;
  auto discard_outputs = [this, &outputs] {
    for (const SegmentState& seg : outputs) {
      (void)RemoveFile(SegmentPath(seg.id));
    }
  };
  for (uint64_t out_i = 0; out_i * per < rows; ++out_i) {
    const size_t off = static_cast<size_t>(out_i * per);
    const size_t count = std::min<size_t>(per, rows - off);
    const engine::Table chunk = sorted.Slice(off, count);
    const uint64_t id = first_seg + out_i;
    MIP_ASSIGN_OR_RETURN(SegmentFooter footer,
                         WriteSegment(SegmentPath(id), chunk));
    outputs.push_back(LoadSegment(id, group_id, std::move(footer)));
    MIP_RETURN_NOT_OK(checkpoint("segment-" + std::to_string(out_i)));
  }
  MIP_RETURN_NOT_OK(checkpoint("pre-commit"));

  // 5. Commit: swap the inputs for the outputs and write the manifest —
  // the single atomic step. Same WAL epoch: compaction rearranges committed
  // rows, the WAL and memtables are untouched.
  {
    std::unique_lock lock(mu_);
    auto it = tables_.find(key);
    bool prefix_intact =
        it != tables_.end() && it->second.segments.size() >= inputs.size();
    if (prefix_intact) {
      for (size_t k = 0; k < inputs.size(); ++k) {
        if (it->second.segments[k].id != inputs[k].id) {
          prefix_intact = false;
          break;
        }
      }
    }
    if (!prefix_intact) {
      // Someone rewrote our inputs (cannot happen while compactions are
      // serialized — flushes only append); abandon quietly.
      lock.unlock();
      discard_outputs();
      return Status::OK();
    }
    std::vector<SegmentState> replaced = outputs;
    for (size_t k = inputs.size(); k < it->second.segments.size(); ++k) {
      replaced.push_back(it->second.segments[k]);
    }
    std::swap(it->second.segments, replaced);  // `replaced` now = old list
    Status st = SaveManifest(ManifestPath(),
                             BuildManifestLocked(wal_id_, wal_salt_));
    if (!st.ok()) {
      std::swap(it->second.segments, replaced);
      lock.unlock();
      discard_outputs();
      return st;
    }
  }
  // A "crash" here (post-commit, pre-delete) leaves the replaced files on
  // disk as orphans of the new manifest; recovery sweeps them.
  MIP_RETURN_NOT_OK(checkpoint("post-commit"));
  ctr_compactions_.fetch_add(1, std::memory_order_relaxed);
  // Delete the replaced files after releasing mu_, so scans and appends
  // never wait out a filesystem that frees blocks slowly. Scans hold the
  // shared lock for their entire read, so every scan that could still read
  // these files finished before the commit took the exclusive lock, and
  // every later one reads the new list. compact_mu_ keeps the next
  // compaction from starting before they are gone. Unlink failures are
  // harmless — the next Open's sweep retries.
  for (const SegmentState& seg : inputs) (void)RemoveFile(SegmentPath(seg.id));
  return checkpoint("done");
}

Status StorageEngine::CompactAll(uint64_t min_segments) {
  const uint64_t min =
      std::max<uint64_t>(2, min_segments == 0 ? options_.compact_min_segments
                                              : min_segments);
  std::vector<std::string> names;
  {
    std::shared_lock lock(mu_);
    for (const auto& [key, state] : tables_) {
      if (state.segments.size() >= min) names.push_back(key);
    }
  }
  for (const std::string& name : names) {
    MIP_RETURN_NOT_OK(Compact(name));
  }
  return Status::OK();
}

void StorageEngine::StartBackgroundCompaction() {
  std::lock_guard<std::mutex> lock(bg_mu_);
  if (bg_thread_.joinable()) return;
  bg_stop_ = false;
  bg_thread_ = std::thread([this] { BackgroundCompactionLoop(); });
}

void StorageEngine::StopBackgroundCompaction() {
  std::thread thread;
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    if (!bg_thread_.joinable()) return;
    bg_stop_ = true;
    thread = std::move(bg_thread_);
  }
  bg_cv_.notify_all();
  thread.join();
}

void StorageEngine::BackgroundCompactionLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(bg_mu_);
      bg_cv_.wait_for(
          lock,
          std::chrono::milliseconds(options_.background_compact_interval_ms),
          [this] { return bg_stop_; });
      if (bg_stop_) return;
    }
    // Best effort: a failed pass (e.g. disk pressure) retries next tick.
    (void)CompactAll();
  }
}

}  // namespace mip::storage
