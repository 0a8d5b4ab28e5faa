// Copy-on-write column buffers: a copy of a Column (and so of a Table)
// shares the rows until one side is mutated, and no mutation ever shows
// through another copy — on one thread, and while concurrent SELECTs read
// results that share buffers with a table being appended to or replaced.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "engine/database.h"
#include "engine/remote_site.h"
#include "engine/table.h"
#include "federation/master.h"
#include "net/transport.h"
#include "storage/io.h"
#include "storage/store.h"

namespace mip {
namespace {

using engine::Bitmap;
using engine::Column;
using engine::DataType;
using engine::Database;
using engine::Schema;
using engine::Table;
using engine::Value;

std::vector<uint8_t> Bytes(const Table& t) {
  BufferWriter w;
  engine::SerializeTable(t, &w);
  return w.TakeBytes();
}

// The validity bitmap lives in the shared buffer, so two columns share a
// buffer exactly when their bitmaps are one object.
bool SameBuffer(const Column& a, const Column& b) {
  return &a.validity() == &b.validity();
}

Table OneColumn(Column c) {
  const DataType type = c.type();
  return *Table::Make(Schema({{"x", type}}), {std::move(c)});
}

// Runs `mutate` on a copy of `original` and checks that the copy detached
// and the original's bytes did not change.
template <typename Mutate>
void ExpectCopyOnWrite(const Column& original, Mutate mutate) {
  const std::vector<uint8_t> before = Bytes(OneColumn(original));
  Column copy = original;
  EXPECT_TRUE(SameBuffer(copy, original));
  mutate(&copy);
  EXPECT_FALSE(SameBuffer(copy, original));
  EXPECT_EQ(Bytes(OneColumn(original)), before);
}

Column Ints() {
  Column c(DataType::kInt64);
  c.AppendInt(1);
  c.AppendNull();
  c.AppendInt(3);
  return c;
}

TEST(ColumnSharingTest, CopiesShareTheBufferUntilMutated) {
  const Column a = Column::FromDoubles({1.0, 2.0});
  const Column b = a;
  EXPECT_TRUE(SameBuffer(b, a));
  EXPECT_EQ(b.doubles().data(), a.doubles().data());
  const Table t = OneColumn(a);
  const Table t2 = t;
  EXPECT_TRUE(SameBuffer(t2.column(0), a));
}

TEST(ColumnSharingTest, EveryMutatorCopiesOnWrite) {
  const Column ints = Ints();
  ExpectCopyOnWrite(ints, [](Column* c) { c->AppendInt(9); });
  ExpectCopyOnWrite(ints, [](Column* c) { c->AppendNull(); });
  ExpectCopyOnWrite(ints, [](Column* c) {
    ASSERT_TRUE(c->AppendValue(Value::Int(5)).ok());
  });
  ExpectCopyOnWrite(ints, [](Column* c) { c->Reserve(100); });
  ExpectCopyOnWrite(ints, [&ints](Column* c) { c->AppendFrom(ints); });
  ExpectCopyOnWrite(ints, [](Column* c) { c->AppendFrom(*c); });
  ExpectCopyOnWrite(ints, [&ints](Column* c) {
    c->AppendTake(ints, {2, 1, 0});
  });
  ExpectCopyOnWrite(ints, [](Column* c) { c->mutable_ints()[0] = 42; });
  ExpectCopyOnWrite(ints, [](Column* c) {
    c->mutable_ints().push_back(7);
    c->AdoptAppendedRows(Bitmap());
  });
  ExpectCopyOnWrite(ints, [](Column* c) {
    ASSERT_TRUE(c->SetValidity(Bitmap(3, true)).ok());
  });

  const Column doubles = Column::FromDoubles({0.5, -0.0});
  ExpectCopyOnWrite(doubles, [](Column* c) { c->AppendDouble(1.0); });
  ExpectCopyOnWrite(doubles, [](Column* c) { c->mutable_doubles()[1] = 3; });
  const Column bools = Column::FromBools({1, 0});
  ExpectCopyOnWrite(bools, [](Column* c) { c->AppendBool(true); });
  ExpectCopyOnWrite(bools, [](Column* c) { c->mutable_bools()[0] = 0; });
  const Column strings = Column::FromStrings({"a", ""});
  ExpectCopyOnWrite(strings, [](Column* c) { c->AppendString("b"); });
  ExpectCopyOnWrite(strings, [](Column* c) { c->mutable_strings()[0] = "z"; });
}

TEST(ColumnSharingTest, TableMutationsLeaveCopiesAlone) {
  Table t = OneColumn(Ints());
  const Table copy = t;
  const std::vector<uint8_t> before = Bytes(copy);
  ASSERT_TRUE(t.AppendRow({Value::Int(4)}).ok());
  t.mutable_column(0).mutable_ints()[0] = -1;
  EXPECT_EQ(Bytes(copy), before);
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.At(0, 0).int_value(), -1);
}

TEST(ColumnSharingTest, MovedFromColumnIsEmptyAndIndependent) {
  Column a = Ints();
  const std::vector<uint8_t> bytes = Bytes(OneColumn(a));
  Column b = std::move(a);
  EXPECT_EQ(a.length(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(a.has_validity());
  a.AppendInt(8);
  a.AppendNull();
  EXPECT_EQ(a.length(), 2u);
  EXPECT_EQ(Bytes(OneColumn(b)), bytes);

  Column c = Ints();
  c = std::move(b);
  EXPECT_EQ(Bytes(OneColumn(c)), bytes);
  EXPECT_EQ(b.length(), 0u);  // NOLINT(bugprone-use-after-move)
  b.AppendInt(1);
  EXPECT_EQ(Bytes(OneColumn(c)), bytes);

  // Two fresh columns never share a writable buffer.
  Column x(DataType::kInt64), y(DataType::kInt64);
  x.AppendInt(1);
  EXPECT_EQ(y.length(), 0u);
  EXPECT_TRUE(y.ints().empty());
}

TEST(ColumnSharingTest, GetTableSharesAndInsertDetaches) {
  Database db("d");
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (k bigint, s varchar)").ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO t VALUES (1, 'a'), (2, 'b')").ok());
  const Table first = *db.GetTable("t");
  EXPECT_TRUE(SameBuffer(db.GetTable("t")->column(0), first.column(0)));
  const std::vector<uint8_t> before = Bytes(first);
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO t VALUES (3, 'c')").ok());
  EXPECT_EQ(Bytes(first), before);
  EXPECT_EQ(db.GetTable("t")->num_rows(), 3u);
  // SELECT * hands back the stored buffers; later INSERTs leave it alone.
  const Table all = *db.ExecuteSql("SELECT * FROM t");
  const std::vector<uint8_t> all_bytes = Bytes(all);
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO t VALUES (4, 'd')").ok());
  EXPECT_EQ(Bytes(all), all_bytes);
}

TEST(ColumnSharingTest, RemoteAndMergeTablesAreNotReadThroughGetTable) {
  Database db("d");
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE p (k bigint)").ok());
  ASSERT_TRUE(db.ExecuteSql("CREATE MERGE TABLE m (p)").ok());
  EXPECT_EQ(db.GetTable("m").status().code(), StatusCode::kInvalidArgument);
}

// Rows k = 0..n-1 with every x equal to `x`.
Table Numbered(double x, int rows) {
  Column k(DataType::kInt64), v(DataType::kFloat64);
  for (int r = 0; r < rows; ++r) {
    k.AppendInt(r);
    v.AppendDouble(x);
  }
  return *Table::Make(Schema({{"k", DataType::kInt64}, {"x", DataType::kFloat64}}),
                      {std::move(k), std::move(v)});
}

std::vector<uint8_t> RunSqlPayload(const std::string& sql) {
  engine::RemoteRequest request;
  request.sql = sql;
  BufferWriter writer;
  engine::EncodeRemoteRequest(request, &writer);
  return writer.TakeBytes();
}

// True if `reply` holds one whole state of the table: k = 0..n-1 in order
// and one x throughout.
bool WholeState(const Result<std::vector<uint8_t>>& reply) {
  if (!reply.ok()) return false;
  BufferReader reader(reply.ValueOrDie());
  Result<Table> t = engine::DeserializeTable(&reader);
  if (!t.ok() || t->num_rows() == 0) return false;
  const double x = t->At(0, 1).double_value();
  for (size_t i = 0; i < t->num_rows(); ++i) {
    if (t->At(i, 0).int_value() != static_cast<int64_t>(i) ||
        t->At(i, 1).double_value() != x) {
      return false;
    }
  }
  return true;
}

// Runs `payload` on worker h0 until `stop`, counting every answer and, as
// bad, every one that is not a whole state.
void ReadUntilStopped(federation::MasterNode* master,
                      const std::vector<uint8_t>& payload,
                      const std::atomic<bool>& stop, std::atomic<int>* answers,
                      std::atomic<int>* bad) {
  while (!stop.load()) {
    if (!WholeState(master->bus().Send(
            net::Envelope{"master", "h0", "run_sql", "", payload}))) {
      bad->fetch_add(1);
    }
    answers->fetch_add(1);
  }
}

// A worker serializes a SELECT's result after it has released its catalog
// lock, and a SELECT * result shares its buffers with the stored table. So
// INSERTs (which append to the stored table in place once it is unshared)
// and dataset reloads run while other threads still read those buffers.
// Every answer must be one whole state: k = 0..n-1 and one x throughout.
TEST(ColumnSharingConcurrencyTest, SelectsReadWhileTheTableIsAppendedAndReplaced) {
  federation::MasterNode master;
  ASSERT_TRUE(master.AddWorker("h0").ok());
  ASSERT_TRUE(master.LoadDataset("h0", "d", Numbered(1.0, 64)).ok());

  const std::vector<uint8_t> select_all = RunSqlPayload("SELECT * FROM d");
  const std::vector<uint8_t> select_some =
      RunSqlPayload("SELECT k, x FROM d WHERE k >= 0 AND x > 0");
  std::atomic<bool> stop{false};
  std::atomic<int> answers{0}, bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      ReadUntilStopped(&master, r == 0 ? select_some : select_all, stop,
                       &answers, &bad);
    });
  }
  const std::vector<uint8_t> insert = RunSqlPayload(
      "INSERT INTO d VALUES (64, 1.0)");
  for (int i = 0; i < 300 || answers.load() < 300; ++i) {
    if (i % 3 == 2) {
      // Appends k = 64 onto the 64-row table; the next reload resets it.
      auto reply = master.bus().Send(
          net::Envelope{"master", "h0", "run_sql", "", insert});
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    }
    ASSERT_TRUE(master
                    .LoadDataset("h0", "d",
                                 i % 3 == 0 ? Numbered(3.0, 100)
                                            : Numbered(1.0, 64))
                    .ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(answers.load(), 0);
  EXPECT_EQ(bad.load(), 0);
}

// The same readers over a disk table, while INSERTs (through the worker's
// IngestDisk) and out-of-band StorageEngine::AppendRows calls append to it.
TEST(ColumnSharingConcurrencyTest, SelectsReadWhileDiskRowsAreAppended) {
  const std::string dir = ::testing::TempDir() + "mip_column_sharing_disk";
  ASSERT_TRUE(storage::EnsureDir(dir).ok());
  if (auto names = storage::ListDir(dir); names.ok()) {
    for (const std::string& f : names.ValueOrDie()) {
      ASSERT_TRUE(storage::RemoveFile(dir + "/" + f).ok());
    }
  }
  auto store = storage::StorageEngine::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->AppendRows("d", Numbered(1.0, 64)).ok());
  federation::MasterNode master;
  federation::WorkerNode* worker = *master.AddWorker("h0");
  ASSERT_TRUE(worker->AttachDiskStorage(store->get()).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> answers{0}, bad{0};
  std::vector<std::thread> readers;
  const std::vector<uint8_t> select_all = RunSqlPayload("SELECT * FROM d");
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      ReadUntilStopped(&master, select_all, stop, &answers, &bad);
    });
  }
  // k keeps counting up, so every prefix a reader sees is 0..n-1.
  int64_t next = 64;
  for (int i = 0; i < 100 || answers.load() < 100; ++i) {
    if (i % 2 == 0) {
      const std::vector<uint8_t> insert = RunSqlPayload(
          "INSERT INTO d VALUES (" + std::to_string(next) + ", 1.0)");
      auto reply = master.bus().Send(
          net::Envelope{"master", "h0", "run_sql", "", insert});
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    } else {
      Column k(DataType::kInt64), x(DataType::kFloat64);
      k.AppendInt(next);
      x.AppendDouble(1.0);
      ASSERT_TRUE((*store)
                      ->AppendRows("d", *Table::Make(
                                            Schema({{"k", DataType::kInt64},
                                                    {"x", DataType::kFloat64}}),
                                            {std::move(k), std::move(x)}))
                      .ok());
    }
    ++next;
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(answers.load(), 0);
  EXPECT_EQ(bad.load(), 0);
}

}  // namespace
}  // namespace mip
