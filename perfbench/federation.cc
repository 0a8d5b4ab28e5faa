// Bringing the benchmark federations up and down.

#include <filesystem>
#include <thread>

#include "bench.h"
#include "common/bytes.h"
#include "federation/worker_steps.h"

namespace perfbench {

namespace fed = mip::federation;
namespace net = mip::net;

std::string SiteId(int site) { return "hospital_" + std::to_string(site); }

// --- SqlFederation -----------------------------------------------------------

namespace {

/// Opens a fresh store in `dir` and ingests `batches` with AppendRows, then
/// flushes, as a first mip_worker --data-dir boot does.
Status IngestSite(const std::string& dir, const std::string& table,
                  const std::vector<Table>& batches,
                  std::unique_ptr<mip::storage::StorageEngine>* store) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  MIP_ASSIGN_OR_RETURN(*store, mip::storage::StorageEngine::Open(dir));
  for (const Table& batch : batches) {
    MIP_RETURN_NOT_OK((*store)->AppendRows(table, batch));
  }
  return (*store)->Flush();
}

}  // namespace

Result<std::unique_ptr<SqlFederation>> SqlFederation::Start(
    const Options& options, std::vector<std::vector<Table>> sites,
    std::vector<std::pair<std::string, Table>> gateway_tables) {
  std::unique_ptr<SqlFederation> f(new SqlFederation());
  f->options_ = options;
  Tracer* tracer = options.tracer;
  auto functions = std::make_shared<fed::LocalFunctionRegistry>();
  MIP_RETURN_NOT_OK(fed::RegisterPortableSteps(functions.get()));

  f->sites_.resize(sites.size());
  if (options.on_disk) {
    // Hospitals ingest independently: one thread per site store.
    std::vector<Status> ingested(sites.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < sites.size(); ++i) {
      threads.emplace_back([&, i] {
        ingested[i] = IngestSite(options.data_root + "/" + SiteId(static_cast<int>(i)),
                                 options.dataset, sites[i], &f->sites_[i].store);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const Status& st : ingested) MIP_RETURN_NOT_OK(st);
  }
  for (size_t i = 0; i < sites.size(); ++i) {
    Site& site = f->sites_[i];
    const std::string id = SiteId(static_cast<int>(i));
    site.worker = std::make_unique<fed::WorkerNode>(id, functions, 1000 + i);
    if (options.on_disk) {
      mip::engine::TableStorage* storage = site.store.get();
      if (tracer != nullptr) {
        site.traced_store = std::make_unique<TracingStorage>(storage, tracer);
        storage = site.traced_store.get();
      }
      MIP_RETURN_NOT_OK(site.worker->AttachDiskStorage(storage));
      site.store->StartBackgroundCompaction();
    } else {
      MIP_ASSIGN_OR_RETURN(Table rows, Table::Concat(sites[i]));
      MIP_RETURN_NOT_OK(site.worker->LoadDataset(options.dataset, std::move(rows)));
    }
    sites[i].clear();
    site.listener = std::make_unique<net::TcpTransport>();
    MIP_RETURN_NOT_OK(site.listener->Listen(0));
    net::Transport* serving = site.listener.get();
    if (tracer != nullptr) {
      site.traced_listener =
          std::make_unique<TracingTransport>(serving, tracer);
      serving = site.traced_listener.get();
    }
    MIP_RETURN_NOT_OK(site.worker->AttachToBus(serving));
  }

  f->master_net_ = std::make_unique<net::TcpTransport>();
  f->master_ = std::make_unique<fed::MasterNode>();
  net::Transport* master_transport = f->master_net_.get();
  if (tracer != nullptr) {
    f->traced_master_net_ =
        std::make_unique<TracingTransport>(master_transport, tracer);
    master_transport = f->traced_master_net_.get();
  }
  f->master_->set_transport(master_transport);
  for (size_t i = 0; i < f->sites_.size(); ++i) {
    const std::string id = SiteId(static_cast<int>(i));
    f->master_net_->AddPeer(id, "127.0.0.1", f->sites_[i].listener->port());
    MIP_RETURN_NOT_OK(f->master_->AddRemoteWorker(id, {options.dataset}));
  }
  MIP_RETURN_NOT_OK(f->master_->CreateFederatedView(options.dataset).status());
  for (auto& [name, table] : gateway_tables) {
    MIP_RETURN_NOT_OK(f->master_->local_db().PutTable(name, std::move(table)));
  }

  f->gateway_ = std::make_unique<fed::Gateway>(&f->master_->local_db());
  f->gateway_->set_link_source(master_transport);
  f->gateway_->set_smpc_source(&f->master_->smpc());
  f->gateway_listener_ = std::make_unique<net::TcpTransport>();
  MIP_RETURN_NOT_OK(f->gateway_listener_->Listen(0));
  if (tracer != nullptr) {
    // The benchmark's own endpoint: the same Handle call Attach registers,
    // wrapped in a span under the client's operation id.
    fed::Gateway* gateway = f->gateway_.get();
    MIP_RETURN_NOT_OK(f->gateway_listener_->RegisterEndpoint(
        gateway->options().node_id,
        [gateway, tracer](const net::Envelope& envelope) {
          Span span;
          span.key = RequestKey(envelope);
          span.op = tracer->LookupCall(span.key);
          span.name = "gateway.handle";
          ScopedOp scope(span.op);
          span.start_ms = NowMs();
          Result<std::vector<uint8_t>> reply = gateway->Handle(envelope);
          span.end_ms = NowMs();
          span.ok = reply.ok();
          tracer->Record(std::move(span));
          return reply;
        }));
  } else {
    MIP_RETURN_NOT_OK(f->gateway_->Attach(f->gateway_listener_.get()));
  }

  f->client_net_ = std::make_unique<net::TcpTransport>();
  f->client_net_->AddPeer(f->gateway_->options().node_id, "127.0.0.1",
                          f->gateway_listener_->port());
  return f;
}

void SqlFederation::Shutdown() {
  if (client_net_) client_net_->Shutdown();
  if (gateway_listener_) gateway_listener_->Shutdown();
  if (master_net_) master_net_->Shutdown();
  for (Site& site : sites_) {
    if (site.listener) site.listener->Shutdown();
    if (site.store) site.store->StopBackgroundCompaction();
  }
}

SqlFederation::~SqlFederation() {
  Shutdown();
  // Handlers are gone; release the nodes before the stores they read.
  gateway_.reset();
  master_.reset();
  for (Site& site : sites_) {
    site.listener.reset();
    site.worker.reset();
  }
  if (options_.on_disk) {
    for (size_t i = 0; i < sites_.size(); ++i) {
      sites_[i].store.reset();
      std::error_code ec;
      std::filesystem::remove_all(
          options_.data_root + "/" + SiteId(static_cast<int>(i)), ec);
    }
  }
}

Result<Table> SqlFederation::Query(const std::string& client,
                                   const std::string& sql) {
  mip::BufferWriter writer;
  writer.WriteString(sql);
  net::Envelope envelope{client, gateway_->options().node_id,
                         mip::federation::kGatewayRunSql, "",
                         writer.TakeBytes()};
  if (options_.tracer != nullptr) {
    // Lets the gateway span find the operation that sent this request.
    const uint64_t key = RequestKey(envelope);
    options_.tracer->BeginCall(key, options_.tracer->CurrentOp());
    Result<std::vector<uint8_t>> reply = client_net_->Send(std::move(envelope));
    options_.tracer->EndCall(key);
    MIP_RETURN_NOT_OK(reply.status());
    mip::BufferReader reader(*reply);
    return mip::engine::DeserializeTable(&reader);
  }
  MIP_ASSIGN_OR_RETURN(std::vector<uint8_t> reply,
                       client_net_->Send(std::move(envelope)));
  mip::BufferReader reader(reply);
  return mip::engine::DeserializeTable(&reader);
}

Status SqlFederation::Append(int site, const Table& rows) {
  Site& s = sites_.at(static_cast<size_t>(site));
  mip::engine::TableStorage* storage =
      s.traced_store ? static_cast<mip::engine::TableStorage*>(s.traced_store.get())
                     : s.store.get();
  if (storage == nullptr) return Status::InvalidArgument("site has no store");
  return storage->AppendRows(options_.dataset, rows);
}

void SqlFederation::WaitForCompactionIdle() {
  // Background compaction picks up a table at compact_min_segments; wait
  // until no site is at that threshold and two polls agree.
  const uint64_t threshold = mip::storage::StorageOptions().compact_min_segments;
  for (int stable = 0, polls = 0; stable < 2 && polls < 200; ++polls) {
    bool busy = false;
    for (Site& site : sites_) {
      if (!site.store) continue;
      Result<uint64_t> segments = site.store->SegmentCount(options_.dataset);
      if (segments.ok() && *segments >= threshold) busy = true;
    }
    stable = busy ? 0 : stable + 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(busy ? 100 : 20));
  }
}

uint64_t SqlFederation::WireBytes() const {
  return client_net_->stats().bytes + master_net_->stats().bytes +
         gateway_listener_->stats().bytes;
}

mip::net::NetworkStats SqlFederation::MasterLinkTotals() const {
  mip::net::NetworkStats total;
  for (const auto& [link, s] : master_net_->link_stats()) {
    total.messages += s.messages;
    total.bytes += s.bytes;
    total.bytes_raw += s.bytes_raw;
    total.bytes_wire += s.bytes_wire;
  }
  return total;
}

fed::Gateway::Stats SqlFederation::GatewayStats() const {
  return gateway_->stats();
}

fed::ResultCache::Stats SqlFederation::CacheStats() const {
  return gateway_->cache().stats();
}

mip::engine::StorageCounters SqlFederation::StorageTotals() const {
  mip::engine::StorageCounters total;
  for (const Site& site : sites_) {
    if (!site.store) continue;
    const mip::engine::StorageCounters c = site.store->Counters();
    total.segments_scanned += c.segments_scanned;
    total.segments_pruned += c.segments_pruned;
    total.index_probes += c.index_probes;
    total.index_hits += c.index_hits;
    total.flushes += c.flushes;
    total.compactions += c.compactions;
    total.wal_replays += c.wal_replays;
  }
  return total;
}

uint64_t SqlFederation::DiskBytes() const {
  uint64_t total = 0;
  for (const Site& site : sites_) {
    if (!site.store) continue;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(site.store->dir(), ec)) {
      if (entry.is_regular_file(ec)) total += entry.file_size(ec);
    }
  }
  return total;
}

Status SqlFederation::PlanOnly(const std::string& sql) {
  return master_->local_db().TryPlanSelectSql(sql).status();
}

// --- StudyFederation ---------------------------------------------------------

Result<std::unique_ptr<StudyFederation>> StudyFederation::Start(
    const std::string& dataset, std::vector<Table> site_tables,
    Tracer* tracer) {
  std::unique_ptr<StudyFederation> f(new StudyFederation());
  f->master_ = std::make_unique<fed::MasterNode>();
  if (tracer != nullptr) {
    // Workers stay registered on the bus itself (the secure descriptive
    // path reaches them directly); the bus runs a handler inline in the
    // sending thread, so the master-side span is the worker's time.
    f->traced_bus_ = std::make_unique<TracingTransport>(&f->master_->bus(), tracer);
    f->master_->set_transport(f->traced_bus_.get());
  }
  for (size_t i = 0; i < site_tables.size(); ++i) {
    const std::string id = SiteId(static_cast<int>(i));
    MIP_RETURN_NOT_OK(f->master_->AddWorker(id).status());
    MIP_RETURN_NOT_OK(f->master_->LoadDataset(id, dataset, std::move(site_tables[i])));
  }
  f->manager_ = std::make_unique<mip::platform::ExperimentManager>(f->master_.get());
  return f;
}

StudyFederation::~StudyFederation() {
  manager_.reset();
  master_.reset();
}

Result<mip::platform::ExperimentRecord> StudyFederation::Run(
    const mip::platform::ExperimentSpec& spec) {
  MIP_ASSIGN_OR_RETURN(std::string id, manager_->Submit(spec));
  return manager_->Get(id);
}

mip::net::NetworkStats StudyFederation::BusStats() const {
  return master_->bus().stats();
}

}  // namespace perfbench
