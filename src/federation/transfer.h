#ifndef MIP_FEDERATION_TRANSFER_H_
#define MIP_FEDERATION_TRANSFER_H_

#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "engine/table.h"
#include "stats/matrix.h"

namespace mip::federation {

/// Magic prefix of the compressed (v2) TransferData layout. The v1 layout
/// starts with the string-map count — never remotely this large — so
/// Deserialize can sniff the format from the first four bytes.
inline constexpr uint32_t kTransferWireMagic = 0x32585443u;  // "CTX2"
inline constexpr uint8_t kTransferWireVersion = 2;

/// \brief The typed payload a local computation step "shares to global" (and
/// a global step shares back to locals) — the `transfer` objects of the
/// paper's Figure 2.
///
/// A TransferData is a named bag of scalars, vectors, matrices and tables.
/// The numeric parts are exactly what the SMPC engine can aggregate
/// (vectors); tables ride only on the non-secure merge-table path.
class TransferData {
 public:
  TransferData() = default;

  void PutScalar(const std::string& key, double v) { scalars_[key] = v; }
  void PutString(const std::string& key, std::string v) {
    strings_[key] = std::move(v);
  }
  void PutStringList(const std::string& key, std::vector<std::string> v) {
    string_lists_[key] = std::move(v);
  }
  void PutVector(const std::string& key, std::vector<double> v) {
    vectors_[key] = std::move(v);
  }
  void PutMatrix(const std::string& key, stats::Matrix m) {
    matrices_[key] = std::move(m);
  }
  void PutTable(const std::string& key, engine::Table t) {
    tables_[key] = std::move(t);
  }

  bool HasScalar(const std::string& key) const {
    return scalars_.count(key) > 0;
  }
  bool HasString(const std::string& key) const {
    return strings_.count(key) > 0;
  }
  bool HasVector(const std::string& key) const {
    return vectors_.count(key) > 0;
  }
  bool HasMatrix(const std::string& key) const {
    return matrices_.count(key) > 0;
  }
  bool HasTable(const std::string& key) const { return tables_.count(key) > 0; }

  Result<double> GetScalar(const std::string& key) const;
  Result<std::string> GetString(const std::string& key) const;
  Result<std::vector<std::string>> GetStringList(const std::string& key) const;
  /// Missing string list -> empty list (common for optional filters).
  std::vector<std::string> GetStringListOrEmpty(const std::string& key) const;
  Result<std::vector<double>> GetVector(const std::string& key) const;
  Result<stats::Matrix> GetMatrix(const std::string& key) const;
  Result<engine::Table> GetTable(const std::string& key) const;

  const std::map<std::string, double>& scalars() const { return scalars_; }
  const std::map<std::string, std::vector<double>>& vectors() const {
    return vectors_;
  }
  const std::map<std::string, stats::Matrix>& matrices() const {
    return matrices_;
  }
  const std::map<std::string, engine::Table>& tables() const {
    return tables_;
  }

  bool HasTables() const { return !tables_.empty(); }

  /// Serializes the full payload (the byte count is what the federation
  /// cost model charges the link) in the fixed-width (v1) layout: the
  /// fallback of SerializeForWire.
  void Serialize(BufferWriter* w) const;
  /// The serializer for every transfer that crosses the wire: vectors,
  /// matrices and tables go through the engine::Codec blocks inside a
  /// magic-tagged v2 container — committed only when measurably smaller
  /// than v1, so the wire size never exceeds the raw size.
  void SerializeForWire(BufferWriter* w) const;
  /// Accepts both the v1 and the v2 layout (sniffed from the first bytes).
  static Result<TransferData> Deserialize(BufferReader* r);
  size_t SerializedBytes() const;
  /// Exact v1 byte size, measured by the v1 walk into a byte-counting sink
  /// (no bytes are built) — the "raw" side of the bytes_raw/bytes_wire
  /// compression ledger. Equal to SerializedBytes().
  size_t RawSerializedBytes() const;

  /// Elementwise sum of the numeric parts of several transfers (all must
  /// share identical key sets and shapes); tables are concatenated.
  /// This is the Master-side merge used by the plain aggregation path.
  static Result<TransferData> SumMerge(const std::vector<TransferData>& parts);

  /// Flattens every scalar / vector / matrix (keys in sorted order) into one
  /// double vector — the layout imported into the SMPC cluster.
  std::vector<double> FlattenNumeric() const;

  /// Rebuilds a transfer with this one's shape from a flat vector produced
  /// by FlattenNumeric on an identically-shaped transfer.
  Result<TransferData> UnflattenNumeric(const std::vector<double>& flat) const;

 private:
  /// The one section walk behind Serialize (v1) and SerializeForWire (v2).
  void WriteSections(bool compressed, BufferWriter* w) const;

  std::map<std::string, std::string> strings_;
  std::map<std::string, std::vector<std::string>> string_lists_;
  std::map<std::string, double> scalars_;
  std::map<std::string, std::vector<double>> vectors_;
  std::map<std::string, stats::Matrix> matrices_;
  std::map<std::string, engine::Table> tables_;
};

}  // namespace mip::federation

#endif  // MIP_FEDERATION_TRANSFER_H_
