#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/canonical.h"
#include "service/plan_cache.h"
#include "service/request.h"

namespace dpipe {

/// Appends one PlanConfig as a single line. Shared by the plan store and
/// the wire protocol.
void write_plan_config(CanonicalWriter& out, const PlanConfig& config);

/// Parses a write_plan_config line.
[[nodiscard]] PlanConfig read_plan_config(CanonicalReader& in);

/// Appends a cache entry in the versioned "dpipe-plan v1" text form:
/// fingerprints, the canonical request bytes, the winning config and its
/// partition options, the explored list, and the instruction program via
/// the .dpipe serializer. save -> load -> save is byte-identical.
void save_plan_entry(CanonicalWriter& out, const CachedPlan& entry);

/// Parses save_plan_entry output and re-verifies it: the request bytes
/// must hash to the stored fingerprint and re-derive the stored model and
/// cluster fingerprints, and the program must parse. Throws
/// std::invalid_argument on any mismatch (the store treats that as a
/// corrupt entry). `request` (optional) receives the request that
/// verification parsed from the request bytes.
[[nodiscard]] CachedPlan load_plan_entry(std::string_view bytes,
                                         PlanRequest* request = nullptr);

/// A directory of persisted plans, one "<fingerprint>.plan" file per
/// entry, written atomically (temp file + rename). A restarted plan
/// server loads the directory and starts warm; entries that fail
/// verification are deleted rather than served.
class PlanStore {
 public:
  struct LoadReport {
    std::vector<std::shared_ptr<const CachedPlan>> plans;
    /// requests[i] is plans[i]'s request, parsed while verifying it.
    std::vector<PlanRequest> requests;
    std::size_t corrupt_dropped = 0;  ///< Unparseable/mismatched, deleted.
  };

  /// Opens (creating if needed) the store directory.
  explicit PlanStore(std::string dir);

  /// Loads every .plan file in the directory. Corrupt entries are deleted
  /// from disk and counted.
  [[nodiscard]] LoadReport load_all();

  /// Persists one entry (atomic: temp file + rename, so a crashed writer
  /// never leaves a half-written entry under the canonical name).
  void put(const CachedPlan& entry);

  /// Deletes every persisted plan whose cluster fingerprint matches.
  /// Returns the number of files removed.
  std::size_t invalidate_cluster(const Fingerprint& cluster_fp);

  /// Deletes the persisted plan with this request fingerprint, if present.
  std::size_t erase(const Fingerprint& fingerprint);

  void clear();

  /// Number of .plan files currently on disk.
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  [[nodiscard]] std::string path_for(const Fingerprint& fingerprint) const;

  std::string dir_;
};

}  // namespace dpipe
