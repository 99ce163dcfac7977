// Copyright (c) the XKeyword authors.
//
// The load stage of Figure 7: the Decomposer inputs the schema graph, the
// TSS graph and the XML graph, and produces the master index, statistics,
// target-object BLOBs and the connection relations of each decomposition.

#ifndef XK_ENGINE_LOAD_STAGE_H_
#define XK_ENGINE_LOAD_STAGE_H_

#include <memory>

#include "common/result.h"
#include "decomp/decomposition.h"
#include "keyword/master_index.h"
#include "schema/decomposer.h"
#include "schema/validator.h"
#include "storage/catalog.h"
#include "storage/statistics.h"
#include "storage/storage_tier.h"

namespace xk::engine {

/// Everything the query stage needs, produced once at load time.
struct LoadedData {
  /// Disk backend only: the page file + buffer pool every spilled substrate
  /// reads through. Declared first so it outlives the structures holding
  /// raw pointers into it. Null on the in-memory backend.
  std::unique_ptr<storage::StorageTier> storage_tier;
  /// The resolved storage options this database was loaded under (after
  /// environment overrides).
  storage::StorageOptions storage_options;

  schema::ValidationResult validation;
  schema::TargetObjectGraph objects;
  keyword::MasterIndex master_index;
  storage::Catalog catalog;  // connection relations + target-object BLOBs
  storage::Statistics statistics;
};

/// Runs validation, target decomposition, master indexing, BLOB
/// serialization and statistics gathering. Connection relations are added
/// separately per decomposition (MaterializeDecomposition). `options` picks
/// the storage backend — kDisk spills the master index and BLOBs onto pages
/// as soon as they are built; environment overrides (XK_STORAGE_BACKEND,
/// XK_BUFFER_POOL_BYTES) are applied on top of the programmatic values.
Result<std::unique_ptr<LoadedData>> RunLoadStage(
    const xml::XmlGraph& graph, const schema::SchemaGraph& schema,
    const schema::TssGraph& tss, const storage::StorageOptions& options = {});

/// Materializes the connection relations of `d` into the loaded catalog,
/// filling them on a pool of up to `hardware_concurrency()` threads, and,
/// on the disk backend, spills the new tables onto pages one at a time in
/// catalog-name order. The result does not depend on the thread count.
Status MaterializeDecomposition(const decomp::Decomposition& d,
                                const schema::TssGraph& tss, LoadedData* data);

}  // namespace xk::engine

#endif  // XK_ENGINE_LOAD_STAGE_H_
