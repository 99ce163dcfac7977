#include "engine/load_stage.h"

#include <algorithm>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "decomp/relation_builder.h"
#include "engine/thread_pool.h"
#include "xml/xml_writer.h"

namespace xk::engine {

Result<std::unique_ptr<LoadedData>> RunLoadStage(
    const xml::XmlGraph& graph, const schema::SchemaGraph& schema,
    const schema::TssGraph& tss, const storage::StorageOptions& options) {
  if (!tss.finalized()) return Status::InvalidArgument("TSS graph not finalized");
  auto data = std::make_unique<LoadedData>();
  data->storage_options = options.WithEnvOverrides();
  if (data->storage_options.backend == storage::StorageBackend::kDisk) {
    XK_ASSIGN_OR_RETURN(data->storage_tier,
                        storage::StorageTier::Create(data->storage_options));
  }

  XK_ASSIGN_OR_RETURN(data->validation, schema::Validate(graph, schema));

  schema::Decomposer decomposer(&graph, &data->validation, &tss);
  XK_ASSIGN_OR_RETURN(data->objects, decomposer.Run());

  data->master_index =
      keyword::MasterIndex::Build(graph, data->validation, data->objects);

  // Target-object BLOBs: the serialized member subtree of each object.
  for (storage::ObjectId o = 0; o < data->objects.NumObjects(); ++o) {
    const std::vector<xml::NodeId>& members = data->objects.MemberNodes(o);
    std::unordered_set<xml::NodeId> restrict_to(members.begin(), members.end());
    std::string blob = xml::WriteSubtree(
        graph, data->objects.object(o).head, &restrict_to, /*pretty=*/false);
    XK_RETURN_NOT_OK(data->catalog.blob_store().Put(o, std::move(blob)));
  }

  // Disk backend: postings and BLOBs are complete — move them onto pages now
  // so the rest of the load (and all queries) reads through the buffer pool.
  if (data->storage_tier != nullptr) {
    XK_RETURN_NOT_OK(data->master_index.SpillToDisk(data->storage_tier.get()));
    XK_RETURN_NOT_OK(
        data->catalog.blob_store().SpillToDisk(data->storage_tier.get()));
  }

  // Statistics: s(T) per segment; c(e) per TSS edge, both directions.
  std::vector<int64_t> edge_counts(static_cast<size_t>(tss.NumEdges()), 0);
  for (const schema::TargetObjectEdge& e : data->objects.edges()) {
    ++edge_counts[static_cast<size_t>(e.edge)];
  }
  for (schema::TssId t = 0; t < tss.NumSegments(); ++t) {
    data->statistics.SetNodeCount(t,
                                  static_cast<size_t>(data->objects.CountOfSegment(t)));
  }
  for (schema::TssEdgeId e = 0; e < tss.NumEdges(); ++e) {
    const schema::TssEdge& te = tss.edge(e);
    int64_t from_count = data->objects.CountOfSegment(te.from);
    int64_t to_count = data->objects.CountOfSegment(te.to);
    data->statistics.SetAvgFanout(
        e, from_count == 0 ? 0.0
                           : static_cast<double>(edge_counts[static_cast<size_t>(e)]) /
                                 static_cast<double>(from_count));
    data->statistics.SetAvgReverseFanout(
        e, to_count == 0 ? 0.0
                         : static_cast<double>(edge_counts[static_cast<size_t>(e)]) /
                               static_cast<double>(to_count));
  }
  return data;
}

Status MaterializeDecomposition(const decomp::Decomposition& d,
                                const schema::TssGraph& tss, LoadedData* data) {
  // Tables are created serially in fragment order; then each relation is
  // filled by one pool task writing only its own table and status slot, so
  // the catalog is the same at any thread count and schedule.
  XK_ASSIGN_OR_RETURN(std::vector<decomp::PendingRelation> pending,
                      decomp::CreateConnectionTables(d, tss, &data->catalog));
  std::vector<Status> filled(pending.size());
  if (!pending.empty()) {
    const size_t cores = std::max(1u, std::thread::hardware_concurrency());
    ThreadPool pool(static_cast<int>(std::min(cores, pending.size())));
    for (size_t i = 0; i < pending.size(); ++i) {
      pool.Submit([&, i] {
        filled[i] = decomp::FillConnectionRelation(
            *pending[i].fragment, d.physical, data->objects, pending[i].table);
      });
    }
    pool.Wait();
  }
  for (const Status& st : filled) XK_RETURN_NOT_OK(st);
  // The spill stays serial, in catalog-name order, so the page file does
  // not depend on the build schedule.
  if (data->storage_tier != nullptr) {
    // Spills the relations this decomposition just built (no-op for tables
    // already on pages).
    XK_RETURN_NOT_OK(data->catalog.SpillToDisk(data->storage_tier.get()));
  }
  return Status::OK();
}

}  // namespace xk::engine
