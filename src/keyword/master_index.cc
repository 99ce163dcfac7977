#include "keyword/master_index.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "common/strings.h"
#include "storage/page.h"
#include "storage/storage_tier.h"

namespace xk::keyword {

MasterIndex MasterIndex::Build(const xml::XmlGraph& graph,
                               const schema::ValidationResult& validation,
                               const schema::TargetObjectGraph& objects) {
  // Stage 1: collect per-keyword lists into an ordered scratch map (ordered so
  // the arena and list layout are deterministic across runs).
  std::map<std::string, std::vector<Posting>> scratch;
  size_t num_postings = 0;
  for (storage::ObjectId o = 0; o < objects.NumObjects(); ++o) {
    for (xml::NodeId n : objects.MemberNodes(o)) {
      schema::SchemaNodeId sn = validation.node_types[static_cast<size_t>(n)];
      // Tokens of the tag and, if present, the value.
      std::vector<std::string> tokens = Tokenize(graph.label(n));
      if (graph.has_value(n)) {
        std::vector<std::string> value_tokens = Tokenize(graph.value(n));
        tokens.insert(tokens.end(), value_tokens.begin(), value_tokens.end());
      }
      std::sort(tokens.begin(), tokens.end());
      tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
      for (std::string& tok : tokens) {
        scratch[std::move(tok)].push_back(Posting{o, n, sn});
        ++num_postings;
      }
    }
  }

  // Stage 2: intern the keywords into one arena and move the lists into the
  // final layout. The arena is sized exactly before any view is taken, so the
  // views in ids_ stay valid; each list is sorted and shrunk to fit.
  MasterIndex index;
  index.num_postings_ = num_postings;
  size_t arena_size = 0;
  for (const auto& [keyword, list] : scratch) {
    (void)list;
    arena_size += keyword.size();
  }
  index.arena_.reserve(arena_size);
  index.ids_.reserve(scratch.size());
  index.lists_.reserve(scratch.size());
  for (auto& [keyword, list] : scratch) {
    const size_t offset = index.arena_.size();
    index.arena_.append(keyword);
    std::string_view view(index.arena_.data() + offset, keyword.size());
    std::sort(list.begin(), list.end(), [](const Posting& a, const Posting& b) {
      return std::tie(a.to_id, a.node_id) < std::tie(b.to_id, b.node_id);
    });
    list.shrink_to_fit();
    index.ids_.emplace(view, static_cast<uint32_t>(index.lists_.size()));
    index.lists_.push_back(std::move(list));
  }
  XK_CHECK_EQ(index.arena_.size(), arena_size);
  return index;
}

PostingList MasterIndex::ListAt(uint32_t id) const {
  if (tier_ == nullptr) {
    return PostingList(std::span<const Posting>(lists_[id]));
  }
  // Disk backend: fetch the compressed bytes under page pins and decode.
  const DiskList& d = disk_lists_[id];
  const std::string bytes = tier_->ReadSegment(first_page_, d.offset, d.length);
  std::vector<storage::EncodedPosting> decoded;
  const bool ok = storage::DecodePostings(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size(), d.count,
      &decoded);
  XK_CHECK(ok);  // pages are checksummed; a decode failure is a logic bug
  std::vector<Posting> postings;
  postings.reserve(decoded.size());
  for (const storage::EncodedPosting& p : decoded) {
    postings.push_back(Posting{p.to_id, static_cast<xml::NodeId>(p.node_id),
                               static_cast<schema::SchemaNodeId>(p.schema_node)});
  }
  return PostingList(std::move(postings));
}

PostingList MasterIndex::ContainingList(const std::string& keyword) const {
  const std::string lowered = ToLower(keyword);
  auto it = ids_.find(std::string_view(lowered));
  if (it == ids_.end()) return PostingList();
  return ListAt(it->second);
}

Status MasterIndex::SpillToDisk(storage::StorageTier* tier) {
  if (tier_ != nullptr) return Status::OK();
  // One segment holds every list back to back; the per-keyword directory
  // (offset, length, count) stays in RAM beside the interned dictionary.
  std::string blob;
  disk_lists_.resize(lists_.size());
  std::vector<storage::EncodedPosting> scratch;
  for (size_t i = 0; i < lists_.size(); ++i) {
    const std::vector<Posting>& list = lists_[i];
    scratch.clear();
    scratch.reserve(list.size());
    for (const Posting& p : list) {
      scratch.push_back(storage::EncodedPosting{
          p.to_id, static_cast<int64_t>(p.node_id),
          static_cast<int64_t>(p.schema_node)});
    }
    const size_t offset = blob.size();
    storage::EncodePostings(scratch.data(), scratch.size(), &blob);
    disk_lists_[i] = DiskList{static_cast<uint64_t>(offset),
                              static_cast<uint32_t>(blob.size() - offset),
                              static_cast<uint32_t>(list.size())};
  }
  XK_ASSIGN_OR_RETURN(
      storage::PageNo first,
      tier->store()->AppendBytes(storage::PageType::kPostings, blob));
  first_page_ = first;
  compressed_bytes_ = blob.size();
  tier_ = tier;
  std::vector<std::vector<Posting>>().swap(lists_);
  return Status::OK();
}

bool MasterIndex::Contains(const std::string& keyword) const {
  const std::string lowered = ToLower(keyword);
  return ids_.contains(std::string_view(lowered));
}

size_t MasterIndex::MemoryBytes() const {
  size_t bytes = arena_.capacity();
  bytes += lists_.capacity() * sizeof(std::vector<Posting>);
  for (const std::vector<Posting>& list : lists_) {
    bytes += list.capacity() * sizeof(Posting);
  }
  bytes += disk_lists_.capacity() * sizeof(DiskList);
  // Hash map: one (view, id) entry plus a chain pointer per keyword, plus the
  // bucket array.
  bytes += ids_.size() *
           (sizeof(std::string_view) + sizeof(uint32_t) + sizeof(void*));
  bytes += ids_.bucket_count() * sizeof(void*);
  return bytes;
}

std::vector<schema::SchemaNodeId> MasterIndex::SchemaNodesContaining(
    const std::string& keyword) const {
  std::vector<schema::SchemaNodeId> nodes;
  for (const Posting& p : ContainingList(keyword)) nodes.push_back(p.schema_node);
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

}  // namespace xk::keyword
