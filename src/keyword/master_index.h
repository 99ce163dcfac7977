// Copyright (c) the XKeyword authors.
//
// The master index (Section 4, item 1): "an inverted index that stores for
// each keyword k a list of triplets <TO_id, node_id, schema_node> where TO_id
// is the id of the target object that contains the node of type schema_node
// with id node_id, which contains k." The keyword discoverer of the query
// stage reads containing lists L(k) straight out of this structure.
//
// Keywords are lower-cased alphanumeric tokens of a node's tag and value.
// Only nodes belonging to a target object are indexed (dummy nodes carry no
// presentable information).
//
// Layout: keyword strings are interned into one contiguous arena and the
// lookup map keys are string_views into it, so each distinct keyword is
// stored once with no per-key heap allocation. Containing lists are sorted by
// (to_id, node_id) at build and shrunk to fit — deterministic, cache-friendly
// scans at the exact memory footprint.

#ifndef XK_KEYWORD_MASTER_INDEX_H_
#define XK_KEYWORD_MASTER_INDEX_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "schema/decomposer.h"
#include "schema/validator.h"
#include "storage/page_store.h"
#include "storage/value.h"
#include "xml/xml_graph.h"

namespace xk::storage {
class StorageTier;
}  // namespace xk::storage

namespace xk::keyword {

/// One entry of a containing list.
struct Posting {
  storage::ObjectId to_id;
  xml::NodeId node_id;
  schema::SchemaNodeId schema_node;

  bool operator==(const Posting&) const = default;
};

/// A containing list L(k) as handed to readers: a zero-copy span into the
/// in-memory index, or (disk backend) the postings decoded from their
/// delta+varint pages into an owned buffer. Move-only; iterate and drop.
class PostingList {
 public:
  PostingList() = default;
  explicit PostingList(std::span<const Posting> view) : view_(view) {}
  explicit PostingList(std::vector<Posting> owned)
      : owned_(std::move(owned)), view_(owned_) {}

  // Moving a vector keeps its heap buffer, so the view stays valid.
  PostingList(PostingList&&) noexcept = default;
  PostingList& operator=(PostingList&&) noexcept = default;
  PostingList(const PostingList&) = delete;
  PostingList& operator=(const PostingList&) = delete;

  const Posting* begin() const { return view_.data(); }
  const Posting* end() const { return view_.data() + view_.size(); }
  size_t size() const { return view_.size(); }
  bool empty() const { return view_.empty(); }
  const Posting& operator[](size_t i) const { return view_[i]; }

 private:
  std::vector<Posting> owned_;
  std::span<const Posting> view_;
};

/// Inverted index from keyword to containing list.
class MasterIndex {
 public:
  /// Indexes every member node of every target object.
  static MasterIndex Build(const xml::XmlGraph& graph,
                           const schema::ValidationResult& validation,
                           const schema::TargetObjectGraph& objects);

  /// L(k): postings of `keyword` (case-insensitive), sorted by
  /// (to_id, node_id); empty if absent. In-memory backend: a zero-copy view.
  /// Disk backend: decoded from the compressed pages under page pins.
  PostingList ContainingList(const std::string& keyword) const;

  bool Contains(const std::string& keyword) const;

  size_t NumKeywords() const { return ids_.size(); }
  size_t NumPostings() const { return num_postings_; }
  size_t MemoryBytes() const;

  /// Delta-encodes and varint-compresses every containing list onto pages
  /// owned by `tier`, freeing the in-memory lists (the keyword dictionary —
  /// arena + lookup map + per-list directory — stays resident). Idempotent.
  Status SpillToDisk(storage::StorageTier* tier);
  bool IsPaged() const { return tier_ != nullptr; }
  /// Total compressed posting bytes (0 before SpillToDisk).
  size_t CompressedBytes() const { return compressed_bytes_; }

  /// All distinct (schema node, keyword-count) pairs for `keyword` — the CN
  /// generator asks which schema nodes can hold a keyword.
  std::vector<schema::SchemaNodeId> SchemaNodesContaining(
      const std::string& keyword) const;

 private:
  /// List `id` on either backend: a view (memory) or decoded copy (disk).
  PostingList ListAt(uint32_t id) const;

  /// Directory entry of one compressed on-disk list.
  struct DiskList {
    uint64_t offset;  // byte offset into the posting segment
    uint32_t length;  // encoded bytes
    uint32_t count;   // postings
  };

  /// All distinct keywords end to end; sized exactly once before the views in
  /// ids_ are taken, so data() never moves.
  std::string arena_;
  /// Keyword (view into arena_) -> index into lists_ / disk_lists_.
  std::unordered_map<std::string_view, uint32_t> ids_;
  std::vector<std::vector<Posting>> lists_;
  size_t num_postings_ = 0;

  // Disk backend state (null / empty until SpillToDisk).
  storage::StorageTier* tier_ = nullptr;
  storage::PageNo first_page_ = 0;
  std::vector<DiskList> disk_lists_;
  size_t compressed_bytes_ = 0;
};

}  // namespace xk::keyword

#endif  // XK_KEYWORD_MASTER_INDEX_H_
