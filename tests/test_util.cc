#include "test_util.h"

#include "common/logging.h"

namespace xk::testing {

Result<std::vector<present::Mtton>> RunMode(
    const engine::XKeyword& engine, engine::QueryMode mode,
    const std::vector<std::string>& keywords, const std::string& decomposition,
    const engine::QueryOptions& options, engine::ExecutionStats* stats) {
  engine::QueryRequest request;
  request.keywords = keywords;
  request.decomposition = decomposition;
  request.mode = mode;
  request.options = options;
  XK_ASSIGN_OR_RETURN(engine::QueryResponse response, engine.Run(request));
  if (stats != nullptr) {
    const uint64_t results = response.stats.results;
    stats->Add(response.stats);
    stats->results = results;
  }
  return std::move(response.mttons);
}

namespace {
xml::NodeId Leaf(xml::XmlGraph* g, xml::NodeId parent, const char* tag,
                 const std::string& value) {
  xml::NodeId n = g->AddNode(tag, value);
  XK_CHECK(g->AddContainmentEdge(parent, n).ok());
  return n;
}
}  // namespace

std::unique_ptr<Figure1Database> MakeFigure1Database() {
  auto db = std::make_unique<Figure1Database>();
  auto tss = datagen::BuildTpchSchema(&db->schema);
  XK_CHECK(tss.ok());
  db->tss = tss.MoveValueUnsafe();

  xml::XmlGraph& g = db->graph;

  // Parts: a TV (key 1005) whose sub-parts are two VCRs (keys 1008, 1009),
  // plus a standalone TV (key 1002).
  db->tv_part = g.AddNode("part");
  Leaf(&g, db->tv_part, "key", "1005");
  Leaf(&g, db->tv_part, "name", "TV");
  db->vcr_part1 = g.AddNode("part");
  Leaf(&g, db->vcr_part1, "key", "1008");
  Leaf(&g, db->vcr_part1, "name", "VCR");
  db->vcr_part2 = g.AddNode("part");
  Leaf(&g, db->vcr_part2, "key", "1009");
  Leaf(&g, db->vcr_part2, "name", "VCR");
  xml::NodeId tv2 = g.AddNode("part");
  Leaf(&g, tv2, "key", "1002");
  Leaf(&g, tv2, "name", "TV");
  for (xml::NodeId vcr : {db->vcr_part1, db->vcr_part2}) {
    xml::NodeId sub = g.AddNode("sub");
    XK_CHECK(g.AddContainmentEdge(db->tv_part, sub).ok());
    XK_CHECK(g.AddReferenceEdge(sub, vcr).ok());
  }

  // Product 2005: "set of VCR and DVD".
  db->product = g.AddNode("product");
  Leaf(&g, db->product, "prodkey", "2005");
  Leaf(&g, db->product, "descr", "set of VCR and DVD");

  // Persons.
  db->john = g.AddNode("person");
  Leaf(&g, db->john, "name", "John");
  Leaf(&g, db->john, "nation", "US");
  db->mike = g.AddNode("person");
  Leaf(&g, db->mike, "name", "Mike");
  Leaf(&g, db->mike, "nation", "US");

  // John's service call: "DVD error".
  xml::NodeId call = g.AddNode("service_call");
  XK_CHECK(g.AddContainmentEdge(db->john, call).ok());
  Leaf(&g, call, "descr", "DVD error");
  Leaf(&g, call, "date", "2002-11-10");

  auto make_lineitem = [&](xml::NodeId order, const char* qty, const char* ship,
                           xml::NodeId supplier_person, xml::NodeId line_target) {
    xml::NodeId li = g.AddNode("lineitem");
    XK_CHECK(g.AddContainmentEdge(order, li).ok());
    Leaf(&g, li, "quantity", qty);
    Leaf(&g, li, "shipdate", ship);
    xml::NodeId supplier = g.AddNode("supplier");
    XK_CHECK(g.AddContainmentEdge(li, supplier).ok());
    XK_CHECK(g.AddReferenceEdge(supplier, supplier_person).ok());
    xml::NodeId line = g.AddNode("line");
    XK_CHECK(g.AddContainmentEdge(li, line).ok());
    XK_CHECK(g.AddReferenceEdge(line, line_target).ok());
    return li;
  };

  // Mike's orders; John supplies every lineitem.
  db->order1 = g.AddNode("order");
  XK_CHECK(g.AddContainmentEdge(db->mike, db->order1).ok());
  Leaf(&g, db->order1, "date", "2002-11-01");
  db->lineitem_product =
      make_lineitem(db->order1, "10", "2002-11-05", db->john, db->product);

  db->order2 = g.AddNode("order");
  XK_CHECK(g.AddContainmentEdge(db->mike, db->order2).ok());
  Leaf(&g, db->order2, "date", "2002-10-01");
  make_lineitem(db->order2, "6", "2002-10-05", db->john, db->tv_part);
  make_lineitem(db->order2, "10", "2002-10-06", db->john, db->tv_part);

  return db;
}

}  // namespace xk::testing
