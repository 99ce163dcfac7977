// xkeyword_cli — run keyword proximity search over your own XML.
//
//   xkeyword_cli <schema.cfg> <data.xml> [keywords...]
//
// The schema configuration declares the schema graph and target schema
// segments (see src/schema/config_parser.h for the format; a ready-made
// DBLP configuration is printed with --print-dblp-config). With keywords on
// the command line one query is executed; otherwise queries are read from
// stdin, one per line.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "datagen/dblp_gen.h"
#include "engine/xkeyword.h"
#include "schema/config_parser.h"
#include "xml/xml_parser.h"

namespace {

xk::Result<std::string> ReadFile(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return xk::Status::NotFound(std::string("cannot open ") + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void RunQuery(xk::engine::XKeyword& xk, const xk::schema::TssGraph& tss,
              const std::vector<std::string>& keywords) {
  xk::engine::QueryRequest request;
  request.keywords = keywords;
  request.decomposition = "XKeyword";
  request.mode = xk::engine::QueryMode::kTopK;
  request.options.max_size_z = 6;
  request.options.per_network_k = 3;
  // Interactive budget: a runaway query stops where the deadline trips and
  // returns what it found (response.status = kDeadlineExceeded, completeness
  // kDegraded, coverage says how far it got) instead of hanging the prompt.
  request.deadline = std::chrono::seconds(10);

  xk::Stopwatch sw;
  auto response = xk.Run(request);
  if (!response.ok()) {
    std::printf("error: %s\n", response.status().ToString().c_str());
    return;
  }
  // CTSSNs for rendering: preparation is deterministic, so ctssn_index in
  // the response refers to exactly this list.
  auto prepared = xk.Prepare(keywords, "XKeyword", request.options);
  if (!prepared.ok()) {
    std::printf("error: %s\n", prepared.status().ToString().c_str());
    return;
  }
  std::printf("%zu results across %zu candidate networks (%.2f ms)%s\n",
              response->mttons.size(), prepared->ctssns.size(),
              sw.ElapsedMillis(),
              response->completeness != xk::engine::Completeness::kComplete
                  ? " [degraded: deadline]"
                  : "");
  int shown = 0;
  for (const xk::present::Mtton& m : response->mttons) {
    if (++shown > 5) {
      std::printf("... (%zu more)\n", response->mttons.size() - 5);
      break;
    }
    std::printf("%s\n",
                xk::present::RenderMtton(
                    m, prepared->ctssns[static_cast<size_t>(m.ctssn_index)], tss,
                    xk.catalog().blob_store())
                    .c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xk;

  if (argc == 2 && std::string(argv[1]) == "--print-dblp-config") {
    schema::SchemaGraph s;
    auto tss = datagen::BuildDblpSchema(&s);
    if (!tss.ok()) return 1;
    std::printf("%s", schema::WriteSchemaConfig(s, **tss).c_str());
    return 0;
  }
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <schema.cfg> <data.xml> [keywords...]\n"
                 "       %s --print-dblp-config\n",
                 argv[0], argv[0]);
    return 2;
  }

  auto config_text = ReadFile(argv[1]);
  if (!config_text.ok()) {
    std::fprintf(stderr, "%s\n", config_text.status().ToString().c_str());
    return 1;
  }
  auto config = schema::ParseSchemaConfig(*config_text);
  if (!config.ok()) {
    std::fprintf(stderr, "schema config: %s\n", config.status().ToString().c_str());
    return 1;
  }

  auto xml_text = ReadFile(argv[2]);
  if (!xml_text.ok()) {
    std::fprintf(stderr, "%s\n", xml_text.status().ToString().c_str());
    return 1;
  }
  auto doc = xml::ParseXml(*xml_text);
  if (!doc.ok()) {
    std::fprintf(stderr, "xml: %s\n", doc.status().ToString().c_str());
    return 1;
  }

  Stopwatch load;
  auto xkeyword =
      engine::XKeyword::Load(&doc->graph, &(*config)->schema, (*config)->tss.get());
  if (!xkeyword.ok()) {
    std::fprintf(stderr, "load: %s\n", xkeyword.status().ToString().c_str());
    return 1;
  }
  auto decomposition = decomp::MakeXKeyword(*(*config)->tss, /*B=*/2, /*M=*/4);
  if (!decomposition.ok() ||
      !(*xkeyword)->AddDecomposition(std::move(*decomposition)).ok()) {
    std::fprintf(stderr, "decomposition failed\n");
    return 1;
  }
  std::printf("loaded %lld nodes, %lld objects, %zu keywords in %.1f ms\n",
              static_cast<long long>(doc->graph.NumNodes()),
              static_cast<long long>((*xkeyword)->objects().NumObjects()),
              (*xkeyword)->master_index().NumKeywords(), load.ElapsedMillis());

  if (argc > 3) {
    std::vector<std::string> keywords;
    for (int i = 3; i < argc; ++i) keywords.emplace_back(argv[i]);
    RunQuery(**xkeyword, *(*config)->tss, keywords);
    return 0;
  }

  std::printf("enter keyword queries (one per line, ctrl-d to exit):\n> ");
  std::string line;
  while (std::getline(std::cin, line)) {
    std::vector<std::string> keywords = xk::Tokenize(line);
    if (!keywords.empty()) RunQuery(**xkeyword, *(*config)->tss, keywords);
    std::printf("> ");
  }
  return 0;
}
