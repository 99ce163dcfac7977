// Copyright (c) the XKeyword authors.
//
// Test-only reference for cn::CnGenerator: the copy-per-extension generator
// the library shipped before its arena rewrite, kept verbatim as the parity
// oracle. Every extension copies the whole partial network, annotations are
// sorted index vectors, the pruning rules rerun over the whole network
// (cn::CnStructurallyPossible), and deduplication keys on the string
// CandidateNetwork::CanonicalKey. property_test asserts the library
// generator returns the same networks in the same order.

#ifndef XK_TESTS_REFERENCE_CN_GENERATOR_H_
#define XK_TESTS_REFERENCE_CN_GENERATOR_H_

#include <vector>

#include "cn/cn_generator.h"

namespace xk::testing {

/// The reference generation of `keyword_schema_nodes` under `options`
/// (max_size and max_networks; the cancel token is ignored).
Result<std::vector<cn::CandidateNetwork>> ReferenceGenerateCns(
    const schema::SchemaGraph& schema, const cn::CnGeneratorOptions& options,
    const std::vector<std::vector<schema::SchemaNodeId>>& keyword_schema_nodes);

}  // namespace xk::testing

#endif  // XK_TESTS_REFERENCE_CN_GENERATOR_H_
