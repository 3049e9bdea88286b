// docs/ONLINE.md's "Metric and event names" tables are the operator's
// reference for what the service exports. This test keeps them true:
// the documented metric names and types must equal the registry of a
// one-tenant service, and the documented event kinds must equal
// EventKind's names. NETCONST_SOURCE_DIR is set by tests/CMakeLists.txt.
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/synthetic.hpp"
#include "obs/naming.hpp"
#include "online/events.hpp"
#include "online/service.hpp"

namespace netconst::online {
namespace {

struct DocTables {
  std::set<std::pair<std::string, std::string>> metrics;  // (name, type)
  std::set<std::string> event_kinds;
};

std::vector<std::string> cells_of(const std::string& row) {
  std::vector<std::string> cells;
  std::stringstream stream(row.substr(1));  // skip the leading '|'
  std::string cell;
  while (std::getline(stream, cell, '|')) {
    const auto first = cell.find_first_not_of(' ');
    const auto last = cell.find_last_not_of(' ');
    cells.push_back(first == std::string::npos
                        ? std::string()
                        : cell.substr(first, last - first + 1));
  }
  return cells;
}

/// Rows of every table in the section, keyed by the table's header.
/// `tenant.<name>.` is replaced by `tenant_prefix`.
DocTables parse_section(std::istream& in, const std::string& tenant_prefix) {
  DocTables tables;
  bool in_section = false;
  std::string header;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) {
      in_section = line == "## Metric and event names";
      continue;
    }
    if (!in_section || line.rfind("|", 0) != 0) {
      header.clear();
      continue;
    }
    const std::vector<std::string> cells = cells_of(line);
    if (header.empty()) {
      header = cells.at(0);
      continue;
    }
    const std::string& first = cells.at(0);
    if (first.size() < 2 || first.front() != '`' || first.back() != '`') {
      continue;  // the |---| separator row
    }
    std::string name = first.substr(1, first.size() - 2);
    const std::string placeholder = "tenant.<name>.";
    if (name.rfind(placeholder, 0) == 0) {
      name = tenant_prefix + name.substr(placeholder.size());
    }
    if (header == "Metric") {
      tables.metrics.emplace(name, cells.at(1));
    } else if (header == "Event kind") {
      tables.event_kinds.insert(name);
    }
  }
  return tables;
}

TEST(ConstantFinderService, OnlineDocNamesEveryMetricAndEventKind) {
  std::ifstream doc(std::string(NETCONST_SOURCE_DIR) + "/docs/ONLINE.md");
  ASSERT_TRUE(doc.is_open());
  const DocTables documented = parse_section(doc, "tenant.solo.");

  cloud::SyntheticCloudConfig network;
  network.cluster_size = 4;
  network.datacenter_racks = 2;
  cloud::SyntheticCloud cloud(network);
  TenantConfig config;
  config.name = "solo";
  config.provider = &cloud;
  ConstantFinderService service;
  service.add_tenant(config);

  std::set<std::pair<std::string, std::string>> registered;
  for (const obs::MetricSample& sample : service.metrics().samples()) {
    registered.emplace(sample.name, obs::metric_type_name(sample.type));
  }
  EXPECT_EQ(documented.metrics, registered);

  std::set<std::string> kinds;
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    kinds.insert(event_kind_name(static_cast<EventKind>(k)));
  }
  EXPECT_EQ(documented.event_kinds, kinds);
}

}  // namespace
}  // namespace netconst::online
