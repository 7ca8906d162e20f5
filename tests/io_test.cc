// Trace CSV round-trips, topology export, and the flag parser.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic_trace.h"
#include "data/trace_io.h"
#include "net/topology_io.h"
#include "tests/test_scenario.h"
#include "util/flags.h"

namespace wsnq {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(TraceIoTest, RoundTripPreservesEverything) {
  SyntheticTrace::Options options;
  options.seed = 3;
  std::vector<Point2D> positions;
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    positions.push_back({rng.UniformDouble(), rng.UniformDouble()});
  }
  const SyntheticTrace original(std::move(positions), options);

  const std::string path = TempPath("trace_roundtrip.csv");
  ASSERT_TRUE(WriteTraceCsv(original, 30, path).ok());
  auto loaded = ReadTraceCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded.value().num_sensors(), original.num_sensors());
  EXPECT_EQ(loaded.value().range_min(), original.range_min());
  EXPECT_EQ(loaded.value().range_max(), original.range_max());
  EXPECT_EQ(loaded.value().rounds(), 31);
  for (int64_t t = 0; t <= 30; ++t) {
    for (int i = 0; i < original.num_sensors(); ++i) {
      ASSERT_EQ(loaded.value().Value(i, t), original.Value(i, t))
          << "t=" << t << " i=" << i;
    }
  }
}

TEST(TraceIoTest, RejectsMissingFile) {
  EXPECT_FALSE(ReadTraceCsv("/nonexistent/nope.csv").ok());
}

TEST(TraceIoTest, RejectsMalformedHeader) {
  const std::string path = TempPath("bad_header.csv");
  std::ofstream(path) << "round,s0\n0,5\n";
  const auto result = ReadTraceCsv(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceIoTest, RejectsRaggedRows) {
  const std::string path = TempPath("ragged.csv");
  std::ofstream(path) << "# wsnq-trace range_min=0 range_max=9\n"
                      << "round,s0,s1\n0,1,2\n1,3\n";
  EXPECT_FALSE(ReadTraceCsv(path).ok());
}

TEST(TraceIoTest, InMemorySourceBounds) {
  InMemoryValueSource source({{1, 2, 3}, {4, 5, 6}}, 0, 10);
  EXPECT_EQ(source.num_sensors(), 3);
  EXPECT_EQ(source.rounds(), 2);
  EXPECT_EQ(source.Value(2, 1), 6);
  EXPECT_EQ(source.Snapshot(0), (std::vector<int64_t>{1, 2, 3}));
}

TEST(TopologyIoTest, DotContainsAllNodesAndTreeEdges) {
  Network net = testing_support::MakeRandomNetwork(30, 5);
  const std::string path = TempPath("topo.dot");
  ASSERT_TRUE(WriteTopologyDot(net, path).ok());
  std::stringstream buffer;
  buffer << std::ifstream(path).rdbuf();
  const std::string dot = buffer.str();
  EXPECT_NE(dot.find("digraph wsnq"), std::string::npos);
  // Every vertex declared; every non-root vertex has a tree edge.
  int node_decls = 0, tree_edges = 0;
  for (size_t pos = 0; (pos = dot.find("[pos=", pos)) != std::string::npos;
       ++pos) {
    ++node_decls;
  }
  for (size_t pos = 0; (pos = dot.find(" -> ", pos)) != std::string::npos;
       ++pos) {
    ++tree_edges;
  }
  EXPECT_EQ(node_decls, net.num_vertices());
  EXPECT_GE(tree_edges, net.num_vertices() - 1);
}

TEST(TopologyIoTest, TreeCsvHasOneRowPerNonRoot) {
  Network net = testing_support::MakeRandomNetwork(25, 9);
  const std::string path = TempPath("tree.csv");
  ASSERT_TRUE(WriteTreeCsv(net, path).ok());
  std::ifstream in(path);
  std::string line;
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 1 + net.num_vertices() - 1);  // header + edges
}

TEST(FlagParserTest, ParsesTypesAndPositionals) {
  const char* argv[] = {"prog",          "--nodes=256", "--radio=35.5",
                        "--trail",       "positional",  "--name=IQ",
                        "--flag=false"};
  FlagParser flags(7, argv);
  EXPECT_EQ(flags.GetInt("nodes", 1), 256);
  EXPECT_DOUBLE_EQ(flags.GetDouble("radio", 1.0), 35.5);
  EXPECT_TRUE(flags.GetBool("trail", false));
  EXPECT_FALSE(flags.GetBool("flag", true));
  EXPECT_EQ(flags.GetString("name", ""), "IQ");
  EXPECT_EQ(flags.GetInt("absent", 7), 7);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
  EXPECT_TRUE(flags.errors().empty());
  EXPECT_TRUE(flags.UnusedFlags().empty());
}

TEST(FlagParserTest, RecordsMalformedValues) {
  const char* argv[] = {"prog", "--n=abc", "--p=12x"};
  FlagParser flags(3, argv);
  EXPECT_EQ(flags.GetInt("n", 5), 5);
  EXPECT_EQ(flags.GetDouble("p", 0.5), 0.5);
  EXPECT_EQ(flags.errors().size(), 2u);
}

TEST(FlagParserTest, ReportsUnusedFlags) {
  const char* argv[] = {"prog", "--typo=1", "--used=2"};
  FlagParser flags(3, argv);
  EXPECT_EQ(flags.GetInt("used", 0), 2);
  const auto unused = flags.UnusedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(FlagParserTest, SplitCommasKeepsEmptyFields) {
  EXPECT_EQ(SplitCommas("IQ,TAG"), (std::vector<std::string>{"IQ", "TAG"}));
  EXPECT_EQ(SplitCommas("IQ"), (std::vector<std::string>{"IQ"}));
  EXPECT_EQ(SplitCommas(""), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitCommas("a,,b,"),
            (std::vector<std::string>{"a", "", "b", ""}));
}

}  // namespace
}  // namespace wsnq
