// Pins the BENCH_*.json text layout the bench emitter produces: CI's
// rerun guard cmp's these files byte for byte, so separators, newlines and
// number rendering are part of the contract.
#include "bench/bench_json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

namespace leap::bench {
namespace {

TEST(BenchJson, OneLineObjectHasNoTrailingComma) {
  EXPECT_EQ(JsonObject().Line(), "{}");
  EXPECT_EQ(JsonObject().Int("a", 1).Line(), "{\"a\": 1}");
  EXPECT_EQ(JsonObject().Int("a", 1).Str("b", "x").Int("c", 3).Line(),
            "{\"a\": 1, \"b\": \"x\", \"c\": 3}");
}

TEST(BenchJson, IntegersRenderInFull) {
  const uint64_t big = std::numeric_limits<uint64_t>::max();
  const size_t pages = 4096;
  const uint32_t node = 1;
  EXPECT_EQ(JsonObject()
                .Int("u64", big)
                .Int("size", pages)
                .Int("u32", node)
                .Int("neg", -3)
                .Line(),
            "{\"u64\": 18446744073709551615, \"size\": 4096, \"u32\": 1, "
            "\"neg\": -3}");
}

TEST(BenchJson, DoublesUseTheirOwnPrecision) {
  EXPECT_EQ(JsonObject()
                .Num("ratio", 0.13889, 4)
                .Num("zero", 0.0, 4)
                .Num("qdelay", 14628.66, 1)
                .Num("acc_per_s", 1664408.4, 0)
                .Num("speedup", 1.11375, 3)
                .Line(),
            "{\"ratio\": 0.1389, \"zero\": 0.0000, \"qdelay\": 14628.7, "
            "\"acc_per_s\": 1664408, \"speedup\": 1.114}");
}

TEST(BenchJson, BoolsAreJsonLiterals) {
  EXPECT_EQ(JsonObject().Bool("t", true).Bool("f", false).Line(),
            "{\"t\": true, \"f\": false}");
}

TEST(BenchJson, NestedOneLineObject) {
  const JsonObject resilience = JsonObject()
                                    .Int("read_retries", uint64_t{0})
                                    .Int("hedged_reads", uint64_t{12});
  EXPECT_EQ(JsonObject()
                .Str("name", "gray_mitigated")
                .Int("p99_remote_ns", uint64_t{20096})
                .Obj("resilience", resilience)
                .Line(),
            "{\"name\": \"gray_mitigated\", \"p99_remote_ns\": 20096, "
            "\"resilience\": {\"read_retries\": 0, \"hedged_reads\": 12}}");
}

TEST(BenchJson, DocumentPutsOneEntryPerLine) {
  const JsonObject doc = JsonObject()
                             .Str("mode", "smoke")
                             .Int("schema_version", 2)
                             .Obj("geometry", JsonObject().Int("hosts", 8));
  EXPECT_EQ(doc.Block(0),
            "{\n"
            "  \"mode\": \"smoke\",\n"
            "  \"schema_version\": 2,\n"
            "  \"geometry\": {\"hosts\": 8}\n"
            "}");
}

TEST(BenchJson, RowsArrayClosesAtTheKeyIndent) {
  const JsonObject doc =
      JsonObject()
          .Raw("scales", JsonRows({JsonObject().Int("hosts", 1).Line(),
                                   JsonObject().Int("hosts", 2).Line()}))
          .Num("p99_improvement", 3.456, 2);
  EXPECT_EQ(doc.Block(0),
            "{\n"
            "  \"scales\": [\n"
            "    {\"hosts\": 1},\n"
            "    {\"hosts\": 2}\n"
            "  ],\n"
            "  \"p99_improvement\": 3.46\n"
            "}");
  EXPECT_EQ(JsonRows({"{}"}), "[\n    {}\n  ]");
}

TEST(BenchJson, NestedBlocksIndentByDepth) {
  const JsonObject policies =
      JsonObject().Obj("leap", JsonObject().Int("hits", 5));
  const JsonObject patterns = JsonObject().Raw("strided", policies.Block(2));
  EXPECT_EQ(JsonObject().Raw("patterns", patterns.Block(1)).Block(0),
            "{\n"
            "  \"patterns\": {\n"
            "    \"strided\": {\n"
            "      \"leap\": {\"hits\": 5}\n"
            "    }\n"
            "  }\n"
            "}");
}

TEST(BenchJson, WriteJsonFileAppendsNewline) {
  const std::string path = testing::TempDir() + "bench_json_test.json";
  ASSERT_TRUE(WriteJsonFile(path, JsonObject().Int("a", 1)));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), "{\n  \"a\": 1\n}\n");
  std::remove(path.c_str());
}

TEST(BenchJson, WriteJsonFileReportsFailure) {
  const std::string path =
      testing::TempDir() + "no_such_dir_for_bench_json/out.json";
  EXPECT_FALSE(WriteJsonFile(path, JsonObject().Int("a", 1)));
}

}  // namespace
}  // namespace leap::bench
