// Tests for tools/ecclint: lexer edge cases, one positive and one
// negative fixture per rule family, suppression semantics, and the
// baseline ratchet.  Everything runs through the in-memory analyze()
// API -- no filesystem, no subprocesses.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer.hpp"
#include "lexer.hpp"

namespace el = eccsim::ecclint;

namespace {

std::vector<std::string> rules_of(const std::vector<el::Finding>& findings) {
  std::vector<std::string> rules;
  for (const el::Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

bool has_rule(const std::vector<el::Finding>& findings,
              const std::string& rule) {
  return std::any_of(
      findings.begin(), findings.end(),
      [&](const el::Finding& f) { return f.rule == rule; });
}

std::vector<el::Finding> run_one(const std::string& path,
                                 const std::string& content,
                                 el::Config cfg = {}) {
  return el::analyze({el::SourceFile{path, content}}, cfg);
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(EcclintLexer, RawStringContentsAreNotTokenized) {
  const el::LexedFile f = el::lex(
      "src/x/a.cpp",
      "auto s = R\"(std::unordered_map<int,int> m; rand();)\";\nint after;\n");
  for (const el::Token& t : f.tokens) {
    if (t.kind == el::Tok::kIdent) {
      EXPECT_NE(t.text, "unordered_map");
      EXPECT_NE(t.text, "rand");
    }
  }
  // The raw literal arrives as a single string token with its contents.
  bool found = false;
  for (const el::Token& t : f.tokens) {
    if (t.kind == el::Tok::kString &&
        t.text.find("unordered_map") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // Tokenization resumes after the literal.
  EXPECT_TRUE(std::any_of(f.tokens.begin(), f.tokens.end(),
                          [](const el::Token& t) { return t.text == "after"; }));
}

TEST(EcclintLexer, RawStringCustomDelimiter) {
  // The )" inside the literal must not terminate it; only )ab" does.
  const el::LexedFile f =
      el::lex("src/x/a.cpp", "auto s = R\"ab(x)\" still inside)ab\"; int y;\n");
  ASSERT_FALSE(f.tokens.empty());
  bool found = false;
  for (const el::Token& t : f.tokens) {
    if (t.kind == el::Tok::kString) {
      EXPECT_EQ(t.text, "x)\" still inside");
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(std::any_of(f.tokens.begin(), f.tokens.end(),
                          [](const el::Token& t) { return t.text == "y"; }));
}

TEST(EcclintLexer, LineSplicedCommentSwallowsNextLine) {
  // The backslash-newline continues the // comment onto line 2, so
  // `int x` is comment text; `int y` on line 3 is real code.
  const el::LexedFile f =
      el::lex("src/x/a.cpp", "// comment \\\nint x = 1;\nint y = 2;\n");
  EXPECT_FALSE(std::any_of(f.tokens.begin(), f.tokens.end(),
                           [](const el::Token& t) { return t.text == "x"; }));
  const auto y = std::find_if(f.tokens.begin(), f.tokens.end(),
                              [](const el::Token& t) { return t.text == "y"; });
  ASSERT_NE(y, f.tokens.end());
  EXPECT_EQ(y->line, 3);
}

TEST(EcclintLexer, IncludeInsideIfZeroIsSkipped) {
  const el::LexedFile f = el::lex("src/x/a.cpp",
                                  "#include \"kept.hpp\"\n"
                                  "#if 0\n"
                                  "#include \"dropped.hpp\"\n"
                                  "#else\n"
                                  "#include \"restored.hpp\"\n"
                                  "#endif\n"
                                  "#include <vector>\n");
  ASSERT_EQ(f.includes.size(), 3u);
  EXPECT_EQ(f.includes[0].path, "kept.hpp");
  EXPECT_FALSE(f.includes[0].angled);
  EXPECT_EQ(f.includes[1].path, "restored.hpp");
  EXPECT_EQ(f.includes[2].path, "vector");
  EXPECT_TRUE(f.includes[2].angled);
}

TEST(EcclintLexer, NestedIfZeroStaysDisabled) {
  const el::LexedFile f = el::lex("src/x/a.cpp",
                                  "#if 0\n"
                                  "#ifdef FOO\n"
                                  "#include \"inner.hpp\"\n"
                                  "#endif\n"
                                  "#include \"still_dead.hpp\"\n"
                                  "#endif\n");
  EXPECT_TRUE(f.includes.empty());
}

TEST(EcclintLexer, SuppressionParsing) {
  const el::LexedFile f =
      el::lex("src/x/a.cpp",
              "int a;  // ecclint:allow(EL002) legacy clock shim\n"
              "int b;  // ecclint:allow(EL004)\n"
              "/* ecclint:allow(EL001) block form */ int c;\n");
  ASSERT_EQ(f.suppressions.size(), 3u);
  EXPECT_EQ(f.suppressions[0].rule, "EL002");
  EXPECT_EQ(f.suppressions[0].reason, "legacy clock shim");
  EXPECT_EQ(f.suppressions[0].line, 1);
  EXPECT_EQ(f.suppressions[1].rule, "EL004");
  EXPECT_TRUE(f.suppressions[1].reason.empty());
  EXPECT_EQ(f.suppressions[2].rule, "EL001");
  EXPECT_EQ(f.suppressions[2].reason, "block form");
}

// ---------------------------------------------------------------------------
// Determinism family
// ---------------------------------------------------------------------------

TEST(EcclintDeterminism, UnorderedIterationInEmitPathFires) {
  const std::string src =
      "#include <unordered_map>\n"
      "struct Acc {\n"
      "  std::unordered_map<int, double> by_key;\n"
      "  double total = 0.0;\n"
      "  void merge_results() {\n"
      "    for (const auto& [k, v] : by_key) {\n"
      "      total += v;\n"
      "    }\n"
      "  }\n"
      "};\n";
  const auto findings = run_one("src/x/a.cpp", src);
  EXPECT_TRUE(has_rule(findings, "EL001"));
  EXPECT_TRUE(has_rule(findings, "EL003"));
}

TEST(EcclintDeterminism, UnorderedIterationOffEmitPathIsSilent) {
  // Same loop, but the enclosing function is not a result/merge/emit
  // path and nothing floating-point accumulates.
  const std::string src =
      "#include <unordered_map>\n"
      "struct Acc {\n"
      "  std::unordered_map<int, int> by_key;\n"
      "  int step() {\n"
      "    int n = 0;\n"
      "    for (const auto& [k, v] : by_key) { n += v; }\n"
      "    return n;\n"
      "  }\n"
      "};\n";
  EXPECT_TRUE(run_one("src/x/a.cpp", src).empty());
}

TEST(EcclintDeterminism, OrderedIterationInEmitPathIsSilent) {
  const std::string src =
      "#include <map>\n"
      "struct Acc {\n"
      "  std::map<int, double> by_key;\n"
      "  double total = 0.0;\n"
      "  void merge_results() {\n"
      "    for (const auto& [k, v] : by_key) { total += v; }\n"
      "  }\n"
      "};\n";
  EXPECT_TRUE(run_one("src/x/a.cpp", src).empty());
}

TEST(EcclintDeterminism, AmbientClockAndEntropyFire) {
  const std::string src =
      "#include <cstdlib>\n"
      "int noise() { return rand(); }\n"
      "long stamp() { return time(nullptr); }\n"
      "void seed() { std::random_device rd; }\n";
  const std::vector<std::string> rules = rules_of(run_one("src/x/a.cpp", src));
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "EL002"), 3);
}

TEST(EcclintDeterminism, MemberTimeCallIsNotTheClock) {
  // `sim.time()` is a member call, not <ctime> time().
  const std::string src = "double now(Sim& sim) { return sim.time(); }\n";
  EXPECT_TRUE(run_one("src/x/a.cpp", src).empty());
}

TEST(EcclintDeterminism, ObsAllowlistPermitsClocks) {
  const std::string src =
      "auto t = std::chrono::system_clock::now();\n";
  EXPECT_TRUE(run_one("src/obs/clock.cpp", src).empty());
  EXPECT_TRUE(has_rule(run_one("src/sim/clock.cpp", src), "EL002"));
}

TEST(EcclintDeterminism, RawMt19937ConstructionFires) {
  EXPECT_TRUE(has_rule(
      run_one("src/x/a.cpp", "std::mt19937 g(12345);\n"), "EL004"));
  EXPECT_TRUE(has_rule(
      run_one("src/x/a.cpp", "std::mt19937_64 g;\n"), "EL004"));
  EXPECT_TRUE(has_rule(
      run_one("src/x/a.cpp", "auto r = std::mt19937{7}();\n"), "EL004"));
}

TEST(EcclintDeterminism, BlessedSeedDerivationIsSilent) {
  EXPECT_TRUE(run_one("src/x/a.cpp",
                      "std::mt19937 g(runner::substream_seed(base, 3));\n")
                  .empty());
  EXPECT_TRUE(run_one("src/x/a.cpp",
                      "std::mt19937_64 g{trace::paper_sweep_seed(cfg)};\n")
                  .empty());
  // A reference parameter is a use, not a construction.
  EXPECT_TRUE(run_one("src/x/a.cpp",
                      "void shuffle(std::mt19937& g, int n);\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

TEST(EcclintSuppression, ReasonedSuppressionSilencesOwnAndNextLine) {
  const std::string trailing =
      "int noise() { return rand(); }  // ecclint:allow(EL002) fixture\n";
  EXPECT_TRUE(run_one("src/x/a.cpp", trailing).empty());

  const std::string above =
      "// ecclint:allow(EL002) fixture needs ambient entropy\n"
      "int noise() { return rand(); }\n";
  EXPECT_TRUE(run_one("src/x/a.cpp", above).empty());
}

TEST(EcclintSuppression, SuppressionDoesNotReachTwoLinesDown) {
  const std::string src =
      "// ecclint:allow(EL002) too far away\n"
      "int pad;\n"
      "int noise() { return rand(); }\n";
  EXPECT_TRUE(has_rule(run_one("src/x/a.cpp", src), "EL002"));
}

TEST(EcclintSuppression, WrongRuleDoesNotSuppress) {
  const std::string src =
      "int noise() { return rand(); }  // ecclint:allow(EL004) wrong rule\n";
  EXPECT_TRUE(has_rule(run_one("src/x/a.cpp", src), "EL002"));
}

TEST(EcclintSuppression, ReasonlessSuppressionIsEL000AndSilencesNothing) {
  const std::string src =
      "int noise() { return rand(); }  // ecclint:allow(EL002)\n";
  const auto findings = run_one("src/x/a.cpp", src);
  EXPECT_TRUE(has_rule(findings, "EL000"));
  EXPECT_TRUE(has_rule(findings, "EL002"));
}

// ---------------------------------------------------------------------------
// Layering family
// ---------------------------------------------------------------------------

namespace layering {

const char* const kLayers =
    "module json   src/runner/json.\n"
    "module common src/common/\n"
    "module stats  src/stats/\n"
    "module obs    src/obs/\n"
    "module runner src/runner/\n"
    "allow stats -> common\n"
    "allow obs -> common stats json\n"
    "allow runner -> common obs json stats\n";

std::vector<el::SourceFile> fixture_tree() {
  return {
      {"src/runner/json.hpp", "#pragma once\n"},
      {"src/obs/telemetry.cpp",
       "#include \"runner/json.hpp\"\n#include \"stats/stats.hpp\"\n"},
      {"src/stats/stats.hpp", "#pragma once\n#include \"common/units.hpp\"\n"},
      {"src/common/units.hpp", "#pragma once\n"},
  };
}

}  // namespace layering

TEST(EcclintLayering, DeclaredEdgesPass) {
  el::Config cfg;
  cfg.layers_text = layering::kLayers;
  EXPECT_TRUE(el::analyze(layering::fixture_tree(), cfg).empty());
}

TEST(EcclintLayering, RemovingTheObsJsonEdgeFails) {
  // The acceptance liveness check: delete `json` from obs's allow list
  // and the obs -> json include must become an EL101 finding.
  std::string layers = layering::kLayers;
  const std::string before = "allow obs -> common stats json\n";
  const std::string after = "allow obs -> common stats\n";
  const std::size_t at = layers.find(before);
  ASSERT_NE(at, std::string::npos);
  layers.replace(at, before.size(), after);

  el::Config cfg;
  cfg.layers_text = layers;
  const auto findings = el::analyze(layering::fixture_tree(), cfg);
  ASSERT_TRUE(has_rule(findings, "EL101"));
  const auto f = std::find_if(
      findings.begin(), findings.end(),
      [](const el::Finding& x) { return x.rule == "EL101"; });
  EXPECT_EQ(f->file, "src/obs/telemetry.cpp");
  EXPECT_NE(f->message.find("obs -> json"), std::string::npos);
}

TEST(EcclintLayering, CarveOutHeaderBelongsToItsOwnModule) {
  // src/runner/json.cpp including "runner/json.hpp" is a json -> json
  // self-edge, not json -> runner, even though the dir-relative
  // resolution `src/runner/runner/json.hpp` would prefix-match runner.
  el::Config cfg;
  cfg.layers_text = layering::kLayers;
  const std::vector<el::SourceFile> files = {
      {"src/runner/json.hpp", "#pragma once\n"},
      {"src/runner/json.cpp", "#include \"runner/json.hpp\"\n"},
  };
  EXPECT_TRUE(el::analyze(files, cfg).empty());
}

TEST(EcclintLayering, CycleInDeclaredDagIsEL102) {
  el::Config cfg;
  cfg.layers_text =
      "module a src/a/\n"
      "module b src/b/\n"
      "allow a -> b\n"
      "allow b -> a\n";
  const auto findings = el::analyze({}, cfg);
  ASSERT_TRUE(has_rule(findings, "EL102"));
  EXPECT_NE(findings.front().message.find("cycle"), std::string::npos);
}

TEST(EcclintLayering, ParseErrorsAreEL102) {
  el::Config cfg;
  cfg.layers_text = "modul a src/a/\n";
  EXPECT_TRUE(has_rule(el::analyze({}, cfg), "EL102"));

  cfg.layers_text = "module a src/a/\nallow a -> ghost\n";
  EXPECT_TRUE(has_rule(el::analyze({}, cfg), "EL102"));
}

TEST(EcclintLayering, UnmappedFilesAndAngledIncludesAreUnconstrained) {
  el::Config cfg;
  cfg.layers_text = layering::kLayers;
  const std::vector<el::SourceFile> files = {
      {"src/common/units.hpp", "#pragma once\n#include <vector>\n"},
      // tests/ matches no module prefix: free to include anything.
      {"tests/foo_test.cpp", "#include \"runner/json.hpp\"\n"},
      {"src/runner/json.hpp", "#pragma once\n"},
  };
  EXPECT_TRUE(el::analyze(files, cfg).empty());
}

namespace fleetlayers {

// The fleet corner of tools/ecclint/layers.txt, reduced to the modules
// that the fleet library and the fleet_demo bench touch.
const char* const kLayers =
    "module json       src/runner/json.\n"
    "module threadpool src/runner/thread_pool.\n"
    "module common     src/common/\n"
    "module obs        src/obs/\n"
    "module dram       src/dram/\n"
    "module faults     src/faults/\n"
    "module fleet      src/fleet/\n"
    "module bench      bench/\n"
    "allow obs -> common\n"
    "allow faults -> common obs threadpool\n"
    "allow fleet -> common faults json\n"
    "allow bench -> common obs faults fleet json\n";

std::vector<el::SourceFile> fixture_tree() {
  return {
      {"src/runner/json.hpp", "#pragma once\n"},
      {"src/common/table.hpp", "#pragma once\n"},
      {"src/obs/manifest.hpp", "#pragma once\n"},
      {"src/dram/spec.hpp", "#pragma once\n"},
      {"src/faults/mc_engine.hpp", "#pragma once\n"},
      {"src/fleet/model.hpp",
       "#pragma once\n"
       "#include \"common/table.hpp\"\n"
       "#include \"faults/mc_engine.hpp\"\n"},
      {"src/fleet/spec.cpp", "#include \"runner/json.hpp\"\n"},
      {"bench/fleet_demo.cpp",
       "#include \"fleet/model.hpp\"\n"
       "#include \"obs/manifest.hpp\"\n"
       "#include \"runner/json.hpp\"\n"},
  };
}

}  // namespace fleetlayers

TEST(EcclintLayering, FleetEdgesPass) {
  // The edges the fleet library and the fleet_demo bench actually use are
  // all declared, so the reduced DAG yields no findings.
  el::Config cfg;
  cfg.layers_text = fleetlayers::kLayers;
  EXPECT_TRUE(el::analyze(fleetlayers::fixture_tree(), cfg).empty());
}

TEST(EcclintLayering, FleetReachingIntoDramIsEL101) {
  // The fleet layer's design rule: DRAM generations are *names*, not a
  // dependency.  A stray include of src/dram must trip the boundary.
  el::Config cfg;
  cfg.layers_text = fleetlayers::kLayers;
  auto files = fleetlayers::fixture_tree();
  files.push_back({"src/fleet/model.cpp", "#include \"dram/spec.hpp\"\n"});
  const auto findings = el::analyze(files, cfg);
  ASSERT_TRUE(has_rule(findings, "EL101"));
  const auto f = std::find_if(
      findings.begin(), findings.end(),
      [](const el::Finding& x) { return x.rule == "EL101"; });
  EXPECT_EQ(f->file, "src/fleet/model.cpp");
  EXPECT_NE(f->message.find("fleet -> dram"), std::string::npos);
}

TEST(EcclintLayering, FleetBackEdgeFromFaultsIsEL101AndCycleIsEL102) {
  // faults including fleet is an undeclared edge (EL101); *declaring* it
  // would close a faults -> fleet -> faults loop, which the DAG check
  // rejects as EL102.
  el::Config cfg;
  cfg.layers_text = fleetlayers::kLayers;
  auto files = fleetlayers::fixture_tree();
  files.push_back(
      {"src/faults/mc_engine.cpp", "#include \"fleet/model.hpp\"\n"});
  EXPECT_TRUE(has_rule(el::analyze(files, cfg), "EL101"));

  cfg.layers_text =
      std::string(fleetlayers::kLayers) + "allow faults -> fleet\n";
  EXPECT_TRUE(has_rule(el::analyze({}, cfg), "EL102"));
}

// ---------------------------------------------------------------------------
// Schema family
// ---------------------------------------------------------------------------

TEST(EcclintSchema, MalformedSchemaIdIsEL201) {
  EXPECT_TRUE(has_rule(
      run_one("src/x/a.cpp", "const char* s = \"eccsim.BadName/1\";\n"),
      "EL201"));
  EXPECT_TRUE(has_rule(
      run_one("src/x/a.cpp", "const char* s = \"eccsim.noversion\";\n"),
      "EL201"));
  EXPECT_TRUE(has_rule(
      run_one("src/x/a.cpp", "const char* s = \"eccsim.foo/one\";\n"),
      "EL201"));
}

TEST(EcclintSchema, UndocumentedSchemaIdIsEL202) {
  el::Config cfg;
  cfg.schema_doc = "The heartbeat schema is `eccsim.heartbeat/1`.\n";
  EXPECT_TRUE(
      run_one("src/x/a.cpp", "doc.set(\"schema\", \"eccsim.heartbeat/1\");\n",
              cfg)
          .empty());
  EXPECT_TRUE(has_rule(
      run_one("src/x/a.cpp", "doc.set(\"schema\", \"eccsim.mystery/1\");\n",
              cfg),
      "EL202"));
}

TEST(EcclintSchema, VersionSplitAcrossFilesIsEL203) {
  const std::vector<el::SourceFile> files = {
      {"src/x/a.cpp", "const char* s = \"eccsim.foo/1\";\n"},
      {"src/x/b.cpp", "const char* s = \"eccsim.foo/2\";\n"},
  };
  const auto findings = el::analyze(files, {});
  ASSERT_TRUE(has_rule(findings, "EL203"));
}

TEST(EcclintSchema, KindConflictOnDottedPathIsEL204) {
  const std::string src =
      "void wire(Registry& reg) {\n"
      "  reg.counter(\"dram.acts\");\n"
      "  reg.accum(\"dram.acts\");\n"
      "}\n";
  EXPECT_TRUE(has_rule(run_one("src/x/a.cpp", src), "EL204"));

  const std::string consistent =
      "void wire(Registry& reg) {\n"
      "  reg.counter(\"dram.acts\");\n"
      "  reg.counter(\"dram.acts\");\n"
      "}\n";
  EXPECT_TRUE(run_one("src/x/a.cpp", consistent).empty());
}

TEST(EcclintSchema, UndocumentedFlagIsEL205) {
  const std::string src =
      "static const char kUsage[] = \"usage: tool [--help] [--count=N]\";\n"
      "void parse(const std::string& a) {\n"
      "  if (a == \"--count=\") {}\n"
      "  if (a == \"--frobnicate\") {}\n"
      "}\n";
  const auto findings = run_one("tools/mytool.cpp", src);
  ASSERT_TRUE(has_rule(findings, "EL205"));
  const auto f = std::find_if(
      findings.begin(), findings.end(),
      [](const el::Finding& x) { return x.rule == "EL205"; });
  // --count is documented; only --frobnicate is flagged; --help itself
  // is exempt.
  EXPECT_NE(f->message.find("--frobnicate"), std::string::npos);
  const std::vector<std::string> rules = rules_of(findings);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "EL205"), 1);
}

TEST(EcclintSchema, FlagPrefixDoesNotCountAsDocumentation) {
  // Help mentions --trace-in; that must not document the distinct flag
  // --trace.
  const std::string src =
      "static const char kUsage[] = \"usage: tool [--help] [--trace-in=F]\";\n"
      "void parse(const std::string& a) {\n"
      "  if (a == \"--trace-in=\") {}\n"
      "  if (a == \"--trace\") {}\n"
      "}\n";
  const std::vector<std::string> rules =
      rules_of(run_one("tools/mytool.cpp", src));
  ASSERT_EQ(std::count(rules.begin(), rules.end(), "EL205"), 1);
}

TEST(EcclintSchema, FilesWithoutHelpTextAreExemptFromEL205) {
  // A library-ish file under src/ parses flags but has no --help text:
  // EL205 only audits binaries (bench/, tools/) that advertise --help.
  const std::string src =
      "void parse(const std::string& a) { if (a == \"--quiet\") {} }\n";
  EXPECT_TRUE(run_one("src/x/a.cpp", src).empty());
  EXPECT_TRUE(run_one("tools/mytool.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// Baseline ratchet
// ---------------------------------------------------------------------------

TEST(EcclintBaseline, CoveredFindingsAreNotFresh) {
  const el::Finding a{"src/x/a.cpp", 3, "EL002", "msg a"};
  const el::Finding b{"src/x/b.cpp", 9, "EL004", "msg b"};
  const std::string baseline =
      "# justification for b\n"
      "\n"
      "src/x/b.cpp [EL004] msg b\n";
  const el::BaselineOutcome out = el::apply_baseline({a, b}, baseline);
  ASSERT_EQ(out.fresh.size(), 1u);
  EXPECT_EQ(out.fresh[0].key(), a.key());
  EXPECT_TRUE(out.stale.empty());
}

TEST(EcclintBaseline, LineNumbersDoNotChurnTheKey) {
  // The same finding moved by an edit above it still matches its entry.
  const el::Finding moved{"src/x/b.cpp", 57, "EL004", "msg b"};
  const el::BaselineOutcome out =
      el::apply_baseline({moved}, "src/x/b.cpp [EL004] msg b\n");
  EXPECT_TRUE(out.fresh.empty());
  EXPECT_TRUE(out.stale.empty());
}

TEST(EcclintBaseline, FixedFindingsGoStale) {
  const el::BaselineOutcome out =
      el::apply_baseline({}, "src/x/gone.cpp [EL001] fixed long ago\n");
  EXPECT_TRUE(out.fresh.empty());
  ASSERT_EQ(out.stale.size(), 1u);
  EXPECT_EQ(out.stale[0], "src/x/gone.cpp [EL001] fixed long ago");
}

TEST(EcclintBaseline, RenderRoundTrips) {
  const el::Finding a{"src/x/a.cpp", 3, "EL002", "msg a"};
  const std::string rendered = el::render_baseline({a});
  const el::BaselineOutcome out = el::apply_baseline({a}, rendered);
  EXPECT_TRUE(out.fresh.empty());
  EXPECT_TRUE(out.stale.empty());
}

// ---------------------------------------------------------------------------
// Catalog / output format
// ---------------------------------------------------------------------------

TEST(EcclintCatalog, EveryEmittedRuleIsCataloged) {
  std::vector<std::string> ids;
  for (const el::RuleInfo& r : el::rule_catalog()) ids.emplace_back(r.id);
  for (const char* id : {"EL000", "EL001", "EL002", "EL003", "EL004", "EL101",
                         "EL102", "EL201", "EL202", "EL203", "EL204",
                         "EL205"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end()) << id;
  }
}

TEST(EcclintCatalog, FindingFormatsAreMachineReadable) {
  const el::Finding f{"src/x/a.cpp", 12, "EL001", "the message"};
  EXPECT_EQ(f.str(), "src/x/a.cpp:12: [EL001] the message");
  EXPECT_EQ(f.key(), "src/x/a.cpp [EL001] the message");
}

}  // namespace
