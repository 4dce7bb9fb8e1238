// Tests for spineless_lint itself: the tokenizer, the lint.toml parser,
// every rule against a known-bad and a known-good fixture, the NOLINT
// suppression contract, the JSON reporter, and the self-check that the
// shipped tree is lint-clean (the static mirror of the determinism suite).
#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "index.h"
#include "lint.h"
#include "rules.h"
#include "token.h"

namespace spineless::lint {
namespace {

// Paths injected by tests/CMakeLists.txt.
const char* const kSourceDir = SPINELESS_SOURCE_DIR;
const char* const kFixtureDir = SPINELESS_LINT_FIXTURES;

std::vector<Finding> findings_for(const LintResult& r,
                                  const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : r.findings)
    if (f.rule == rule) out.push_back(f);
  return out;
}

// Fixture runs use an explicit config (every rule everywhere) so the
// fixtures stay independent of the shipped lint.toml's path scoping.
Config fixture_config() {
  Config cfg;
  cfg.scan = {"."};
  return cfg;
}

// no-wall-clock and no-raw-rand report a direct site and a function that
// reaches one through a call chain under one rule name; the message tells
// the two apart.
bool is_transitive(const Finding& f) {
  return f.message.find(" transitively reaches ") != std::string::npos;
}

std::vector<Finding> direct_findings(const LintResult& r,
                                     const std::string& rule) {
  std::vector<Finding> out = findings_for(r, rule);
  std::erase_if(out, is_transitive);
  return out;
}

std::vector<Finding> transitive_findings(const LintResult& r,
                                         const std::string& rule) {
  std::vector<Finding> out = findings_for(r, rule);
  std::erase_if(out, [](const Finding& f) { return !is_transitive(f); });
  return out;
}

LintResult lint_fixture(const std::string& file) {
  return run_lint(kFixtureDir, fixture_config(), {file});
}

std::string shipped_config_text() {
  std::ifstream in(std::string(kSourceDir) + "/tools/lint/lint.toml");
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Tokenizer, ClassifiesAndCountsLines) {
  std::vector<Token> comments;
  const auto toks = tokenize(
      "// top comment\n"
      "int a = 7;  /* mid\ncomment */\n"
      "const char* s = \"steady_clock\";\n"
      "char c = 'x';\n"
      "#include <chrono>\n"
      "auto r = R\"(rand() inside raw)\";\n",
      &comments);
  ASSERT_EQ(comments.size(), 2u);
  EXPECT_EQ(comments[0].line, 1);
  EXPECT_EQ(comments[1].line, 2);

  // Nothing inside strings, chars, comments, or preprocessor lines may
  // surface as an identifier token.
  for (const Token& t : toks) {
    if (t.kind != TokKind::kIdent) continue;
    EXPECT_NE(t.text, "steady_clock") << "identifier leaked from a string";
    EXPECT_NE(t.text, "rand") << "identifier leaked from a raw string";
    EXPECT_NE(t.text, "include") << "identifier leaked from a directive";
  }
  // Line numbers survive the multi-line block comment.
  const auto s_tok = std::find_if(toks.begin(), toks.end(), [](const Token& t) {
    return t.kind == TokKind::kIdent && t.text == "s";
  });
  ASSERT_NE(s_tok, toks.end());
  EXPECT_EQ(s_tok->line, 4);
}

TEST(Tokenizer, FusesQualifierAndArrowOnly) {
  const auto toks = tokenize("a->b; std::x; c >> d;", nullptr);
  int arrows = 0;
  int quals = 0;
  int gts = 0;
  for (const Token& t : toks) {
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "->") ++arrows;
    if (t.text == "::") ++quals;
    if (t.text == ">") ++gts;
  }
  EXPECT_EQ(arrows, 1);
  EXPECT_EQ(quals, 1);
  EXPECT_EQ(gts, 2) << "'>>' must stay two tokens for template tracking";
}

TEST(Tokenizer, DigitSeparatorsStayOneLiteral) {
  const auto toks = tokenize(
      "long n = 1'000'000; auto h = 0xFF'FF; char c = 'q';", nullptr);
  std::vector<std::string> nums;
  int chars = 0;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kNumber) nums.push_back(t.text);
    if (t.kind == TokKind::kCharLit) ++chars;
  }
  ASSERT_EQ(nums.size(), 2u);
  EXPECT_EQ(nums[0], "1'000'000");
  EXPECT_EQ(nums[1], "0xFF'FF");
  EXPECT_EQ(chars, 1) << "'q' must still lex as a char literal";
}

TEST(Tokenizer, EncodingPrefixedStringsDontLeakIdents) {
  const auto toks = tokenize(
      "auto a = u8\"steady_clock\"; auto b = u\"rand\"; auto c = U\"time\"; "
      "auto d = L\"mt19937\"; auto e = u8R\"(drand48)\";",
      nullptr);
  int strings = 0;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kString) ++strings;
    if (t.kind != TokKind::kIdent) continue;
    EXPECT_NE(t.text, "steady_clock") << "u8 prefix not attached";
    EXPECT_NE(t.text, "rand") << "u prefix not attached";
    EXPECT_NE(t.text, "time") << "U prefix not attached";
    EXPECT_NE(t.text, "mt19937") << "L prefix not attached";
    EXPECT_NE(t.text, "drand48") << "u8R raw prefix not attached";
  }
  EXPECT_EQ(strings, 5);
}

TEST(Tokenizer, IncludePathCapture) {
  const auto toks = tokenize(
      "#include \"sim/network.h\"\n"
      "#include <chrono>\n"
      "#include SOME_MACRO\n"
      "#define X 1\n",
      nullptr);
  ASSERT_EQ(toks.size(), 4u);
  bool angled = true;
  const auto quoted = include_path(toks[0], &angled);
  ASSERT_TRUE(quoted.has_value());
  EXPECT_EQ(*quoted, "sim/network.h");
  EXPECT_FALSE(angled);
  const auto system = include_path(toks[1], &angled);
  ASSERT_TRUE(system.has_value());
  EXPECT_EQ(*system, "chrono");
  EXPECT_TRUE(angled);
  EXPECT_FALSE(include_path(toks[2], nullptr).has_value())
      << "computed includes are not paths";
  EXPECT_FALSE(include_path(toks[3], nullptr).has_value());
}

TEST(Config, ParsesShippedToml) {
  std::string error;
  const auto cfg = parse_config(shipped_config_text(), &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->scan,
            (std::vector<std::string>{"src", "bench", "tools"}));
  // The watchdog may read wall time; the simulator may not.
  EXPECT_FALSE(cfg->applies("no-wall-clock", "src/util/resilient.cc"));
  EXPECT_TRUE(cfg->applies("no-wall-clock", "src/sim/network.cc"));
  // unordered-iteration is scoped to the determinism-critical layers.
  EXPECT_TRUE(cfg->applies("unordered-iteration", "src/sim/checkpoint.h"));
  EXPECT_FALSE(cfg->applies("unordered-iteration", "src/util/rng.cc"));
  // The Packet <-> PacketCodec audit is wired up.
  ASSERT_FALSE(cfg->audits.empty());
  EXPECT_EQ(cfg->audits[0].strct, "Packet");
  EXPECT_EQ(cfg->audits[0].header, "src/sim/packet.h");
}

TEST(Config, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_config("[rule.x\nallow = []", &error).has_value());
  EXPECT_FALSE(parse_config("scan = [\"src\"\n", &error).has_value());
  EXPECT_FALSE(parse_config("[audit.x]\nstruct = \"S\"", &error).has_value())
      << "audits without header/impl must be rejected";
  EXPECT_FALSE(parse_config("mystery = true", &error).has_value());
}

TEST(NoWallClock, FlagsBadFixture) {
  const auto r = lint_fixture("bad_wall_clock.cc");
  const auto f = findings_for(r, "no-wall-clock");
  ASSERT_EQ(f.size(), 4u) << report_text(r);
  EXPECT_NE(f[0].message.find("steady_clock"), std::string::npos);
  EXPECT_NE(f[1].message.find("system_clock"), std::string::npos);
  EXPECT_NE(f[2].message.find("time()"), std::string::npos);
  EXPECT_NE(f[3].message.find("time()"), std::string::npos);
}

TEST(NoWallClock, QuietOnGoodFixture) {
  const auto r = lint_fixture("good_wall_clock.cc");
  EXPECT_TRUE(r.findings.empty()) << report_text(r);
}

TEST(NoRawRand, FlagsBadFixture) {
  const auto r = lint_fixture("bad_raw_rand.cc");
  const auto f = findings_for(r, "no-raw-rand");
  ASSERT_EQ(f.size(), 4u) << report_text(r);
  EXPECT_NE(f[0].message.find("'rand()'"), std::string::npos);
  EXPECT_NE(f[1].message.find("'srand()'"), std::string::npos);
  EXPECT_NE(f[2].message.find("random_device"), std::string::npos);
  EXPECT_NE(f[3].message.find("mt19937"), std::string::npos);
}

TEST(NoRawRand, QuietOnGoodFixture) {
  const auto r = lint_fixture("good_raw_rand.cc");
  EXPECT_TRUE(r.findings.empty()) << report_text(r);
}

TEST(UnorderedIteration, FlagsBadFixture) {
  const auto r = lint_fixture("bad_unordered_iter.cc");
  const auto f = findings_for(r, "unordered-iteration");
  ASSERT_EQ(f.size(), 2u) << report_text(r);
  EXPECT_NE(f[0].message.find("'scores'"), std::string::npos);
  EXPECT_NE(f[1].message.find("'live'"), std::string::npos);
}

TEST(UnorderedIteration, QuietOnGoodFixture) {
  const auto r = lint_fixture("good_unordered_iter.cc");
  EXPECT_TRUE(r.findings.empty()) << report_text(r);
}

TEST(PointerOrdering, FlagsBadFixture) {
  const auto r = lint_fixture("bad_pointer_ordering.cc");
  const auto f = findings_for(r, "pointer-ordering");
  ASSERT_EQ(f.size(), 2u) << report_text(r);
  EXPECT_NE(f[0].message.find("std::set"), std::string::npos);
  EXPECT_NE(f[1].message.find("std::map"), std::string::npos);
}

TEST(PointerOrdering, QuietOnGoodFixture) {
  const auto r = lint_fixture("good_pointer_ordering.cc");
  EXPECT_TRUE(r.findings.empty()) << report_text(r);
}

TEST(AtomicSpin, FlagsBadFixture) {
  const auto r = lint_fixture("bad_atomic_spin.cc");
  const auto f = findings_for(r, "atomic-spin");
  ASSERT_EQ(f.size(), 5u) << report_text(r);
  EXPECT_NE(f[0].message.find("'load()'"), std::string::npos);
  EXPECT_NE(f[1].message.find("'exchange()'"), std::string::npos);
  EXPECT_NE(f[2].message.find("'test_and_set()'"), std::string::npos);
  EXPECT_NE(f[3].message.find("'compare_exchange_weak()'"),
            std::string::npos);
  EXPECT_NE(f[4].message.find("'load()'"), std::string::npos)
      << "the for-loop condition spin must flag too";
}

TEST(AtomicSpin, QuietOnGoodFixture) {
  const auto r = lint_fixture("good_atomic_spin.cc");
  EXPECT_TRUE(r.findings.empty()) << report_text(r);
  // Both parked waits are justified-suppressed, not silently missed.
  EXPECT_EQ(r.suppressed, 2u);
}

TEST(SnapshotCoverage, FlagsUnserializedField) {
  Config cfg = fixture_config();
  cfg.audits.push_back({"BadState", "snap_bad.h", {"snap_bad_codec.cc"}});
  const auto r = run_lint(kFixtureDir, cfg, {"snap_bad.h"});
  const auto f = findings_for(r, "snapshot-coverage");
  ASSERT_EQ(f.size(), 1u) << report_text(r);
  EXPECT_NE(f[0].message.find("BadState::skew_ns"), std::string::npos);
  EXPECT_EQ(f[0].path, "snap_bad.h");
  EXPECT_EQ(f[0].line, 10);  // the field's own line, not the struct's
}

TEST(SnapshotCoverage, QuietWhenCodecCoversEveryField) {
  Config cfg = fixture_config();
  cfg.audits.push_back({"GoodState", "snap_good.h", {"snap_good_codec.cc"}});
  const auto r = run_lint(kFixtureDir, cfg, {"snap_good.h"});
  EXPECT_TRUE(r.findings.empty()) << report_text(r);
}

TEST(SnapshotCoverage, ReportsMissingStructOrFiles) {
  Config cfg = fixture_config();
  cfg.audits.push_back({"NoSuchStruct", "snap_good.h", {"snap_good_codec.cc"}});
  const auto r = run_lint(kFixtureDir, cfg, {"snap_good.h"});
  const auto f = findings_for(r, "snapshot-coverage");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_NE(f[0].message.find("not found"), std::string::npos);
}

// --- Graph rules (phase 2, over the symbol index) ------------------------

// The taint fixtures isolate call-graph propagation: transitive findings
// fire only under src/sim/, while the direct sites sit in src/util/.
Config taint_fixture_config() {
  Config cfg;
  cfg.scan = {"."};
  cfg.rules["no-wall-clock"].paths = {"src/sim/"};
  cfg.rules["no-raw-rand"].paths = {"src/sim/"};
  return cfg;
}

const std::vector<std::string> kTaintFiles = {
    "src/sim/entry.cc", "src/util/helper.cc", "src/util/helper.h"};

TEST(TaintRules, FlagTransitiveReachThroughHelper) {
  const auto r = run_lint(std::string(kFixtureDir) + "/taint",
                          taint_fixture_config(), kTaintFiles);
  const auto wall = transitive_findings(r, "no-wall-clock");
  ASSERT_EQ(wall.size(), 2u) << report_text(r);
  // stamp() is one hop from the seed, indirect() two — both must taint,
  // and the chain in the message names every hop.
  EXPECT_EQ(wall[0].path, "src/sim/entry.cc");
  EXPECT_NE(wall[0].message.find("'app::stamp'"), std::string::npos);
  EXPECT_NE(wall[0].message.find("steady_clock"), std::string::npos);
  EXPECT_NE(wall[0].message.find("app::stamp -> app::helper_now"),
            std::string::npos);
  EXPECT_NE(wall[1].message.find(
                "app::indirect -> app::stamp -> app::helper_now"),
            std::string::npos);
  const auto rnd = transitive_findings(r, "no-raw-rand");
  ASSERT_EQ(rnd.size(), 1u) << report_text(r);
  EXPECT_NE(rnd[0].message.find("'app::jitter'"), std::string::npos);
  EXPECT_NE(rnd[0].message.find("mt19937"), std::string::npos);
}

TEST(TaintRules, AllowlistedBarrierBlocksPropagation) {
  Config cfg = taint_fixture_config();
  // The helper file is now the reviewed home of both hazards: it neither
  // seeds nor propagates, so the whole tree is clean.
  cfg.rules["no-wall-clock"].allow = {"src/util/helper."};
  cfg.rules["no-raw-rand"].allow = {"src/util/helper."};
  const auto r =
      run_lint(std::string(kFixtureDir) + "/taint", cfg, kTaintFiles);
  EXPECT_TRUE(r.findings.empty()) << report_text(r);
}

TEST(Layering, FlagsBackEdgeAndCycleOnce) {
  Config cfg = fixture_config();
  cfg.layers = {{0, "src/util/"}, {1, "src/core/"}};
  const auto r = run_lint(std::string(kFixtureDir) + "/layers", cfg,
                          {"src/util/a.h", "src/util/bad.h", "src/core/b.h",
                           "src/util/cyc_a.h", "src/util/cyc_b.h"});
  const auto f = findings_for(r, "layering");
  ASSERT_EQ(f.size(), 2u) << report_text(r);
  // core/b.h -> util/a.h points down the DAG and stays quiet; the
  // up-reaching include and the cycle are the only findings.
  EXPECT_EQ(f[0].path, "src/util/bad.h");
  EXPECT_NE(f[0].message.find("src/core/b.h"), std::string::npos);
  EXPECT_NE(f[0].message.find("back-edge"), std::string::npos);
  EXPECT_NE(f[0].message.find("rank 0 -> rank 1"), std::string::npos);
  EXPECT_EQ(f[1].path, "src/util/cyc_a.h");
  EXPECT_NE(f[1].message.find("include cycle: src/util/cyc_a.h -> "
                              "src/util/cyc_b.h -> src/util/cyc_a.h"),
            std::string::npos);
}

TEST(SnapshotCoverage, DelegatedCodecCoversFields) {
  Config cfg = fixture_config();
  cfg.audits.push_back({"DelState", "snap.h", {"codec.cc"}});
  // codec.cc names no field at all; the helper in another TU writes both.
  const auto r = run_lint(std::string(kFixtureDir) + "/delegated", cfg,
                          {"snap.h", "codec.cc", "helper_full.cc"});
  EXPECT_TRUE(r.findings.empty()) << report_text(r);
}

TEST(SnapshotCoverage, DelegatedCodecMissingFieldStillFlags) {
  Config cfg = fixture_config();
  cfg.audits.push_back({"DelState", "snap.h", {"codec.cc"}});
  const auto r = run_lint(std::string(kFixtureDir) + "/delegated", cfg,
                          {"snap.h", "codec.cc", "helper_partial.cc"});
  const auto f = findings_for(r, "snapshot-coverage");
  ASSERT_EQ(f.size(), 1u) << report_text(r);
  EXPECT_NE(f[0].message.find("DelState::skew"), std::string::npos);
}

TEST(Suppressions, JustifiedNolintSuppressesBothForms) {
  const auto r = lint_fixture("suppress_ok.cc");
  EXPECT_TRUE(r.findings.empty()) << report_text(r);
  EXPECT_EQ(r.suppressed, 2u);
}

TEST(Suppressions, BareOrWrongRuleNolintIsIgnored) {
  const auto r = lint_fixture("suppress_bare.cc");
  const auto f = findings_for(r, "no-raw-rand");
  ASSERT_EQ(f.size(), 2u) << report_text(r);
  EXPECT_EQ(r.suppressed, 0u);
  // The justification-less NOLINT is called out; the wrong-rule NOLINT
  // simply does not apply.
  EXPECT_NE(f[0].message.find("NOLINT ignored"), std::string::npos);
  EXPECT_EQ(f[1].message.find("NOLINT ignored"), std::string::npos);
}

// Acceptance demo: a seeded hazard — rand() appearing in src/sim/tcp.cc —
// must fail the gate under the *shipped* configuration.
TEST(SeededHazard, RandInTcpIsCaughtByShippedConfig) {
  std::string error;
  auto cfg = parse_config(shipped_config_text(), &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  cfg->audits.clear();  // audits read the real tree; not under test here

  std::vector<SourceFile> files;
  files.push_back(make_source(
      "src/sim/tcp.cc",
      "#include <cstdlib>\n"
      "int jitter() { return rand() % 3; }\n"));
  const auto r = lint_files(kSourceDir, *cfg, std::move(files));
  const auto f = findings_for(r, "no-raw-rand");
  ASSERT_EQ(f.size(), 1u) << report_text(r);
  EXPECT_EQ(f[0].path, "src/sim/tcp.cc");
  EXPECT_EQ(f[0].line, 2);
}

// Acceptance demo for the sharded engine: an unjustified raw atomic spin
// appearing in src/sim must fail the gate under the *shipped*
// configuration — the engine's own bounded wait passes only because it
// carries a justified NOLINT.
TEST(SeededHazard, AtomicSpinInSimIsCaughtByShippedConfig) {
  std::string error;
  auto cfg = parse_config(shipped_config_text(), &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  cfg->audits.clear();

  std::vector<SourceFile> files;
  files.push_back(make_source(
      "src/sim/sharded_engine.cc",
      "#include <atomic>\n"
      "void wait_ready(std::atomic<bool>& ready) {\n"
      "  while (!ready.load(std::memory_order_acquire)) {}\n"
      "}\n"));
  // src/util/ carries no atomic-spin exemption: the same spin there flags.
  files.push_back(make_source(
      "src/util/wait_ready.h",
      "#include <atomic>\n"
      "void wait_ready(std::atomic<bool>& ready) {\n"
      "  while (!ready.load(std::memory_order_acquire)) {}\n"
      "}\n"));
  const auto r = lint_files(kSourceDir, *cfg, std::move(files));
  const auto f = findings_for(r, "atomic-spin");
  ASSERT_EQ(f.size(), 2u) << report_text(r);
  std::set<std::string> paths;
  for (const auto& finding : f) {
    paths.insert(finding.path);
    EXPECT_EQ(finding.line, 3);
  }
  EXPECT_EQ(paths, (std::set<std::string>{"src/sim/sharded_engine.cc",
                                          "src/util/wait_ready.h"}));
}

// And the same hazard inside util/rng (the sanctioned randomness home) or
// a wall-clock read inside util/resilient (the watchdog) must NOT flag:
// the allowlists carry the rule-to-invariant mapping.
TEST(SeededHazard, AllowlistedPathsStayQuiet) {
  std::string error;
  auto cfg = parse_config(shipped_config_text(), &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  cfg->audits.clear();

  std::vector<SourceFile> files;
  files.push_back(make_source("src/util/rng.cc",
                              "unsigned seed() { return rand(); }\n"));
  files.push_back(make_source(
      "src/util/resilient.cc",
      "#include <chrono>\n"
      "auto t0 = std::chrono::steady_clock::now();\n"));
  const auto r = lint_files(kSourceDir, *cfg, std::move(files));
  EXPECT_TRUE(r.findings.empty()) << report_text(r);
}

// Acceptance demo for the taint tentpole: a wall-clock read in a src/sim
// helper that the caller only reaches transitively. no-wall-clock flags
// the helper line as a direct site and must additionally flag the caller
// — under the *shipped* configuration.
TEST(SeededHazard, TransitiveWallClockInSimHelperIsCaught) {
  std::string error;
  auto cfg = parse_config(shipped_config_text(), &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  cfg->audits.clear();

  std::vector<SourceFile> files;
  files.push_back(make_source(
      "src/sim/timing_helper.cc",
      "#include <chrono>\n"
      "namespace spineless::sim {\n"
      "double now_s() {\n"
      "  return std::chrono::duration<double>(\n"
      "             std::chrono::steady_clock::now().time_since_epoch())\n"
      "      .count();\n"
      "}\n"
      "}  // namespace spineless::sim\n"));
  files.push_back(make_source(
      "src/sim/stepper.cc",
      "namespace spineless::sim {\n"
      "double now_s();\n"
      "void advance() { double t = now_s(); (void)t; }\n"
      "}  // namespace spineless::sim\n"));
  const auto r = lint_files(kSourceDir, *cfg, std::move(files));
  const auto direct = direct_findings(r, "no-wall-clock");
  ASSERT_EQ(direct.size(), 1u) << report_text(r);
  EXPECT_EQ(direct[0].path, "src/sim/timing_helper.cc");
  const auto taint = transitive_findings(r, "no-wall-clock");
  ASSERT_EQ(taint.size(), 1u) << report_text(r);
  EXPECT_EQ(taint[0].path, "src/sim/stepper.cc");
  EXPECT_EQ(taint[0].line, 3);
  EXPECT_NE(taint[0].message.find(
                "spineless::sim::advance -> spineless::sim::now_s"),
            std::string::npos);
}

// Acceptance demo for layering: src/core reaching up into src/service is
// a back-edge under the shipped [layers] DAG.
TEST(SeededHazard, CoreIncludingServiceIsLayeringViolation) {
  std::string error;
  auto cfg = parse_config(shipped_config_text(), &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  cfg->audits.clear();

  std::vector<SourceFile> files;
  files.push_back(make_source("src/service/api.h", "#pragma once\n"));
  files.push_back(
      make_source("src/core/consumer.cc", "#include \"service/api.h\"\n"));
  const auto r = lint_files(kSourceDir, *cfg, std::move(files));
  const auto f = findings_for(r, "layering");
  ASSERT_EQ(f.size(), 1u) << report_text(r);
  EXPECT_EQ(f[0].path, "src/core/consumer.cc");
  EXPECT_EQ(f[0].line, 1);
  EXPECT_NE(f[0].message.find("back-edge"), std::string::npos);
}

// The shipped sanctioned sibling edges (flowsim/ctrl -> routing) must
// keep working, and an unsanctioned sibling edge must not.
TEST(SeededHazard, SiblingEdgesFollowTheSanctionList) {
  std::string error;
  auto cfg = parse_config(shipped_config_text(), &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  cfg->audits.clear();

  std::vector<SourceFile> files;
  files.push_back(make_source("src/routing/paths2.h", "#pragma once\n"));
  files.push_back(make_source("src/workload/gen2.h", "#pragma once\n"));
  files.push_back(make_source("src/flowsim/uses_routing.cc",
                              "#include \"routing/paths2.h\"\n"));
  files.push_back(make_source("src/flowsim/uses_workload.cc",
                              "#include \"workload/gen2.h\"\n"));
  const auto r = lint_files(kSourceDir, *cfg, std::move(files));
  const auto f = findings_for(r, "layering");
  ASSERT_EQ(f.size(), 1u) << report_text(r);
  EXPECT_EQ(f[0].path, "src/flowsim/uses_workload.cc");
  EXPECT_NE(f[0].message.find("sibling edge"), std::string::npos);
}

TEST(Reports, JsonShapeAndEscaping) {
  LintResult r;
  r.files_scanned = 2;
  r.suppressed = 1;
  r.findings.push_back(
      {"no-raw-rand", "src/a.cc", 3, "message with \"quotes\"\nand newline"});
  const std::string json = report_json(r);
  EXPECT_NE(json.find("\"finding_count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"spineless-no-raw-rand\""),
            std::string::npos);
  EXPECT_NE(json.find("\\\"quotes\\\"\\nand newline"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": 1"), std::string::npos);
  // CI consumers key on the schema version; bump it when fields change.
  EXPECT_NE(json.find("\"schema_version\": 3"), std::string::npos);
}

TEST(Reports, OutputIsDeterministic) {
  const auto a = lint_fixture("bad_wall_clock.cc");
  const auto b = lint_fixture("bad_wall_clock.cc");
  EXPECT_EQ(report_text(a), report_text(b));
  EXPECT_EQ(report_json(a), report_json(b));
}

// The tier-1 self-check: the shipped tree under the shipped config has
// zero findings. Every hazard is either fixed or carries a justified
// annotation — this is the "build refuses new hazards" guarantee.
TEST(SelfCheck, ShippedTreeIsLintClean) {
  std::string error;
  const auto cfg = parse_config(shipped_config_text(), &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  const auto r = run_lint(kSourceDir, *cfg);
  EXPECT_GT(r.files_scanned, 100u) << "scan roots look wrong";
  EXPECT_TRUE(r.findings.empty()) << report_text(r);
  // Exactly two justified suppressions remain: the sharded engine's
  // bounded-spin-then-park wait and the watchdog's poll loop (both
  // atomic-spin). The six wall-clock NOLINTs that used to annotate
  // table-build/setup timing are gone — that timing now routes through the
  // util/walltime barrier, where no-wall-clock verifies the call edge
  // instead. An exact count makes both a new suppression and a dead one
  // show up here.
  EXPECT_EQ(r.suppressed, 2u);
}

// The index rides on every run: the shipped tree must produce a
// deterministic, non-trivial symbol graph.
TEST(SelfCheck, ShippedTreeIndexIsStable) {
  std::string error;
  const auto cfg = parse_config(shipped_config_text(), &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  const auto r = run_lint(kSourceDir, *cfg);
  ASSERT_NE(r.index, nullptr);
  EXPECT_GT(r.index->symbols.size(), 500u);
  EXPECT_GT(r.index->call_edges, 1000u);
  EXPECT_GT(r.index->includes.size(), 300u);
  // Unresolved/ambiguous calls are assumed clean but must stay *counted* —
  // zero would mean the policy accounting broke, not that we got lucky.
  EXPECT_GT(r.index->unresolved_calls, 0u);
  EXPECT_GT(r.index->ambiguous_calls, 0u);

  const auto again = run_lint(kSourceDir, *cfg);
  EXPECT_EQ(dump_index_json(*r.index), dump_index_json(*again.index))
      << "--index-dump must be byte-stable for the same tree";
}

}  // namespace
}  // namespace spineless::lint
