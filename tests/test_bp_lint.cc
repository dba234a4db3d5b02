/**
 * @file
 * bp_lint against golden fixture trees.
 *
 * Each fixture under tests/fixtures/lint/ is a miniature repository
 * that either passes every rule (clean/) or violates exactly one.
 * The tests pin both directions: the clean tree stays clean, and
 * every rule still fires on the violation written for it. The
 * fixture directory is compiled in as BPLINT_FIXTURE_DIR; the
 * production lint walk skips any directory named "fixtures", so
 * these intentional violations never fail the real-tree run.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bp_lint/cache.hh"
#include "bp_lint/lint.hh"
#include "bp_lint/sarif.hh"

namespace
{

using bplint::Finding;
using bplint::RepoTree;

RepoTree
fixture(const std::string &name)
{
    return bplint::loadTree(std::string(BPLINT_FIXTURE_DIR) + "/" +
                            name);
}

std::vector<Finding>
lintWith(const std::string &tree, const std::string &rule)
{
    return bplint::runLint(fixture(tree), {rule});
}

bool
mentions(const Finding &finding, const std::string &text)
{
    return finding.message.find(text) != std::string::npos;
}

TEST(BpLint, CleanTreePassesEveryRule)
{
    const auto findings = bplint::runLint(fixture("clean"));
    EXPECT_TRUE(findings.empty())
        << findings.size() << " unexpected finding(s), first: "
        << (findings.empty() ? std::string()
                             : findings.front().file + ": " +
                                   findings.front().message);
}

TEST(BpLint, UnregisteredSourcesAreFlagged)
{
    const auto findings =
        lintWith("unregistered_test", "cmake-registration");
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].file, "bench/bench_lonely.cc");
    EXPECT_TRUE(mentions(findings[0], "no CMakeLists.txt"));
    EXPECT_EQ(findings[1].file, "tests/test_orphan.cc");
    EXPECT_TRUE(mentions(findings[1], "not registered"));
}

TEST(BpLint, HeadersWithoutPragmaOnceAreFlagged)
{
    const auto findings =
        lintWith("missing_pragma", "pragma-once");
    ASSERT_EQ(findings.size(), 3u);
    EXPECT_EQ(findings[0].file, "src/no_guard.hh");
    EXPECT_TRUE(mentions(findings[0], "lacks #pragma once"));
    EXPECT_EQ(findings[1].file, "src/old_guard.hh");
    EXPECT_EQ(findings[1].line, 1u);
    EXPECT_TRUE(mentions(findings[1], "BPRED_"));
    EXPECT_EQ(findings[2].file, "src/old_guard.hh");
    EXPECT_TRUE(mentions(findings[2], "lacks #pragma once"));
}

TEST(BpLint, BannedIdentifiersAreFlagged)
{
    const auto findings = lintWith("banned", "banned-identifier");
    ASSERT_EQ(findings.size(), 3u);

    EXPECT_EQ(findings[0].file, "src/bad_calls.cc");
    EXPECT_EQ(findings[0].line, 9u);
    EXPECT_TRUE(mentions(findings[0], "atoi"));
    EXPECT_EQ(findings[1].line, 10u);
    EXPECT_TRUE(mentions(findings[1], "rand"));
    EXPECT_EQ(findings[2].line, 11u);
    EXPECT_TRUE(mentions(findings[2], "raw new"));

    // Member calls, foreign qualifiers, comments, strings, and the
    // annotated rand() produced nothing for bad_calls.cc beyond
    // the three above; the factory file's raw new is exempt.
}

TEST(BpLint, AllocUntrustedIsFlagged)
{
    const auto findings =
        lintWith("alloc_untrusted", "alloc-untrusted");
    ASSERT_EQ(findings.size(), 3u);

    // The annotated reserve()/resize() calls stay silent, and so
    // does plain.cc, which decodes nothing; only the unjustified
    // ones in a snapshot decoder, the corpus runner and the trace
    // layer are flagged.
    EXPECT_EQ(findings[0].file, "src/predictors/snapshot.cc");
    EXPECT_EQ(findings[0].line, 18u);
    EXPECT_TRUE(mentions(findings[0], "reserve"));
    EXPECT_EQ(findings[1].file, "src/sim/corpus.cc");
    EXPECT_EQ(findings[1].line, 9u);
    EXPECT_TRUE(mentions(findings[1], "resize"));
    EXPECT_EQ(findings[2].file, "src/trace/decode.cc");
    EXPECT_EQ(findings[2].line, 9u);
    EXPECT_TRUE(mentions(findings[2], "reserve"));
}

TEST(BpLint, DeprecatedCallOutsideTestsIsFlagged)
{
    const auto findings = lintWith("deprecated", "deprecated-call");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].file, "src/caller.cc");
    EXPECT_EQ(findings[0].line, 7u);
    EXPECT_TRUE(mentions(findings[0], "runLegacy"));
}

TEST(BpLint, FingerprintMismatchIsFlagged)
{
    const auto findings =
        lintWith("fingerprint", "factory-fingerprint");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].file, "src/sim/factory.cc");
    EXPECT_EQ(findings[0].line, 14u);
    EXPECT_TRUE(mentions(findings[0], "gizmo"));
}

TEST(BpLint, NonLiteralTraceArgumentsAreFlagged)
{
    const auto findings =
        lintWith("trace_literal", "trace-literal");
    ASSERT_EQ(findings.size(), 5u);

    // Non-literal category, non-literal name, non-literal instant
    // name, then the two hand-declared Scopes with a non-literal
    // argument — in line order. The literal and wrapped-literal
    // calls, the allow()ed counter, the commented/string mentions,
    // the MY_TRACE_SCOPE lookalike, the literal declared Scope, the
    // Scope reference and qualifier, and the #define body all stay
    // silent.
    EXPECT_EQ(findings[0].file, "src/spans.cc");
    EXPECT_EQ(findings[0].line, 14u);
    EXPECT_TRUE(mentions(findings[0], "TRACE_SCOPE"));
    EXPECT_EQ(findings[1].line, 15u);
    EXPECT_TRUE(mentions(findings[1], "TRACE_SCOPE"));
    EXPECT_EQ(findings[2].line, 16u);
    EXPECT_TRUE(mentions(findings[2], "TRACE_INSTANT"));
    EXPECT_EQ(findings[3].line, 37u);
    EXPECT_TRUE(mentions(findings[3], "trace::Scope"));
    EXPECT_EQ(findings[4].line, 38u);
    EXPECT_TRUE(mentions(findings[4], "trace::Scope"));
}

TEST(BpLint, SimdIsolationViolationsAreFlagged)
{
    const auto findings =
        lintWith("simd_isolation", "simd-isolation");
    ASSERT_EQ(findings.size(), 7u);

    // The *_simd header: an unguarded include, two unguarded
    // __m256i mentions, one unguarded intrinsic call — while the
    // #if BPRED_HAVE_AVX2 copy of the same code stays silent.
    EXPECT_EQ(findings[0].file, "src/core/leaky_kernel_simd.hh");
    EXPECT_EQ(findings[0].line, 5u);
    EXPECT_TRUE(mentions(findings[0], "BPRED_HAVE_AVX2"));
    EXPECT_EQ(findings[3].line, 10u);
    EXPECT_TRUE(mentions(findings[3], "intrinsic"));

    // The plain translation unit: intrinsics are banned outright,
    // guarded or not; comment mentions stay silent.
    EXPECT_EQ(findings[4].file, "src/predictors/stray.cc");
    EXPECT_EQ(findings[4].line, 3u);
    EXPECT_TRUE(mentions(findings[4], "outside a *_simd file"));
    EXPECT_EQ(findings[5].line, 9u);
    EXPECT_EQ(findings[6].line, 10u);
}

TEST(BpLint, StripKeepsPositionsAndDigitSeparators)
{
    const std::string stripped = bplint::stripCommentsAndStrings(
        "int x = 1'000; // rand()\n"
        "const char *s = \"atoi(\";\n"
        "/* strcpy */ int y = x;\n");
    EXPECT_NE(stripped.find("1'000"), std::string::npos);
    EXPECT_EQ(stripped.find("rand"), std::string::npos);
    EXPECT_EQ(stripped.find("atoi"), std::string::npos);
    EXPECT_EQ(stripped.find("strcpy"), std::string::npos);
    // Positions survive: 'y' stays at its original column within
    // its own line.
    const std::size_t y = stripped.find("int y");
    ASSERT_NE(y, std::string::npos);
    EXPECT_EQ(y - (stripped.rfind('\n', y) + 1),
              std::string("/* strcpy */ ").size());
    // Line structure survives.
    EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
              3);
}

TEST(BpLint, CanonicalFingerprintDropsPunctuation)
{
    EXPECT_EQ(bplint::canonicalFingerprint("e-gskew"), "egskew");
    EXPECT_EQ(bplint::canonicalFingerprint("FA-LRU-2w"), "falru2w");
    EXPECT_EQ(bplint::canonicalFingerprint("gskewed-sh 14"),
              "gskewedsh14");
}

TEST(BpLint, StripBlanksRawStringBodies)
{
    // Raw literal bodies full of stripper poison: quotes, comment
    // openers, banned-looking calls, unbalanced parens. A stripper
    // without raw-string support desynchronizes on the first body
    // and leaks the rest of the file into the code view.
    const std::string stripped = bplint::stripCommentsAndStrings(
        "auto q = R\"sql(rand() \" /* atoi( )\" )sql\";\n"
        "auto j = u8R\"x(strcpy( // \")x\"; int z = 1;\n"
        "auto m = R\"(first\n"
        "rand()\n"
        ")\"; int w = 2;\n");
    EXPECT_EQ(stripped.find("rand"), std::string::npos);
    EXPECT_EQ(stripped.find("atoi"), std::string::npos);
    EXPECT_EQ(stripped.find("strcpy"), std::string::npos);
    // Code after each literal survives, including after the
    // prefixed u8R form and the multi-line body.
    EXPECT_NE(stripped.find("int z = 1;"), std::string::npos);
    EXPECT_NE(stripped.find("int w = 2;"), std::string::npos);
    // Newlines inside raw bodies are preserved, so line numbers of
    // everything downstream stay correct.
    EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
              5);
    // FOOR"..." is an identifier followed by a string, not a raw
    // literal: the string body is blanked the ordinary way and the
    // code keeps flowing.
    const std::string notRaw = bplint::stripCommentsAndStrings(
        "auto s = FOOR\"(rand)\"; int k = 3;\n");
    EXPECT_EQ(notRaw.find("rand"), std::string::npos);
    EXPECT_NE(notRaw.find("FOOR"), std::string::npos);
    EXPECT_NE(notRaw.find("int k = 3;"), std::string::npos);
}

TEST(BpLint, LayeringViolationsAreFlagged)
{
    const auto findings = lintWith("layering", "layering");
    ASSERT_EQ(findings.size(), 2u);

    // user.cc includes only support/util.hh — legal as a direct
    // edge, but util.hh reaches sim/, and the chain is reported at
    // the include that dragged it in.
    EXPECT_EQ(findings[0].file, "src/support/user.cc");
    EXPECT_EQ(findings[0].line, 4u);
    EXPECT_TRUE(
        mentions(findings[0], "transitively reaches module 'sim'"));
    EXPECT_TRUE(
        mentions(findings[0], "support/util.hh -> sim/engine.hh"));

    // util.hh's own include of sim/engine.hh is the direct
    // violation.
    EXPECT_EQ(findings[1].file, "src/support/util.hh");
    EXPECT_EQ(findings[1].line, 5u);
    EXPECT_TRUE(
        mentions(findings[1], "must not include 'sim/engine.hh'"));
}

TEST(BpLint, SchemeCoverageGapsAreFlagged)
{
    const auto findings =
        lintWith("scheme_coverage", "scheme-coverage");
    ASSERT_EQ(findings.size(), 3u);

    // 'good' (snapshots + kernel + contract entry) and 'waived'
    // (snapshots + scalar-only waiver + contract entry) stay
    // silent; all three gaps of 'bad' anchor at its table line.
    for (const auto &finding : findings) {
        EXPECT_EQ(finding.file, "src/sim/factory.cc");
        EXPECT_EQ(finding.line, 20u);
        EXPECT_TRUE(mentions(finding, "'bad'"));
    }
    EXPECT_TRUE(mentions(findings[0], "saveState"));
    EXPECT_TRUE(mentions(findings[1], "replayBlock"));
    EXPECT_TRUE(mentions(findings[2], "sweep"));
}

TEST(BpLint, UnguardedAnnotatedAccessIsFlagged)
{
    const auto findings =
        lintWith("lock_discipline", "lock-discipline");

    // push() takes the lock and sizeLockFree() carries a justified
    // allow(lock-discipline) escape — only the raw read in
    // peekUnsafe() fires.
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].file, "src/serve/pool.cc");
    EXPECT_EQ(findings[0].line, 17u);
    EXPECT_TRUE(mentions(findings[0], "guarded_by(inboxMutex)"));
    EXPECT_TRUE(mentions(findings[0], "src/serve/pool.hh"));
}

TEST(BpLint, ImplicitAtomicOrderingIsFlagged)
{
    const auto findings = lintWith("atomic_order", "atomic-order");

    // Bare .store() and operator= fire; the explicitly relaxed
    // load and the allow()ed startup store stay silent.
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].file, "src/support/flag.cc");
    EXPECT_EQ(findings[0].line, 12u);
    EXPECT_TRUE(mentions(findings[0], "memory_order"));
    EXPECT_EQ(findings[1].file, "src/support/flag.cc");
    EXPECT_EQ(findings[1].line, 25u);
    EXPECT_TRUE(mentions(findings[1], "operator"));
}

TEST(BpLint, SarifSerializesFindingsAndRules)
{
    std::vector<Finding> findings;
    findings.push_back({"banned-identifier", "src/a.cc", 12,
                        "call to banned \"rand\""});
    findings.push_back({"cmake-registration", "tests/t.cc", 0,
                        "no CMakeLists.txt alongside"});
    const std::string sarif = bplint::toSarif(findings);

    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"bp_lint\""),
              std::string::npos);
    // Every registered rule appears as a reportingDescriptor.
    for (const auto &rule : bplint::allRules()) {
        EXPECT_NE(sarif.find("\"id\": \"" +
                             std::string(rule.name) + "\""),
                  std::string::npos)
            << rule.name;
    }
    // The line-carrying finding gets a region; the file-scoped one
    // must not (SARIF requires startLine >= 1).
    EXPECT_NE(sarif.find("\"startLine\": 12"), std::string::npos);
    EXPECT_EQ(sarif.find("\"startLine\": 0"), std::string::npos);
    EXPECT_NE(sarif.find("\"uri\": \"src/a.cc\""),
              std::string::npos);
    // Message content is JSON-escaped.
    EXPECT_NE(sarif.find("banned \\\"rand\\\""), std::string::npos);
}

TEST(BpLint, CacheRoundTripsFindings)
{
    const auto dir = std::filesystem::temp_directory_path() /
        "bp_lint_cache_test";
    std::filesystem::remove_all(dir);

    std::vector<Finding> findings;
    findings.push_back({"layering", "src/a b.cc", 4,
                        "line one\nline two\ttabbed \\slash"});
    findings.push_back({"atomic-order", "src/c.cc", 0, "plain"});

    bplint::cacheStore(dir, "k1", findings);
    const auto loaded = bplint::cacheLoad(dir, "k1");
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->size(), 2u);
    EXPECT_EQ((*loaded)[0].rule, "layering");
    EXPECT_EQ((*loaded)[0].file, "src/a b.cc");
    EXPECT_EQ((*loaded)[0].line, 4u);
    EXPECT_EQ((*loaded)[0].message,
              "line one\nline two\ttabbed \\slash");
    EXPECT_EQ((*loaded)[1].line, 0u);
    EXPECT_EQ((*loaded)[1].message, "plain");

    // An unknown key is a miss; storing a new key prunes the old
    // entry, and a clean run round-trips as an empty finding list
    // (distinct from a miss).
    EXPECT_FALSE(bplint::cacheLoad(dir, "k2").has_value());
    bplint::cacheStore(dir, "k2", {});
    EXPECT_FALSE(bplint::cacheLoad(dir, "k1").has_value());
    const auto clean = bplint::cacheLoad(dir, "k2");
    ASSERT_TRUE(clean.has_value());
    EXPECT_TRUE(clean->empty());

    std::filesystem::remove_all(dir);
}

TEST(BpLint, CacheKeyDependsOnRuleSelection)
{
    const std::filesystem::path root =
        std::string(BPLINT_FIXTURE_DIR) + "/clean";
    const std::string all = bplint::cacheKey(root, {});
    EXPECT_EQ(all, bplint::cacheKey(root, {}));
    // Selecting a rule subset must not hit the all-rules entry.
    EXPECT_NE(all, bplint::cacheKey(root, {"layering"}));
}

TEST(BpLint, EveryRuleHasAViolatingFixture)
{
    // RULES.map pins rule -> fixture; a rule added without a
    // violating fixture fails here (and CI cross-checks the file
    // against --list-rules).
    std::ifstream map(std::string(BPLINT_FIXTURE_DIR) +
                      "/RULES.map");
    ASSERT_TRUE(map.is_open());
    std::map<std::string, std::string> fixtureFor;
    std::string line;
    while (std::getline(map, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::istringstream fields(line);
        std::string rule;
        std::string dir;
        fields >> rule >> dir;
        ASSERT_FALSE(dir.empty()) << "malformed RULES.map line: "
                                  << line;
        fixtureFor[rule] = dir;
    }

    for (const auto &rule : bplint::allRules()) {
        const auto it = fixtureFor.find(rule.name);
        ASSERT_NE(it, fixtureFor.end())
            << "rule '" << rule.name
            << "' has no violating fixture in RULES.map";
        const auto findings = lintWith(it->second, rule.name);
        EXPECT_FALSE(findings.empty())
            << "fixture '" << it->second
            << "' produces no findings for rule '" << rule.name
            << "'";
        for (const auto &finding : findings) {
            EXPECT_EQ(finding.rule, rule.name);
        }
        fixtureFor.erase(it);
    }
    EXPECT_TRUE(fixtureFor.empty())
        << "RULES.map names a rule that is not registered: "
        << (fixtureFor.empty() ? std::string()
                               : fixtureFor.begin()->first);
}

} // namespace
