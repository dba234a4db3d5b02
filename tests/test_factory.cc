/**
 * @file
 * Unit tests for the predictor spec factory.
 */

#include <gtest/gtest.h>

#include "sim/factory.hh"
#include "support/logging.hh"

namespace bpred
{
namespace
{

TEST(Factory, BuildsEveryScheme)
{
    EXPECT_EQ(makePredictor("static:taken")->name(), "always-taken");
    EXPECT_EQ(makePredictor("static:nottaken")->name(),
              "always-not-taken");
    EXPECT_EQ(makePredictor("bimodal:10")->name(), "bimodal-1K");
    EXPECT_EQ(makePredictor("gshare:14:12")->name(),
              "gshare-16K-h12");
    EXPECT_EQ(makePredictor("gselect:12:6")->name(),
              "gselect-4K-h6");
    EXPECT_EQ(makePredictor("pag:10:8")->name(), "pag-1Kx8");
    EXPECT_EQ(makePredictor("gskewed:3:12:8")->name(),
              "gskewed-3x4K-h8-partial");
    EXPECT_EQ(makePredictor("gskewed:3:12:8:total")->name(),
              "gskewed-3x4K-h8-total");
    EXPECT_EQ(makePredictor("egskew:12:11")->name(),
              "e-gskew-3x4K-h11-partial");
    EXPECT_EQ(makePredictor("falru:4096:4")->name(),
              "fa-lru-4096-h4");
    EXPECT_EQ(makePredictor("unaliased:12:1")->name(),
              "unaliased-h12-1bit");
    EXPECT_NE(makePredictor("hybrid:10:6"), nullptr);
    EXPECT_EQ(makePredictor("agree:14:10:12")->name(),
              "agree-16K-h10");
    EXPECT_EQ(makePredictor("bimode:13:10:12")->name(),
              "bimode-2x8K+4K-h10");
    EXPECT_EQ(makePredictor("yags:10:8:11")->name(),
              "yags-2x1K+2K-h8");
    EXPECT_EQ(makePredictor("gskewedsh:3:12:8")->name(),
              "gskewed-sh-3x4K-h8-partial");
    EXPECT_EQ(makePredictor("egskewsh:12:8")->name(),
              "e-gskew-sh-3x4K-h8-partial");
    EXPECT_EQ(makePredictor("pskew:10:8:3:12")->name(),
              "pskew-1Kx8-3x4K");
    EXPECT_EQ(makePredictor("gskewed:3:12:8:partial-lazy")->name(),
              "gskewed-3x4K-h8-partial-lazy");
}

TEST(Factory, CounterBitsOptional)
{
    auto one_bit = makePredictor("gshare:10:4:1");
    auto two_bit = makePredictor("gshare:10:4");
    EXPECT_EQ(one_bit->storageBits(), 1024u);
    EXPECT_EQ(two_bit->storageBits(), 2048u);
}

TEST(Factory, BuiltPredictorsFunction)
{
    for (const char *spec :
         {"bimodal:8", "gshare:8:4", "gselect:8:4", "pag:8:6",
          "hybrid:8:4", "gskewed:3:6:4", "egskew:6:4", "falru:64:4",
          "unaliased:4", "static:taken"}) {
        auto predictor = makePredictor(spec);
        ASSERT_NE(predictor, nullptr) << spec;
        for (int i = 0; i < 50; ++i) {
            predictor->predict(0x100 + 4 * (i % 8));
            predictor->update(0x100 + 4 * (i % 8), i % 3 != 0);
            predictor->notifyUnconditional(0x400);
        }
        EXPECT_NO_THROW(predictor->reset()) << spec;
    }
}

TEST(Factory, RejectsUnknownScheme)
{
    EXPECT_THROW(makePredictor("perceptron:10"), FatalError);
    EXPECT_THROW(makePredictor(""), FatalError);
}

TEST(Factory, RejectsWrongFieldCount)
{
    EXPECT_THROW(makePredictor("gshare:10"), FatalError);
    EXPECT_THROW(makePredictor("gshare:10:4:2:9"), FatalError);
    EXPECT_THROW(makePredictor("static"), FatalError);
}

TEST(Factory, RejectsBadNumbers)
{
    EXPECT_THROW(makePredictor("gshare:abc:4"), FatalError);
    EXPECT_THROW(makePredictor("bimodal:99999999999"), FatalError);
    EXPECT_THROW(makePredictor("falru:0:4"), FatalError);
    // Index widths outside 1..28, history lengths over 64 and, for
    // the schemes keyed by the information vector, over 44: every
    // constructor refuses them instead of shifting past a u64 (a
    // crash for the table widths) or masking silently.
    for (const char *spec :
         {"gshare:64:12", "gshare:0:4", "gshare:29:4", "gshare:12:70",
          "gshare:12:65", "bimodal:64", "bimodal:0", "gselect:64:4",
          "gselect:0:4", "gselect:12:65", "hybrid:64:12",
          "hybrid:0:4", "agree:64:12:12", "agree:14:10:64",
          "agree:14:70:12", "bimode:64:10:12", "bimode:13:10:64",
          "bimode:13:70:12", "pag:64:8", "pag:0:8", "pag:10:17",
          "pag:10:0", "yags:64:8:11", "yags:10:8:64", "yags:10:70:11",
          "pskew:64:8:3:12", "pskew:10:8:3:64", "pskew:10:8:3:0",
          "unaliased:70", "unaliased:45", "unaliased:64",
          "falru:4096:70", "falru:4096:45"}) {
        EXPECT_THROW(makePredictor(spec), FatalError) << spec;
    }
    EXPECT_NO_THROW(makePredictor("gshare:12:64"));
    EXPECT_NO_THROW(makePredictor("pag:10:16"));
    EXPECT_NO_THROW(makePredictor("unaliased:44"));
}

TEST(Factory, RejectsBadPolicy)
{
    EXPECT_THROW(makePredictor("gskewed:3:10:4:sometimes"),
                 FatalError);
}

TEST(Factory, RejectsBadStaticDirection)
{
    EXPECT_THROW(makePredictor("static:maybe"), FatalError);
}

TEST(Factory, HelpMentionsEveryScheme)
{
    const std::string help = predictorSpecHelp();
    for (const char *scheme :
         {"static", "bimodal", "gshare", "gselect", "pag", "hybrid",
          "agree", "bimode", "yags", "gskewed", "egskew", "gskewedsh",
          "egskewsh", "pskew", "falru", "unaliased"}) {
        EXPECT_NE(help.find(scheme), std::string::npos) << scheme;
    }
}

TEST(Factory, ParseSpecRoundTripIsIdempotent)
{
    for (const char *text :
         {"static:taken", "bimodal:10", "bimodal:10:3", "gshare:14:12",
          "gselect:12:6:1", "pag:10:8", "agree:14:10:12",
          "bimode:13:10:12", "yags:10:8:11:8", "hybrid:10:6",
          "gskewed:3:12:8:total", "egskew:12:11",
          "gskewedsh:3:12:8", "egskewsh:12:8:partial-lazy",
          "pskew:10:8:3:12", "falru:64:4", "unaliased:12:1"}) {
        const PredictorSpec parsed = parseSpec(text);
        EXPECT_EQ(parsed.toString(), text) << text;
        const PredictorSpec reparsed = parseSpec(parsed.toString());
        EXPECT_EQ(reparsed.scheme, parsed.scheme) << text;
        EXPECT_EQ(reparsed.fields, parsed.fields) << text;
    }
}

TEST(Factory, ParseSpecCanonicalizesNumbers)
{
    // Leading zeros normalize away, so toString() is a stable key
    // for result files and sweep configs.
    EXPECT_EQ(parseSpec("gshare:014:012").toString(), "gshare:14:12");
}

TEST(Factory, ParseSpecRejectsTrailingGarbage)
{
    EXPECT_THROW(parseSpec("gshare:14x:12"), FatalError);
}

TEST(Factory, StructuredSpecBuildsSamePredictor)
{
    const PredictorSpec spec = parseSpec("gshare:10:6");
    auto from_spec = makePredictor(spec);
    auto from_text = makePredictor("gshare:10:6");
    EXPECT_EQ(from_spec->name(), from_text->name());
    EXPECT_EQ(from_spec->storageBits(), from_text->storageBits());
}

TEST(Factory, WithSuffixMatchesParsingTheFullString)
{
    // Deriving a variant from a parsed spec must land on exactly
    // the spec that parsing the concatenated string would produce.
    const PredictorSpec base = parseSpec("gshare:14:12");
    const PredictorSpec extended = base.withSuffix("1");
    const PredictorSpec reference = parseSpec("gshare:14:12:1");
    EXPECT_EQ(extended.scheme, reference.scheme);
    EXPECT_EQ(extended.fields, reference.fields);
    EXPECT_EQ(extended.toString(), "gshare:14:12:1");

    // The base spec is untouched.
    EXPECT_EQ(base.toString(), "gshare:14:12");

    // Multi-field suffixes and keyword fields work the same way.
    const PredictorSpec agreed =
        parseSpec("agree:14:10:12").withSuffix("3");
    EXPECT_EQ(agreed.toString(), "agree:14:10:12:3");
    const PredictorSpec skewed =
        parseSpec("gskewed:3:12:8").withSuffix("total");
    EXPECT_EQ(skewed.toString(), "gskewed:3:12:8:total");
}

TEST(Factory, WithSuffixCanonicalizesAndRoundTrips)
{
    const PredictorSpec extended =
        parseSpec("bimodal:10").withSuffix("03");
    EXPECT_EQ(extended.toString(), "bimodal:10:3");
    const PredictorSpec reparsed = parseSpec(extended.toString());
    EXPECT_EQ(reparsed.fields, extended.fields);
    EXPECT_EQ(makePredictor(extended)->name(),
              makePredictor(reparsed)->name());
}

TEST(Factory, WithSuffixRejectsBadInput)
{
    const PredictorSpec base = parseSpec("gshare:14:12");
    // Empty suffix, overflowing the field count, and malformed
    // values all fail the same way parseSpec() would.
    EXPECT_THROW(base.withSuffix(""), FatalError);
    EXPECT_THROW(base.withSuffix("2:9"), FatalError);
    EXPECT_THROW(base.withSuffix("x"), FatalError);
    EXPECT_THROW(parseSpec("gskewed:3:12:8").withSuffix("sideways"),
                 FatalError);
}

TEST(Factory, ListSchemesExamplesAllBuild)
{
    for (const SchemeInfo &scheme : listSchemes()) {
        EXPECT_FALSE(scheme.summary.empty()) << scheme.name;
        EXPECT_FALSE(scheme.fields.empty()) << scheme.name;
        const PredictorSpec parsed = parseSpec(scheme.example);
        EXPECT_EQ(parsed.scheme, scheme.name);
        EXPECT_NE(makePredictor(parsed), nullptr) << scheme.example;
    }
}

TEST(Factory, ListSchemesOptionalFieldsTrailRequired)
{
    // parseSpec() matches fields positionally, which is only sound
    // when no required field follows an optional one.
    for (const SchemeInfo &scheme : listSchemes()) {
        bool seen_optional = false;
        for (const SpecFieldInfo &field : scheme.fields) {
            if (field.optional) {
                seen_optional = true;
            } else {
                EXPECT_FALSE(seen_optional) << scheme.name;
            }
        }
    }
}

TEST(Factory, FindSchemeLooksUpByName)
{
    const SchemeInfo *gshare = findScheme("gshare");
    ASSERT_NE(gshare, nullptr);
    EXPECT_EQ(gshare->name, "gshare");
    EXPECT_EQ(gshare->requiredFields(), 2u);
    EXPECT_EQ(findScheme("perceptron"), nullptr);
}

TEST(Factory, SchemesToJsonDescribesEveryScheme)
{
    const JsonValue json = schemesToJson();
    EXPECT_EQ(json.size(), listSchemes().size());
    const JsonValue *first = json.at(0);
    ASSERT_NE(first, nullptr);
    EXPECT_NE(first->find("name"), nullptr);
    EXPECT_NE(first->find("summary"), nullptr);
    EXPECT_NE(first->find("fields"), nullptr);
    EXPECT_NE(first->find("example"), nullptr);
}

} // namespace
} // namespace bpred
