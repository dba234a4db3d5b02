#include "sim/factory.hh"

#include <sstream>

#include "aliasing/falru_predictor.hh"
#include "core/skewed_predictor.hh"
#include "predictors/agree.hh"
#include "predictors/bimodal.hh"
#include "predictors/bimode.hh"
#include "predictors/gselect.hh"
#include "predictors/gshare.hh"
#include "predictors/hybrid.hh"
#include "predictors/local_two_level.hh"
#include "predictors/static_pred.hh"
#include "predictors/unaliased.hh"
#include "predictors/yags.hh"
#include "support/logging.hh"

namespace bpred
{

namespace
{

constexpr bool kOpt = true;

SpecFieldInfo
num(std::string name, bool optional = false,
    std::string default_value = "")
{
    return {std::move(name), SpecFieldKind::Number, optional,
            std::move(default_value)};
}

SpecFieldInfo
counterBits()
{
    return num("counter_bits", kOpt, "2");
}

SpecFieldInfo
policy()
{
    return {"policy", SpecFieldKind::Policy, kOpt, "partial"};
}

std::vector<std::string>
splitSpec(const std::string &spec)
{
    std::vector<std::string> fields;
    std::istringstream stream(spec);
    std::string field;
    while (std::getline(stream, field, ':')) {
        fields.push_back(field);
    }
    return fields;
}

unsigned
parseUnsigned(const std::string &text, const std::string &spec)
{
    try {
        std::size_t consumed = 0;
        const unsigned long value = std::stoul(text, &consumed);
        if (consumed != text.size()) {
            fatal("predictor spec '" + spec +
                  "': bad numeric field '" + text + "'");
        }
        if (value > 1'000'000'000UL) {
            fatal("predictor spec '" + spec + "': field too large");
        }
        return static_cast<unsigned>(value);
    } catch (const FatalError &) {
        throw;
    } catch (const std::exception &) {
        fatal("predictor spec '" + spec + "': bad numeric field '" +
              text + "'");
    }
}

UpdatePolicy
parsePolicy(const std::string &text, const std::string &spec)
{
    if (text == "partial") {
        return UpdatePolicy::Partial;
    }
    if (text == "total") {
        return UpdatePolicy::Total;
    }
    if (text == "partial-lazy") {
        return UpdatePolicy::PartialLazy;
    }
    fatal("predictor spec '" + spec +
          "': update policy must be 'partial', 'partial-lazy' or "
          "'total'");
}

/** Validate one field value against its descriptor and return the
 * canonical form ("014" -> "14"); @p spec is for error messages. */
std::string
canonicalizeField(const SpecFieldInfo &info, const std::string &value,
                  const std::string &spec)
{
    switch (info.kind) {
      case SpecFieldKind::Number:
        return std::to_string(parseUnsigned(value, spec));
      case SpecFieldKind::Policy:
        parsePolicy(value, spec);
        return value;
      case SpecFieldKind::Direction:
        if (value != "taken" && value != "nottaken") {
            fatal("predictor spec '" + spec +
                  "': expected 'taken' or 'nottaken'");
        }
        return value;
    }
    fatal("predictor spec '" + spec + "': unknown field kind");
}

} // namespace

std::size_t
SchemeInfo::requiredFields() const
{
    std::size_t required = 0;
    for (const SpecFieldInfo &field : fields) {
        if (!field.optional) {
            ++required;
        }
    }
    return required;
}

std::string
SchemeInfo::usage() const
{
    std::string text = name;
    for (const SpecFieldInfo &field : fields) {
        if (field.kind == SpecFieldKind::Policy) {
            text += field.optional ? "[:partial|partial-lazy|total]"
                                   : ":partial|partial-lazy|total";
        } else if (field.kind == SpecFieldKind::Direction) {
            text += field.optional ? "[:taken|nottaken]"
                                   : ":taken|nottaken";
        } else if (field.optional) {
            text += "[:<" + field.name + ">]";
        } else {
            text += ":<" + field.name + ">";
        }
    }
    return text;
}

/*
 * Schemes that intentionally run the scalar replay path. The SIMD
 * block kernels (predictors/block_kernel_simd.hh) cover the
 * table-indexed schemes where index arithmetic dominates; the
 * schemes below either have no table (static), are tag/LRU bound
 * (yags, falru), or replay through per-address history chains the
 * kernels cannot batch (pag). Revisit when profiling says
 * otherwise; dropping a waiver makes scheme-coverage demand a
 * kernel.
 *
 * bp_lint: scalar-only(static)
 * bp_lint: scalar-only(pag)
 * bp_lint: scalar-only(agree)
 * bp_lint: scalar-only(bimode)
 * bp_lint: scalar-only(yags)
 * bp_lint: scalar-only(falru)
 * bp_lint: scalar-only(unaliased)
 */
const std::vector<SchemeInfo> &
listSchemes()
{
    static const std::vector<SchemeInfo> schemes = {
        // StaticPredictor prints "always-taken"/"always-not-taken",
        // not "static": the one exception test_factory's
        // ListSchemesExamplesFingerprintTheirScheme allows.
        {"static", "fixed direction, no state",
         {{"direction", SpecFieldKind::Direction, false, ""}},
         "static:taken"},
        {"bimodal", "PC-indexed counter table (paper section 2)",
         {num("index_bits"), counterBits()}, "bimodal:14"},
        {"gshare", "global history XOR PC index",
         {num("index_bits"), num("history_bits"), counterBits()},
         "gshare:14:12"},
        {"gselect", "global history concatenated with PC bits",
         {num("index_bits"), num("history_bits"), counterBits()},
         "gselect:12:6"},
        {"pag", "per-address history, global counter table",
         {num("bht_index_bits"), num("local_history_bits"),
          counterBits()},
         "pag:10:8"},
        {"agree", "gshare direction vs per-site bias bit",
         {num("index_bits"), num("history_bits"),
          num("bias_index_bits"), counterBits()},
         "agree:14:10:12"},
        {"bimode", "taken/not-taken banks + choice table",
         {num("dir_index_bits"), num("history_bits"),
          num("choice_index_bits"), counterBits()},
         "bimode:13:10:12"},
        {"yags", "tagged exception caches over a choice table",
         {num("cache_index_bits"), num("history_bits"),
          num("choice_index_bits"), num("tag_bits", kOpt, "6")},
         "yags:10:8:11"},
        {"hybrid", "gshare + bimodal with a chooser table",
         {num("index_bits"), num("history_bits")}, "hybrid:14:12"},
        {"gskewed", "skewed multi-bank with majority vote (section 4)",
         {num("banks"), num("bank_index_bits"), num("history_bits"),
          policy()},
         "gskewed:3:12:8"},
        {"egskew", "enhanced gskewed: bank 0 is PC-indexed (section 6)",
         {num("bank_index_bits"), num("history_bits"), policy()},
         "egskew:12:11"},
        {"gskewedsh", "gskewed with shared hysteresis bits",
         {num("banks"), num("bank_index_bits"), num("history_bits"),
          policy()},
         "gskewedsh:3:12:8"},
        {"egskewsh", "e-gskew with shared hysteresis bits",
         {num("bank_index_bits"), num("history_bits"), policy()},
         "egskewsh:12:8"},
        {"pskew", "per-address history into skewed banks",
         {num("bht_index_bits"), num("local_history_bits"),
          num("banks"), num("bank_index_bits"), policy()},
         "pskew:10:8:3:12"},
        {"falru", "fully-associative LRU tag store (conflict-free)",
         {num("entries"), num("history_bits"), counterBits()},
         "falru:4096:4"},
        {"unaliased", "one counter per (site, history) — no aliasing",
         {num("history_bits"), counterBits()}, "unaliased:12"},
    };
    return schemes;
}

const SchemeInfo *
findScheme(const std::string &name)
{
    for (const SchemeInfo &scheme : listSchemes()) {
        if (scheme.name == name) {
            return &scheme;
        }
    }
    return nullptr;
}

JsonValue
schemesToJson()
{
    JsonValue result = JsonValue::array();
    for (const SchemeInfo &scheme : listSchemes()) {
        JsonValue entry = JsonValue::object();
        entry["name"] = scheme.name;
        entry["summary"] = scheme.summary;
        entry["example"] = scheme.example;
        JsonValue fields = JsonValue::array();
        for (const SpecFieldInfo &field : scheme.fields) {
            JsonValue item = JsonValue::object();
            item["name"] = field.name;
            switch (field.kind) {
              case SpecFieldKind::Number:
                item["kind"] = std::string("number");
                break;
              case SpecFieldKind::Policy:
                item["kind"] = std::string("policy");
                break;
              case SpecFieldKind::Direction:
                item["kind"] = std::string("direction");
                break;
            }
            item["optional"] = field.optional;
            if (field.optional) {
                item["default"] = field.defaultValue;
            }
            fields.push(std::move(item));
        }
        entry["fields"] = std::move(fields);
        result.push(std::move(entry));
    }
    return result;
}

std::string
PredictorSpec::toString() const
{
    std::string text = scheme;
    for (const std::string &field : fields) {
        text += ':';
        text += field;
    }
    return text;
}

PredictorSpec
PredictorSpec::withSuffix(const std::string &suffix) const
{
    const SchemeInfo *info = findScheme(scheme);
    if (!info) {
        fatal("predictor spec '" + toString() +
              "': unknown scheme '" + scheme + "'");
    }
    const std::vector<std::string> extra = splitSpec(suffix);
    if (extra.empty()) {
        fatal("predictor spec '" + toString() + "': empty suffix");
    }
    if (fields.size() + extra.size() > info->fields.size()) {
        fatal("predictor spec '" + toString() + "': suffix '" +
              suffix + "' exceeds the scheme's " +
              std::to_string(info->fields.size()) + " fields");
    }

    PredictorSpec extended = *this;
    const std::string context = toString() + ":" + suffix;
    for (const std::string &value : extra) {
        const SpecFieldInfo &field_info =
            info->fields[extended.fields.size()];
        extended.fields.push_back(
            canonicalizeField(field_info, value, context));
    }
    return extended;
}

PredictorSpec
parseSpec(const std::string &spec)
{
    const std::vector<std::string> raw = splitSpec(spec);
    if (raw.empty()) {
        fatal("empty predictor spec");
    }

    const SchemeInfo *scheme = findScheme(raw[0]);
    if (!scheme) {
        fatal("predictor spec '" + spec + "': unknown scheme '" +
              raw[0] + "'");
    }

    const std::size_t given = raw.size() - 1;
    if (given < scheme->requiredFields() ||
        given > scheme->fields.size()) {
        fatal("predictor spec '" + spec +
              "': wrong number of fields (see predictorSpecHelp())");
    }

    PredictorSpec parsed;
    parsed.scheme = scheme->name;
    parsed.fields.reserve(given);
    for (std::size_t i = 0; i < given; ++i) {
        parsed.fields.push_back(
            canonicalizeField(scheme->fields[i], raw[i + 1], spec));
    }
    return parsed;
}

namespace
{

// Accessors over a validated PredictorSpec: parseSpec() already
// guaranteed field counts and formats, so these only convert.

unsigned
numberAt(const PredictorSpec &spec, std::size_t index)
{
    return parseUnsigned(spec.fields[index], spec.toString());
}

unsigned
numberAt(const PredictorSpec &spec, std::size_t index,
         unsigned fallback)
{
    return index < spec.fields.size() ? numberAt(spec, index)
                                      : fallback;
}

UpdatePolicy
policyAt(const PredictorSpec &spec, std::size_t index)
{
    return index < spec.fields.size()
        ? parsePolicy(spec.fields[index], spec.toString())
        : UpdatePolicy::Partial;
}

} // namespace

std::unique_ptr<Predictor>
makePredictor(const PredictorSpec &spec)
{
    const std::string &scheme = spec.scheme;

    if (scheme == "static") {
        return std::make_unique<StaticPredictor>(
            spec.fields[0] == "taken");
    }
    if (scheme == "bimodal") {
        return std::make_unique<BimodalPredictor>(
            numberAt(spec, 0), numberAt(spec, 1, 2));
    }
    if (scheme == "gshare") {
        return std::make_unique<GSharePredictor>(
            numberAt(spec, 0), numberAt(spec, 1),
            numberAt(spec, 2, 2));
    }
    if (scheme == "gselect") {
        return std::make_unique<GSelectPredictor>(
            numberAt(spec, 0), numberAt(spec, 1),
            numberAt(spec, 2, 2));
    }
    if (scheme == "agree") {
        return std::make_unique<AgreePredictor>(
            numberAt(spec, 0), numberAt(spec, 1), numberAt(spec, 2),
            numberAt(spec, 3, 2));
    }
    if (scheme == "bimode") {
        return std::make_unique<BiModePredictor>(
            numberAt(spec, 0), numberAt(spec, 1), numberAt(spec, 2),
            numberAt(spec, 3, 2));
    }
    if (scheme == "yags") {
        return std::make_unique<YagsPredictor>(
            numberAt(spec, 0), numberAt(spec, 1), numberAt(spec, 2),
            numberAt(spec, 3, 6));
    }
    if (scheme == "pag") {
        return std::make_unique<LocalTwoLevelPredictor>(
            numberAt(spec, 0), numberAt(spec, 1),
            numberAt(spec, 2, 2));
    }
    if (scheme == "hybrid") {
        const unsigned index_bits = numberAt(spec, 0);
        return std::make_unique<HybridPredictor>(
            std::make_unique<GSharePredictor>(index_bits,
                                              numberAt(spec, 1)),
            std::make_unique<BimodalPredictor>(index_bits),
            index_bits);
    }
    if (scheme == "gskewed" || scheme == "gskewedsh") {
        SkewedPredictor::Config config;
        config.numBanks = numberAt(spec, 0);
        config.bankIndexBits = numberAt(spec, 1);
        config.historyBits = numberAt(spec, 2);
        config.updatePolicy = policyAt(spec, 3);
        if (scheme == "gskewedsh") {
            config.storage = BankStorage::SharedHysteresis;
        }
        return std::make_unique<SkewedPredictor>(config);
    }
    if (scheme == "egskew" || scheme == "egskewsh") {
        SkewedPredictor::Config config = makeEnhancedConfig(
            numberAt(spec, 0), numberAt(spec, 1));
        config.updatePolicy = policyAt(spec, 2);
        if (scheme == "egskewsh") {
            config.storage = BankStorage::SharedHysteresis;
        }
        return std::make_unique<SkewedPredictor>(config);
    }
    if (scheme == "pskew") {
        SkewedPredictor::Config config;
        // A nonzero table selects per-address history; 0 would
        // quietly build a global-history gskewed instead.
        config.bhtIndexBits = checkedIndexBits("pskew", numberAt(spec, 0));
        config.historyBits = numberAt(spec, 1);
        config.numBanks = numberAt(spec, 2);
        config.bankIndexBits = numberAt(spec, 3);
        config.updatePolicy = policyAt(spec, 4);
        return std::make_unique<SkewedPredictor>(config);
    }
    if (scheme == "falru") {
        const u64 entries = numberAt(spec, 0);
        if (entries == 0) {
            fatal("predictor spec '" + spec.toString() +
                  "': zero entries");
        }
        return std::make_unique<FaLruPredictor>(
            entries, numberAt(spec, 1), numberAt(spec, 2, 2));
    }
    if (scheme == "unaliased") {
        return std::make_unique<UnaliasedPredictor>(
            numberAt(spec, 0), numberAt(spec, 1, 2));
    }

    // parseSpec() accepts exactly the schemes handled above, so a
    // PredictorSpec built by hand is the only way to get here.
    fatal("predictor spec '" + spec.toString() +
          "': unknown scheme '" + scheme + "'");
}

std::unique_ptr<Predictor>
makePredictor(const std::string &spec)
{
    return makePredictor(parseSpec(spec));
}

std::string
predictorSpecHelp()
{
    std::string text = "predictor specs:";
    for (const SchemeInfo &scheme : listSchemes()) {
        text += "\n  " + scheme.usage();
    }
    return text;
}

} // namespace bpred
