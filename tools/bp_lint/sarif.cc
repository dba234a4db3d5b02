#include "bp_lint/sarif.hh"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace bplint
{

namespace
{

/** Tool version stamped into the SARIF driver object. */
const char *const lintVersion = "3.0.0";

/** JSON string escape (control chars, quotes, backslashes). */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
toSarif(const std::vector<Finding> &findings)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"$schema\": \"https://raw.githubusercontent.com/"
           "oasis-tcs/sarif-spec/master/Schemata/"
           "sarif-schema-2.1.0.json\",\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"runs\": [\n"
        << "    {\n"
        << "      \"tool\": {\n"
        << "        \"driver\": {\n"
        << "          \"name\": \"bp_lint\",\n"
        << "          \"version\": \"" << lintVersion << "\",\n"
        << "          \"informationUri\": "
           "\"https://example.invalid/bp_lint\",\n"
        << "          \"rules\": [\n";
    const std::vector<RuleInfo> &rules = allRules();
    for (std::size_t i = 0; i < rules.size(); ++i) {
        out << "            {\n"
            << "              \"id\": \"" << rules[i].name
            << "\",\n"
            << "              \"shortDescription\": { \"text\": \""
            << jsonEscape(rules[i].summary) << "\" }\n"
            << "            }" << (i + 1 < rules.size() ? "," : "")
            << "\n";
    }
    out << "          ]\n"
        << "        }\n"
        << "      },\n"
        << "      \"results\": [\n";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &finding = findings[i];
        out << "        {\n"
            << "          \"ruleId\": \""
            << jsonEscape(finding.rule) << "\",\n"
            << "          \"level\": \"error\",\n"
            << "          \"message\": { \"text\": \""
            << jsonEscape(finding.message) << "\" },\n"
            << "          \"locations\": [\n"
            << "            {\n"
            << "              \"physicalLocation\": {\n"
            << "                \"artifactLocation\": { \"uri\": \""
            << jsonEscape(finding.file) << "\" }";
        if (finding.line >= 1) {
            out << ",\n"
                << "                \"region\": { \"startLine\": "
                << finding.line << " }";
        }
        out << "\n"
            << "              }\n"
            << "            }\n"
            << "          ]\n"
            << "        }" << (i + 1 < findings.size() ? "," : "")
            << "\n";
    }
    out << "      ]\n"
        << "    }\n"
        << "  ]\n"
        << "}\n";
    return out.str();
}

void
writeSarif(const std::vector<Finding> &findings,
           const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        throw std::runtime_error("cannot open SARIF output: " +
                                 path);
    }
    out << toSarif(findings);
    if (!out) {
        throw std::runtime_error("failed writing SARIF output: " +
                                 path);
    }
}

} // namespace bplint
