// Fixture: trace-literal violations (and the shapes that must not
// fire). This tree is linted, never compiled, so the macros are
// assumed to exist.
#include <string>

static const char *kCat = "engine";

void
spans(const std::string &label)
{
    TRACE_SCOPE("engine", "good");
    TRACE_SCOPE("engine", "wrapped",
                0, 1);
    TRACE_SCOPE(label.c_str(), "bad-category");
    TRACE_SCOPE("engine", label.c_str());
    TRACE_INSTANT("engine", dynamic_name);
    // bp_lint: allow(trace-literal) audited legacy call site
    TRACE_COUNTER(kCat, "value", 1.0);
    // A mention of TRACE_SCOPE in a comment must not fire, nor may
    // the string "TRACE_INSTANT(x, y)" below.
    const char *doc = "TRACE_INSTANT(x, y)";
    (void)doc;
    MY_TRACE_SCOPE(label, label);
}

// A span declared by hand is held to the same contract, including a
// brace-initialised one; a Scope reference, a qualified member and a
// multi-line #define passing its parameters through stay silent.
#define MY_SPAN(category, name) \
    ::bpred::trace::Scope mySpan(category, \
                                 name)

void
declared(const std::string &label, trace::Scope &outer)
{
    trace::Scope good("engine", "declared");
    trace::Scope bad(label.c_str(), "declared");
    trace::Scope braced{"engine", label.c_str()};
    trace::Scope::describe(label);
    (void)outer;
}
