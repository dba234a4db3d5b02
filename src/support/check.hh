/**
 * @file
 * Checked-build invariant macros and strong index types.
 *
 * The paper's results depend on bit-exact counter and index
 * behaviour, so the hot paths carry machine-checkable invariants:
 * every table access in range, every skewing-hash output within its
 * bank, every history width representable, every snapshot frame
 * read exactly. Those checks must cost nothing in release builds —
 * the block replay kernels are the throughput product — so they
 * compile away unless the tree is configured with
 * `-DBPRED_CHECKED=ON` (which defines the BPRED_CHECKED macro).
 *
 * - BP_CHECK(cond, message): active in checked builds; violation is
 *   an internal bug and panics with file/line and the condition
 *   text. In unchecked builds the condition is syntactically
 *   validated (inside sizeof) but never evaluated, so checks cannot
 *   bit-rot and cannot cost cycles.
 * - BP_DCHECK(cond, message): as BP_CHECK but also compiled out in
 *   checked builds that define NDEBUG — for per-prediction checks
 *   too hot even for routine checked runs.
 *
 * The strong types (BankIndex, HistWidth) validate at construction
 * and convert implicitly to their raw representation, so they can
 * sit in existing signatures without touching call sites; in
 * unchecked builds they are single-word wrappers the optimizer
 * erases.
 *
 * fatal() remains the tool for *user* errors (bad specs, corrupt
 * traces): those must be reported in every build, never gated here.
 */

#pragma once

#include "support/types.hh"

namespace bpred
{

/**
 * Report a BP_CHECK violation and abort (via panic()). Out of line
 * so the macro expansion stays a single compare-and-branch.
 */
[[noreturn]] void checkFailed(const char *file, int line,
                              const char *condition,
                              const char *message);

} // namespace bpred

#if BPRED_CHECKED
#define BP_CHECK(cond, message)                                       \
    ((cond) ? static_cast<void>(0)                                    \
            : ::bpred::checkFailed(__FILE__, __LINE__, #cond,         \
                                   message))
#else
// Unevaluated: keeps the condition compiling (and its operands
// "used" for -Wunused purposes) at zero runtime cost.
#define BP_CHECK(cond, message)                                       \
    static_cast<void>(sizeof(static_cast<bool>(cond)))
#endif

#if BPRED_CHECKED && !defined(NDEBUG)
#define BP_DCHECK(cond, message) BP_CHECK(cond, message)
#else
#define BP_DCHECK(cond, message)                                      \
    static_cast<void>(sizeof(static_cast<bool>(cond)))
#endif

namespace bpred
{

/**
 * A table/bank index validated against its table size at
 * construction. Implicitly converts to u64, so functions can return
 * BankIndex while callers keep treating the result as a raw index.
 */
class BankIndex
{
  public:
    /**
     * @param value The index.
     * @param size Number of entries in the table it indexes; the
     *        checked build panics unless value < size.
     */
    constexpr BankIndex(u64 value, u64 size) : value_(value)
    {
        BP_CHECK(value < size, "table index out of range");
        static_cast<void>(size);
    }

    /** The raw index. */
    constexpr u64 get() const { return value_; }

    /** Implicit conversion keeps existing call sites unchanged. */
    constexpr operator u64() const { return value_; }

  private:
    u64 value_;
};

/**
 * A history-register width in bits, validated to fit the 64-bit
 * GlobalHistory register. Implicitly constructible from unsigned so
 * existing `unsigned history_bits` call sites pick up validation
 * without a signature migration.
 */
class HistWidth
{
  public:
    constexpr HistWidth(unsigned bits) : bits_(bits)
    {
        BP_CHECK(bits <= 64, "history width exceeds 64 bits");
    }

    /** The width in bits. */
    constexpr unsigned get() const { return bits_; }

    /** Implicit conversion keeps existing call sites unchanged. */
    constexpr operator unsigned() const { return bits_; }

  private:
    unsigned bits_;
};

} // namespace bpred
