// Clean-tree exemplar of the trace-literal contract: every
// category/name is a string literal, including wrapped argument
// lists and numeric args.
void
traced(int index, int count)
{
    TRACE_SCOPE("engine", "run");
    TRACE_SCOPE("engine", "cell",
                static_cast<unsigned long>(index),
                static_cast<unsigned long>(count));
    TRACE_INSTANT("engine", "boundary");
    TRACE_COUNTER("engine", "occupancy", 0.5);
}

// A declared span, for args known only when it closes.
int
parsed()
{
    trace::Scope span("engine", "parse");
    span.setArgs(0, 3);
    return 3;
}
