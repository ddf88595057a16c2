/**
 * @file
 * Per-iteration phase tracing — chrome-trace-compatible JSONL spans.
 *
 * When a trace sink is open (`--trace-out FILE`), every campaign
 * iteration emits one complete-span event (`"ph":"X"`) per phase it
 * passes through: `gen`, `exec:<backend>`, `oracle`, `minimize`,
 * `replay`; inside `gen`, the z3 solver adds one `solver.*` span per
 * context, query and model (solver/z3_solver.cpp). Each line is a
 * standalone JSON object, so the file is both valid JSONL and —
 * wrapped in `[...]` — loadable by chrome://tracing and Perfetto:
 *
 *   {"name":"exec:OrtLite","cat":"campaign","ph":"X",
 *    "ts":1234,"dur":56,"pid":4711,"tid":1}
 *
 * Events buffer in memory per process and flush as whole-line chunks
 * through a single O_APPEND write(2), so the forked campaign workers
 * (fuzz/worker_runtime.h) can share one trace file with the
 * coordinator without interleaving partial lines. `traceOnFork()`
 * drops buffered-but-unflushed events in the child; the fabric calls
 * `traceFlush()` before forking, so no event is lost or duplicated.
 *
 * Tracing is inert by contract: spans observe wall-clock time only and
 * never feed back into fuzzing, coverage or the campaign merge
 * (DESIGN.md "Telemetry").
 */
#ifndef NNSMITH_OBS_TRACE_H
#define NNSMITH_OBS_TRACE_H

#include <cstdint>
#include <string>

namespace nnsmith::obs {

/** True while a trace sink is open in this process. */
bool traceEnabled();

/** Open @p path (created/appended, O_APPEND) as the process-wide
 *  trace sink. Throws FatalError if the file cannot be opened. */
void traceOpen(const std::string& path);

/** Flush buffered events and close the sink. Idempotent. */
void traceClose();

/** Flush buffered events to the sink (single whole-line write). */
void traceFlush();

/** Drop buffered events inherited across fork() — the parent already
 *  owns (and will flush) them. Call first thing in a forked worker. */
void traceOnFork();

/** Microseconds since this process's trace epoch (steady clock). */
uint64_t traceNowUs();

/**
 * RAII complete-span: construction stamps the start, destruction
 * emits the `"ph":"X"` event. When metrics are enabled the span's
 * duration is also observed into the `phase.<name>` histogram — one
 * primitive feeds both the trace and the timing metrics. Near-zero
 * cost when both tracing and metrics are off (no clock read, no
 * allocation).
 */
class PhaseSpan {
  public:
    explicit PhaseSpan(const char* name);
    /** Name built as prefix + dynamic only when a sink is active —
     *  spares the string concat on the disabled path. */
    PhaseSpan(const char* prefix, const std::string& dynamic);
    ~PhaseSpan();

    /** Relabel the span before it ends, for a phase whose kind is
     *  known only at its end (a solver check that comes back unsat). */
    void rename(const char* name);

    PhaseSpan(const PhaseSpan&) = delete;
    PhaseSpan& operator=(const PhaseSpan&) = delete;

  private:
    std::string name_;
    uint64_t startUs_ = 0;
    bool active_ = false;
};

} // namespace nnsmith::obs

#endif // NNSMITH_OBS_TRACE_H
