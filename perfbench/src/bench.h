/**
 * @file
 * Shared pieces of the repository benchmark (see perfbench/README.md):
 * command-line arguments, the metric report, the in-memory span tracer
 * and the cold single-threaded compile that both workload families use
 * as oracle and as per-pass timer.
 */

#ifndef WSC_PERFBENCH_BENCH_H
#define WSC_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "codegen/csl_emitter.h"
#include "frontends/fortran_frontend.h"
#include "frontends/sym.h"
#include "ir/context.h"
#include "ir/pass.h"
#include "service/compile_service.h"

namespace pb {

using namespace wsc;

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
sBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Seeded generator of every input the benchmark hands to the library. */
using Rng = std::mt19937_64;

/** Benchmark command line. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where a traced run writes its Chrome trace-event JSON. */
    std::string traceOut = "perfbench-trace.json";
    /** Directory holding the cross-run determinism records. */
    std::string stateDir = ".";
    /** Traced runs print each feed's layer metrics under the end-to-end
     *  metrics they should move. */
    struct Feed
    {
        std::vector<std::string> moves;
        std::vector<std::string> layers; ///< names, or prefixes ending '.'
        std::string note;
    };
    std::vector<Feed> feeds;
};

/**
 * What one run reports: operations attempted and failed, and named
 * metrics. Every metric of the end-to-end and per-layer lists is
 * printed on every run of its kind, so a layer a workload does not
 * exercise reads 0.
 */
class Report
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics_[name] = {value, unit};
    }
    bool has(const std::string &name) const { return metrics_.count(name); }
    double get(const std::string &name) const;
    std::string unit(const std::string &name) const;

    /** One operation attempted; `ok` false counts it failed and prints
     *  `what` to stderr. */
    void op(bool ok, const std::string &what = {});
    /** A broken check outside any one operation (determinism, oracle). */
    void broken(const std::string &what);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    bool correct() const { return failed_ == 0 && !broken_; }

    /** The last stdout line: {"correct", "attempted", "failed",
     *  "metrics"} restricted to `names`. */
    std::string json(const std::vector<std::string> &names) const;

  private:
    struct Value
    {
        double value = 0.0;
        std::string unit;
    };
    std::map<std::string, Value> metrics_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    bool broken_ = false;
};

//===----------------------------------------------------------------------===
// Tracing: spans kept in memory, written as Chrome trace-event JSON
//===----------------------------------------------------------------------===

/** Monotonic nanoseconds since process start. */
int64_t nowNs();

/** Starts and ends spans; a no-op unless enabled. Thread-safe. */
class Tracer
{
  public:
    static bool enabled() { return enabled_; }
    static void enable(bool on) { enabled_ = on; }

    /** Open a span on this thread (its parent is the innermost open
     *  span of this thread unless `parent` is given). Returns its id. */
    static uint64_t begin(std::string name, const char *layer,
                          uint64_t req = 0, uint64_t parent = 0);
    static void end(uint64_t id);
    /** Record a closed span with explicit times (e.g. a queue wait
     *  reconstructed from a reply), under id `id` when non-zero (one
     *  reserved with newSpanId) and a fresh one otherwise. */
    static uint64_t record(std::string name, const char *layer,
                           int64_t startNs, int64_t endNs, uint64_t req,
                           uint64_t parent, uint64_t id = 0);
    /** Reserve a span id, so children can name a parent that is
     *  recorded after them. */
    static uint64_t newSpanId();
    /** Fresh request id shared by the spans of one request. */
    static uint64_t newRequest();

    /** Per-layer self time: span duration minus the part its children
     *  cover, summed by layer (ms). */
    static std::map<std::string, double> selfTimeMs();
    /** Write every span as Chrome trace-event JSON. */
    static bool write(const std::string &path,
                      const std::map<std::string, std::string> &meta);

  private:
    static inline bool enabled_ = false;
};

/** RAII span. */
class Span
{
  public:
    Span(std::string name, const char *layer, uint64_t req = 0,
         uint64_t parent = 0)
        : id_(Tracer::enabled()
                  ? Tracer::begin(std::move(name), layer, req, parent)
                  : 0)
    {
    }
    ~Span()
    {
        if (id_)
            Tracer::end(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    uint64_t id() const { return id_; }

  private:
    uint64_t id_;
};

//===----------------------------------------------------------------------===
// Cold compile: oracle bytes plus per-layer compile timings
//===----------------------------------------------------------------------===

/** Accumulated compile-layer timings over a set of cold compiles. */
struct CompileLayers
{
    int compiles = 0;
    int emitted = 0;
    int fortranParsed = 0;
    int resets = 0;
    double emitMs = 0.0;         ///< fe::Program::emit
    double fortranParseMs = 0.0; ///< fe::parseFortranStencilChecked
    double fingerprintMs = 0.0;  ///< ir::fingerprintModule
    double verifyMs = 0.0;       ///< ir::verify, frontend + after each pass
    double codegenMs = 0.0;      ///< codegen::emitCsl
    double resetMs = 0.0;        ///< ir::Context::reset
    uint64_t opsFinal = 0;       ///< ops in the lowered modules
    /** Per pass, in pipeline order. */
    std::vector<std::pair<std::string, double>> passMs;

    /** Report the means per compile as per-layer metrics. */
    void report(Report &out) const;
};

/** Where a request's module comes from. */
struct Source
{
    /** Symbolic program (Devito/CSL-style kernels). */
    std::shared_ptr<const fe::Program> program;
    /** Fortran source and grid, parsed by the checked frontend. */
    std::string fortran;
    fe::FortranKernelConfig fortranConfig;
};

/** Outcome of one cold compile. */
struct ColdResult
{
    bool ok = false;
    std::string failedPass;
    std::string message;
    codegen::EmittedCsl csl;
    /** With `keepModule`: the context and the lowered module in it
     *  (declared in this order so the module dies first). */
    std::unique_ptr<ir::Context> context;
    ir::OwningOp module;
};

/**
 * Compile `source` single-threaded in a fresh context through
 * transforms::buildPipeline + PassManager::setAfterPassHook, timing
 * every layer into `layers` (and spans when tracing). Verification
 * runs in the hook, after every pass, as runPipeline's verifyEach does.
 * Without `keepModule` the context is reset (and timed) at the end.
 */
ColdResult coldCompile(const Source &source,
                       const transforms::PipelineOptions &options,
                       CompileLayers &layers, bool keepModule = false);

/** Percentile of an unsorted sample (nearest rank), 0 when empty. */
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/** Peak resident set of this process, MB. */
double peakRssMb();
/** User + system CPU seconds of this process so far. */
double processCpuSeconds();
/** CPU seconds of the calling thread. */
double threadCpuSeconds();

/**
 * Cross-run determinism guard: `record` must equal what an earlier run
 * of the same build (the same executable) stored under `key`; the first
 * run stores it. Returns false (and says why on stderr) on a mismatch.
 */
bool checkDeterminism(const Args &args, const std::string &key,
                      const std::string &record);

/// @name Workloads
/// @{
void runCompileStream(const Args &args, Report &out);
void runWafer(const Args &args, Report &out);
/// @}

} // namespace pb

#endif // WSC_PERFBENCH_BENCH_H
