/**
 * @file
 * Benchmark entry point and shared machinery: build guards,
 * argument parsing, the metric report, the span tracer and the cold
 * compile. Usage:
 *
 *   wsc_perfbench --workload <compile_stream|wafer_wide_sharded|
 *                             wafer_deep_seq>
 *                 --seed <n> --seconds <s> --trace <0|1>
 *                 --metrics <name=unit,...> [--trace-out <file>]
 *                 [--state-dir <dir>] [--feed <moves|layers|note>]...
 *
 * Human-readable progress goes to stderr; the last stdout line is the
 * JSON result restricted to the `--metrics` names. perfbench/run.py
 * builds this program and passes the metric list from BENCHMARK.json.
 */

#include "bench.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "dialects/all.h"
#include "frontends/fortran_frontend.h"
#include "ir/module_hash.h"
#include "ir/verifier.h"
#include "transforms/pipeline.h"

// The numbers are only meaningful from an optimised, uninstrumented
// build: refuse anything else at run time.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WSC_PB_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                      \
    __has_feature(undefined_behavior_sanitizer)
#define WSC_PB_SANITIZED 1
#endif
#endif
#ifndef WSC_PB_SANITIZED
#define WSC_PB_SANITIZED 0
#endif
#ifdef __OPTIMIZE__
#define WSC_PB_OPTIMIZED 1
#else
#define WSC_PB_OPTIMIZED 0
#endif
#ifndef WSC_PERFBENCH_BUILD_TYPE
#define WSC_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pb {

//===----------------------------------------------------------------------===
// Report
//===----------------------------------------------------------------------===

double
Report::get(const std::string &name) const
{
    auto it = metrics_.find(name);
    return it == metrics_.end() ? 0.0 : it->second.value;
}

std::string
Report::unit(const std::string &name) const
{
    auto it = metrics_.find(name);
    return it == metrics_.end() ? std::string() : it->second.unit;
}

void
Report::op(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (failed_ <= 20)
            std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
}

void
Report::broken(const std::string &what)
{
    broken_ = true;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

namespace {

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace

std::string
Report::json(const std::vector<std::string> &names) const
{
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const std::string &name : names) {
        auto it = metrics_.find(name);
        if (it == metrics_.end())
            continue;
        out += first ? "" : ", ";
        first = false;
        out += jsonString(name) + ": {\"value\": " +
               jsonNumber(it->second.value) +
               ", \"unit\": " + jsonString(it->second.unit) + "}";
    }
    return out + "}}";
}

//===----------------------------------------------------------------------===
// Tracer
//===----------------------------------------------------------------------===

namespace {

struct SpanRec
{
    std::string name;
    const char *layer = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t req = 0;
    uint32_t tid = 0;
};

struct ThreadSpans
{
    uint32_t tid = 0;
    std::vector<SpanRec> spans;
};

std::mutex gSpansMu;
std::vector<std::shared_ptr<ThreadSpans>> gSpans; // guarded by gSpansMu
std::atomic<uint64_t> gNextSpan{1};
std::atomic<uint64_t> gNextReq{1};
std::atomic<uint32_t> gNextTid{1};
const Clock::time_point gStart = Clock::now();

/** This thread's span buffer plus its stack of open span indices. */
struct ThreadState
{
    std::shared_ptr<ThreadSpans> buf;
    std::vector<size_t> open;

    ThreadState() : buf(std::make_shared<ThreadSpans>())
    {
        buf->tid = gNextTid.fetch_add(1);
        std::lock_guard<std::mutex> lock(gSpansMu);
        gSpans.push_back(buf);
    }
};

ThreadState &
threadState()
{
    thread_local ThreadState state;
    return state;
}

} // namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - gStart)
        .count();
}

uint64_t
Tracer::begin(std::string name, const char *layer, uint64_t req,
              uint64_t parent)
{
    ThreadState &ts = threadState();
    SpanRec rec;
    rec.name = std::move(name);
    rec.layer = layer;
    rec.id = gNextSpan.fetch_add(1);
    if (!ts.open.empty()) {
        const SpanRec &outer = ts.buf->spans[ts.open.back()];
        rec.parent = parent ? parent : outer.id;
        rec.req = req ? req : outer.req;
    } else {
        rec.parent = parent;
        rec.req = req;
    }
    rec.tid = ts.buf->tid;
    rec.startNs = nowNs();
    ts.open.push_back(ts.buf->spans.size());
    std::lock_guard<std::mutex> lock(gSpansMu); // allSpans() reads it
    ts.buf->spans.push_back(std::move(rec));
    return ts.buf->spans.back().id;
}

void
Tracer::end(uint64_t id)
{
    ThreadState &ts = threadState();
    int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(gSpansMu);
    // Spans close in LIFO order on their own thread.
    while (!ts.open.empty()) {
        SpanRec &rec = ts.buf->spans[ts.open.back()];
        ts.open.pop_back();
        rec.endNs = t;
        if (rec.id == id)
            break;
    }
}

uint64_t
Tracer::record(std::string name, const char *layer, int64_t startNs,
               int64_t endNs, uint64_t req, uint64_t parent, uint64_t id)
{
    if (!enabled_)
        return 0;
    ThreadState &ts = threadState();
    SpanRec rec;
    rec.name = std::move(name);
    rec.layer = layer;
    rec.id = id ? id : gNextSpan.fetch_add(1);
    rec.parent = parent;
    rec.req = req;
    rec.tid = ts.buf->tid;
    rec.startNs = startNs;
    rec.endNs = std::max(startNs, endNs);
    std::lock_guard<std::mutex> lock(gSpansMu);
    ts.buf->spans.push_back(std::move(rec));
    return ts.buf->spans.back().id;
}

uint64_t
Tracer::newSpanId()
{
    return gNextSpan.fetch_add(1);
}

uint64_t
Tracer::newRequest()
{
    return gNextReq.fetch_add(1);
}

namespace {

std::vector<SpanRec>
allSpans()
{
    std::lock_guard<std::mutex> lock(gSpansMu);
    std::vector<SpanRec> all;
    for (const auto &buf : gSpans)
        all.insert(all.end(), buf->spans.begin(), buf->spans.end());
    return all;
}

} // namespace

std::map<std::string, double>
Tracer::selfTimeMs()
{
    std::vector<SpanRec> spans = allSpans();
    std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
    for (const SpanRec &s : spans)
        if (s.parent)
            children[s.parent].push_back({s.startNs, s.endNs});
    std::map<std::string, double> self;
    for (const SpanRec &s : spans) {
        int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            // Union of the children's intervals, clipped to the span.
            std::vector<std::pair<int64_t, int64_t>> iv = it->second;
            std::sort(iv.begin(), iv.end());
            int64_t curA = 0, curB = -1;
            for (auto [a, b] : iv) {
                a = std::max(a, s.startNs);
                b = std::min(b, s.endNs);
                if (b <= a)
                    continue;
                if (a > curB) {
                    if (curB > curA)
                        covered += curB - curA;
                    curA = a;
                    curB = b;
                } else {
                    curB = std::max(curB, b);
                }
            }
            if (curB > curA)
                covered += curB - curA;
        }
        self[s.layer] += static_cast<double>(s.endNs - s.startNs - covered) /
                         1e6;
    }
    return self;
}

bool
Tracer::write(const std::string &path,
              const std::map<std::string, std::string> &meta)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\": \"ms\", \"metadata\": {";
    bool first = true;
    for (const auto &[k, v] : meta) {
        os << (first ? "" : ", ") << jsonString(k) << ": " << jsonString(v);
        first = false;
    }
    os << "}, \"traceEvents\": [\n";
    first = true;
    for (const SpanRec &s : allSpans()) {
        char buf[128];
        os << (first ? "" : ",\n") << "{\"name\": " << jsonString(s.name)
           << ", \"cat\": " << jsonString(s.layer)
           << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid;
        std::snprintf(buf, sizeof(buf), ", \"ts\": %.3f, \"dur\": %.3f",
                      static_cast<double>(s.startNs) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3);
        os << buf << ", \"args\": {\"id\": " << s.id
           << ", \"parent\": " << s.parent << ", \"req\": " << s.req
           << "}}";
        first = false;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

//===----------------------------------------------------------------------===
// Cold compile
//===----------------------------------------------------------------------===

namespace {

void
addPassMs(CompileLayers &layers, const std::string &pass, double ms)
{
    for (auto &[name, total] : layers.passMs)
        if (name == pass) {
            total += ms;
            return;
        }
    layers.passMs.push_back({pass, ms});
}

void
fillFailure(ColdResult &out, const std::string &pass,
            const std::vector<ir::Diagnostic> &diags)
{
    out.ok = false;
    out.failedPass = pass;
    for (const ir::Diagnostic &d : diags)
        if (d.severity == ir::Severity::Error) {
            out.message = d.message;
            return;
        }
}

} // namespace

ColdResult
coldCompile(const Source &source,
            const transforms::PipelineOptions &options,
            CompileLayers &layers, bool keepModule)
{
    Span whole("compile (cold)", "compile");
    ColdResult out;
    auto ctx = std::make_unique<ir::Context>();
    dialects::registerAllDialects(*ctx);
    ++layers.compiles;
    {
        ir::DiagnosticCollector collector(*ctx);
        ir::OwningOp module;
        if (source.program) {
            Span s("fe::Program::emit", "frontends");
            Clock::time_point t0 = Clock::now();
            module = source.program->emit(*ctx);
            layers.emitMs += msBetween(t0, Clock::now());
            ++layers.emitted;
        } else {
            fe::FortranParseResult parsed;
            {
                Span s("fe::parseFortranStencilChecked", "frontends");
                Clock::time_point t0 = Clock::now();
                parsed = fe::parseFortranStencilChecked(
                    source.fortran, source.fortranConfig);
                layers.fortranParseMs += msBetween(t0, Clock::now());
                ++layers.fortranParsed;
            }
            if (!parsed) {
                fillFailure(out, "frontend", {parsed.diagnostic});
                return out;
            }
            Span s("fe::Program::emit", "frontends");
            Clock::time_point t0 = Clock::now();
            module = parsed.program->emit(*ctx);
            layers.emitMs += msBetween(t0, Clock::now());
            ++layers.emitted;
        }
        if (!module) {
            fillFailure(out, "frontend", collector.take());
            return out;
        }
        bool verified;
        {
            Span s("ir::verify", "transforms");
            Clock::time_point t0 = Clock::now();
            verified = ir::succeeded(ir::verify(module.get()));
            layers.verifyMs += msBetween(t0, Clock::now());
        }
        if (!verified) {
            fillFailure(out, "verify", collector.take());
            return out;
        }
        {
            Span s("ir::fingerprintModule", "ir");
            Clock::time_point t0 = Clock::now();
            ir::fingerprintModule(module.get());
            layers.fingerprintMs += msBetween(t0, Clock::now());
        }

        transforms::PipelineOptions opts = options;
        opts.verifyEach = false; // verified (and timed) in the hook
        ir::PassManager pm = transforms::buildPipeline(opts);
        std::string verifyFailedAfter;
        int64_t passStart = 0;
        ir::PipelineResult result;
        {
            Span run("ir::PassManager::run", "transforms");
            pm.setAfterPassHook([&](const ir::Pass &pass, ir::Operation *m) {
                int64_t passEnd = nowNs();
                addPassMs(layers, pass.name(),
                          static_cast<double>(passEnd - passStart) / 1e6);
                Tracer::record(pass.name(), "transforms", passStart,
                               passEnd, 0, run.id());
                Span s("ir::verify", "transforms");
                Clock::time_point t0 = Clock::now();
                if (ir::failed(ir::verify(m)) && verifyFailedAfter.empty())
                    verifyFailedAfter = pass.name();
                layers.verifyMs += msBetween(t0, Clock::now());
                passStart = nowNs();
            });
            passStart = nowNs();
            result = pm.run(module.get());
        }
        if (!result) {
            fillFailure(out, result.failedPass, result.diagnostics);
        } else if (!verifyFailedAfter.empty()) {
            fillFailure(out, verifyFailedAfter, result.diagnostics);
        } else {
            Span s("codegen::emitCsl", "codegen");
            Clock::time_point t0 = Clock::now();
            out.csl = codegen::emitCsl(module.get());
            layers.codegenMs += msBetween(t0, Clock::now());
            out.ok = true;
            module->walk([&](ir::Operation *) { ++layers.opsFinal; });
        }
        if (keepModule && out.ok) {
            out.module = std::move(module);
            out.context = std::move(ctx);
            return out;
        }
    }
    Span s("ir::Context::reset", "ir");
    Clock::time_point t0 = Clock::now();
    ctx->reset();
    layers.resetMs += msBetween(t0, Clock::now());
    ++layers.resets;
    return out;
}

void
CompileLayers::report(Report &out) const
{
    auto mean = [](double total, int n) { return n ? total / n : 0.0; };
    out.set("frontends.emit_ms", mean(emitMs, emitted), "ms");
    out.set("frontends.fortran_parse_ms",
            mean(fortranParseMs, fortranParsed), "ms");
    for (const auto &[name, total] : passMs)
        out.set("transforms." + name + ".ms", mean(total, compiles), "ms");
    out.set("transforms.verify_ms", mean(verifyMs, compiles), "ms");
    out.set("ir.ops_final",
            compiles ? static_cast<double>(opsFinal) / compiles : 0.0,
            "count");
    out.set("ir.fingerprint_ms", mean(fingerprintMs, compiles), "ms");
    out.set("ir.context_reset_ms", mean(resetMs, resets), "ms");
    out.set("codegen.emit_ms", mean(codegenMs, compiles), "ms");
}

//===----------------------------------------------------------------------===
// Helpers
//===----------------------------------------------------------------------===

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
    return v[std::min(v.size() - 1, rank ? rank - 1 : 0)];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
processCpuSeconds()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
threadCpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {

/** FNV-1a hash of this program's executable, which links the library
 *  statically: the identity of the build, "" when it cannot be read. */
std::string
buildId()
{
    std::ifstream in("/proc/self/exe", std::ios::binary);
    if (!in)
        return {};
    uint64_t h = 0xcbf29ce484222325ULL;
    std::vector<char> buf(1 << 16);
    while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
           in.gcount() > 0)
        for (std::streamsize i = 0; i < in.gcount(); ++i)
            h = (h ^ static_cast<unsigned char>(buf[static_cast<size_t>(i)])) *
                0x100000001b3ULL;
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

} // namespace

bool
checkDeterminism(const Args &args, const std::string &key,
                 const std::string &record)
{
    // Records are per build: a change that rightly alters a count starts
    // fresh records instead of contradicting another build's.
    static const std::string build = buildId();
    if (build.empty()) {
        std::fprintf(stderr, "perfbench: cannot identify this build\n");
        return false;
    }
    std::string path =
        args.stateDir + "/determinism-" + key + "-" + build + ".txt";
    std::ifstream in(path);
    if (in) {
        std::stringstream ss;
        ss << in.rdbuf();
        if (ss.str() != record) {
            std::fprintf(stderr,
                         "DETERMINISM VIOLATION for %s:\n  earlier run: "
                         "%s\n  this run:    %s\n",
                         key.c_str(), ss.str().c_str(), record.c_str());
            return false;
        }
        return true;
    }
    std::ofstream(path) << record;
    return true;
}

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    return "unknown";
}

std::map<std::string, std::string>
environment()
{
    std::map<std::string, std::string> env;
    env["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
    env["cpu"] = cpuModel();
    env["compiler"] = __VERSION__;
    env["build_type"] = WSC_PERFBENCH_BUILD_TYPE;
    return env;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload <compile_stream|wafer_wide_sharded|"
                 "wafer_deep_seq> --seed <n> --seconds <s> --trace <0|1> "
                 "--metrics <name=unit,...> [--trace-out <file>] "
                 "[--state-dir <dir>] [--feed <moves|layers|note>]...\n",
                 argv0);
    return 2;
}

/** "a,b,c" split at commas; empty parts dropped. */
std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/** "name=unit,name=unit,..." in order. */
std::vector<std::pair<std::string, std::string>>
parseMetricList(const std::string &s)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const std::string &item : splitList(s)) {
        size_t eq = item.find('=');
        if (eq != std::string::npos)
            out.push_back({item.substr(0, eq), item.substr(eq + 1)});
    }
    return out;
}

/** "<moves>|<layers>|<note>", the lists comma-separated. */
Args::Feed
parseFeed(const std::string &s)
{
    size_t a = s.find('|');
    size_t b = a == std::string::npos ? a : s.find('|', a + 1);
    if (b == std::string::npos)
        throw std::invalid_argument("bad --feed " + s);
    return {splitList(s.substr(0, a)), splitList(s.substr(a + 1, b - a - 1)),
            s.substr(b + 1)};
}

/** Per-layer numbers printed under the end-to-end metrics they feed. */
void
printLayerMap(const Args &args, const Report &out,
              const std::vector<std::string> &names)
{
    for (const Args::Feed &feed : args.feeds) {
        std::fprintf(stderr, "  ->");
        for (const std::string &e2e : feed.moves)
            std::fprintf(stderr, " %s = %.6g", e2e.c_str(), out.get(e2e));
        if (feed.moves.empty())
            std::fprintf(stderr, " (no end-to-end metric)");
        if (!feed.note.empty())
            std::fprintf(stderr, "  [%s]", feed.note.c_str());
        std::fprintf(stderr, "\n");
        for (const std::string &name : names)
            for (const std::string &layer : feed.layers)
                if (layer.back() == '.' ? name.rfind(layer, 0) == 0
                                        : name == layer) {
                    std::fprintf(stderr, "       %-44s %.6g\n",
                                 name.c_str(), out.get(name));
                    break;
                }
    }
}

} // namespace

} // namespace pb

int
main(int argc, char **argv)
{
    using namespace pb;
    if (WSC_PB_SANITIZED || !WSC_PB_OPTIMIZED) {
        std::fprintf(stderr,
                     "perfbench: refusing to measure a %s build; build "
                     "with -DCMAKE_BUILD_TYPE=Release and no sanitizers\n",
                     WSC_PB_SANITIZED ? "sanitizer" : "non-optimised");
        return 3;
    }

    Args args;
    std::vector<std::pair<std::string, std::string>> metrics;
    if (argc % 2 == 0)
        return usage(argv[0]);
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            std::string key = argv[i];
            std::string value = argv[i + 1];
            if (key == "--workload")
                args.workload = value;
            else if (key == "--seed")
                args.seed = std::stoull(value);
            else if (key == "--seconds")
                args.seconds = std::stod(value);
            else if (key == "--trace")
                args.trace = value == "1";
            else if (key == "--trace-out")
                args.traceOut = value;
            else if (key == "--state-dir")
                args.stateDir = value;
            else if (key == "--metrics")
                metrics = parseMetricList(value);
            else if (key == "--feed")
                args.feeds.push_back(parseFeed(value));
            else
                return usage(argv[0]);
        }
    } catch (const std::exception &) {
        return usage(argv[0]);
    }
    if (args.workload.empty() || metrics.empty() || args.seconds <= 0)
        return usage(argv[0]);
    std::vector<std::string> metricNames;
    for (const auto &[name, unit] : metrics)
        metricNames.push_back(name);

    std::map<std::string, std::string> env = environment();
    std::string envLine;
    for (const auto &[k, v] : env)
        envLine += k + "=" + v + "  ";
    std::fprintf(stderr, "perfbench %s seed=%llu seconds=%g trace=%d | %s\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), args.seconds,
                 args.trace ? 1 : 0, envLine.c_str());

    Tracer::enable(args.trace);
    Report report;
    try {
        if (args.workload == "compile_stream")
            runCompileStream(args, report);
        else if (args.workload == "wafer_wide_sharded" ||
                 args.workload == "wafer_deep_seq")
            runWafer(args, report);
        else
            return usage(argv[0]);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: aborted: %s\n", e.what());
        return 1;
    }
    report.set("peak_rss_mb", peakRssMb(), "MB");
    report.set("ok_frac",
               report.attempted()
                   ? 1.0 - static_cast<double>(report.failed()) /
                               static_cast<double>(report.attempted())
                   : 0.0,
               "ratio");

    if (args.trace) {
        std::map<std::string, double> self = Tracer::selfTimeMs();
        for (const char *layer :
             {"frontends", "transforms", "codegen", "ir", "service",
              "interp", "wse", "shard", "comms"})
            report.set(std::string("self_ms.") + layer,
                       self.count(layer) ? self[layer] : 0.0, "ms");
        env["workload"] = args.workload;
        env["seed"] = std::to_string(args.seed);
        if (!Tracer::write(args.traceOut, env))
            report.broken("cannot write trace " + args.traceOut);
        else
            std::fprintf(stderr, "trace written to %s\n",
                         args.traceOut.c_str());
        printLayerMap(args, report, metricNames);
    }

    // A traced run reports every layer; one this workload never calls
    // into reads 0. An end-to-end metric must always be measured.
    bool complete = true;
    for (const auto &[name, unit] : metrics) {
        if (!report.has(name) && args.trace)
            report.set(name, 0.0, unit);
        if (!report.has(name) || report.unit(name) != unit) {
            std::fprintf(stderr, "perfbench: metric %s [%s] not produced\n",
                         name.c_str(), unit.c_str());
            complete = false;
        }
    }
    if (!complete)
        return 1;
    std::printf("%s\n", report.json(metricNames).c_str());
    return 0;
}
