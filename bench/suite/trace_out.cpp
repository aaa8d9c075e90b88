// Chrome trace-event output and per-layer self times of the kept spans.

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "suite.hpp"

namespace suite {

namespace {

/// Live requests written to the file (every walk span is written too);
/// self times are computed over every kept span regardless.
constexpr std::size_t kMaxLiveRequests = 4000;

std::vector<double> child_time(const std::vector<Span>& spans) {
    std::vector<double> covered(spans.size(), 0.0);
    for (const Span& s : spans) {
        if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += s.dur_s;
    }
    return covered;
}

}  // namespace

std::map<std::string, std::pair<std::size_t, double>> self_times(const std::vector<Span>& spans) {
    const std::vector<double> covered = child_time(spans);
    std::map<std::string, std::vector<double>> by_name;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        by_name[spans[i].name].push_back(spans[i].dur_s - covered[i]);
    }
    std::map<std::string, std::pair<std::size_t, double>> out;
    for (auto& [name, v] : by_name) out[name] = {v.size(), percentile(std::move(v), 0.5)};
    return out;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
    std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"),
                                                            &std::fclose);
    if (!f) throw std::runtime_error("cannot open trace file '" + path + "'");
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f.get());
    const char* const threads[] = {"connection 0", "connection 1", "layer walk"};
    for (int tid = 0; tid < 3; ++tid) {
        std::fprintf(f.get(),
                     "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                     "\"args\":{\"name\":\"%s\"}},\n",
                     tid, threads[tid]);
    }
    // Spans of one request are contiguous and start with their root.
    std::size_t live_roots = 0;
    bool keep = false;
    bool first = true;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        if (s.parent < 0) {
            keep = s.tid == kWalkTid || live_roots < kMaxLiveRequests;
            if (s.tid != kWalkTid) ++live_roots;
        }
        if (!keep) continue;
        std::fprintf(f.get(),
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                     "\"pid\":1,\"tid\":%d,\"args\":{\"request_id\":\"%llx\",\"span_id\":%zu,"
                     "\"parent_span_id\":%lld,\"placed\":%s}}",
                     first ? "" : ",\n", s.name, s.tid == kWalkTid ? "walk" : "live",
                     s.ts_s * 1e6, s.dur_s * 1e6, s.tid,
                     static_cast<unsigned long long>(s.request), i,
                     static_cast<long long>(s.parent), s.placed ? "true" : "false");
        first = false;
    }
    std::fputs("\n]}\n", f.get());
    const bool failed = std::ferror(f.get()) != 0;
    if (std::fclose(f.release()) != 0 || failed) {
        throw std::runtime_error("cannot write trace file '" + path + "'");
    }
}

}  // namespace suite
