// cuzc_bench_suite — runs one workload of the repository benchmark.
//
// Usage: cuzc_bench_suite --workload=NAME [--seed=N] [--seconds=S]
//                         [--rounds=K] [--trace-out=FILE]
//
// Generates the workload's inputs from the seed, then runs K + 1 rounds of
// S/K seconds, each on a fresh server that is first set up (start, Hello
// handshake, warm-up; timed). The first round only warms the process and
// is not measured. Metrics pool the K measured rounds: one server's numbers
// hold steady, but they differ from one fresh server to the next, so many
// short rounds average that out where one long window cannot. Every
// correctness and validity gate is checked, and one JSON object is printed
// as the last line of standard output. With --trace-out, every other
// measured round is traced, the layer walk runs, the spans are written as
// Chrome trace-event JSON and the metrics are the per-layer ones. Exit
// status: 0 success, 1 a gate failed (the JSON line says "correct":
// false), 2 usage or run error.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

#include "suite.hpp"
#include "vgpu/simd.hpp"

namespace suite {

double now_s() {
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
    return v[k];
}

}  // namespace suite

namespace {

using suite::LayerMetrics;
using suite::WindowStats;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20;
    std::size_t rounds = 20;
    std::string trace_out;
};

template <class T>
bool parse_value(std::string_view s, T& out) {
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    return ec == std::errc{} && end == s.data() + s.size();
}

bool parse_args(int argc, char** argv, Options& o) {
    for (int i = 1; i < argc; ++i) {
        const std::string_view a = argv[i];
        const auto eq = a.find('=');
        const std::string_view key = a.substr(0, eq);
        const std::string_view val = eq == std::string_view::npos ? "" : a.substr(eq + 1);
        bool ok = eq != std::string_view::npos;
        if (key == "--workload") {
            o.workload = val;
        } else if (key == "--seed") {
            ok = ok && parse_value(val, o.seed);
        } else if (key == "--seconds") {
            ok = ok && parse_value(val, o.seconds) && o.seconds > 0;
        } else if (key == "--rounds") {
            ok = ok && parse_value(val, o.rounds) && o.rounds > 0;
        } else if (key == "--trace-out") {
            o.trace_out = val;
            ok = ok && !val.empty();
        } else {
            ok = false;
        }
        if (!ok) {
            std::fprintf(stderr, "cuzc_bench_suite: bad argument '%s'\n", argv[i]);
            return false;
        }
    }
    if (o.workload.empty()) {
        std::fprintf(stderr, "cuzc_bench_suite: --workload=NAME is required\n");
        return false;
    }
    if (!o.trace_out.empty() && o.rounds < 2) {
        std::fprintf(stderr, "cuzc_bench_suite: a traced run needs --rounds=2 or more\n");
        return false;
    }
    return true;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double throughput(const WindowStats& w) {
    return ratio(static_cast<double>(w.completed), w.elapsed_s);
}
double field_rate(const WindowStats& w) {
    return ratio(static_cast<double>(w.field_bytes), w.elapsed_s);
}
double latency_ms(const WindowStats& w, double q) {
    return suite::percentile(w.latency_s, q) * 1e3;
}

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

double rss_peak_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// `pooled` holds every measured untraced round.
std::vector<Metric> end_to_end(const WindowStats& pooled, double tail,
                               const std::vector<double>& setups) {
    return {
        {"throughput_rps", throughput(pooled), "1/s"},
        {"latency_p50_ms", latency_ms(pooled, 0.50), "ms"},
        {"latency_tail_ms", latency_ms(pooled, tail), "ms"},
        {"field_mbps", field_rate(pooled) / 1e6, "MB/s"},
        {"setup_s", suite::percentile(setups, 0.5), "s"},
    };
}

const char* layer_unit(const std::string& name) {
    const auto ends = [&](std::string_view suffix) {
        return name.size() >= suffix.size() &&
               name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
    };
    if (ends("_model_us")) return "V100-us";  // modeled device time, not measured
    if (ends("_us")) return "us";
    if (ends("_ms") || ends("_ms_p50") || ends("_ms_p99")) return "ms";
    if (ends("_frac")) return "fraction";
    if (ends("_mb")) return "MiB";
    if (ends("_bytes") || ends("bytes_per_req") || ends("copied_per_req")) return "B";
    return "count";
}

/// Live per-layer numbers from the traced rounds (the untraced rounds give
/// the request rate, the latency percentiles and the tracing overhead),
/// then the walk's.
std::vector<Metric> per_layer(const WindowStats& untraced, const WindowStats& traced,
                              const LayerMetrics& walk) {
    const auto self = suite::self_times(traced.spans);
    const auto self_ms = [&](const char* name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second.second * 1e3;
    };
    const auto served = static_cast<double>(traced.served);
    const auto wire_reqs = static_cast<double>(traced.completed + traced.sessions);
    const auto reuses = static_cast<double>(traced.slab_reuses);
    LayerMetrics m = {
        {"e2e.request_ms", ratio(1e3, throughput(untraced))},
        {"e2e.latency_p90_ms", latency_ms(untraced, 0.90)},
        {"e2e.latency_p99_ms", latency_ms(untraced, 0.99)},
        {"e2e.rss_peak_mb", rss_peak_mb()},
        {"serve.queue_ms_p50", self_ms("serve.queue")},
        {"serve.upload_ms_p50", self_ms("serve.upload")},
        {"serve.kernel_ms_p50", self_ms("serve.kernel")},
        {"serve.report_ms_p50", self_ms("serve.report")},
        {"serve.outside_ms_p50", self_ms("client.request")},
        {"serve.cache_hit_frac", ratio(static_cast<double>(traced.cache_hits), served)},
        {"serve.shed_frac", ratio(static_cast<double>(traced.shed), served)},
        {"serve.coalesced_frac", ratio(static_cast<double>(traced.coalesced), served)},
        {"net.bytes_per_req", ratio(static_cast<double>(traced.wire_bytes), wire_reqs)},
        {"net.frames_rejected", static_cast<double>(traced.frames_rejected)},
        {"zc.bytes_copied_per_req", ratio(static_cast<double>(traced.bytes_copied), wire_reqs)},
        {"zc.slab_reuse_frac",
         ratio(reuses, reuses + static_cast<double>(traced.slab_allocs))},
        {"gen.lag_ms_p99", suite::percentile(traced.gen_lag_s, 0.99) * 1e3},
        {"trace.overhead_frac", 1.0 - ratio(field_rate(traced), field_rate(untraced))},
    };
    m.insert(m.end(), walk.begin(), walk.end());
    std::vector<Metric> out;
    for (const auto& [name, value] : m) out.push_back({name, value, layer_unit(name)});
    return out;
}

void print_self_times(const std::vector<suite::Span>& spans) {
    std::fprintf(stderr, "%-24s %10s %14s\n", "span", "count", "self p50 ms");
    for (const auto& [name, cm] : suite::self_times(spans)) {
        std::fprintf(stderr, "%-24s %10zu %14.4f\n", name.c_str(), cm.first, cm.second * 1e3);
    }
}

std::string json_escape(std::string_view s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

void print_result(const Options& o, bool correct, const std::string& error,
                  std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,\"correct\":%s,"
                "\"attempted\":%llu,\"failed\":%llu,\"simd\":\"%s\"",
                json_escape(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
                o.trace_out.empty() ? "false" : "true", correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                json_escape(cuzc::vgpu::simd::banner()).c_str());
    if (!error.empty()) std::printf(",\"error\":\"%s\"", json_escape(error).c_str());
    std::printf(",\"metrics\":{");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                    metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
    Options o;
    if (!parse_args(argc, argv, o)) return 2;
    const bool traced = !o.trace_out.empty();
    std::uint64_t attempted = 0, failed = 0;
    try {
        const auto wl = suite::make_workload(o.workload, o.seed);

        std::vector<double> setups;
        WindowStats untraced, traced_rounds;
        const double round_s = o.seconds / static_cast<double>(o.rounds);
        for (std::size_t r = 0; r <= o.rounds; ++r) {
            const double t0 = suite::now_s();
            suite::Live live = wl->start();
            const double setup_s = suite::now_s() - t0;
            const bool trace_round = traced && r % 2 == 0 && r > 0;
            WindowStats w = wl->run_window(live, round_s, trace_round);
            live.stop();
            wl->check_window(w);
            attempted += w.attempted;
            failed += w.failed;
            if (w.completed + w.sessions == 0) {
                throw suite::GateFailure("a round completed no request");
            }
            if (r == 0) continue;  // process warm-up
            setups.push_back(setup_s);
            if (trace_round) {
                // Wire ids restart with each round's client: tag the round.
                for (suite::Span& s : w.spans) s.request |= static_cast<std::uint64_t>(r) << 48;
                traced_rounds.merge(std::move(w));
            } else {
                untraced.merge(std::move(w));
            }
        }
        wl->verify();

        std::vector<Metric> metrics;
        if (traced) {
            const LayerMetrics walk = wl->walk(traced_rounds.spans);
            suite::write_chrome_trace(o.trace_out, traced_rounds.spans);
            print_self_times(traced_rounds.spans);
            metrics = per_layer(untraced, traced_rounds, walk);
        } else {
            metrics = end_to_end(untraced, wl->tail_quantile(), setups);
        }
        print_result(o, true, "", attempted, failed, metrics);
        return 0;
    } catch (const suite::GateFailure& e) {
        std::fprintf(stderr, "cuzc_bench_suite: %s: gate failed: %s\n", o.workload.c_str(),
                     e.what());
        print_result(o, false, e.what(), attempted, failed, {});
        return 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "cuzc_bench_suite: %s: %s\n", o.workload.c_str(), e.what());
        return 2;
    }
}
