#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "cuzc/cuzc.hpp"
#include "data/datasets.hpp"
#include "io/flags.hpp"
#include "io/json.hpp"
#include "mozc/mozc.hpp"
#include "net/net.hpp"
#include "serve/serve.hpp"
#include "vgpu/vgpu.hpp"
#include "zc/zc.hpp"

namespace cuzc::bench {

// --- What the CI gate benches share ---------------------------------------

enum class Op { kAtLeast, kAtMost, kEqual };

/// A bench's pass/fail conditions, each kept with its measured value,
/// threshold and outcome. A failed gate is reported on stderr when checked.
class Gates {
public:
    explicit Gates(std::string bench) : bench_(std::move(bench)) {}

    /// Record a gate; returns whether it holds. A gate that is not
    /// `enforced` (a floor only --check applies) is recorded as "skip".
    /// Integer values and thresholds are recorded exactly, and a bool as
    /// 0 or 1.
    template <class V, class T>
    bool check(std::string_view name, V value, Op op, T threshold, bool enforced = true) {
        const auto v = static_cast<double>(value);
        const auto t = static_cast<double>(threshold);
        const bool holds = op == Op::kAtLeast ? v >= t : op == Op::kAtMost ? v <= t : v == t;
        record(name, gate_number(value), op, gate_number(threshold), holds, enforced);
        return holds;
    }
    /// The exit status: 1 when an enforced gate failed, else 0.
    [[nodiscard]] int status() const { return failed_ ? 1 : 0; }

protected:
    std::string bench_;
    io::Json::Array gates_;
    bool failed_ = false;

private:
    template <class X>
    static io::Json gate_number(X x) {
        if constexpr (std::is_same_v<X, bool>) {
            return io::Json(int{x});
        } else {
            return io::Json(x);
        }
    }
    void record(std::string_view name, io::Json value, Op op, io::Json threshold, bool holds,
                bool enforced);
};

/// The `cuzc-bench-v1` record: an envelope (schema, bench, SIMD banner,
/// block workers, nproc, peak RSS), the bench's keys in the order set, and
/// its gates. `results[].stats` rows share one shape across benches.
class Record : public Gates {
public:
    using Gates::Gates;

    /// Append key `key` to the record.
    Record& set(std::string key, io::Json value);

    [[nodiscard]] io::Json json() const;
    /// Print the record, write it to `out_path` unless empty, and return the
    /// exit status (1 also when the file cannot be written).
    [[nodiscard]] int finish(const std::string& out_path) const;

private:
    io::Json::Object keys_;
};

/// A kernel's profiler counters as one `results[].stats` object.
[[nodiscard]] io::Json stats_json(const vgpu::KernelStats& s);

/// Byte equality of the reports' wire encodings (`net::encode_report`):
/// every field, the sign of zero and NaN payloads included — the same
/// bit-identity the wire, the bench suite and the fuzz targets use.
[[nodiscard]] bool reports_identical(const zc::AssessmentReport& a,
                                     const zc::AssessmentReport& b);

/// A NetServer on 127.0.0.1 with one connected NetClient.
class Loopback {
public:
    explicit Loopback(const net::NetServerConfig& cfg = {});

    [[nodiscard]] net::NetClient& client() noexcept { return client_; }
    [[nodiscard]] net::NetServer& server() noexcept { return server_; }
    /// Close the client, shut the server down, return its final telemetry.
    [[nodiscard]] serve::NetTelemetry close();

private:
    net::NetServer server_;
    net::NetClient client_;
};

/// Responses in request order and the wall time from first submit to last
/// response.
struct Replay {
    std::vector<serve::AssessResponse> responses;
    double seconds = 0;
};

/// Submit every request to `service` at once, then collect the responses.
[[nodiscard]] Replay replay(serve::AssessService& service,
                            const std::vector<serve::AssessRequest>& reqs);
/// Send `reqs` over `client` with at most `window` in flight.
[[nodiscard]] Replay replay(net::NetClient& client, const std::vector<serve::AssessRequest>& reqs,
                            std::size_t window);

// --- The paper benches' model ---------------------------------------------

/// Benchmark execution parameters.
///
/// The virtual GPU interprets every lane of every kernel, so running the
/// paper's full-size fields (up to 141M elements) through the whole matrix
/// would take hours on one host core. Instead, kernels execute on
/// `scale`-reduced fields (aspect ratios preserved) and their *counted*
/// profiles are extrapolated to the full published dimensions — bytes, ops,
/// iterations scale with volume; grid sizes are recomputed from the full
/// extents per pattern. The extrapolation is exact for everything the cost
/// model consumes except boundary-tile effects. `scale = 1` runs the real
/// thing. Configure with --scale=N or the CUZC_BENCH_SCALE env var.
struct BenchConfig {
    unsigned scale = 8;
    double sz_rel_bound = 1e-3;

    /// Declare --scale=N (default from CUZC_BENCH_SCALE) on `flags`. A
    /// typo, an empty value, zero or a negative number is an error: scale
    /// 1 is a multi-minute full-size run and is only taken when asked for.
    void declare(io::Flags& flags);
    /// The paper benches' command line, --scale only; exits with status 2
    /// on a bad value or an unknown flag.
    static BenchConfig from_args(int argc, const char* const* argv);
};

/// One dataset prepared for benchmarking: a representative field pair at
/// scaled dims plus the full paper dims for extrapolation.
struct PreparedDataset {
    std::string name;
    zc::Dims3 full_dims;
    zc::Dims3 run_dims;
    zc::Field orig;
    zc::Field dec;  ///< SZ-compressed + decompressed (the paper's workflow)
    double compression_ratio = 0;
};

[[nodiscard]] std::vector<PreparedDataset> prepare_datasets(const BenchConfig& cfg);

/// Extrapolate a kernel profile measured at `from` dims to `to` dims.
/// Volume-proportional counters scale linearly; the grid size is
/// recomputed by `pattern` (1: one block per z-slice; 2: one block per
/// 16-deep z-chunk; 3: one block per y-window row; 0: grid-stride kernels
/// whose grid caps at a constant — blocks kept per launch).
[[nodiscard]] vgpu::KernelStats extrapolate(const vgpu::KernelStats& stats, const zc::Dims3& from,
                                            const zc::Dims3& to, int pattern,
                                            const zc::MetricsConfig& mcfg);

/// The profile of `pattern`'s kernel in a cuZC or moZC result.
template <class Result>
[[nodiscard]] const vgpu::KernelStats& pattern_stats(const Result& r, zc::Pattern pattern) {
    return pattern == zc::Pattern::kGlobalReduction ? r.pattern1
           : pattern == zc::Pattern::kStencil       ? r.pattern2
                                                    : r.pattern3;
}

/// Modeled times of the three frameworks for one pattern on one dataset.
struct PatternTimes {
    double cuzc_s = 0;
    double mozc_s = 0;
    double ompzc_s = 0;
};

/// Run the cuZC and moZC kernels for `pattern` on the prepared dataset,
/// extrapolate to full dims, and model all three frameworks' times
/// (ompZC from the analytic CPU work model at full dims, 20 threads).
[[nodiscard]] PatternTimes pattern_times(const PreparedDataset& ds, zc::Pattern pattern,
                                         const zc::MetricsConfig& mcfg);

[[nodiscard]] std::string fmt_time(double seconds);
[[nodiscard]] std::string fmt_rate(double bytes_per_s);

/// The paper's evaluation metric configuration (§IV-B): derivative orders
/// 1+2, autocorrelation lags up to 10, SSIM window 8 step 1.
[[nodiscard]] inline zc::MetricsConfig paper_metrics() { return zc::MetricsConfig{}; }

}  // namespace cuzc::bench
