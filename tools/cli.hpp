#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "vgpu/fault.hpp"
#include "zc/metrics_config.hpp"
#include "zc/tensor.hpp"

namespace cuzc::cli {

/// Parsed command line of the cuzc tool (factored out of main so tests can
/// drive the whole CLI in-process).
struct CliOptions {
    std::string orig_path;
    std::string dec_path;           ///< decompressed .f32; or
    std::string sz_stream_path;     ///< an SZ stream to decompress + assess
    zc::Dims3 dims{};
    std::string config_path;
    std::string format = "text";    ///< text | csv | json | html
    std::string out_path;           ///< empty = stdout
    unsigned devices = 1;           ///< >1 selects the multi-GPU path
    bool show_profile = false;
    bool help = false;
    bool version = false;           ///< --version: print versions + SIMD banner
    /// vgpu scheduler worker count; 0 = leave the env/default resolution
    /// alone. A flag value overrides CUZC_VGPU_THREADS (env < flag).
    unsigned threads = 0;

    // `cuzc serve` subcommand (--replay trace through the service).
    bool serve_mode = false;
    std::string replay_path;
    std::size_t cache_capacity = 128;
    std::size_t max_batch = 16;
    bool coalesce = true;
    /// Per-request wall-clock ceiling in seconds (--timeout=); 0 = none.
    double request_timeout_s = 0;
    /// Modeled-cost threshold (device-seconds) above which the service
    /// shards a request across idle devices; 0 disables sharding.
    double shard_threshold_s = 0;
    /// Fault plan from --faults=SPEC. When the flag is absent, run_serve
    /// falls back to the CUZC_FAULTS environment variable (flag > env).
    vgpu::FaultPlan faults{};
    bool faults_from_flag = false;

    // `cuzc serve --listen=PORT`: run the cuzc-wire-v2 socket front-end
    // instead of an in-process replay.
    bool listen_mode = false;
    std::uint16_t listen_port = 0;  ///< 0 binds an ephemeral port
    std::string port_file;          ///< write the bound port here (for scripts)

    // `cuzc replay --connect=HOST:PORT --replay=TRACE` subcommand: replay a
    // trace against a remote server over the wire protocol.
    bool replay_mode = false;
    std::string connect_host;
    std::uint16_t connect_port = 0;

    // `cuzc assess --connect=HOST:PORT` subcommand: assess a file pair on a
    // remote server. With --stream-chunk=N the dataset goes over the wire
    // as a streaming session of N-element chunks (bounded server
    // memory; works for datasets larger than one frame) instead of one
    // whole-frame request. --stream-chunk also applies to `cuzc replay`.
    bool assess_mode = false;
    std::size_t stream_chunk = 0;  ///< elements per StreamChunk; 0 = whole-frame

    // `cuzc trace` subcommand (deterministic mixed-workload generator).
    bool trace_mode = false;
    std::size_t trace_requests = 200;
    /// Generic --seed flag; `cuzc trace` and `cuzc fuzz` both key their
    /// deterministic campaigns off it.
    std::uint64_t trace_seed = 42;
    std::size_t trace_distinct = 32;
    double trace_tight_fraction = 0.1;

    // `cuzc fuzz` subcommand (differential fuzzing / invariant harness).
    bool fuzz_mode = false;
    std::string fuzz_target = "all";   ///< --target=NAME, or all registered
    std::uint64_t fuzz_iters = 100;    ///< seeded iterations per target
    std::string fuzz_corpus;           ///< replay + crash-save directory
    std::string fuzz_write_corpus;     ///< regenerate the built-in regressions
    bool fuzz_list = false;            ///< print target names and exit
};

/// Parse argv. Each subcommand (none for local assessment; `serve`,
/// `replay`, `assess`, `trace`, `fuzz`) has one io::Flags table holding
/// exactly the flags it reads; --help, -h and --version end the command
/// line of every subcommand. Returns std::nullopt plus a message on `err`
/// for an unknown flag, a malformed value or a missing input. usage() lists
/// the flags.
[[nodiscard]] std::optional<CliOptions> parse_cli(int argc, const char* const* argv,
                                                  std::ostream& err);

[[nodiscard]] std::string usage();

/// Run the assessment described by `opt`; writes the report in the chosen
/// format. Returns a process exit code.
[[nodiscard]] int run_cli(const CliOptions& opt, std::ostream& out, std::ostream& err);

/// Drain every NetServer currently run by this process's CLI (the
/// `serve --listen` path). Async-signal-safe: installed as the CLI's
/// SIGINT/SIGTERM handler, and callable from tests to stop a listener
/// running on another thread.
void shutdown_active_servers() noexcept;

/// Register the `cli-parse` fuzz target (grammar fuzzing of parse_cli)
/// with the cuzc::fuzz registry. The target lives here rather than in
/// src/fuzz because the fuzz library cannot depend on the CLI; run_fuzz
/// calls this before dispatch, and tests may call it directly. Idempotent.
void register_cli_fuzz_target();

}  // namespace cuzc::cli
