#pragma once

/// cuzc::fuzz — deterministic differential fuzzing and invariant harness
/// (see DESIGN.md §9).
///
/// Every fuzz target is a named pair of callbacks: `iterate` runs one
/// seeded campaign step (structure-aware generation + mutation + oracle
/// checks), and `replay` re-executes a single serialized input under a
/// filename-derived oracle. Campaigns are fully deterministic: the same
/// (target, seed, iters) triple explores the same inputs on every machine,
/// so a CI finding reproduces locally with one command. When an iteration
/// throws FuzzFailure with reproducer bytes, the harness greedily
/// minimizes them against `replay` and saves the result under the corpus
/// directory as a crash-*.bin regression; checked-in corpus entries are
/// replayed before every campaign, which is what turns yesterday's
/// crashers into today's regression suite.
///
/// Corpus layout: `<corpus_dir>/<target-name>/<prefix><name>` where the
/// filename prefix selects the replay oracle — `accept-` entries must
/// parse/decode cleanly, `reject-` entries must be rejected with a typed
/// error (never a crash), and anything else (`crash-`, `seed-`) replays
/// under the target's invariants only.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cuzc::fuzz {

/// Replay oracle of a corpus entry, derived from its filename prefix.
enum class Oracle {
    kAccept,     ///< must parse/decode cleanly
    kReject,     ///< must be rejected with a typed error, not a crash
    kInvariant,  ///< must not crash / violate the target's invariants
};

/// Thrown by a target when an oracle or invariant breaks. `repro`
/// optionally carries the serialized input that triggered the failure;
/// the harness minimizes and saves it as a corpus regression.
class FuzzFailure : public std::runtime_error {
public:
    explicit FuzzFailure(const std::string& what) : std::runtime_error(what) {}
    /// `oracle` is the check the reproducer violated: the harness minimizes
    /// against it and prefixes the saved corpus file accordingly, so an
    /// input that wrongly decoded cleanly is checked in as reject-* (and
    /// keeps failing on unfixed code), not as an invariant-only crash-*.
    FuzzFailure(const std::string& what, std::vector<std::uint8_t> repro,
                Oracle oracle = Oracle::kInvariant)
        : std::runtime_error(what), repro_(std::move(repro)), oracle_(oracle) {}

    [[nodiscard]] const std::vector<std::uint8_t>& repro() const noexcept { return repro_; }
    [[nodiscard]] Oracle repro_oracle() const noexcept { return oracle_; }

private:
    std::vector<std::uint8_t> repro_;
    Oracle oracle_ = Oracle::kInvariant;
};

/// Hold a replay's verdict to the entry's oracle: an accept-* entry must not
/// have been `rejected`, a reject-* entry must have been. Throws a
/// FuzzFailure naming `what` (and `why` it was rejected) otherwise.
void check_verdict(std::span<const std::uint8_t> bytes, Oracle oracle, bool rejected,
                   std::string_view what, const std::string& why = {});

/// Run `replay(bytes, oracle)`. An exception other than FuzzFailure
/// escaping it becomes a finding that carries `bytes`; `what` names the
/// code under test.
void probe(const std::function<void(std::span<const std::uint8_t>, Oracle)>& replay,
           std::span<const std::uint8_t> bytes, Oracle oracle, std::string_view what);

/// Sink a target uses to emit its checked-in regression corpus (the
/// `cuzc fuzz --write-corpus=DIR` path). Filenames get an oracle prefix:
/// accept- / reject- / seed-.
class CorpusWriter {
public:
    explicit CorpusWriter(std::string dir);

    /// Write `<oracle-prefix><name>` under the writer's directory.
    /// Returns the full path.
    std::string add(std::string_view name, Oracle oracle, std::span<const std::uint8_t> bytes);
    std::string add_text(std::string_view name, Oracle oracle, std::string_view text);

    [[nodiscard]] std::size_t written() const noexcept { return written_; }

private:
    std::string dir_;
    std::size_t written_ = 0;
};

struct Target {
    std::string name;
    std::string description;
    /// One deterministic campaign step. Throws FuzzFailure when an oracle
    /// breaks (any other exception escaping also counts as a finding).
    std::function<void(std::uint64_t seed, std::uint64_t iter)> iterate;
    /// Replay one serialized input under `oracle`. Null when the target
    /// has no byte-reproducer form (corpus replay and crash minimization
    /// are then skipped).
    std::function<void(std::span<const std::uint8_t> bytes, Oracle oracle)> replay;
    /// Emit this target's built-in regression corpus entries.
    std::function<void(CorpusWriter&)> seed_corpus;
};

/// Register a target. Idempotent by name: a name that is already
/// registered is left alone (first registration wins).
void register_target(Target t);

/// All registered targets; the built-in targets are registered on first
/// call. Order is registration order and therefore deterministic.
[[nodiscard]] const std::vector<Target>& targets();
[[nodiscard]] const Target* find_target(std::string_view name);

struct FuzzOptions {
    std::uint64_t seed = 1;
    std::uint64_t iters = 100;
    /// Replay every `<corpus_dir>/<target>/` entry before iterating, and
    /// save minimized crashers back there. Empty skips both.
    std::string corpus_dir;
    std::ostream* log = nullptr;  ///< progress + finding lines (may be null)
};

struct Finding {
    std::string target;
    std::string what;
    std::uint64_t iter = 0;   ///< iteration index (0 for corpus-replay findings)
    std::string corpus_file;  ///< saved (or failing) reproducer path, if any
};

struct FuzzResult {
    std::uint64_t iterations = 0;    ///< campaign steps actually run
    std::size_t corpus_entries = 0;  ///< corpus files replayed
    std::vector<Finding> findings;

    [[nodiscard]] bool ok() const noexcept { return findings.empty(); }
};

/// Replay the target's corpus (when configured), then run the seeded
/// campaign. The campaign stops at the target's first finding — one
/// minimized reproducer beats a pile of correlated duplicates — but every
/// corpus-replay failure is reported.
[[nodiscard]] FuzzResult run_target(const Target& t, const FuzzOptions& opt);

/// Regenerate every target's built-in regression corpus under `dir`.
/// Returns the number of files written.
std::size_t write_regression_corpus(const std::string& dir);

// Built-in registration hooks (targets() calls these lazily; tests may
// call them directly). Each is idempotent.
void register_wire_targets();
void register_session_targets();
void register_diff_targets();
void register_parse_targets();
void register_sz_targets();

}  // namespace cuzc::fuzz
