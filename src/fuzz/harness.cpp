#include <mutex>
#include <ostream>

#include "fuzz/corpus.hpp"
#include "fuzz/fuzz.hpp"

namespace cuzc::fuzz {
namespace {

std::vector<Target>& registry() {
    static std::vector<Target> targets;
    return targets;
}

void ensure_builtins() {
    static std::once_flag once;
    std::call_once(once, [] {
        register_wire_targets();
        register_session_targets();
        register_diff_targets();
        register_parse_targets();
        register_sz_targets();
    });
}

}  // namespace

void check_verdict(std::span<const std::uint8_t> bytes, Oracle oracle, bool rejected,
                   std::string_view what, const std::string& why) {
    if (oracle == Oracle::kAccept && rejected) {
        throw FuzzFailure("accept " + std::string(what) + " rejected: " + why,
                          {bytes.begin(), bytes.end()}, Oracle::kAccept);
    }
    if (oracle == Oracle::kReject && !rejected) {
        throw FuzzFailure("reject " + std::string(what) + " accepted",
                          {bytes.begin(), bytes.end()}, Oracle::kReject);
    }
}

void probe(const std::function<void(std::span<const std::uint8_t>, Oracle)>& replay,
           std::span<const std::uint8_t> bytes, Oracle oracle, std::string_view what) {
    try {
        replay(bytes, oracle);
    } catch (const FuzzFailure&) {
        throw;
    } catch (const std::exception& e) {
        throw FuzzFailure(std::string(what) + " threw: " + e.what(), {bytes.begin(), bytes.end()},
                          Oracle::kInvariant);
    }
}

void register_target(Target t) {
    auto& reg = registry();
    for (const Target& existing : reg) {
        if (existing.name == t.name) return;
    }
    reg.push_back(std::move(t));
}

const std::vector<Target>& targets() {
    ensure_builtins();
    return registry();
}

const Target* find_target(std::string_view name) {
    for (const Target& t : targets()) {
        if (t.name == name) return &t;
    }
    return nullptr;
}

FuzzResult run_target(const Target& t, const FuzzOptions& opt) {
    FuzzResult res;

    // 1. Replay the checked-in corpus: yesterday's crashers are today's
    // regression suite, and accept-/reject- entries pin the grammar.
    if (!opt.corpus_dir.empty() && t.replay) {
        const std::string dir = opt.corpus_dir + "/" + t.name;
        for (const auto& [name, bytes] : load_corpus(dir)) {
            ++res.corpus_entries;
            try {
                t.replay(bytes, oracle_from_name(name));
            } catch (const std::exception& e) {
                Finding f{t.name, "corpus " + name + ": " + e.what(), 0, dir + "/" + name};
                if (opt.log) *opt.log << "fuzz[" << t.name << "] " << f.what << "\n";
                res.findings.push_back(std::move(f));
            }
        }
    }

    // 2. The seeded campaign. Stops at the first finding: one minimized
    // reproducer beats a pile of correlated duplicates of the same bug.
    for (std::uint64_t i = 0; i < opt.iters; ++i) {
        ++res.iterations;
        try {
            t.iterate(opt.seed, i);
        } catch (const FuzzFailure& f) {
            Finding finding{t.name, f.what(), i, ""};
            if (!f.repro().empty() && t.replay && !opt.corpus_dir.empty()) {
                const Oracle oracle = f.repro_oracle();
                std::vector<std::uint8_t> repro = f.repro();
                // Only invariant findings self-certify under shrinking
                // ("still crashes" is checkable by replay alone). An
                // accept/reject finding's predicate — "replay under this
                // oracle throws" — is satisfied by ANY input on the other
                // side of the grammar, so ddmin happily walks off the
                // original bug onto a degenerate witness (observed: a
                // reject finding minimized down to a perfectly valid
                // command line). Those repros are saved as generated.
                if (oracle == Oracle::kInvariant) {
                    repro = minimize(
                        repro,
                        [&](std::span<const std::uint8_t> cand) {
                            try {
                                t.replay(cand, oracle);
                                return false;
                            } catch (...) {
                                return true;
                            }
                        },
                        128);
                }
                finding.corpus_file = save_crash(opt.corpus_dir, t.name, repro, oracle);
            }
            if (opt.log) {
                *opt.log << "fuzz[" << t.name << "] iter " << i << ": " << finding.what
                         << "\n";
            }
            res.findings.push_back(std::move(finding));
            break;
        } catch (const std::exception& e) {
            Finding finding{t.name, std::string("unexpected exception: ") + e.what(), i, ""};
            if (opt.log) {
                *opt.log << "fuzz[" << t.name << "] iter " << i << ": " << finding.what
                         << "\n";
            }
            res.findings.push_back(std::move(finding));
            break;
        }
    }
    return res;
}

std::size_t write_regression_corpus(const std::string& dir) {
    std::size_t total = 0;
    for (const Target& t : targets()) {
        if (!t.seed_corpus) continue;
        CorpusWriter writer(dir + "/" + t.name);
        t.seed_corpus(writer);
        total += writer.written();
    }
    return total;
}

}  // namespace cuzc::fuzz
