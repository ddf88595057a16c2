/**
 * @file
 * First-party branch-coverage instrumentation.
 *
 * The paper measures Clang source-level branch coverage of the
 * compilers under test; our substrate compilers are instrumented with
 * COV_BRANCH sites instead (see DESIGN.md "Substitutions"). Each site
 * belongs to a component (e.g. "ortlite/pass") and may be tagged
 * pass-only, mirroring the paper's all-files vs pass-files split
 * (Figs. 4 and 6).
 *
 * The registry is process-global so benches can reset hit state
 * between fuzzers while keeping stable branch identities for
 * Venn-diagram set algebra. Site registration and hit recording are
 * thread-safe; a thread that activates a CoverageCollector records its
 * hits into that collector instead of the global hit bits, which is
 * how sharded campaigns (fuzz/parallel_campaign.h) capture
 * per-iteration coverage deltas without cross-shard interference (see
 * DESIGN.md "Sharded campaigns").
 */
#ifndef NNSMITH_COVERAGE_COVERAGE_H
#define NNSMITH_COVERAGE_COVERAGE_H

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace nnsmith::coverage {

/** Stable identifier of one instrumented branch site. */
using BranchId = uint32_t;

/** A set of covered branches with Venn-style algebra. */
class CoverageMap {
  public:
    void add(BranchId id) { branches_.insert(id); }
    size_t count() const { return branches_.size(); }
    bool contains(BranchId id) const { return branches_.count(id) != 0; }

    CoverageMap unionWith(const CoverageMap& other) const;
    CoverageMap intersect(const CoverageMap& other) const;
    CoverageMap minus(const CoverageMap& other) const;

    const std::set<BranchId>& branches() const { return branches_; }

  private:
    std::set<BranchId> branches_;
};

/**
 * RAII per-thread hit collector.
 *
 * While an instance is alive on a thread, every coverage hit made from
 * that thread is recorded into the collector instead of the registry's
 * global hit bits. Sites are still registered globally (ids stay
 * process-stable); only the *hit* state is redirected. At most one
 * collector may be active per thread.
 */
class CoverageCollector {
  public:
    CoverageCollector();
    ~CoverageCollector();
    CoverageCollector(const CoverageCollector&) = delete;
    CoverageCollector& operator=(const CoverageCollector&) = delete;

    /** Ids hit since construction or the last take(), sorted; clears. */
    std::vector<BranchId> take();

    /** Ids this thread's active collector gathered since its last
     *  take(), sorted, without clearing; empty with no collector. In a
     *  campaign worker these are the running iteration's hits. */
    static std::vector<BranchId> activeHits();

  private:
    friend class CoverageRegistry;
    std::set<BranchId> hits_;
};

/**
 * Canonical identity of one branch site, portable across processes.
 *
 * BranchId values are assigned in first-discovery order and are only
 * meaningful inside one process; the canonical *site key* — the string
 * a site was registered under ("component|file:line#disc",
 * "component|dyn|key", "component|range#i") — is a pure function of
 * the site itself. Worker processes serialize coverage by site key
 * (fuzz/wire.h) and the coordinator re-interns the keys into its own
 * registry, which is what makes campaign results process-portable.
 */
struct SiteInfo {
    std::string key;      ///< canonical site key
    bool passOnly = false;
};

/** Process-global branch registry. */
class CoverageRegistry {
  public:
    static CoverageRegistry& instance();

    /**
     * Register (idempotently) a branch site and return its id. Sites
     * are keyed by (component, file, line, discriminator).
     */
    BranchId registerSite(const std::string& component,
                          const char* file, int line, int discriminator,
                          bool pass_only);

    /** Record a hit on @p id. */
    void hit(BranchId id);

    /**
     * Register-and-hit a *data-dependent* branch: one site per
     * distinct (component, key) pair. Substrate passes use this to
     * model per-pattern branch populations — e.g. a fusion pass has
     * one branch per (producer op, consumer op, dtype) combination,
     * which is exactly the structure that makes fuzzer input diversity
     * visible in coverage.
     */
    void hitDynamic(const std::string& component, const std::string& key,
                    bool pass_only);

    /**
     * Register (once) a block of @p count anonymous branch sites under
     * @p component and mark the first @p fraction of them hit. Models
     * large pattern-*insensitive* code masses — parser/IR/runtime
     * plumbing that any compile exercises (the paper notes `import
     * tvm` alone covers 4015 branches). Cheap: no string building per
     * hit.
     */
    void hitRange(const std::string& component, size_t count,
                  double fraction = 1.0, bool pass_only = false);

    /** Branches hit since the last reset, optionally filtered. */
    CoverageMap snapshot() const;
    CoverageMap snapshot(const std::string& component_prefix) const;
    CoverageMap snapshotPassOnly(
        const std::string& component_prefix = "") const;

    /**
     * Project a list of hit ids onto a CoverageMap, keeping ids whose
     * component starts with @p component_prefix (and, when
     * @p pass_only, only pass-tagged sites). Used by shard merging to
     * rebuild component-filtered maps from per-iteration deltas.
     */
    CoverageMap filterIds(const std::vector<BranchId>& ids,
                          const std::string& component_prefix,
                          bool pass_only) const;

    /**
     * Canonical identities of @p ids, in the same order. Used by the
     * campaign wire format (fuzz/wire.h) to serialize coverage hits in
     * a process-portable form. Asserts on unknown ids.
     */
    std::vector<SiteInfo> describeSites(const std::vector<BranchId>& ids)
        const;

    /**
     * Resolve a canonical site key to this process's BranchId,
     * registering the site first if this process has never seen it
     * (the component is the key's prefix up to the first '|').
     * Idempotent, and coherent with registerSite/hitDynamic/hitRange:
     * a later in-process registration of the same site finds the
     * interned id instead of minting a new one.
     */
    BranchId internSiteKey(const std::string& key, bool pass_only);

    /** Clear hit state (registered sites keep their ids). */
    void resetHits();

    /** Number of registered sites under @p component_prefix. */
    size_t sitesRegistered(const std::string& component_prefix = "") const;

    /**
     * Declared branch population of a component — the denominator for
     * "X% of total" annotations (Fig. 4). Substrate components declare
     * a nominal total reflecting their full instrumented population.
     */
    void declareTotal(const std::string& component, size_t total);
    size_t declaredTotal(const std::string& component_prefix) const;

  private:
    friend class CoverageCollector;

    struct Site {
        std::string component;
        std::string key; ///< canonical key (see SiteInfo)
        bool passOnly;
        bool hit;
    };

    /** registerSite/hitDynamic/internSiteKey core; mu_ must be held. */
    BranchId findOrAddLocked(const std::string& key,
                             const std::string& component, bool pass_only);

    /** The collector active on the calling thread, or nullptr. */
    static thread_local CoverageCollector* activeCollector_;

    mutable std::mutex mu_;
    std::vector<Site> sites_;
    std::unordered_map<std::string, BranchId> byKey_;
    std::unordered_map<std::string, size_t> declaredTotals_;
    /** Element ids per registered hitRange block. Ids need not be
     *  contiguous: internSiteKey may have minted some elements before
     *  the block was registered in this process. */
    std::unordered_map<std::string, std::vector<BranchId>> ranges_;
};

} // namespace nnsmith::coverage

/**
 * Instrument one branch. @p component is a string literal like
 * "tvmlite/pass/fold"; @p pass_only tags transformation-pass code.
 * Use NNSMITH_COV_N when one source line hosts several sites.
 */
#define NNSMITH_COV(component, pass_only)                                  \
    NNSMITH_COV_N(component, pass_only, 0)

#define NNSMITH_COV_N(component, pass_only, discriminator)                 \
    do {                                                                   \
        static const ::nnsmith::coverage::BranchId nnsmith_cov_id_ =       \
            ::nnsmith::coverage::CoverageRegistry::instance().registerSite(\
                component, __FILE__, __LINE__, discriminator, pass_only);  \
        ::nnsmith::coverage::CoverageRegistry::instance().hit(             \
            nnsmith_cov_id_);                                              \
    } while (0)

#endif // NNSMITH_COVERAGE_COVERAGE_H
