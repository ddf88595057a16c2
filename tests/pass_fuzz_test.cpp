/** Tests for randomized TIR pass sequences: the TVMLite side of the
 *  drawPassSequence / recordSequenceCoverage vocabulary, the
 *  semantics-preservation property of every registry pass under
 *  arbitrary orders, and the PassSequenceFuzzer's differential
 *  oracle. */
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "backends/defects.h"
#include "backends/graph_pass.h"
#include "coverage/coverage.h"
#include "fuzz/pass_fuzzer.h"
#include "tirlite/tir_interp.h"
#include "tirlite/tir_passes.h"

namespace nnsmith {
namespace {

using backends::DefectRegistry;

/** Disable the crash-symptom tvm.tir.* defects for one scope, so any
 *  random sequence runs to completion on any program. */
struct DisableTirCrashDefects {
    const std::vector<std::string> ids = {
        "tvm.tir.simplify_mod", "tvm.tir.unroll_offset",
        "tvm.tir.vectorize_rem", "tvm.tir.cse_load"};
    DisableTirCrashDefects()
    {
        for (const auto& id : ids)
            DefectRegistry::instance().setEnabled(id, false);
    }
    ~DisableTirCrashDefects()
    {
        for (const auto& id : ids)
            DefectRegistry::instance().setEnabled(id, true);
    }
};

bool
sameBits(double x, double y)
{
    if (std::isnan(x) && std::isnan(y))
        return true;
    uint64_t xb = 0, yb = 0;
    std::memcpy(&xb, &x, sizeof(xb));
    std::memcpy(&yb, &y, sizeof(yb));
    return xb == yb;
}

TEST(PassSequence, DrawIsSeedDeterministic)
{
    Rng a(42), b(42), c(43);
    bool diverged = false;
    for (int i = 0; i < 20; ++i) {
        const auto from_a = backends::drawPassSequence("TVMLite", a);
        EXPECT_EQ(from_a, backends::drawPassSequence("TVMLite", b));
        diverged = diverged ||
                   from_a != backends::drawPassSequence("TVMLite", c);
    }
    EXPECT_TRUE(diverged);
}

TEST(PassSequence, EveryDrawnNameResolvesInRegistry)
{
    Rng rng(5);
    for (int i = 0; i < 50; ++i) {
        const auto sequence = backends::drawPassSequence("TVMLite", rng);
        ASSERT_FALSE(sequence.empty());
        for (const auto& name : sequence)
            EXPECT_NE(tirlite::findTirPass(name), nullptr) << name;
    }
}

TEST(PassSequence, CoverageBinsRegisterUnderSeqComponent)
{
    auto& registry = coverage::CoverageRegistry::instance();
    const size_t before = registry.sitesRegistered("tvmlite/pass/seq");
    // A repeated pass is never drawn by drawPassSequence, so its
    // adjacent-pair bin cannot exist yet.
    backends::recordSequenceCoverage(
        "TVMLite", {"strength-reduce", "strength-reduce"});
    EXPECT_GT(registry.sitesRegistered("tvmlite/pass/seq"), before);
}

TEST(PassSequence, ProgramHashIsStructural)
{
    Rng rng(9);
    const auto a = tirlite::randomProgram(rng);
    const auto b = tirlite::mutate(a, rng);
    EXPECT_EQ(tirlite::hashTirProgram(a), tirlite::hashTirProgram(a));
    EXPECT_NE(tirlite::hashTirProgram(a), tirlite::hashTirProgram(b));
}

/**
 * The satellite property: every randomized pass sequence is
 * semantics-preserving on defect-free programs. TIR buffers are f64,
 * and every registered pass is bitwise-exact by contract, so the
 * optimized interp output must match the unoptimized one bit-for-bit
 * (NaN payloads excepted) across >= 200 seeded (program, sequence)
 * pairs.
 */
TEST(PassSequence, RandomSequencesPreserveSemantics)
{
    DisableTirCrashDefects guard;
    DefectRegistry::TraceScope trace_scope;
    Rng rng(2023);
    for (int i = 0; i < 200; ++i) {
        tirlite::TirProgram program = tirlite::randomProgram(rng);
        for (size_t m = rng.index(3); m > 0; --m)
            program = tirlite::mutate(program, rng);
        const auto sequence = backends::drawPassSequence("TVMLite", rng);
        std::vector<std::string> fired;
        const auto optimized =
            tirlite::runTirPasses(program, sequence, fired);

        const tirlite::Buffers initial =
            tirlite::makeBuffers(program, rng);
        tirlite::Buffers reference = initial;
        tirlite::run(program, reference);
        tirlite::Buffers opt_out = initial;
        tirlite::run(optimized, opt_out);

        ASSERT_EQ(reference.size(), opt_out.size());
        for (size_t buf = 0; buf < reference.size(); ++buf) {
            ASSERT_EQ(reference[buf].size(), opt_out[buf].size());
            for (size_t j = 0; j < reference[buf].size(); ++j) {
                ASSERT_TRUE(sameBits(reference[buf][j],
                                     opt_out[buf][j]))
                    << "case " << i << " buffer b" << buf << "[" << j
                    << "]: " << reference[buf][j]
                    << " != " << opt_out[buf][j] << "\nprogram:\n"
                    << program.toString();
            }
        }
    }
}

TEST(PassFuzzer, IterationIsAPureFunctionOfTheSeed)
{
    fuzz::PassSequenceFuzzer a(31), b(31);
    for (int i = 0; i < 10; ++i) {
        const auto oa = a.iterate({});
        const auto ob = b.iterate({});
        EXPECT_EQ(oa.instanceKeys, ob.instanceKeys);
        ASSERT_EQ(oa.bugs.size(), ob.bugs.size());
        for (size_t j = 0; j < oa.bugs.size(); ++j)
            EXPECT_EQ(oa.bugs[j].dedupKey, ob.bugs[j].dedupKey);
    }
}

TEST(PassFuzzer, FindsPassPipelineDefectsButNoMiscompiles)
{
    fuzz::PassSequenceFuzzer fuzzer(7);
    std::set<std::string> keys;
    for (int i = 0; i < 1200; ++i) {
        const auto outcome = fuzzer.iterate({});
        for (const auto& bug : outcome.bugs)
            keys.insert(bug.dedupKey);
    }
    // The differential oracle must never flag a genuine miscompile —
    // the registry passes are semantics-preserving.
    EXPECT_EQ(keys.count("TVMLite|wrong|tir.seq.miscompile"), 0u);
    // The dead-store defect is a pass-interaction find: randomProgram
    // alone never builds the two-stores-one-seq shape; it takes a
    // mutated program plus a sequence where loop-fusion's seq
    // flattening runs before dead-store-elim.
    EXPECT_EQ(keys.count("TVMLite|wrong|tvm.tir.dead_store"), 1u);
    // At least one crash-symptom tvm.tir.* defect surfaces too.
    bool crash_found = false;
    for (const auto& key : keys)
        crash_found = crash_found ||
                      key.rfind("TVMLite|crash|tvm.tir.", 0) == 0;
    EXPECT_TRUE(crash_found);
}

} // namespace
} // namespace nnsmith
