// Kernel-tier equivalence suite: every runnable SIMD tier must
// reproduce the scalar reference bit for bit (the contract documented
// in src/qc/kernels.h), across randomized SU(2)/SU(4) inputs and the
// structural-zero shapes of real gates. Also covers the dispatch
// machinery (env resolution, setTier) and the Matrix-level routing.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "qc/gates.h"
#include "qc/kernels.h"
#include "qc/linalg.h"
#include "qc/matrix.h"

namespace qiset {
namespace {

/** Bitwise equality, distinguishing +0.0 from -0.0 (memcmp). */
bool
bitEqual(const cplx* a, const cplx* b, size_t count)
{
    return std::memcmp(a, b, count * sizeof(cplx)) == 0;
}

bool
bitEqual(const Matrix& a, const Matrix& b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           bitEqual(a.data(), b.data(), a.size());
}

/** Restores the active dispatch tier on scope exit. */
struct TierGuard
{
    std::string saved;
    TierGuard() : saved(kernels::tierName()) {}
    ~TierGuard() { kernels::setTier(saved.c_str()); }
};

TEST(KernelEquivalence, AllTiersMatchScalarOnRandomUnitaries)
{
    const kernels::KernelOps* scalar = kernels::opsForTier("scalar");
    ASSERT_NE(scalar, nullptr);
    Rng rng(20240808);
    for (const char* tier : kernels::runnableTiers()) {
        const kernels::KernelOps* ops = kernels::opsForTier(tier);
        ASSERT_NE(ops, nullptr) << tier;
        for (int trial = 0; trial < 64; ++trial) {
            Matrix a4 = haarRandomUnitary(4, rng);
            Matrix b4 = haarRandomUnitary(4, rng);
            Matrix a2 = haarRandomUnitary(2, rng);
            Matrix b2 = haarRandomUnitary(2, rng);

            cplx got[16], want[16];
            ops->mul4x4(got, a4.data(), b4.data());
            scalar->mul4x4(want, a4.data(), b4.data());
            EXPECT_TRUE(bitEqual(got, want, 16)) << tier << " mul4x4";

            ops->mul2x2(got, a2.data(), b2.data());
            scalar->mul2x2(want, a2.data(), b2.data());
            EXPECT_TRUE(bitEqual(got, want, 4)) << tier << " mul2x2";

            ops->dagger(got, a4.data(), 4);
            scalar->dagger(want, a4.data(), 4);
            EXPECT_TRUE(bitEqual(got, want, 16)) << tier << " dagger4";

            ops->dagger(got, a2.data(), 2);
            scalar->dagger(want, a2.data(), 2);
            EXPECT_TRUE(bitEqual(got, want, 4)) << tier << " dagger2";

            ops->kron2x2(got, a2.data(), b2.data());
            scalar->kron2x2(want, a2.data(), b2.data());
            EXPECT_TRUE(bitEqual(got, want, 16)) << tier << " kron2x2";

            cplx dot_got = ops->hsDot(a4.data(), b4.data(), 16);
            cplx dot_want = scalar->hsDot(a4.data(), b4.data(), 16);
            EXPECT_TRUE(bitEqual(&dot_got, &dot_want, 1))
                << tier << " hsDot16";

            dot_got = ops->hsDot(a2.data(), b2.data(), 4);
            dot_want = scalar->hsDot(a2.data(), b2.data(), 4);
            EXPECT_TRUE(bitEqual(&dot_got, &dot_want, 1))
                << tier << " hsDot4";
        }
    }
}

TEST(KernelEquivalence, StructuralZeroSkipsMatchScalar)
{
    // Sparse gates (CZ, iSWAP, identity) exercise the structural-zero
    // skip: skipped terms must leave the +0.0 from the zero fill, not
    // a computed signed zero — a bit difference that would leak into
    // quantizedForm cache keys.
    const kernels::KernelOps* scalar = kernels::opsForTier("scalar");
    Rng rng(11);
    Matrix dense4 = haarRandomUnitary(4, rng);
    Matrix dense2 = haarRandomUnitary(2, rng);
    std::vector<Matrix> sparse4 = {gates::cz(), gates::iswap(),
                                   Matrix::identity(4)};
    std::vector<Matrix> sparse2 = {gates::pauliX(), gates::pauliZ(),
                                   Matrix::identity(2)};
    for (const char* tier : kernels::runnableTiers()) {
        const kernels::KernelOps* ops = kernels::opsForTier(tier);
        cplx got[16], want[16];
        for (const Matrix& s : sparse4) {
            ops->mul4x4(got, s.data(), dense4.data());
            scalar->mul4x4(want, s.data(), dense4.data());
            EXPECT_TRUE(bitEqual(got, want, 16)) << tier;
            ops->mul4x4(got, dense4.data(), s.data());
            scalar->mul4x4(want, dense4.data(), s.data());
            EXPECT_TRUE(bitEqual(got, want, 16)) << tier;
        }
        for (const Matrix& s : sparse2) {
            ops->mul2x2(got, s.data(), dense2.data());
            scalar->mul2x2(want, s.data(), dense2.data());
            EXPECT_TRUE(bitEqual(got, want, 4)) << tier;
            ops->kron2x2(got, s.data(), dense2.data());
            scalar->kron2x2(want, s.data(), dense2.data());
            EXPECT_TRUE(bitEqual(got, want, 16)) << tier;
            ops->kron2x2(got, dense2.data(), s.data());
            scalar->kron2x2(want, dense2.data(), s.data());
            EXPECT_TRUE(bitEqual(got, want, 16)) << tier;
        }
    }
}

TEST(KernelDispatch, EnvResolution)
{
    const char* native = kernels::resolveTier(nullptr, nullptr);
    // Force-scalar wins over everything, except when explicitly "0".
    EXPECT_STREQ(kernels::resolveTier(nullptr, "1"), "scalar");
    EXPECT_STREQ(kernels::resolveTier("avx2", "1"), "scalar");
    EXPECT_STREQ(kernels::resolveTier(nullptr, "0"), native);
    // Explicit runnable tier requests are honored.
    EXPECT_STREQ(kernels::resolveTier("scalar", nullptr), "scalar");
    // Unknown or unrunnable tiers fall back to the best native one.
    EXPECT_STREQ(kernels::resolveTier("bogus", nullptr), native);
    // "neon" is not a tier (there is no NEON kernel table), so it
    // resolves like any other unknown name.
    EXPECT_STREQ(kernels::resolveTier("neon", nullptr), native);
    EXPECT_EQ(kernels::opsForTier("neon"), nullptr);
}

TEST(KernelDispatch, SetTierSwitchesAndRejectsUnknown)
{
    TierGuard guard;
    ASSERT_TRUE(kernels::setTier("scalar"));
    EXPECT_STREQ(kernels::tierName(), "scalar");
    EXPECT_FALSE(kernels::setTier("bogus"));
    EXPECT_STREQ(kernels::tierName(), "scalar"); // unchanged
    for (const char* tier : kernels::runnableTiers()) {
        EXPECT_TRUE(kernels::setTier(tier));
        EXPECT_STREQ(kernels::tierName(), tier);
    }
}

TEST(KernelDispatch, ScalarAlwaysRunnable)
{
    std::vector<const char*> tiers = kernels::runnableTiers();
    ASSERT_FALSE(tiers.empty());
    EXPECT_STREQ(tiers.front(), "scalar");
}

TEST(MatrixRouting, MatrixOpsBitIdenticalAcrossTiers)
{
    // The Matrix entry points (operator*, multiplyInto, dagger, kron,
    // hilbertSchmidt) route through the active tier; whatever tier is
    // selected, results must match the scalar tier bit for bit.
    TierGuard guard;
    Rng rng(77);
    Matrix a4 = haarRandomUnitary(4, rng);
    Matrix b4 = haarRandomUnitary(4, rng);
    Matrix a2 = haarRandomUnitary(2, rng);
    Matrix b2 = haarRandomUnitary(2, rng);

    ASSERT_TRUE(kernels::setTier("scalar"));
    Matrix mul_ref = a4 * b4;
    Matrix dag_ref = a4.dagger();
    Matrix kron_ref = a2.kron(b2);
    cplx hs_ref = hilbertSchmidt(a4, b4);
    Matrix into_ref;
    Matrix::multiplyInto(into_ref, a4, b4);
    Matrix kron_into_ref;
    Matrix::kronInto(kron_into_ref, a2, b2);

    for (const char* tier : kernels::runnableTiers()) {
        ASSERT_TRUE(kernels::setTier(tier));
        EXPECT_TRUE(bitEqual(a4 * b4, mul_ref)) << tier;
        EXPECT_TRUE(bitEqual(a4.dagger(), dag_ref)) << tier;
        EXPECT_TRUE(bitEqual(a2.kron(b2), kron_ref)) << tier;
        cplx hs = hilbertSchmidt(a4, b4);
        EXPECT_TRUE(bitEqual(&hs, &hs_ref, 1)) << tier;
        Matrix into;
        Matrix::multiplyInto(into, a4, b4);
        EXPECT_TRUE(bitEqual(into, into_ref)) << tier;
        Matrix kron_into;
        Matrix::kronInto(kron_into, a2, b2);
        EXPECT_TRUE(bitEqual(kron_into, kron_into_ref)) << tier;
    }
}

TEST(MatrixRouting, GenericShapesUnaffectedByTier)
{
    // Non-hot shapes (8x8 here) use the generic loops regardless of
    // tier; sanity-check the 4x4 kernel path composes with them.
    TierGuard guard;
    Rng rng(99);
    Matrix a = haarRandomUnitary(8, rng);
    Matrix b = haarRandomUnitary(8, rng);
    ASSERT_TRUE(kernels::setTier("scalar"));
    Matrix ref = a * b;
    cplx hs_ref = hilbertSchmidt(a, b);
    for (const char* tier : kernels::runnableTiers()) {
        ASSERT_TRUE(kernels::setTier(tier));
        EXPECT_TRUE(bitEqual(a * b, ref)) << tier;
        cplx hs = hilbertSchmidt(a, b);
        EXPECT_TRUE(bitEqual(&hs, &hs_ref, 1)) << tier;
    }
}

} // namespace
} // namespace qiset
