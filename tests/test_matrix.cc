// Unit tests for the dense complex matrix type.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "qc/gates.h"
#include "qc/matrix.h"

namespace qiset {
namespace {

TEST(Matrix, IdentityHasUnitDiagonal)
{
    Matrix id = Matrix::identity(4);
    for (size_t i = 0; i < 4; ++i)
        for (size_t j = 0; j < 4; ++j)
            EXPECT_EQ(id(i, j), (i == j ? cplx(1.0) : cplx(0.0)));
}

TEST(Matrix, InitializerListLayout)
{
    Matrix m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 2u);
    EXPECT_EQ(m(0, 1), cplx(2.0));
    EXPECT_EQ(m(1, 0), cplx(3.0));
}

TEST(Matrix, MultiplicationMatchesHandComputation)
{
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix b{{5.0, 6.0}, {7.0, 8.0}};
    Matrix c = a * b;
    EXPECT_EQ(c(0, 0), cplx(19.0));
    EXPECT_EQ(c(0, 1), cplx(22.0));
    EXPECT_EQ(c(1, 0), cplx(43.0));
    EXPECT_EQ(c(1, 1), cplx(50.0));
}

TEST(Matrix, MultiplicationShapeMismatchThrows)
{
    Matrix a(2, 3), b(2, 2);
    EXPECT_THROW(a * b, FatalError);
}

TEST(Matrix, DaggerConjugatesAndTransposes)
{
    Matrix m{{cplx(1.0, 2.0), cplx(3.0, -1.0)},
             {cplx(0.0, 1.0), cplx(2.0, 0.0)}};
    Matrix d = m.dagger();
    EXPECT_EQ(d(0, 0), cplx(1.0, -2.0));
    EXPECT_EQ(d(0, 1), cplx(0.0, -1.0));
    EXPECT_EQ(d(1, 0), cplx(3.0, 1.0));
}

TEST(Matrix, TraceSumsDiagonal)
{
    Matrix m{{cplx(1.0, 1.0), 0.0}, {0.0, cplx(2.0, -3.0)}};
    EXPECT_EQ(m.trace(), cplx(3.0, -2.0));
}

TEST(Matrix, KroneckerProductOfPaulis)
{
    Matrix zz = gates::pauliZ().kron(gates::pauliZ());
    EXPECT_EQ(zz(0, 0), cplx(1.0));
    EXPECT_EQ(zz(1, 1), cplx(-1.0));
    EXPECT_EQ(zz(2, 2), cplx(-1.0));
    EXPECT_EQ(zz(3, 3), cplx(1.0));
    EXPECT_EQ(zz(0, 1), cplx(0.0));
}

TEST(Matrix, KroneckerDimensions)
{
    Matrix a(2, 3), b(4, 5);
    Matrix k = a.kron(b);
    EXPECT_EQ(k.rows(), 8u);
    EXPECT_EQ(k.cols(), 15u);
}

TEST(Matrix, FrobeniusNormOfIdentity)
{
    EXPECT_NEAR(Matrix::identity(4).frobeniusNorm(), 2.0, 1e-12);
}

TEST(Matrix, UnitaryDetection)
{
    EXPECT_TRUE(gates::hadamard().isUnitary());
    EXPECT_TRUE(gates::fsim(0.3, 1.1).isUnitary());
    Matrix not_unitary{{1.0, 1.0}, {0.0, 1.0}};
    EXPECT_FALSE(not_unitary.isUnitary());
}

TEST(Matrix, HermitianDetection)
{
    EXPECT_TRUE(gates::pauliY().isHermitian());
    EXPECT_FALSE(gates::sGate().isHermitian());
}

TEST(Matrix, TraceFidelityIsPhaseInvariant)
{
    Matrix u = gates::fsim(0.7, 0.2);
    Matrix v = u * cplx(std::cos(1.3), std::sin(1.3));
    EXPECT_NEAR(traceFidelity(u, v), 1.0, 1e-12);
}

TEST(Matrix, TraceFidelityDistinguishesGates)
{
    double f = traceFidelity(gates::cz(), gates::iswap());
    EXPECT_LT(f, 0.999);
    EXPECT_GE(f, 0.0);
}

TEST(Matrix, HilbertSchmidtOfIdenticalUnitaries)
{
    Matrix u = gates::sycamore();
    EXPECT_NEAR(std::abs(hilbertSchmidt(u, u)), 4.0, 1e-12);
}

TEST(Matrix, MaxAbsDiff)
{
    Matrix a = Matrix::identity(2);
    Matrix b = a;
    b(1, 1) = cplx(1.0, 0.5);
    EXPECT_NEAR(a.maxAbsDiff(b), 0.5, 1e-12);
}

TEST(Matrix, AdditionAndScaling)
{
    Matrix a = Matrix::identity(2);
    Matrix b = (a + a) * cplx(2.0);
    EXPECT_EQ(b(0, 0), cplx(4.0));
    a += b;
    EXPECT_EQ(a(1, 1), cplx(5.0));
}

// ---------------------------------------------------- small-buffer SBO

TEST(MatrixSbo, GateSizedMatricesLiveInline)
{
    EXPECT_TRUE(Matrix::identity(1).isInline());
    EXPECT_TRUE(gates::hadamard().isInline());      // 2x2
    EXPECT_TRUE(gates::sycamore().isInline());      // 4x4 == 16 elems
    EXPECT_FALSE(Matrix::identity(5).isInline());   // 25 > 16
    EXPECT_FALSE(Matrix(2, 16).isInline());
}

TEST(MatrixSbo, DataPointsIntoObjectForInlineStorage)
{
    Matrix m = gates::cz();
    const char* lo = reinterpret_cast<const char*>(&m);
    const char* hi = lo + sizeof(Matrix);
    const char* d = reinterpret_cast<const char*>(m.data());
    EXPECT_GE(d, lo);
    EXPECT_LT(d, hi);

    Matrix big = Matrix::identity(8);
    const char* bd = reinterpret_cast<const char*>(big.data());
    EXPECT_TRUE(bd < reinterpret_cast<const char*>(&big) ||
                bd >= reinterpret_cast<const char*>(&big) +
                          sizeof(Matrix));
}

TEST(MatrixSbo, InlineAndHeapRoundTripsAgree)
{
    // The same arithmetic through an inline 4x4 and a heap 5x5
    // embedding must agree on the shared 4x4 corner.
    Matrix small = gates::fsim(0.37, 0.81);
    Matrix big(5, 5);
    for (size_t i = 0; i < 4; ++i)
        for (size_t j = 0; j < 4; ++j)
            big(i, j) = small(i, j);
    big(4, 4) = 1.0;

    Matrix small_sq = small * small;
    Matrix big_sq = big * big;
    for (size_t i = 0; i < 4; ++i)
        for (size_t j = 0; j < 4; ++j)
            EXPECT_EQ(big_sq(i, j), small_sq(i, j));
}

TEST(MatrixSbo, CopyAndMoveSemantics)
{
    Matrix inline_src = gates::iswap();
    Matrix copy = inline_src;
    EXPECT_TRUE(copy.isInline());
    EXPECT_EQ(copy.maxAbsDiff(inline_src), 0.0);

    Matrix moved = std::move(copy);
    EXPECT_TRUE(moved.isInline());
    EXPECT_EQ(moved.maxAbsDiff(inline_src), 0.0);

    Matrix heap_src = Matrix::identity(6);
    heap_src(5, 0) = cplx(0.0, 2.0);
    const cplx* heap_buf = heap_src.data();
    Matrix heap_moved = std::move(heap_src);
    // Heap storage transfers by pointer steal.
    EXPECT_EQ(heap_moved.data(), heap_buf);
    EXPECT_EQ(heap_moved(5, 0), cplx(0.0, 2.0));

    // Assignment across storage classes in both directions.
    Matrix m = gates::cnot();
    m = Matrix::identity(7);
    EXPECT_FALSE(m.isInline());
    EXPECT_EQ(m(6, 6), cplx(1.0));
    m = gates::cnot();
    EXPECT_TRUE(m.isInline());
    EXPECT_EQ(m(3, 2), cplx(1.0));

    // Self-assignment keeps contents.
    Matrix& alias = m;
    m = alias;
    EXPECT_EQ(m(3, 2), cplx(1.0));
}

TEST(MatrixSbo, MovedFromMatrixIsReusable)
{
    Matrix a = Matrix::identity(6);
    Matrix b = std::move(a);
    a = gates::pauliX(); // must be safely assignable after the move
    EXPECT_TRUE(a.isInline());
    EXPECT_EQ(a(0, 1), cplx(1.0));
    EXPECT_EQ(b(5, 5), cplx(1.0));
}

TEST(MatrixSbo, MultiplyIntoMatchesOperatorStar)
{
    Matrix a = gates::fsim(1.2, 0.4);
    Matrix b = gates::sqrtIswap();
    Matrix expected = a * b;
    Matrix out;
    Matrix::multiplyInto(out, a, b);
    EXPECT_EQ(out.maxAbsDiff(expected), 0.0);

    // Reuse with a shape already matching (no reallocation path).
    Matrix::multiplyInto(out, b, a);
    EXPECT_EQ(out.maxAbsDiff(b * a), 0.0);

    // Heap-sized product and rectangular shapes.
    Matrix r1(3, 7), r2(7, 2);
    for (size_t i = 0; i < r1.size(); ++i)
        const_cast<cplx*>(r1.data())[i] = cplx(double(i), 0.5);
    for (size_t i = 0; i < r2.size(); ++i)
        const_cast<cplx*>(r2.data())[i] = cplx(0.25, double(i));
    Matrix rect;
    Matrix::multiplyInto(rect, r1, r2);
    EXPECT_EQ(rect.rows(), 3u);
    EXPECT_EQ(rect.cols(), 2u);
    EXPECT_EQ(rect.maxAbsDiff(r1 * r2), 0.0);
}

TEST(MatrixSbo, MultiplyIntoRejectsAliasing)
{
    Matrix a = gates::cz();
    Matrix b = gates::iswap();
    EXPECT_THROW(Matrix::multiplyInto(a, a, b), FatalError);
    EXPECT_THROW(Matrix::multiplyInto(b, a, b), FatalError);
}

// ------------------------------------------------- quantized form

/** The printf rendering appendQuantizedForm must reproduce exactly. */
std::string
printfForm(const Matrix& m, int decimals)
{
    std::string out;
    std::vector<char> buf;
    for (size_t i = 0; i < m.rows(); ++i)
        for (size_t j = 0; j < m.cols(); ++j) {
            const cplx& v = m(i, j);
            int len = std::snprintf(nullptr, 0, "%.*f,%.*f;", decimals,
                                    v.real(), decimals, v.imag());
            buf.resize(static_cast<size_t>(len) + 1);
            std::snprintf(buf.data(), buf.size(), "%.*f,%.*f;", decimals,
                          v.real(), decimals, v.imag());
            out.append(buf.data(), static_cast<size_t>(len));
        }
    return out;
}

/** Pack values into 4x4 matrices and compare both renderings. */
void
expectSameForm(const std::vector<double>& values, int decimals)
{
    Matrix m(4, 4);
    std::string fast;
    for (size_t start = 0; start < values.size(); start += 32) {
        for (size_t k = 0; k < 16; ++k) {
            auto at = [&](size_t offset) {
                size_t index = start + 2 * k + offset;
                return index < values.size() ? values[index] : 0.0;
            };
            m(k / 4, k % 4) = cplx(at(0), at(1));
        }
        fast.clear();
        appendQuantizedForm(fast, m, decimals);
        std::string slow = printfForm(m, decimals);
        ASSERT_EQ(fast, slow) << "values from index " << start;
    }
}

TEST(QuantizedForm, MatchesPrintfOnSeededValues)
{
    // Uniform draws in (-2, 2), plus the 1e-9 half-way grid and its
    // neighbours, where printf's exact rounding is easiest to miss.
    std::mt19937_64 gen(20261020);
    auto unit = [&gen]() {
        return static_cast<double>(gen() >> 11) * 0x1.0p-53;
    };
    std::vector<double> values;
    values.reserve(1200000);
    for (int i = 0; i < 600000; ++i)
        values.push_back(4.0 * unit() - 2.0);
    for (int i = 0; i < 150000; ++i) {
        double units = std::floor(unit() * 2e9);
        double sign = (gen() & 1) ? -1.0 : 1.0;
        double tie = sign * (units + 0.5) * 1e-9;
        double grid = sign * units * 1e-9;
        values.push_back(tie);
        values.push_back(std::nextafter(tie, 0.0));
        values.push_back(std::nextafter(tie, 2.0 * sign));
        values.push_back(grid);
    }
    // Exactly representable ties: j/1024 for odd j is (j * 976562.5)
    // * 1e-9, so printf's round-half-to-even decides these.
    for (int j = 1; j < 2048; j += 2) {
        values.push_back(j / 1024.0);
        values.push_back(-j / 1024.0);
    }
    ASSERT_GE(values.size(), 1000000u);
    expectSameForm(values, 9);
}

TEST(QuantizedForm, MatchesPrintfOnSignedZerosAndEdges)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> values = {
        0.0, -0.0, -1e-12, 1e-12, -4.9e-10, -5e-10, -5.1e-10, 4.9e-10,
        5e-10, 5.1e-10, -4.9999999e-10, 5e-324, -5e-324,
        std::nextafter(2.0, 0.0), -std::nextafter(2.0, 0.0), 1.0, -1.0,
        0.9999999995, 1.9999999995, 1.99999999949,
        // |v| >= 2 and non-finite values take the printf path.
        2.0, -2.0, 2.5, -123.456789012, 1e300, -1e300, inf, -inf, nan,
        -nan};
    ASSERT_EQ(printfForm(Matrix{{cplx(-1e-12, -0.0)}}, 9),
              "-0.000000000,-0.000000000;");
    expectSameForm(values, 9);
    for (int decimals : {0, 3, 6, 12})
        expectSameForm(values, decimals);
}

} // namespace
} // namespace qiset
