/**
 * @file
 * Parameterized property sweeps: the strongest invariants of the
 * numerically critical kernels, exercised across seed/size/shape
 * grids rather than single examples.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "benchmarks/deepsjeng/board.h"
#include "benchmarks/exchange2/sudoku.h"
#include "benchmarks/lbm/benchmark.h"
#include "benchmarks/mcf/generator.h"
#include "benchmarks/mcf/mincost.h"
#include "benchmarks/parest/solver.h"
#include "benchmarks/xz/generator.h"
#include "benchmarks/xz/lz77.h"
#include "support/rng.h"

namespace {

using namespace alberta;

// ---------------------------------------------------------------- xz

struct XzCase
{
    xz::ContentKind kind;
    std::size_t bytes;
};

/** Names each case by value, so test names are the same in every build. */
void PrintTo(const XzCase &c, std::ostream *os)
{
    static const char *const kinds[] = {"text", "log", "binary", "random",
                                        "repeated"};
    *os << kinds[static_cast<int>(c.kind)] << " " << c.bytes << " bytes";
}

class XzRoundTrip : public ::testing::TestWithParam<XzCase>
{
};

TEST_P(XzRoundTrip, CompressDecompressIsIdentity)
{
    const auto [kind, bytes] = GetParam();
    xz::FileConfig cfg;
    cfg.seed = 0xABC + static_cast<int>(kind) * 17 + bytes;
    cfg.kind = kind;
    cfg.bytes = bytes;
    const auto raw = xz::generateFile(cfg);
    runtime::ExecutionContext ctx;
    const auto packed = xz::compress(raw, {}, ctx);
    EXPECT_EQ(xz::decompress(packed, ctx), raw);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSizes, XzRoundTrip,
    ::testing::Values(
        XzCase{xz::ContentKind::Text, 100},
        XzCase{xz::ContentKind::Text, 70000},
        XzCase{xz::ContentKind::Log, 4096},
        XzCase{xz::ContentKind::Log, 200000},
        XzCase{xz::ContentKind::Binary, 33000},
        XzCase{xz::ContentKind::Random, 100},
        XzCase{xz::ContentKind::Random, 90000},
        XzCase{xz::ContentKind::RepeatedFile, 50000}));

// ------------------------------------------------------------- chess

class ChessGame : public ::testing::TestWithParam<int>
{
};

TEST_P(ChessGame, MakeUnmakeIsExactThroughRandomPlay)
{
    // Play a seeded random game; at every ply, every legal move must
    // make/unmake back to the identical position and hash.
    support::Rng rng(GetParam());
    deepsjeng::Board board = deepsjeng::Board::initial();
    deepsjeng::Undo undo;
    for (int ply = 0; ply < 40; ++ply) {
        const auto legal = board.legalMoves();
        if (legal.empty())
            break;
        const std::string fen = board.toFen();
        const std::uint64_t hash = board.hash();
        for (const auto &move : legal) {
            ASSERT_TRUE(board.makeMove(move, undo));
            board.unmakeMove(undo);
            ASSERT_EQ(board.hash(), hash)
                << "ply " << ply << " move " << move.algebraic();
            ASSERT_EQ(board.toFen(), fen);
        }
        board.makeMove(legal[rng.below(legal.size())], undo);
    }
}

TEST_P(ChessGame, FenRoundTripsAtEveryPosition)
{
    support::Rng rng(GetParam() * 7919);
    deepsjeng::Board board = deepsjeng::Board::initial();
    deepsjeng::Undo undo;
    for (int ply = 0; ply < 30; ++ply) {
        const auto legal = board.legalMoves();
        if (legal.empty())
            break;
        board.makeMove(legal[rng.below(legal.size())], undo);
        const deepsjeng::Board reparsed =
            deepsjeng::Board::fromFen(board.toFen());
        ASSERT_EQ(reparsed.hash(), board.hash()) << "ply " << ply;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChessGame,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// --------------------------------------------------------------- lbm

struct LbmCase
{
    lbm::ObstacleShape shape;
    double size;
    lbm::CollisionModel model;
};

void PrintTo(const LbmCase &c, std::ostream *os)
{
    static const char *const shapes[] = {"sphere", "box", "cylinder",
                                         "blobs"};
    static const char *const models[] = {"bgk", "trt"};
    *os << shapes[static_cast<int>(c.shape)] << " " << c.size << " "
        << models[static_cast<int>(c.model)];
}

class LbmConservation : public ::testing::TestWithParam<LbmCase>
{
};

TEST_P(LbmConservation, MassIsConservedForAllGeometries)
{
    const auto [shape, size, model] = GetParam();
    lbm::GeometryConfig geo;
    geo.seed = 0x1B;
    geo.nx = geo.ny = 8;
    geo.nz = 16;
    geo.shape = shape;
    geo.sizeFraction = size;
    const auto geometry = lbm::generateGeometry(geo);

    lbm::LbmConfig cfg;
    cfg.nx = geometry.nx;
    cfg.ny = geometry.ny;
    cfg.nz = geometry.nz;
    cfg.steps = 12;
    cfg.model = model;
    lbm::Lattice lattice(geometry, cfg);
    runtime::ExecutionContext ctx;
    const auto stats = lattice.run(ctx);
    const double fluidCells = static_cast<double>(
        geometry.nx * geometry.ny * geometry.nz -
        geometry.solidCells());
    EXPECT_NEAR(stats.totalMass, fluidCells, 1e-6 * fluidCells);
    EXPECT_TRUE(std::isfinite(stats.kineticEnergy));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LbmConservation,
    ::testing::Values(
        LbmCase{lbm::ObstacleShape::Sphere, 0.3,
                lbm::CollisionModel::Bgk},
        LbmCase{lbm::ObstacleShape::Sphere, 0.6,
                lbm::CollisionModel::Trt},
        LbmCase{lbm::ObstacleShape::Box, 0.4,
                lbm::CollisionModel::Bgk},
        LbmCase{lbm::ObstacleShape::Cylinder, 0.5,
                lbm::CollisionModel::Trt},
        LbmCase{lbm::ObstacleShape::RandomBlobs, 0.4,
                lbm::CollisionModel::Bgk}));

// --------------------------------------------------------------- mcf

class McfOptimality : public ::testing::TestWithParam<int>
{
};

TEST_P(McfOptimality, GeneratedProblemsSolveToOptimality)
{
    mcf::CityConfig cfg;
    cfg.seed = GetParam();
    cfg.trips = 40 + GetParam() * 7;
    cfg.connectivity = 0.2 + 0.05 * (GetParam() % 4);
    const auto problem = mcf::generateCity(cfg);
    runtime::ExecutionContext ctx;
    mcf::Solver solver(problem.instance);
    const auto solution = solver.solve(ctx);
    ASSERT_TRUE(solution.feasible);
    EXPECT_TRUE(mcf::verifyOptimal(problem.instance, solution));
}

INSTANTIATE_TEST_SUITE_P(Seeds, McfOptimality,
                         ::testing::Values(21, 22, 23, 24, 25));

// ------------------------------------------------------------ parest

class CgConvergence : public ::testing::TestWithParam<int>
{
};

TEST_P(CgConvergence, PoissonSystemsConvergeAcrossSizes)
{
    const int n = GetParam();
    runtime::ExecutionContext ctx;
    const auto matrix = parest::assemble(n, 1, {1.3}, ctx);
    std::vector<double> rhs(static_cast<std::size_t>(n) * n, 1.0), x;
    const auto cg = parest::conjugateGradient(matrix, rhs, x, 1e-9,
                                              4 * n * n, ctx);
    ASSERT_TRUE(cg.converged) << "n=" << n;
    // CG on SPD systems converges within the dimension bound.
    EXPECT_LE(cg.iterations, n * n);
    // Residual check.
    std::vector<double> ax;
    matrix.multiply(x, ax, ctx);
    double err = 0.0;
    for (std::size_t i = 0; i < ax.size(); ++i)
        err = std::max(err, std::abs(ax[i] - rhs[i]));
    EXPECT_LT(err, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(GridSizes, CgConvergence,
                         ::testing::Values(6, 10, 16, 24));

// ---------------------------------------------------------- exchange2

class SudokuSymmetry : public ::testing::TestWithParam<int>
{
};

TEST_P(SudokuSymmetry, TransformsPreserveUniqueSolvability)
{
    runtime::ExecutionContext ctx;
    support::Rng seedRng(GetParam());
    const exchange2::Grid seed =
        exchange2::createSeedPuzzle(seedRng, 30, ctx);
    ASSERT_EQ(exchange2::solve(seed, ctx, 2).solutions, 1);
    support::Rng rng(GetParam() * 31);
    for (int i = 0; i < 4; ++i) {
        const exchange2::Grid t =
            exchange2::transformPuzzle(seed, rng);
        EXPECT_EQ(t.clues(), seed.clues());
        EXPECT_EQ(exchange2::solve(t, ctx, 2).solutions, 1);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SudokuSymmetry,
                         ::testing::Values(41, 42, 43));

} // namespace
