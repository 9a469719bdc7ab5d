/** @file Tests for the 531.deepsjeng_r mini-benchmark. */
#include <gtest/gtest.h>

#include "benchmarks/deepsjeng/benchmark.h"
#include "benchmarks/deepsjeng/search.h"
#include "support/check.h"
#include "support/text.h"

namespace {

using namespace alberta;
using namespace alberta::deepsjeng;

TEST(Board, InitialPositionFenRoundTrip)
{
    const Board b = Board::initial();
    EXPECT_EQ(b.toFen(),
              "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1");
    EXPECT_EQ(Board::fromFen(b.toFen()).hash(), b.hash());
}

TEST(Board, FenRoundTripsComplexPosition)
{
    const std::string kiwipete =
        "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq "
        "- 0 1";
    EXPECT_EQ(Board::fromFen(kiwipete).toFen(), kiwipete);
}

TEST(Board, RejectsBadFen)
{
    EXPECT_THROW(Board::fromFen("only two fields"),
                 support::FatalError);
    EXPECT_THROW(Board::fromFen("8/8/8/8/8/8/8/8 x - -"),
                 support::FatalError);
}

/** Standard perft counts: the strongest movegen correctness check. */
struct PerftCase
{
    const char *position;
    const char *fen;
    int depth;
    std::uint64_t nodes;
};

/** Names each case by value, so test names are the same in every build. */
void PrintTo(const PerftCase &c, std::ostream *os)
{
    *os << c.position << " depth " << c.depth;
}

class Perft : public ::testing::TestWithParam<PerftCase>
{
};

TEST_P(Perft, MatchesKnownCounts)
{
    const auto &[position, fen, depth, nodes] = GetParam();
    Board b = Board::fromFen(fen);
    EXPECT_EQ(b.perft(depth), nodes);
}

INSTANTIATE_TEST_SUITE_P(
    Known, Perft,
    ::testing::Values(
        PerftCase{"startpos",
                  "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq "
                  "- 0 1",
                  1, 20},
        PerftCase{"startpos",
                  "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq "
                  "- 0 1",
                  2, 400},
        PerftCase{"startpos",
                  "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq "
                  "- 0 1",
                  3, 8902},
        PerftCase{"startpos",
                  "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq "
                  "- 0 1",
                  4, 197281},
        // Kiwipete: exercises castling, promotions, en passant, pins.
        PerftCase{"kiwipete",
                  "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/"
                  "R3K2R w KQkq - 0 1",
                  1, 48},
        PerftCase{"kiwipete",
                  "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/"
                  "R3K2R w KQkq - 0 1",
                  2, 2039},
        PerftCase{"kiwipete",
                  "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/"
                  "R3K2R w KQkq - 0 1",
                  3, 97862},
        // Position 3 from the CPW perft suite: en-passant pins.
        PerftCase{"cpw3", "8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1",
                  1, 14},
        PerftCase{"cpw3", "8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1",
                  2, 191},
        PerftCase{"cpw3", "8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1",
                  3, 2812},
        PerftCase{"cpw3", "8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1",
                  4, 43238}));

TEST(Board, MakeUnmakeRestoresHashAndFen)
{
    Board b = Board::fromFen("r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/"
                             "2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1");
    const std::string fen = b.toFen();
    const std::uint64_t hash = b.hash();
    Undo undo;
    for (const Move &m : b.legalMoves()) {
        ASSERT_TRUE(b.makeMove(m, undo));
        b.unmakeMove(undo);
        ASSERT_EQ(b.toFen(), fen) << m.algebraic();
        ASSERT_EQ(b.hash(), hash) << m.algebraic();
    }
}

TEST(Board, DetectsCheck)
{
    const Board b =
        Board::fromFen("rnb1kbnr/pppp1ppp/8/4p3/6Pq/5P2/PPPPP2P/"
                       "RNBQKBNR w KQkq - 1 3");
    EXPECT_TRUE(b.inCheck(Side::White));
    EXPECT_FALSE(b.inCheck(Side::Black));
}

TEST(Board, EvaluationIsAntisymmetric)
{
    const Board b = Board::fromFen(
        "r1bqkbnr/pppp1ppp/2n5/4p3/2B1P3/5N2/PPPP1PPP/RNBQK2R w KQkq "
        "- 4 4");
    EXPECT_EQ(b.evaluate(Side::White), -b.evaluate(Side::Black));
}

TEST(Board, MaterialAdvantageShowsInEval)
{
    // White is up a queen.
    const Board b = Board::fromFen(
        "rnb1kbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1");
    EXPECT_GT(b.evaluate(Side::White), 800);
}

TEST(Search, FindsMateInOne)
{
    // Scholar's mate delivery: Qxf7#.
    Board b = Board::fromFen(
        "r1bqkbnr/pppp1ppp/2n5/4p3/2B1P3/5Q2/PPPP1PPP/RNB1K1NR w KQkq "
        "- 4 4");
    Engine engine;
    runtime::ExecutionContext ctx;
    const SearchResult r = engine.analyze(b, 3, ctx);
    EXPECT_EQ(r.bestMove.algebraic(), "f3f7");
    EXPECT_GT(r.score, 80000);
}

TEST(Search, PrefersCapturingHangingQueen)
{
    Board b = Board::fromFen(
        "rnb1kbnr/pppp1ppp/8/4p3/4q3/3P4/PPP1PPPP/RNBQKBNR w KQkq - 0 "
        "1");
    Engine engine;
    runtime::ExecutionContext ctx;
    const SearchResult r = engine.analyze(b, 3, ctx);
    EXPECT_EQ(r.bestMove.algebraic(), "d3e4");
}

TEST(Search, DeeperSearchVisitsMoreNodes)
{
    Board b = Board::initial();
    runtime::ExecutionContext ctx;
    Engine e1, e2;
    Board b1 = b, b2 = b;
    const auto shallow = e1.analyze(b1, 2, ctx);
    const auto deep = e2.analyze(b2, 4, ctx);
    EXPECT_GT(deep.nodes, shallow.nodes * 3);
}

TEST(Search, TranspositionTableProducesHits)
{
    Board b = Board::initial();
    Engine engine;
    runtime::ExecutionContext ctx;
    const auto r = engine.analyze(b, 4, ctx);
    EXPECT_GT(r.ttHits, 0u);
}

TEST(Search, StalemateScoresZero)
{
    // Classic stalemate: black to move, no legal moves, not in check.
    Board b = Board::fromFen("7k/5Q2/6K1/8/8/8/8/8 b - - 0 1");
    Engine engine;
    runtime::ExecutionContext ctx;
    const auto r = engine.analyze(b, 2, ctx);
    EXPECT_EQ(r.score, 0);
}

TEST(Suite, GeneratedPositionsAreLegalAndLive)
{
    const std::string suite = generatePositionSuite(20, 42);
    const auto lines = support::split(suite, '\n');
    int checked = 0;
    for (const auto &line : lines) {
        if (support::trim(line).empty())
            continue;
        const Board b = Board::fromFen(line);
        EXPECT_FALSE(b.legalMoves().empty());
        ++checked;
    }
    EXPECT_EQ(checked, 20);
}

TEST(Suite, SampleAttachesDepthsInRange)
{
    const std::string suite = generatePositionSuite(10, 43);
    support::Rng rng(7);
    const std::string sampled = samplePositions(suite, 8, 3, 5, rng);
    int count = 0;
    for (const auto &line : support::split(sampled, '\n')) {
        if (support::trim(line).empty())
            continue;
        const auto fields = support::splitWhitespace(line);
        const int depth = std::stoi(fields[0]);
        EXPECT_GE(depth, 3);
        EXPECT_LE(depth, 5);
        ++count;
    }
    EXPECT_EQ(count, 8);
}

TEST(DeepsjengBenchmark, WorkloadSetMatchesPaper)
{
    DeepsjengBenchmark bm;
    const auto w = bm.workloads();
    EXPECT_EQ(w.size(), 12u); // Table II: 12 workloads
    int alberta = 0;
    for (const auto &wl : w)
        alberta += wl.isAlberta();
    EXPECT_EQ(alberta, 9); // paper: nine new workloads
}

TEST(DeepsjengBenchmark, RunsDeterministically)
{
    DeepsjengBenchmark bm;
    const auto w = runtime::findWorkload(bm, "test");
    const auto a = runtime::runOnce(bm, w);
    const auto b = runtime::runOnce(bm, w);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_TRUE(a.coverage.count("deepsjeng::search"));
    EXPECT_TRUE(a.coverage.count("deepsjeng::movegen"));
}

} // namespace
