// The Dataset's CSR and CSC must be transposes of each other with
// ids ascending in every row, VoteMatrix must read those very arrays,
// and RowScore must be bit-identical to CorrobScore.

#include "core/vote_matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/corroborator.h"
#include "testing/property.h"

namespace corrob {
namespace {

using proptest::ForEachSeed;
using proptest::MakeRandomDataset;

TEST(VoteMatrixTest, EmptyDataset) {
  const Dataset dataset;
  VoteMatrix matrix(dataset);
  EXPECT_EQ(matrix.num_facts(), 0);
  EXPECT_EQ(matrix.num_sources(), 0);
  EXPECT_EQ(dataset.num_votes(), 0);
}

TEST(VoteMatrixTest, MirrorsDatasetViewsInOrder) {
  ForEachSeed(0x3A7121, 10, [&](uint64_t seed) {
    Dataset dataset = MakeRandomDataset(seed);
    VoteMatrix matrix(dataset);
    ASSERT_EQ(matrix.num_facts(), dataset.num_facts());
    ASSERT_EQ(matrix.num_sources(), dataset.num_sources());

    // Every CSR entry (f, s, v) appears in column s; columns are
    // ascending, so the k-th entry of column s seen in fact order is
    // the k-th CSC entry.
    std::vector<size_t> cursor(static_cast<size_t>(dataset.num_sources()), 0);
    int64_t csr_entries = 0;
    for (FactId f = 0; f < dataset.num_facts(); ++f) {
      auto row = dataset.VotesOnFact(f);
      auto ids = row.ids();
      ASSERT_TRUE(std::is_sorted(ids.begin(), ids.end())) << "fact " << f;
      ASSERT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
      ASSERT_EQ(matrix.FactSources(f).data(), ids.data()) << "fact " << f;
      ASSERT_EQ(matrix.FactVotes(f).data(), row.votes().data());
      for (const SourceVote& sv : row) {
        ASSERT_NE(sv.vote, Vote::kNone);
        auto column = dataset.VotesBySource(sv.source);
        size_t& k = cursor[static_cast<size_t>(sv.source)];
        ASSERT_LT(k, column.size()) << "source " << sv.source;
        EXPECT_EQ(column[k], (FactVote{f, sv.vote})) << "fact " << f;
        ++k;
        ++csr_entries;
      }
    }
    int64_t csc_entries = 0;
    for (SourceId s = 0; s < dataset.num_sources(); ++s) {
      auto column = dataset.VotesBySource(s);
      auto ids = column.ids();
      ASSERT_TRUE(std::is_sorted(ids.begin(), ids.end())) << "source " << s;
      ASSERT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
      ASSERT_EQ(matrix.SourceFacts(s).data(), ids.data()) << "source " << s;
      ASSERT_EQ(matrix.SourceVotes(s).data(), column.votes().data());
      EXPECT_EQ(cursor[static_cast<size_t>(s)], column.size())
          << "source " << s;
      csc_entries += static_cast<int64_t>(column.size());
    }
    EXPECT_EQ(csr_entries, dataset.num_votes());
    EXPECT_EQ(csc_entries, dataset.num_votes());
  });
}

TEST(VoteMatrixTest, RowScoreBitIdenticalToCorrobScore) {
  ForEachSeed(0x5C04E, 10, [&](uint64_t seed) {
    Dataset dataset = MakeRandomDataset(seed);
    VoteMatrix matrix(dataset);
    Rng rng(seed ^ 0x7A);
    std::vector<double> trust(static_cast<size_t>(dataset.num_sources()));
    for (double& t : trust) t = rng.NextDouble();
    for (FactId f = 0; f < dataset.num_facts(); ++f) {
      EXPECT_EQ(
          std::bit_cast<uint64_t>(matrix.RowScore(f, trust)),
          std::bit_cast<uint64_t>(CorrobScore(dataset.VotesOnFact(f), trust)))
          << "fact " << f;
    }
  });
}

TEST(VoteMatrixTest, ForEachCoversEveryIdOnceSequentially) {
  Dataset dataset = MakeRandomDataset(123);
  VoteMatrix matrix(dataset);
  std::vector<int> fact_hits(static_cast<size_t>(dataset.num_facts()), 0);
  matrix.ForEachFact(nullptr, [&](FactId f) {
    ++fact_hits[static_cast<size_t>(f)];
  });
  for (int h : fact_hits) EXPECT_EQ(h, 1);

  std::vector<int> source_hits(static_cast<size_t>(dataset.num_sources()), 0);
  matrix.ForEachSource(nullptr, [&](SourceId s) {
    ++source_hits[static_cast<size_t>(s)];
  });
  for (int h : source_hits) EXPECT_EQ(h, 1);
}

TEST(VoteMatrixTest, ForEachWithPoolCoversEveryIdOnce) {
  Dataset dataset = MakeRandomDataset(321);
  VoteMatrix matrix(dataset);
  auto pool = MakeSweepPool(4);
  ASSERT_NE(pool, nullptr);
  std::vector<std::atomic<int>> hits(
      static_cast<size_t>(dataset.num_facts()));
  for (auto& h : hits) h.store(0);
  matrix.ForEachFact(pool.get(), [&](FactId f) {
    hits[static_cast<size_t>(f)].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(MakeSweepPoolTest, NullForSequentialCounts) {
  EXPECT_EQ(MakeSweepPool(0), nullptr);
  EXPECT_EQ(MakeSweepPool(1), nullptr);
  auto pool = MakeSweepPool(3);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->num_threads(), 3);
}

}  // namespace
}  // namespace corrob
