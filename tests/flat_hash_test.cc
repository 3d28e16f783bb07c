#include "common/flat_hash.h"

#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/interner.h"
#include "common/random.h"
#include "trace/trace.h"
#include "trace/trace_io.h"

namespace swim {
namespace {

TEST(FlatHashMapTest, BasicInsertFindErase) {
  FlatHashMap<std::string, int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);

  map["a"] = 1;
  map["b"] = 2;
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.at("a"), 1);
  EXPECT_EQ(map.at("b"), 2);
  EXPECT_TRUE(map.contains("a"));
  EXPECT_FALSE(map.contains("c"));
  EXPECT_EQ(map.find("c"), map.end());

  map["a"] = 10;  // overwrite, not duplicate
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.at("a"), 10);

  EXPECT_EQ(map.erase("a"), 1u);
  EXPECT_EQ(map.erase("a"), 0u);
  EXPECT_FALSE(map.contains("a"));
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMapTest, HeterogeneousStringViewLookup) {
  FlatHashMap<std::string, int> map;
  map["some/long/path"] = 7;
  std::string_view probe = "some/long/path";
  auto it = map.find(probe);  // no std::string temporary
  ASSERT_NE(it, map.end());
  EXPECT_EQ(it->second, 7);
  EXPECT_TRUE(map.contains(probe));
  EXPECT_EQ(map[probe], 7);  // het operator[] finds the existing entry
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMapTest, TryEmplaceOnlyConstructsOnInsert) {
  FlatHashMap<std::string, std::vector<int>> map;
  auto [it1, inserted1] = map.TryEmplace("k", 3, 42);
  EXPECT_TRUE(inserted1);
  EXPECT_EQ(it1->second, (std::vector<int>{42, 42, 42}));
  auto [it2, inserted2] = map.TryEmplace("k", 5, 9);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(it2->second, (std::vector<int>{42, 42, 42}));
}

TEST(FlatHashMapTest, IterationVisitsEachEntryOnce) {
  FlatHashMap<int, int> map;
  for (int i = 0; i < 100; ++i) map[i] = i * i;
  std::vector<bool> seen(100, false);
  size_t visited = 0;
  for (const auto& [key, value] : map) {
    EXPECT_EQ(value, key * key);
    EXPECT_FALSE(seen[key]);
    seen[key] = true;
    ++visited;
  }
  EXPECT_EQ(visited, 100u);
}

TEST(FlatHashMapTest, CopyAndMoveSemantics) {
  FlatHashMap<std::string, int> map;
  for (int i = 0; i < 50; ++i) map["k" + std::to_string(i)] = i;

  FlatHashMap<std::string, int> copy = map;
  EXPECT_EQ(copy.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(copy.at("k" + std::to_string(i)), i);
  copy["extra"] = -1;
  EXPECT_FALSE(map.contains("extra"));  // deep copy

  FlatHashMap<std::string, int> moved = std::move(copy);
  EXPECT_EQ(moved.size(), 51u);
  EXPECT_EQ(moved.at("extra"), -1);

  FlatHashMap<std::string, int> assigned;
  assigned["old"] = 0;
  assigned = map;
  EXPECT_EQ(assigned.size(), 50u);
  EXPECT_FALSE(assigned.contains("old"));
}

TEST(FlatHashMapTest, ReserveKeepsEntriesAndAvoidsGrowth) {
  FlatHashMap<int, int> map;
  map[1] = 10;
  map.reserve(10000);
  EXPECT_EQ(map.at(1), 10);
  for (int i = 0; i < 10000; ++i) map[i] = i;
  EXPECT_EQ(map.size(), 10000u);
  for (int i : {0, 1, 4999, 9999}) EXPECT_EQ(map.at(i), i);
}

TEST(FlatHashSetTest, BasicOperations) {
  FlatHashSet<std::string> set;
  EXPECT_TRUE(set.insert("x").second);
  EXPECT_FALSE(set.insert("x").second);
  EXPECT_TRUE(set.contains("x"));
  EXPECT_TRUE(set.contains(std::string_view("x")));
  EXPECT_FALSE(set.contains("y"));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.erase("x"), 1u);
  EXPECT_TRUE(set.empty());
}

// Property test: a long random mixed insert/erase/find workload must
// agree with std::unordered_map at every step, across rehash boundaries
// and with heavy tombstone churn.
TEST(FlatHashMapTest, MatchesUnorderedMapOracle) {
  FlatHashMap<uint64_t, uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> oracle;
  Pcg32 rng(1234, /*stream=*/77);

  // Small key domain forces frequent re-insertion into tombstoned slots.
  constexpr uint64_t kKeyDomain = 512;
  for (int step = 0; step < 60000; ++step) {
    uint64_t key = rng.NextBounded(kKeyDomain);
    switch (rng.NextBounded(4)) {
      case 0:
      case 1: {  // insert/overwrite
        uint64_t value = rng();
        map[key] = value;
        oracle[key] = value;
        break;
      }
      case 2: {  // erase
        EXPECT_EQ(map.erase(key), oracle.erase(key));
        break;
      }
      default: {  // find
        auto it = map.find(key);
        auto oracle_it = oracle.find(key);
        ASSERT_EQ(it == map.end(), oracle_it == oracle.end());
        if (it != map.end()) {
          EXPECT_EQ(it->second, oracle_it->second);
        }
      }
    }
    ASSERT_EQ(map.size(), oracle.size());
  }
  // Full sweep: every oracle entry present with the right value, and
  // iteration covers exactly the oracle's keys.
  size_t visited = 0;
  for (const auto& [key, value] : map) {
    auto oracle_it = oracle.find(key);
    ASSERT_NE(oracle_it, oracle.end());
    EXPECT_EQ(value, oracle_it->second);
    ++visited;
  }
  EXPECT_EQ(visited, oracle.size());
}

// Same oracle test with string keys (exercises HashBytes and the
// heterogeneous equality path).
TEST(FlatHashMapTest, MatchesUnorderedMapOracleStringKeys) {
  FlatHashMap<std::string, int> map;
  std::unordered_map<std::string, int> oracle;
  Pcg32 rng(99, /*stream=*/3);
  for (int step = 0; step < 20000; ++step) {
    std::string key = "path/" + std::to_string(rng.NextBounded(300));
    if (rng.NextBernoulli(0.3)) {
      EXPECT_EQ(map.erase(key), oracle.erase(key));
    } else {
      int value = static_cast<int>(rng.NextBounded(1 << 20));
      map[key] = value;
      oracle[key] = value;
    }
    ASSERT_EQ(map.size(), oracle.size());
  }
  for (const auto& [key, value] : oracle) {
    auto it = map.find(std::string_view(key));
    ASSERT_NE(it, map.end()) << key;
    EXPECT_EQ(it->second, value);
  }
}

TEST(FlatHashMapTest, EraseByIteratorDuringScan) {
  FlatHashMap<int, int> map;
  for (int i = 0; i < 64; ++i) map[i] = i;
  // Erase the even keys via iterators.
  for (auto it = map.begin(); it != map.end();) {
    if (it->first % 2 == 0) {
      it = map.erase(it);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(map.size(), 32u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(map.contains(i), i % 2 == 1);
}

// Regression for the tombstone-accounting latent bug: growth must trigger
// on (size + deleted), so an erase-heavy workload whose live size stays
// flat rehashes in place (purging tombstones) instead of letting deleted
// slots silently consume the table. Before the fix, this loop drove
// growth_left_ negative (wrapping, since it is unsigned) and probe chains
// degraded without bound.
TEST(FlatHashMapTest, TombstoneChurnStaysBounded) {
  FlatHashMap<uint64_t, uint64_t> map;
  map.reserve(256);
  const size_t capacity_after_reserve = map.capacity();
  Pcg32 rng(2012, /*stream=*/11);
  // 64 live keys, then ~200k insert/erase cycles of transient keys: far
  // more erases than any capacity's worth of slots.
  for (uint64_t k = 0; k < 64; ++k) map[k] = k;
  for (uint64_t cycle = 0; cycle < 200000; ++cycle) {
    uint64_t key = 1000 + rng.NextBounded(128);
    map[key] = cycle;
    EXPECT_EQ(map.erase(key), 1u);
    // The load-factor invariant must hold at every step: live entries plus
    // tombstones never exceed the 7/8 growth capacity.
    ASSERT_LE(map.size() + map.tombstones(), map.capacity() - map.capacity() / 8);
  }
  EXPECT_EQ(map.size(), 64u);
  // Churn with a flat live size must not have ballooned the table: the
  // in-place rehash purges tombstones instead of doubling.
  EXPECT_LE(map.capacity(), capacity_after_reserve * 2);
  for (uint64_t k = 0; k < 64; ++k) EXPECT_EQ(map.at(k), k);
}

// The SIMD group policies must be drop-in equivalent to the portable one:
// identical op results over a long random workload, whatever ISA this host
// compiled to (on SSE2/NEON hosts this pits GroupPortable against the
// vector path; on others it degenerates to self-comparison, still useful
// as an oracle run).
TEST(FlatHashMapTest, PortableGroupMatchesDefaultGroup) {
  FlatHashMap<uint64_t, uint64_t> simd;  // default Group for this build
  FlatHashMap<uint64_t, uint64_t, FlatHash, FlatEq,
              flat_internal::GroupPortable>
      portable;
  Pcg32 rng(777, /*stream=*/13);
  for (int step = 0; step < 100000; ++step) {
    uint64_t key = rng.NextBounded(2048);
    switch (rng.NextBounded(4)) {
      case 0:
      case 1: {
        uint64_t value = rng();
        simd[key] = value;
        portable[key] = value;
        break;
      }
      case 2:
        ASSERT_EQ(simd.erase(key), portable.erase(key));
        break;
      default: {
        auto simd_it = simd.find(key);
        auto portable_it = portable.find(key);
        ASSERT_EQ(simd_it == simd.end(), portable_it == portable.end());
        if (simd_it != simd.end()) {
          ASSERT_EQ(simd_it->second, portable_it->second);
        }
      }
    }
    ASSERT_EQ(simd.size(), portable.size());
  }
  for (const auto& [key, value] : portable) {
    auto it = simd.find(key);
    ASSERT_NE(it, simd.end());
    EXPECT_EQ(it->second, value);
  }
}

TEST(StringInternerTest, DenseFirstAppearanceIds) {
  StringInterner interner;
  EXPECT_EQ(interner.Intern("alpha"), 0u);
  EXPECT_EQ(interner.Intern("beta"), 1u);
  EXPECT_EQ(interner.Intern("alpha"), 0u);  // stable on re-intern
  EXPECT_EQ(interner.Intern(""), 2u);       // empty string is a valid entry
  EXPECT_EQ(interner.size(), 3u);
  EXPECT_EQ(interner.NameOf(0), "alpha");
  EXPECT_EQ(interner.NameOf(1), "beta");
  EXPECT_EQ(interner.NameOf(2), "");
  EXPECT_EQ(interner.Find("beta"), 1u);
  EXPECT_EQ(interner.Find("gamma"), kNoStringId);
}

TEST(StringInternerTest, ViewsStableAcrossArenaGrowth) {
  StringInterner interner;
  std::string_view first = interner.NameOf(interner.Intern("needle"));
  // Push enough bytes to force many new arena blocks.
  std::string big(50000, 'x');
  for (int i = 0; i < 40; ++i) {
    interner.Intern(big + std::to_string(i));
  }
  EXPECT_EQ(first, "needle");
  EXPECT_EQ(interner.Find("needle"), 0u);
}

TEST(StringInternerTest, CopyPreservesIds) {
  StringInterner interner;
  interner.Intern("a");
  interner.Intern("b");
  StringInterner copy = interner;
  interner.Intern("c");
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.Find("a"), 0u);
  EXPECT_EQ(copy.Find("b"), 1u);
  EXPECT_EQ(copy.Find("c"), kNoStringId);
  EXPECT_EQ(copy.Intern("c"), 2u);  // copy continues its own id space
}

trace::Trace MakeIndexedTrace() {
  trace::Trace trace;
  trace.mutable_metadata().name = "interner-test";
  Pcg32 rng(42, /*stream=*/5);
  for (uint64_t i = 0; i < 500; ++i) {
    trace::JobRecord job;
    job.job_id = i + 1;
    job.submit_time = static_cast<double>(rng.NextBounded(100000));
    job.name = "Job" + std::to_string(rng.NextBounded(40));
    job.input_bytes = 1e6;
    // Some jobs lack paths, exercising the kNoStringId branches; outputs
    // re-use the input namespace so path ids are shared.
    if (rng.NextBernoulli(0.8)) {
      job.input_path = "data/in" + std::to_string(rng.NextBounded(60));
    }
    if (rng.NextBernoulli(0.7)) {
      job.output_path = rng.NextBernoulli(0.3)
                            ? "data/in" + std::to_string(rng.NextBounded(60))
                            : "data/out" + std::to_string(rng.NextBounded(60));
    }
    trace.AddJob(std::move(job));
  }
  return trace;
}

TEST(TraceIndexTest, IdColumnsMatchJobStrings) {
  trace::Trace trace = MakeIndexedTrace();
  const auto& jobs = trace.jobs();  // EnsureSorted via accessor chain below
  const auto& input_ids = trace.input_path_ids();
  const auto& output_ids = trace.output_path_ids();
  const auto& name_ids = trace.name_ids();
  ASSERT_EQ(input_ids.size(), jobs.size());
  ASSERT_EQ(output_ids.size(), jobs.size());
  ASSERT_EQ(name_ids.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].input_path.empty()) {
      EXPECT_EQ(input_ids[i], kNoStringId);
    } else {
      EXPECT_EQ(trace.path_interner().NameOf(input_ids[i]),
                jobs[i].input_path);
    }
    if (jobs[i].output_path.empty()) {
      EXPECT_EQ(output_ids[i], kNoStringId);
    } else {
      EXPECT_EQ(trace.path_interner().NameOf(output_ids[i]),
                jobs[i].output_path);
    }
    EXPECT_EQ(trace.name_interner().NameOf(name_ids[i]), jobs[i].name);
  }
}

TEST(TraceIndexTest, IndexInvalidatedByMutation) {
  trace::Trace trace = MakeIndexedTrace();
  size_t paths_before = trace.path_interner().size();
  trace::JobRecord job;
  job.job_id = 9999;
  job.submit_time = 1e9;  // sorts last; earlier ids unchanged
  job.input_path = "data/brand-new-path";
  trace.AddJob(std::move(job));
  EXPECT_EQ(trace.path_interner().size(), paths_before + 1);
  EXPECT_NE(trace.path_interner().Find("data/brand-new-path"), kNoStringId);
}

/// Zipf-ish skew without float quantile tables: cubing a uniform variate
/// concentrates the mass near 0.
uint64_t SkewedKey(Pcg32& rng, uint64_t domain) {
  double u = static_cast<double>(rng.NextBounded(1u << 20)) /
             static_cast<double>(1u << 20);
  return static_cast<uint64_t>(u * u * u * static_cast<double>(domain));
}

/// 20k jobs with skewed, partly shared input/output paths and skewed names,
/// some fields missing: it spans several 4096-line CSV parse shards and
/// grows the interners' flat tables through several rehashes.
trace::Trace MakeLargeMixedTrace() {
  trace::Trace trace;
  trace.mutable_metadata().name = "interner-test-large";
  Pcg32 rng(2012, /*stream=*/9);
  for (uint64_t i = 0; i < 20000; ++i) {
    trace::JobRecord job;
    job.job_id = i + 1;
    job.submit_time = static_cast<double>(rng.NextBounded(1000000));
    job.input_bytes = 1e6;
    job.name = "Pipeline" + std::to_string(SkewedKey(rng, 200));
    if (rng.NextBernoulli(0.85)) {
      job.input_path = "data/in" + std::to_string(SkewedKey(rng, 3000));
    }
    if (rng.NextBernoulli(0.6)) {
      job.output_path =
          rng.NextBernoulli(0.3)
              ? "data/in" + std::to_string(SkewedKey(rng, 3000))
              : "data/out" + std::to_string(SkewedKey(rng, 3000));
    }
    trace.AddJob(std::move(job));
  }
  return trace;
}

void ExpectSameInterner(const StringInterner& a, const StringInterner& b) {
  ASSERT_EQ(a.size(), b.size());
  for (uint32_t id = 0; id < a.size(); ++id) {
    ASSERT_EQ(a.NameOf(id), b.NameOf(id)) << "id " << id;
  }
}

// Interner determinism across CSV-parse thread counts and build timing:
// ids are assigned from the submit-sorted job stream, so a lazy build after
// a serial parse and an eager build inside an 8-thread parse must give the
// same id columns and the same interners, entry by entry.
TEST(TraceIndexTest, DeterministicAcrossCsvParseThreads) {
  for (const trace::Trace& input :
       {MakeIndexedTrace(), MakeLargeMixedTrace()}) {
    SCOPED_TRACE(input.metadata().name);
    std::string csv = trace::TraceToCsv(input);

    auto lazy = trace::TraceFromCsv(csv, /*threads=*/1);
    ASSERT_TRUE(lazy.ok()) << lazy.status().message();
    trace::ParseOptions eager_options;
    eager_options.threads = 8;
    eager_options.warm_indexes = true;
    auto eager = trace::TraceFromCsv(csv, eager_options);
    ASSERT_TRUE(eager.ok()) << eager.status().message();
    ASSERT_EQ(lazy->size(), input.size());

    EXPECT_EQ(lazy->input_path_ids(), eager->input_path_ids());
    EXPECT_EQ(lazy->output_path_ids(), eager->output_path_ids());
    EXPECT_EQ(lazy->name_ids(), eager->name_ids());
    ExpectSameInterner(lazy->path_interner(), eager->path_interner());
    ExpectSameInterner(lazy->name_interner(), eager->name_interner());
  }
}

// Id stability round-trip: writing a trace to CSV and reading it back
// must reproduce the exact same id columns (the job stream order and
// therefore first-appearance order is preserved by the CSV format).
TEST(TraceIndexTest, IdsStableThroughCsvRoundTrip) {
  trace::Trace trace = MakeIndexedTrace();
  const auto input_ids = trace.input_path_ids();  // copy before round-trip
  const auto output_ids = trace.output_path_ids();
  const auto name_ids = trace.name_ids();

  auto round_tripped = trace::TraceFromCsv(trace::TraceToCsv(trace));
  ASSERT_TRUE(round_tripped.ok()) << round_tripped.status().message();
  EXPECT_EQ(round_tripped->input_path_ids(), input_ids);
  EXPECT_EQ(round_tripped->output_path_ids(), output_ids);
  EXPECT_EQ(round_tripped->name_ids(), name_ids);
}

}  // namespace
}  // namespace swim
