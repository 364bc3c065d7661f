/// Cooperative cancellation: CancelToken semantics, and the engine's
/// Checked entry points under deadlines — for EVERY cascade composition,
/// an expired deadline yields kDeadlineExceeded and a racing deadline
/// yields either kDeadlineExceeded or the exact answer, never a partial
/// result presented as exact (the ISSUE 6 honesty rule at engine level).

#include "src/core/cancel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/core/flat_dataset.h"
#include "src/core/status.h"
#include "src/datasets/synthetic.h"
#include "src/search/engine.h"
#include "tests/testing/compositions.h"

namespace rotind {
namespace {

using std::chrono::steady_clock;
using testing::Composition;

TEST(CancelTokenTest, DefaultTokenNeverFires) {
  const CancelToken token;
  EXPECT_TRUE(token.Check().ok());
  EXPECT_FALSE(token.Fired());
}

TEST(CancelTokenTest, ExpiredDeadlineFiresTyped) {
  const CancelToken token = CancelToken::WithDeadline(
      steady_clock::now() - std::chrono::milliseconds(1));
  const Status s = token.Check();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(token.Fired());
}

TEST(CancelTokenTest, FutureDeadlinePassesThenExpires) {
  const CancelToken token =
      CancelToken::WithTimeout(std::chrono::milliseconds(5));
  EXPECT_TRUE(token.Check().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, LocalCancelFiresTyped) {
  CancelToken token;
  token.Cancel();
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, KillSwitchFiresTyped) {
  std::atomic<bool> kill{false};
  CancelToken token;
  token.AttachKillSwitch(&kill);
  EXPECT_TRUE(token.Check().ok());
  kill.store(true);
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, DeadlineWinsOverCancel) {
  // A query that is both expired and cancelled reports the deadline: the
  // caller set it first and it is the actionable signal (retry budget).
  CancelToken token = CancelToken::WithDeadline(
      steady_clock::now() - std::chrono::milliseconds(1));
  token.Cancel();
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
}

/// Every cascade composition the engine supports, exercised below under
/// deadlines over the fixture's series of length 48. The filter is
/// per-measure normalized, so the vecsig entries only differ from their
/// suffix under kEuclidean — which the fixture uses (and where
/// kSignatureIndex walks its VP-tree). At 24 = n/2 dims the filter is the
/// FFT-magnitude bound.
std::vector<Composition> AllCascades() {
  return {
      {{StageKind::kWedge}},
      {{StageKind::kExactScan}},
      {{StageKind::kFullScan}},
      {{StageKind::kFullScanBanded}},
      {{StageKind::kVecSignature, StageKind::kWedge}, 24},
      {{StageKind::kVecSignature, StageKind::kExactScan}, 24},
      {{StageKind::kVecSignature, StageKind::kWedge}},
      {{StageKind::kVecSignature, StageKind::kExactScan}},
      {{StageKind::kSignatureIndex, StageKind::kWedge}},
      {{StageKind::kSignatureIndex, StageKind::kExactScan}},
  };
}

class DeadlineCascadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::vector<Series> items =
        MakeProjectilePointsDatabase(60, 48, 311);
    flat_ = FlatDataset::FromItems(items);
    query_.assign(flat_.data(7), flat_.data(7) + flat_.length());
  }

  QueryEngine Engine(const Composition& cascade) const {
    return QueryEngine(flat_, cascade.Into({}));
  }

  FlatDataset flat_;
  Series query_;
};

TEST_F(DeadlineCascadeTest, ExpiredDeadlineIsTypedForEveryCascade) {
  for (const Composition& cascade : AllCascades()) {
    const QueryEngine engine = Engine(cascade);
    const CancelToken expired = CancelToken::WithDeadline(
        steady_clock::now() - std::chrono::milliseconds(1));

    const auto nn = engine.SearchChecked(query_, &expired);
    ASSERT_FALSE(nn.ok());
    EXPECT_EQ(nn.status().code(), StatusCode::kDeadlineExceeded);

    const auto knn = engine.KnnChecked(query_, 3, nullptr, &expired);
    ASSERT_FALSE(knn.ok());
    EXPECT_EQ(knn.status().code(), StatusCode::kDeadlineExceeded);

    const auto range =
        engine.RangeChecked(query_, 2.0, nullptr, &expired);
    ASSERT_FALSE(range.ok());
    EXPECT_EQ(range.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST_F(DeadlineCascadeTest, GenerousDeadlineMatchesUncheckedExactly) {
  for (const Composition& cascade : AllCascades()) {
    const QueryEngine engine = Engine(cascade);
    const ScanResult truth = engine.Search(query_);
    const CancelToken token =
        CancelToken::WithTimeout(std::chrono::seconds(30));
    const auto checked = engine.SearchChecked(query_, &token);
    ASSERT_TRUE(checked.ok()) << checked.status().message();
    EXPECT_EQ(checked->best_index, truth.best_index);
    EXPECT_EQ(checked->best_distance, truth.best_distance);
  }
}

/// The core honesty property: sweep deadlines from "hopeless" to
/// "comfortable". Whatever the race outcome at each point, the result is
/// either the typed deadline error or the bit-exact answer — a partial
/// scan must never leak out as a result. Each deadline races a FRESH
/// engine: an in-memory vec-signature engine builds its signature rows on
/// its first query, so the token must meet that build too, and an
/// unchecked query on the same engine afterwards must still be exact.
TEST_F(DeadlineCascadeTest, RacingDeadlineNeverYieldsAWrongNeighbor) {
  const auto expect_same = [](const std::vector<Neighbor>& got,
                              const std::vector<Neighbor>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].index, want[i].index);
      EXPECT_EQ(got[i].distance, want[i].distance);
    }
  };
  for (const Composition& cascade : AllCascades()) {
    const ScanResult nn_truth = Engine(cascade).Search(query_);
    const std::vector<Neighbor> knn_truth = Engine(cascade).Knn(query_, 4);
    for (const std::int64_t micros : {0, 1, 5, 20, 100, 1000, 5000000}) {
      const QueryEngine nn_engine = Engine(cascade);
      const CancelToken token =
          CancelToken::WithTimeout(std::chrono::microseconds(micros));
      const auto nn = nn_engine.SearchChecked(query_, &token);
      if (nn.ok()) {
        EXPECT_EQ(nn->best_index, nn_truth.best_index);
        EXPECT_EQ(nn->best_distance, nn_truth.best_distance);
      } else {
        EXPECT_EQ(nn.status().code(), StatusCode::kDeadlineExceeded);
      }
      const ScanResult nn_after = nn_engine.Search(query_);
      EXPECT_EQ(nn_after.best_index, nn_truth.best_index);
      EXPECT_EQ(nn_after.best_distance, nn_truth.best_distance);

      const QueryEngine knn_engine = Engine(cascade);
      const CancelToken token2 =
          CancelToken::WithTimeout(std::chrono::microseconds(micros));
      const auto knn = knn_engine.KnnChecked(query_, 4, nullptr, &token2);
      if (knn.ok()) {
        expect_same(*knn, knn_truth);
      } else {
        EXPECT_EQ(knn.status().code(), StatusCode::kDeadlineExceeded);
      }
      expect_same(knn_engine.Knn(query_, 4), knn_truth);
    }
  }
}

TEST_F(DeadlineCascadeTest, KillSwitchCancelsEveryCascade) {
  std::atomic<bool> kill{true};
  for (const Composition& cascade : AllCascades()) {
    const QueryEngine engine = Engine(cascade);
    CancelToken token;
    token.AttachKillSwitch(&kill);
    const auto nn = engine.SearchChecked(query_, &token);
    ASSERT_FALSE(nn.ok());
    EXPECT_EQ(nn.status().code(), StatusCode::kCancelled);
  }
}

/// Concurrent kill-switch flip while a query is in flight (the drain
/// path's hard-cancel). Run under TSan in CI: the only shared state is
/// the atomic. The result is the exact answer or kCancelled; the flip
/// must never corrupt it.
TEST_F(DeadlineCascadeTest, MidFlightKillSwitchIsExactOrCancelled) {
  const QueryEngine engine = Engine({{StageKind::kWedge}});
  const ScanResult truth = engine.Search(query_);
  for (int round = 0; round < 8; ++round) {
    std::atomic<bool> kill{false};
    CancelToken token;
    token.AttachKillSwitch(&kill);
    StatusOr<ScanResult> result = Status::Internal("not run");
    std::thread worker([&] { result = engine.SearchChecked(query_, &token); });
    kill.store(true);
    worker.join();
    if (result.ok()) {
      EXPECT_EQ(result->best_index, truth.best_index);
      EXPECT_EQ(result->best_distance, truth.best_distance);
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    }
  }
}

TEST_F(DeadlineCascadeTest, NullTokenMeansNoCancellationOverhead) {
  const QueryEngine engine = Engine({{StageKind::kWedge}});
  const ScanResult truth = engine.Search(query_);
  const auto checked = engine.SearchChecked(query_, nullptr);
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(checked->best_index, truth.best_index);
  EXPECT_EQ(checked->best_distance, truth.best_distance);
}

}  // namespace
}  // namespace rotind
