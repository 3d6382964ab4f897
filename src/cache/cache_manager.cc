#include "cache/cache_manager.h"

#include <algorithm>
#include <set>

#include "common/task_scheduler.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace recdb {

void CacheManager::RecordQuery(int64_t user_id) {
  auto& s = users_[user_id];
  ++s.query_count;
  ++s.window_query_count;
  s.last_query_ts = clock_->Now();
  obs::Count(obs::Counter::kCacheQueriesRecorded);
}

void CacheManager::RecordUpdate(int64_t item_id) {
  auto& s = items_[item_id];
  ++s.update_count;
  ++s.window_update_count;
  s.last_update_ts = clock_->Now();
  obs::Count(obs::Counter::kCacheUpdatesRecorded);
}

void CacheManager::NotifyInvalidated(
    const std::vector<std::pair<int64_t, int64_t>>& pairs) {
  for (const auto& pair : pairs) {
    if (OwnsUser(pair.first)) invalidated_.insert(pair);
  }
}

const UserStats* CacheManager::GetUserStats(int64_t user_id) const {
  auto it = users_.find(user_id);
  return it == users_.end() ? nullptr : &it->second;
}

const ItemStats* CacheManager::GetItemStats(int64_t item_id) const {
  auto it = items_.find(item_id);
  return it == items_.end() ? nullptr : &it->second;
}

double CacheManager::Hotness(int64_t user_id, int64_t item_id) const {
  if (max_demand_ <= 0 || max_consumption_ <= 0) return 0;
  const UserStats* u = GetUserStats(user_id);
  const ItemStats* i = GetItemStats(item_id);
  if (u == nullptr || i == nullptr) return 0;
  return (u->demand_rate / max_demand_) *
         (i->consumption_rate / max_consumption_);
}

Result<CacheDecision> CacheManager::Run() {
  if (rec_->model() == nullptr) {
    return Status::ExecutionError(
        "cache manager requires an initialized recommender");
  }
  Stopwatch run_watch;
  // Pairs that moved from cold to hot this run (the reverse direction is
  // every eviction, by definition).
  uint64_t crossings_up = 0;
  const double now = clock_->Now();
  const double window = std::max(now - last_run_ts_, 1e-9);

  // STEP 1: windowed rates. Every tracked user/item gets its rate
  // recomputed from this window's activity alone — a quiet window drives
  // the rate to zero instead of letting a stale lifetime average linger —
  // and the maxima are recomputed from scratch so they can decrease when
  // the former peak user or item cools off.
  std::vector<int64_t> active_users, active_items;
  max_demand_ = 0;
  for (auto& [uid, s] : users_) {
    s.demand_rate = static_cast<double>(s.window_query_count) / window;
    if (s.window_query_count > 0) active_users.push_back(uid);
    s.window_query_count = 0;
    max_demand_ = std::max(max_demand_, s.demand_rate);
  }
  max_consumption_ = 0;
  for (auto& [iid, s] : items_) {
    s.consumption_rate = static_cast<double>(s.window_update_count) / window;
    if (s.window_update_count > 0) active_items.push_back(iid);
    s.window_update_count = 0;
    max_consumption_ = std::max(max_consumption_, s.consumption_rate);
  }
  last_run_ts_ = now;
  // Sorted so admission/eviction order (and Predict batching) is stable
  // regardless of hash-map iteration order.
  std::sort(active_users.begin(), active_users.end());
  std::sort(active_items.begin(), active_items.end());

  // STEP 2: hotness decision for every (active user, active item) pair.
  // Admissions are collected first, their scores predicted as one parallel
  // batch (Predict is a const read of the model), then inserted serially.
  CacheDecision decision;
  const RecModel* model = rec_->model();
  const RatingMatrix& snapshot = model->ratings();
  RecScoreIndex* index = rec_->score_index();
  std::set<std::pair<int64_t, int64_t>> examined;
  for (int64_t uid : active_users) {
    for (int64_t iid : active_items) {
      if (snapshot.Get(uid, iid).has_value()) continue;  // seen items skip
      examined.emplace(uid, iid);
      double hot = Hotness(uid, iid);
      if (hot >= threshold_) {
        if (!index->GetScore(uid, iid).has_value()) ++crossings_up;
        decision.admitted.emplace_back(uid, iid);
      } else if (index->GetScore(uid, iid).has_value()) {
        index->Erase(uid, iid);
        decision.evicted.emplace_back(uid, iid);
      }
    }
  }
  // STEP 2.5: lazy re-materialization (PR 7). Pairs evicted by ingest
  // invalidation since the last run get one hotness re-check under the
  // fresh windowed rates: still-hot pairs are re-admitted (scored with the
  // current merge-view matrix), cold ones stay out. Pairs the active×active
  // pass already decided are skipped; seen pairs never re-materialize.
  for (const auto& pair : invalidated_) {
    const auto& [uid, iid] = pair;
    if (examined.count(pair) > 0) continue;
    if (snapshot.Get(uid, iid).has_value()) continue;
    if (Hotness(uid, iid) >= threshold_) {
      if (!index->GetScore(uid, iid).has_value()) ++crossings_up;
      decision.admitted.emplace_back(uid, iid);
      examined.insert(pair);
    }
  }
  invalidated_.clear();

  // Admitted pairs are grouped by user (the STEP 2 loops run user-major
  // over sorted ids), so each morsel decomposes into per-user runs that
  // score through one PredictBatch each. A morsel boundary can split a run
  // in two; that cannot change results because every score depends only on
  // its own (user, item) pair.
  std::vector<double> scores(decision.admitted.size(), 0.0);
  TaskScheduler& sched = TaskScheduler::Global();
  const size_t morsel = std::clamp<size_t>(
      scores.size() / (sched.num_threads() * 4), 16, 4096);
  sched.ParallelFor(scores.size(), morsel, [&](size_t begin, size_t end) {
    std::vector<int64_t> run_items;
    size_t p = begin;
    while (p < end) {
      const int64_t uid = decision.admitted[p].first;
      size_t q = p;
      run_items.clear();
      while (q < end && decision.admitted[q].first == uid) {
        run_items.push_back(decision.admitted[q].second);
        ++q;
      }
      model->PredictBatch(uid, run_items,
                          std::span<double>(scores.data() + p, q - p));
      p = q;
    }
  });
  for (size_t i = 0; i < decision.admitted.size(); ++i) {
    const auto& [uid, iid] = decision.admitted[i];
    index->Put(uid, iid, scores[i]);
  }

  // STEP 3: stale sweep. Materialized entries whose user or item went
  // quiet are invisible to the active×active pass above, so their hotness
  // is re-evaluated here under the fresh windowed rates. A fully idle
  // window is skipped: it carries no evidence about any pair.
  if (!active_users.empty() || !active_items.empty()) {
    std::vector<std::pair<int64_t, int64_t>> stale;
    index->ForEach([&](int64_t uid, int64_t iid, double /*score*/) {
      if (!OwnsUser(uid)) return;  // another shard's manager decides it
      if (examined.count({uid, iid}) > 0) return;  // decided in STEP 2
      if (Hotness(uid, iid) < threshold_) stale.emplace_back(uid, iid);
    });
    std::sort(stale.begin(), stale.end());
    for (const auto& [uid, iid] : stale) {
      index->Erase(uid, iid);
      decision.evicted.emplace_back(uid, iid);
    }
  }
  obs::Count(obs::Counter::kCacheRuns);
  obs::Count(obs::Counter::kCacheAdmissions, decision.admitted.size());
  obs::Count(obs::Counter::kCacheEvictions, decision.evicted.size());
  obs::Count(obs::Counter::kCacheHotnessCrossings,
             crossings_up + decision.evicted.size());
  obs::ObserveUs(obs::Histogram::kCacheRunUs,
                 static_cast<uint64_t>(run_watch.ElapsedSeconds() * 1e6));
  return decision;
}

}  // namespace recdb
