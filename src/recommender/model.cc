#include "recommender/model.h"

namespace recdb {

void RecModel::PredictBatch(int64_t user_id, std::span<const int64_t> items,
                            std::span<double> out) const {
  RECDB_DCHECK(items.size() == out.size());
  const int32_t u = ratings_->UserIndex(user_id).value_or(-1);
  thread_local std::vector<int32_t> idx;
  idx.resize(items.size());
  for (size_t k = 0; k < items.size(); ++k) {
    idx[k] = ratings_->ItemIndex(items[k]).value_or(-1);
  }
  PredictBatchByIndex(u, idx, out);
}

}  // namespace recdb
