#include "recommender/model.h"

#include "recommender/cf_model.h"
#include "recommender/svd_model.h"

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

std::unique_ptr<RecModel> BuildRecModel(RecAlgorithm algorithm,
                                        std::shared_ptr<RatingMatrix> ratings,
                                        const SimilarityOptions& sim_opts,
                                        const SvdOptions& svd_opts) {
  switch (algorithm) {
    case RecAlgorithm::kItemCosCF:
    case RecAlgorithm::kItemPearCF:
      return ItemCFModel::Build(std::move(ratings),
                                algorithm == RecAlgorithm::kItemPearCF,
                                sim_opts);
    case RecAlgorithm::kUserCosCF:
    case RecAlgorithm::kUserPearCF:
      return UserCFModel::Build(std::move(ratings),
                                algorithm == RecAlgorithm::kUserPearCF,
                                sim_opts);
    case RecAlgorithm::kSVD:
      return SvdModel::Build(std::move(ratings), svd_opts);
  }
  return nullptr;
}

}  // namespace recdb
