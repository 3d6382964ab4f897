// Registry of recommenders created via CREATE RECOMMENDER.
//
// The paper's query model: a RECOMMEND clause names a ratings table and an
// algorithm; the engine locates the recommender that was created on that
// table with that algorithm (e.g. Query 2 "figures that an ItemCosCF
// recommender, i.e. GeneralRec, is already created"). Entries are shared:
// the shards of one ShardedRecDB all register the same Recommender object.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "recommender/recommender.h"

namespace recdb {

class RecommenderRegistry {
 public:
  /// Register a recommender; AlreadyExists on duplicate name.
  Result<Recommender*> Create(RecommenderConfig config);

  /// Register an existing recommender (built elsewhere, possibly held by
  /// other registries too); AlreadyExists on duplicate name.
  Status Adopt(std::shared_ptr<Recommender> rec);

  /// Look up by name (case-insensitive).
  Result<Recommender*> Get(const std::string& name) const;
  Result<std::shared_ptr<Recommender>> GetShared(const std::string& name) const;

  /// Locate the recommender built on `ratings_table` with `algorithm`
  /// (the RECOMMEND clause's resolution rule). NotFound when absent.
  Result<Recommender*> Find(const std::string& ratings_table,
                            RecAlgorithm algorithm) const;

  /// All recommenders whose source is `ratings_table` (insert fan-out).
  std::vector<Recommender*> FindAllOnTable(
      const std::string& ratings_table) const;

  Status Drop(const std::string& name);

  std::vector<std::string> Names() const;
  size_t Count() const { return recs_.size(); }

 private:
  std::unordered_map<std::string, std::shared_ptr<Recommender>> recs_;
};

}  // namespace recdb
