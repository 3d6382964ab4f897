#include "api/recommender_registry.h"

#include "common/string_util.h"

namespace recdb {

Result<Recommender*> RecommenderRegistry::Create(RecommenderConfig config) {
  auto rec = std::make_shared<Recommender>(std::move(config));
  RECDB_RETURN_NOT_OK(Adopt(rec));
  return rec.get();
}

Status RecommenderRegistry::Adopt(std::shared_ptr<Recommender> rec) {
  if (!recs_.emplace(ToLower(rec->name()), rec).second) {
    return Status::AlreadyExists("recommender " + rec->name() +
                                 " already exists");
  }
  return Status::OK();
}

Result<Recommender*> RecommenderRegistry::Get(const std::string& name) const {
  RECDB_ASSIGN_OR_RETURN(auto rec, GetShared(name));
  return rec.get();
}

Result<std::shared_ptr<Recommender>> RecommenderRegistry::GetShared(
    const std::string& name) const {
  auto it = recs_.find(ToLower(name));
  if (it == recs_.end()) {
    return Status::NotFound("no recommender named " + name);
  }
  return it->second;
}

Result<Recommender*> RecommenderRegistry::Find(
    const std::string& ratings_table, RecAlgorithm algorithm) const {
  for (const auto& [key, rec] : recs_) {
    (void)key;
    if (EqualsIgnoreCase(rec->config().ratings_table, ratings_table) &&
        rec->algorithm() == algorithm) {
      return rec.get();
    }
  }
  return Status::NotFound(
      std::string("no ") + RecAlgorithmToString(algorithm) +
      " recommender exists on table " + ratings_table +
      "; CREATE RECOMMENDER first");
}

std::vector<Recommender*> RecommenderRegistry::FindAllOnTable(
    const std::string& ratings_table) const {
  std::vector<Recommender*> out;
  for (const auto& [key, rec] : recs_) {
    (void)key;
    if (EqualsIgnoreCase(rec->config().ratings_table, ratings_table)) {
      out.push_back(rec.get());
    }
  }
  return out;
}

Status RecommenderRegistry::Drop(const std::string& name) {
  auto it = recs_.find(ToLower(name));
  if (it == recs_.end()) {
    return Status::NotFound("no recommender named " + name);
  }
  recs_.erase(it);
  return Status::OK();
}

std::vector<std::string> RecommenderRegistry::Names() const {
  std::vector<std::string> out;
  out.reserve(recs_.size());
  for (const auto& [key, rec] : recs_) {
    (void)key;
    out.push_back(rec->name());
  }
  return out;
}

}  // namespace recdb
