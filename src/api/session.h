// Session: a per-caller handle onto a shared RecDB for concurrent use.
//
//   auto db = RecDB::Open("ratings.db").value();
//   auto s1 = db->CreateSession();   // e.g. an ingest thread
//   auto s2 = db->CreateSession();   // e.g. a serving thread
//   // s1 and s2 may Execute() concurrently from different threads.
//
// Sessions carry no transactional state; they are named endpoints into the
// database's reader-writer discipline (see RecDB::Execute): SELECT/EXPLAIN
// scripts from any number of sessions run concurrently under the shared
// lock, mutating scripts serialize under the exclusive lock, and WAL group
// commit happens outside both — so one session's INSERT fsync never blocks
// another session's RECOMMEND scan.
//
// An INSERT/DELETE on a ratings table is the online-ingest path: after the
// heap write is WAL-logged, the statement lands the rating in each mapped
// recommender's live rows (no model retrain, no CSR invalidation) and,
// past the refresh trigger, hands the merge to the background re-freeze
// lane — concurrent RECOMMENDs keep scoring through the row view the
// whole time (DESIGN.md §12).
//
// A Session must not outlive its RecDB. Each session is itself single-
// threaded (use one session per thread); the `session.*` metrics in
// docs/OPERATIONS.md track the open population and statement volume.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "api/recdb.h"

namespace recdb {

class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parse and execute a script under the database's reader-writer
  /// discipline; returns the last statement's result.
  Result<ResultSet> Execute(const std::string& sql);

  /// Plan a SELECT without executing (EXPLAIN).
  Result<std::string> Explain(const std::string& sql);

  /// Identifier unique within the owning RecDB (1-based, creation order).
  uint64_t id() const { return id_; }

  /// Scripts executed through this session so far.
  uint64_t statements() const { return statements_.load(); }

  /// The shared database this session is a handle onto.
  RecDB* db() const { return db_; }

 private:
  friend class RecDB;
  Session(RecDB* db, uint64_t id);

  RecDB* db_;
  uint64_t id_;
  std::atomic<uint64_t> statements_{0};
};

}  // namespace recdb
