// recdb_shell: an interactive SQL shell over the recdb engine.
//
//   ./build/examples/recdb_shell            # empty database
//   ./build/examples/recdb_shell ml         # preloaded MovieLens dataset
//   ./build/examples/recdb_shell ldos|yelp  # other paper datasets
//
// Meta-commands:  \tables  \recommenders  \stats  \metrics  \trace  \timing
//                 \help  \q
// Everything else is executed as SQL (multi-line; terminate with ';').
#include <cstdio>
#include <iostream>
#include <string>

#include "api/recdb.h"
#include "common/task_scheduler.h"
#include "common/string_util.h"
#include "datagen/datagen.h"
#include "obs/metrics.h"

using recdb::RecDB;

namespace {

void PrintHelp() {
  std::printf(
      "recdb shell — statements end with ';'. SQL:\n"
      "  CREATE TABLE t (col TYPE, ...)        DROP TABLE t\n"
      "  INSERT INTO t VALUES (...), (...)     DELETE FROM t [WHERE ...]\n"
      "  UPDATE t SET col = expr [WHERE ...]\n"
      "  CREATE RECOMMENDER r ON t USERS FROM u ITEMS FROM i RATINGS FROM v\n"
      "      [USING ItemCosCF|ItemPearCF|UserCosCF|UserPearCF|SVD]\n"
      "  DROP RECOMMENDER r\n"
      "  SELECT ... FROM ratings AS R\n"
      "      RECOMMEND R.iid TO R.uid ON R.ratingval USING <algo>\n"
      "      [WHERE ...] [GROUP BY ...] [ORDER BY ...] [LIMIT n]\n"
      "  EXPLAIN [ANALYZE] SELECT ...  (ANALYZE also executes: est= vs act=)\n"
      "  ANALYZE [t]                  (collect planner statistics; all tables\n"
      "                                when no table is named)\n"
      "  SET parallelism = N          (worker threads for scoring/builds)\n"
      "  SET trace = on|off           (record a span tree per query; view\n"
      "                                with \\trace)\n"
      "  SET maintenance = manual|inline|background\n"
      "                               (what a write does once a recommender's\n"
      "                                delta reaches its N%% threshold)\n"
      "meta: \\tables \\recommenders \\stats \\metrics [all] \\trace \\timing\n"
      "      \\help \\q\n");
}

}  // namespace

int main(int argc, char** argv) {
  RecDB db;
  bool timing = true;
  // Session totals for the batch scoring layer (summed over statements).
  unsigned long long predictions = 0;
  unsigned long long predict_batches = 0;

  if (argc > 1) {
    std::string which = argv[1];
    recdb::datagen::DatasetSpec spec;
    if (which == "ml") {
      spec = recdb::datagen::DatasetSpec::MovieLens100K();
    } else if (which == "ldos") {
      spec = recdb::datagen::DatasetSpec::LdosComoda();
    } else if (which == "yelp") {
      spec = recdb::datagen::DatasetSpec::Yelp();
    } else {
      std::fprintf(stderr, "unknown dataset '%s' (ml|ldos|yelp)\n",
                   which.c_str());
      return 1;
    }
    std::printf("loading %s ...\n", which.c_str());
    auto ds = recdb::datagen::LoadDataset(&db, spec);
    if (!ds.ok()) {
      std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
      return 1;
    }
    std::printf("tables: %s, %s, %s — create a recommender to start, e.g.\n"
                "  CREATE RECOMMENDER rec ON %s USERS FROM uid ITEMS FROM "
                "iid RATINGS FROM ratingval USING ItemCosCF;\n",
                ds.value().users_table.c_str(), ds.value().items_table.c_str(),
                ds.value().ratings_table.c_str(),
                ds.value().ratings_table.c_str());
  }
  PrintHelp();

  std::string buffer;
  std::string line;
  std::printf("recdb> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    std::string trimmed = recdb::Trim(line);
    if (buffer.empty() && !trimmed.empty() && trimmed[0] == '\\') {
      if (trimmed == "\\q" || trimmed == "\\quit") break;
      if (trimmed == "\\help") {
        PrintHelp();
      } else if (trimmed == "\\tables") {
        for (const auto& name : db.catalog()->TableNames()) {
          auto t = db.catalog()->GetTable(name);
          std::printf("  %s (%s) — %zu rows\n", name.c_str(),
                      t.value()->schema.ToString().c_str(),
                      t.value()->heap->num_tuples());
        }
      } else if (trimmed == "\\recommenders") {
        for (const auto& name : db.registry()->Names()) {
          auto r = db.registry()->Get(name);
          const auto& cfg = r.value()->config();
          std::printf("  %s: %s on %s (%zu ratings in model, %zu pending)\n",
                      name.c_str(), RecAlgorithmToString(cfg.algorithm),
                      cfg.ratings_table.c_str(), r.value()->base_size(),
                      r.value()->live().delta_size());
        }
      } else if (trimmed == "\\stats") {
        std::printf("  disk pages: %zu, reads: %llu, writes: %llu\n",
                    db.disk()->NumPages(),
                    static_cast<unsigned long long>(db.disk()->num_reads()),
                    static_cast<unsigned long long>(db.disk()->num_writes()));
        std::printf("  buffer pool: %zu pages, hits: %llu, misses: %llu\n",
                    db.buffer_pool()->pool_size(),
                    static_cast<unsigned long long>(db.buffer_pool()->hits()),
                    static_cast<unsigned long long>(
                        db.buffer_pool()->misses()));
        std::printf(
            "  io faults: %llu read failures, %llu write failures, "
            "%llu retries, %llu checksum failures\n",
            static_cast<unsigned long long>(db.disk()->num_read_failures()),
            static_cast<unsigned long long>(db.disk()->num_write_failures()),
            static_cast<unsigned long long>(db.disk()->num_retries()),
            static_cast<unsigned long long>(
                db.disk()->num_checksum_failures()));
        recdb::TaskScheduler& sched = recdb::TaskScheduler::Global();
        std::printf(
            "  scheduler: %zu threads, %llu morsels run, %.2f ms worker "
            "time\n",
            sched.num_threads(),
            static_cast<unsigned long long>(sched.total_tasks()),
            sched.total_worker_ms());
        std::printf("  scoring: %llu predictions in %llu batches\n",
                    predictions, predict_batches);
      } else if (trimmed == "\\metrics" || trimmed == "\\metrics all") {
        // `\metrics` hides zero-valued entries; `\metrics all` shows every
        // metric in the registry (the full inventory of metric_names.h).
        bool only_nonzero = trimmed == "\\metrics";
        std::printf("%s", recdb::obs::MetricsRegistry::Global()
                              .ToTable(only_nonzero)
                              .c_str());
      } else if (trimmed == "\\trace") {
        const std::string trace = db.last_trace();
        if (trace.empty()) {
          std::printf("no trace recorded — run SET trace = on; then a query\n");
        } else {
          std::printf("%s", trace.c_str());
        }
      } else if (trimmed == "\\timing") {
        timing = !timing;
        std::printf("timing %s\n", timing ? "on" : "off");
      } else {
        std::printf("unknown meta-command %s (try \\help)\n", trimmed.c_str());
      }
      std::printf("recdb> ");
      std::fflush(stdout);
      continue;
    }

    buffer += line;
    buffer += "\n";
    if (trimmed.empty() || trimmed.back() != ';') {
      std::printf(buffer.empty() ? "recdb> " : "   ...> ");
      std::fflush(stdout);
      continue;
    }

    auto result = db.Execute(buffer);
    buffer.clear();
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
    } else {
      const auto& rs = result.value();
      predictions += rs.stats.predictions;
      predict_batches += rs.stats.predict_batches;
      if (!rs.columns.empty()) {
        std::printf("%s(%zu rows", rs.ToString(40).c_str(), rs.NumRows());
        if (timing) std::printf(", %.3f ms", rs.elapsed_seconds * 1e3);
        std::printf(")\n");
      } else if (!rs.message.empty()) {
        std::printf("%s\n", rs.message.c_str());
      }
    }
    std::printf("recdb> ");
    std::fflush(stdout);
  }
  std::printf("\nbye\n");
  return 0;
}
