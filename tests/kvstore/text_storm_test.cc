// Read/replace storm on the TEXT island. Four readers run the three
// searches and the D4M term x document shim while one writer keeps
// replacing documents between two versions (and adds new ones). A
// replacement is one exclusive write, so every hit's owner and score,
// and every document's column in the D4M view, must come from a single
// version of that document, and no reader may see a document without its
// postings. Labelled tier1, so check.sh also runs it under TSan and ASan.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/bigdawg.h"
#include "core/catalog.h"
#include "kvstore/text_store.h"

namespace bigdawg::kvstore {
namespace {

constexpr int kDocs = 48;

std::string Repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

/// The two versions of document i: owner, "very sick" count, and the
/// extra term each carries.
struct Version {
  std::string owner;
  int64_t phrases;
  std::string extra;
};

Version VersionOf(int i, int v) {
  if (v == 0) return {"a" + std::to_string(i), 1 + i % 3, "stable"};
  return {"b" + std::to_string(i), 4 + i % 2, "rhythm"};
}

std::string TextOf(const Version& version) {
  return Repeat("Very sick. ", static_cast<int>(version.phrases)) + version.extra;
}

int DocIndex(const std::string& doc_id) { return std::stoi(doc_id.substr(1)); }

/// Which version (0 or 1) of document `doc_id` has this owner and score
/// (`per_phrase` score units per "very sick"); -1 when neither does.
int MatchingVersion(const std::string& doc_id, const std::string& owner, int64_t score,
                    int64_t per_phrase) {
  const int i = DocIndex(doc_id);
  for (int v = 0; v < 2; ++v) {
    const Version version = VersionOf(i, v);
    if (owner == version.owner && score == per_phrase * version.phrases) return v;
  }
  return -1;
}

TEST(TextStormTest, ReadersSeeEveryDocumentInOneVersion) {
  core::BigDawg dawg;
  // Replacements bump no catalog version, so the D4M view must be read
  // from the store each time.
  dawg.cast_cache().SetEnabled(false);
  TextStore& text = dawg.accumulo();
  for (int i = 0; i < kDocs; ++i) {
    BIGDAWG_CHECK_OK(text.AddDocument("d" + std::to_string(i), VersionOf(i, 0).owner,
                                      TextOf(VersionOf(i, 0))));
  }
  BIGDAWG_CHECK_OK(dawg.RegisterObject("notes", core::kEngineAccumulo, "notes"));

  constexpr int kReplacements = 600;
  constexpr int kNewDocs = 40;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int64_t> reads{0};
  auto fail = [&failures](const std::string& what) {
    if (failures.fetch_add(1) < 5) ADD_FAILURE() << what;
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      for (int round = 0; !done.load() || round < 2; ++round) {
        switch ((r + round) % 4) {
          case 0: {
            const std::vector<DocMatch> hits = text.SearchAllTerms({"very", "sick"});
            if (hits.size() != kDocs) fail("search saw " + std::to_string(hits.size()) + " docs");
            for (const DocMatch& m : hits) {
              if (MatchingVersion(m.doc_id, m.owner, m.score, 2) < 0) {
                fail("search hit " + m.doc_id + " owner " + m.owner + " score " +
                     std::to_string(m.score));
              }
            }
            break;
          }
          case 1: {
            const std::vector<DocMatch> hits = text.SearchPhrase("very sick");
            if (hits.size() != kDocs) fail("phrase saw " + std::to_string(hits.size()) + " docs");
            for (const DocMatch& m : hits) {
              if (MatchingVersion(m.doc_id, m.owner, m.score, 1) < 0) {
                fail("phrase hit " + m.doc_id + " owner " + m.owner + " score " +
                     std::to_string(m.score));
              }
            }
            break;
          }
          case 2: {
            // Each document has exactly one owner, seen once.
            std::map<int, int> owners_of;
            for (const auto& [owner, count] : text.OwnersWithPhraseCount("very sick", 1)) {
              if (count != 1) fail("owner " + owner + " has " + std::to_string(count) + " docs");
              ++owners_of[std::stoi(owner.substr(1))];
            }
            if (owners_of.size() != kDocs) fail("owners cover " + std::to_string(owners_of.size()));
            for (const auto& [i, n] : owners_of) {
              if (n != 1) fail("document " + std::to_string(i) + " has " + std::to_string(n) + " owners");
            }
            (void)text.num_documents();
            break;
          }
          default: {
            Result<d4m::AssocArray> view = dawg.FetchAsAssoc("notes");
            if (!view.ok()) {
              fail(view.status().ToString());
              break;
            }
            // doc -> term -> tf
            std::map<std::string, std::map<std::string, double>> columns;
            view->ForEach([&columns](const std::string& term, const std::string& doc,
                                     const Value& tf) {
              if (doc[0] == 'd') columns[doc][term] = *tf.ToNumeric();
            });
            if (columns.size() != kDocs) fail("shim saw " + std::to_string(columns.size()));
            for (const auto& [doc, terms] : columns) {
              bool matched = false;
              for (int v = 0; v < 2; ++v) {
                const Version version = VersionOf(DocIndex(doc), v);
                const double n = static_cast<double>(version.phrases);
                matched = matched || terms == std::map<std::string, double>{
                                                 {"very", n}, {"sick", n}, {version.extra, 1}};
              }
              if (!matched) fail("shim column of " + doc + " mixes versions");
            }
            break;
          }
        }
        reads.fetch_add(1);
      }
    });
  }

  std::thread writer([&] {
    for (int k = 0; k < kReplacements; ++k) {
      const int i = (k * 7) % kDocs;
      const Version version = VersionOf(i, (k / kDocs + 1) % 2);
      BIGDAWG_CHECK_OK(text.AddDocument("d" + std::to_string(i), version.owner, TextOf(version)));
      if (k % (kReplacements / kNewDocs) == 0 && k / (kReplacements / kNewDocs) < kNewDocs) {
        BIGDAWG_CHECK_OK(text.AddDocument("n" + std::to_string(k), "quiet", "resting quietly"));
      }
    }
    done.store(true);
  });
  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(text.num_documents(), static_cast<size_t>(kDocs + kNewDocs));
}

TEST(TextStormTest, ConcurrentAddsOfOneNewIdCountItOnce) {
  TextStore text;
  constexpr int kIds = 300;
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&text, w] {
      for (int i = 0; i < kIds; ++i) {
        BIGDAWG_CHECK_OK(text.AddDocument("x" + std::to_string(i), "w" + std::to_string(w),
                                          "note number " + std::to_string(i)));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(text.num_documents(), static_cast<size_t>(kIds));
  EXPECT_EQ(text.ListDocumentIds().size(), static_cast<size_t>(kIds));
}

}  // namespace
}  // namespace bigdawg::kvstore
