// Differential oracle for the TEXT island's searches. SearchAllTerms,
// SearchPhrase and OwnersWithPhraseCount read the tablet in place (one
// read view, merged posting lists, a folded in-place phrase count); the
// reference functions below are the plain algorithms over the same
// backing store's copying API: per-term posting maps intersected by
// lookup, one GetOwner per hit, and ToLower + find over a copy of each
// candidate's text. Seeded random corpora must give byte-identical
// answers, including replaced documents, repeated and upper-case terms,
// punctuation, non-token-aligned phrases, overlapping patterns and bytes
// >= 0x80.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "kvstore/text_store.h"

namespace bigdawg::kvstore {
namespace {

// ---------------------------------------------------------------------------
// Reference algorithms
// ---------------------------------------------------------------------------

void SortMatches(std::vector<DocMatch>* matches) {
  std::sort(matches->begin(), matches->end(), [](const DocMatch& a, const DocMatch& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc_id < b.doc_id;
  });
}

std::vector<DocMatch> RefSearchAllTerms(const KvStore& store,
                                        const std::vector<std::string>& terms) {
  if (terms.empty()) return {};
  std::map<std::string, int64_t> intersection;
  bool first = true;
  for (const std::string& raw_term : terms) {
    std::map<std::string, int64_t> postings;
    ScanOptions options;
    options.start_row = "term:" + ToLower(raw_term);
    options.end_row = options.start_row;
    options.family = "idx";
    store.ApplyToRange(options, [&postings](const Cell& cell) {
      postings[cell.key.qualifier] = std::strtoll(cell.value.c_str(), nullptr, 10);
      return true;
    });
    if (first) {
      intersection = std::move(postings);
      first = false;
    } else {
      std::map<std::string, int64_t> merged;
      for (const auto& [doc, tf] : intersection) {
        auto it = postings.find(doc);
        if (it != postings.end()) merged[doc] = tf + it->second;
      }
      intersection = std::move(merged);
    }
    if (intersection.empty()) return {};
  }
  std::vector<DocMatch> out;
  for (const auto& [doc, score] : intersection) {
    DocMatch m;
    m.doc_id = doc;
    m.score = score;
    Result<std::string> owner = store.Get(Key("doc:" + doc, "meta", "owner"));
    if (owner.ok()) m.owner = *owner;
    out.push_back(std::move(m));
  }
  SortMatches(&out);
  return out;
}

std::vector<DocMatch> RefSearchPhrase(const KvStore& store, const std::string& phrase) {
  std::vector<std::string> tokens = TokenizeText(phrase);
  if (tokens.empty()) return {};
  const std::string needle = ToLower(phrase);
  std::vector<DocMatch> out;
  for (DocMatch& m : RefSearchAllTerms(store, tokens)) {
    Result<std::string> text = store.Get(Key("doc:" + m.doc_id, "doc", "text"));
    if (!text.ok()) continue;
    size_t occurrences = CountOccurrences(ToLower(*text), needle);
    if (occurrences > 0) {
      m.score = static_cast<int64_t>(occurrences);
      out.push_back(std::move(m));
    }
  }
  SortMatches(&out);
  return out;
}

std::vector<std::pair<std::string, int64_t>> RefOwnersWithPhraseCount(
    const KvStore& store, const std::string& phrase, int64_t min_docs) {
  std::map<std::string, int64_t> owner_docs;
  for (const DocMatch& m : RefSearchPhrase(store, phrase)) ++owner_docs[m.owner];
  std::vector<std::pair<std::string, int64_t>> out;
  for (const auto& [owner, count] : owner_docs) {
    if (count >= min_docs) out.emplace_back(owner, count);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

std::string Render(const std::vector<DocMatch>& matches) {
  std::ostringstream out;
  for (const DocMatch& m : matches) out << m.doc_id << '|' << m.owner << '|' << m.score << '\n';
  return out.str();
}

std::string Render(const std::vector<std::pair<std::string, int64_t>>& owners) {
  std::ostringstream out;
  for (const auto& [owner, count] : owners) out << owner << '|' << count << '\n';
  return out.str();
}

// ---------------------------------------------------------------------------
// Corpora
// ---------------------------------------------------------------------------

// Words with case variants, overlapping patterns ("aa" in "aaaa"),
// fragments of other words ("ery", "sic"), and bytes >= 0x80 (UTF-8 "é",
// a lone 0xff).
const std::vector<std::string> kWords = {
    "very", "Very", "VERY", "sick", "Sick", "ery", "sic", "patient", "stable",
    "aa", "aaaa", "a", "heparin", "h\xc3\xa9parin", "\xff" "x", "caf\xc3\xa9", "ICU", "icu"};
const std::vector<std::string> kSeparators = {" ", " ", " ", ", ", ". ", "; ", "  ", "-", "\n", "!"};

std::string RandomText(Rng* rng) {
  const int64_t words = rng->NextInt(0, 24);
  std::string text;
  for (int64_t w = 0; w < words; ++w) {
    if (w > 0) text += kSeparators[rng->NextBelow(kSeparators.size())];
    text += kWords[rng->NextBelow(kWords.size())];
  }
  return text;
}

// Ids whose string order differs from their numeric order.
std::string RandomDocId(Rng* rng, int64_t docs) {
  return "d" + std::to_string(rng->NextInt(0, docs - 1));
}

class TextOracleTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    const int64_t docs = 40 + static_cast<int64_t>(rng.NextBelow(80));
    for (int64_t i = 0; i < docs; ++i) {
      BIGDAWG_CHECK_OK(store_.AddDocument("d" + std::to_string(i),
                                          "p" + std::to_string(rng.NextBelow(7)),
                                          RandomText(&rng)));
    }
    // Replace a third of them, some more than once, with new owners.
    for (int64_t i = 0; i < docs / 3; ++i) {
      BIGDAWG_CHECK_OK(store_.AddDocument(RandomDocId(&rng, docs),
                                          "q" + std::to_string(rng.NextBelow(5)),
                                          RandomText(&rng)));
    }
    for (int64_t i = 0; i < 8; ++i) texts_.push_back(RandomText(&rng));
    rng_seed_ = GetParam() * 31 + 7;
  }

  /// A random substring of a random corpus text: usually not aligned to
  /// token boundaries, often with punctuation or a multi-byte sequence cut
  /// in half.
  std::string RandomSubstring(Rng* rng) const {
    const std::string& text = texts_[rng->NextBelow(texts_.size())];
    if (text.empty()) return "very";
    const size_t begin = rng->NextBelow(text.size());
    const size_t length = 1 + rng->NextBelow(std::min<size_t>(12, text.size() - begin));
    return text.substr(begin, length);
  }

  TextStore store_;
  std::vector<std::string> texts_;
  uint64_t rng_seed_ = 0;
};

TEST_P(TextOracleTest, SearchAllTermsMatchesReference) {
  Rng rng(rng_seed_);
  const KvStore& backing = store_.backing_store();
  std::vector<std::vector<std::string>> queries = {
      {}, {"very"}, {"very", "very"}, {"VERY", "Sick"}, {"nosuchterm"},
      {"very", "nosuchterm"}, {"aa", "aaaa", "a"}, {"h\xc3\xa9parin"}, {""}};
  for (int q = 0; q < 60; ++q) {
    std::vector<std::string> terms;
    const int64_t n = rng.NextInt(1, 3);
    for (int64_t t = 0; t < n; ++t) terms.push_back(kWords[rng.NextBelow(kWords.size())]);
    queries.push_back(std::move(terms));
  }
  for (const auto& terms : queries) {
    SCOPED_TRACE(Join(terms, "+"));
    EXPECT_EQ(Render(store_.SearchAllTerms(terms)),
              Render(RefSearchAllTerms(backing, terms)));
  }
}

TEST_P(TextOracleTest, PhraseSearchesMatchReference) {
  Rng rng(rng_seed_ + 1);
  const KvStore& backing = store_.backing_store();
  std::vector<std::string> phrases = {
      "very sick", "Very Sick", "ery sic", "aa", "aaaa", "a a", "sick, very",
      "caf\xc3\xa9", "\xc3\xa9", "h\xc3\xa9p", "\xff" "X", "!", "", "icu ICU",
      "patient stable", "nosuchterm"};
  for (int q = 0; q < 80; ++q) phrases.push_back(RandomSubstring(&rng));
  for (const std::string& phrase : phrases) {
    SCOPED_TRACE("phrase '" + phrase + "'");
    EXPECT_EQ(Render(store_.SearchPhrase(phrase)), Render(RefSearchPhrase(backing, phrase)));
    for (int64_t min_docs : {1, 2, 3}) {
      EXPECT_EQ(Render(store_.OwnersWithPhraseCount(phrase, min_docs)),
                Render(RefOwnersWithPhraseCount(backing, phrase, min_docs)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextOracleTest, ::testing::Range<uint64_t>(1, 9));

TEST(TextOracleEdgeTest, OverlappingPatternsCountNonOverlapping) {
  TextStore store;
  BIGDAWG_CHECK_OK(store.AddDocument("x", "p", "aaaa aa"));
  BIGDAWG_CHECK_OK(store.AddDocument("y", "p", "AAA"));
  // "aa" in "aaaa aa": positions 0, 2 and 5.
  const std::vector<DocMatch> hits = store.SearchPhrase("aa");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc_id, "x");
  EXPECT_EQ(hits[0].score, 3);
  EXPECT_EQ(Render(hits), Render(RefSearchPhrase(store.backing_store(), "aa")));
}

TEST(TextOracleEdgeTest, EmptyAndOneHitResults) {
  TextStore store;
  EXPECT_TRUE(store.SearchAllTerms({"very"}).empty());
  EXPECT_TRUE(store.SearchPhrase("very sick").empty());
  BIGDAWG_CHECK_OK(store.AddDocument("only", "p9", "Very SICK patient"));
  const std::vector<DocMatch> hits = store.SearchAllTerms({"very", "SICK"});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].owner, "p9");
  EXPECT_EQ(hits[0].score, 2);
  EXPECT_EQ(Render(store.SearchPhrase("very sick")),
            Render(RefSearchPhrase(store.backing_store(), "very sick")));
  EXPECT_TRUE(store.SearchAllTerms({"very", "unknown"}).empty());
  EXPECT_TRUE(store.OwnersWithPhraseCount("very sick", 2).empty());
}

TEST(TextOracleEdgeTest, ReplacedDocumentsAreSearchedInTheirLatestVersion) {
  TextStore store;
  BIGDAWG_CHECK_OK(store.AddDocument("n1", "p1", "very sick"));
  BIGDAWG_CHECK_OK(store.AddDocument("n2", "p2", "very sick very sick"));
  BIGDAWG_CHECK_OK(store.AddDocument("n1", "p3", "stable now"));
  EXPECT_EQ(store.num_documents(), 2u);
  const std::vector<DocMatch> hits = store.SearchAllTerms({"sick"});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc_id, "n2");
  EXPECT_EQ(Render(store.SearchAllTerms({"stable"})),
            Render(RefSearchAllTerms(store.backing_store(), {"stable"})));
  EXPECT_EQ(store.SearchAllTerms({"stable"})[0].owner, "p3");
}

}  // namespace
}  // namespace bigdawg::kvstore
