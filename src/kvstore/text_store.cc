#include "kvstore/text_store.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <map>
#include <string_view>
#include <unordered_map>

#include "common/string_util.h"

namespace bigdawg::kvstore {

namespace {
constexpr char kDocPrefix[] = "doc:";
constexpr char kTermPrefix[] = "term:";

/// A search hit read in place: pointers into the tablet, valid while the
/// ReadView that produced them lives.
struct Hit {
  const std::string* doc_id = nullptr;  // the posting cell's qualifier
  int64_t score = 0;
  const std::string* owner = nullptr;   // nullptr: no owner cell
};

/// Documents holding every term, in doc-id order, each scored by the sum
/// of its term frequencies (a repeated term adds its frequency again).
/// A term's postings are its "term:<t>" row, whose qualifiers are the
/// doc ids in order, so the AND is a linear merge from the shortest list.
std::vector<Hit> MatchAllTerms(const KvStore::ReadView& view,
                               const std::vector<std::string>& terms) {
  std::vector<std::vector<Hit>> lists;
  lists.reserve(terms.size());
  for (const std::string& term : terms) {
    const std::string row = kTermPrefix + ToLower(term);
    std::vector<Hit> postings;
    for (auto it = view.Seek(KeyView(row, {}, {}));
         it != view.end() && it->first.row == row; ++it) {
      if (it->first.family != "idx") continue;
      postings.push_back(
          {&it->first.qualifier, std::strtoll(it->second.c_str(), nullptr, 10)});
    }
    if (postings.empty()) return {};
    lists.push_back(std::move(postings));
  }
  if (lists.empty()) return {};
  std::sort(lists.begin(), lists.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });
  std::vector<Hit> hits = std::move(lists.front());
  for (size_t l = 1; l < lists.size() && !hits.empty(); ++l) {
    const std::vector<Hit>& other = lists[l];
    size_t kept = 0;
    size_t j = 0;
    for (size_t i = 0; i < hits.size() && j < other.size(); ++i) {
      int c = 0;
      while (j < other.size() && (c = other[j].doc_id->compare(*hits[i].doc_id)) < 0) ++j;
      if (j < other.size() && c == 0) {
        hits[kept++] = {hits[i].doc_id, hits[i].score + other[j].score};
      }
    }
    hits.resize(kept);
  }
  return hits;
}

/// Reads "doc:<id>" cells for ascending keys with one forward walk over
/// the doc rows: a few steps between near hits, a seek between far ones.
class DocCursor {
 public:
  explicit DocCursor(const KvStore::ReadView& view)
      : view_(view), it_(view.Seek(KeyView(kDocPrefix, {}, {}))) {}

  /// The (doc:<doc_id>, family, qualifier) cell's value, or nullptr. Each
  /// call's key must be greater than the previous call's.
  const std::string* Read(const std::string& doc_id, std::string_view family,
                          std::string_view qualifier) {
    row_.assign(kDocPrefix).append(doc_id);
    const KeyView key(row_, family, qualifier);
    it_ = view_.SeekForward(it_, key);
    if (it_ == view_.end() || KeyLess()(key, it_->first)) return nullptr;
    return &it_->second;
  }

 private:
  const KvStore::ReadView& view_;
  KvStore::Iterator it_;
  std::string row_;
};

/// std::tolower over every byte, tabulated once: the fold ToLower applies.
const std::array<unsigned char, 256>& FoldTable() {
  static const std::array<unsigned char, 256> table = [] {
    std::array<unsigned char, 256> t{};
    for (int b = 0; b < 256; ++b) t[b] = static_cast<unsigned char>(std::tolower(b));
    return t;
  }();
  return table;
}

/// Counts a phrase's non-overlapping occurrences in text folded through
/// FoldTable(), reading the text in place: CountOccurrences(ToLower(text),
/// ToLower(phrase)) without the copy. Boyer-Moore-Horspool over the
/// folded bytes, so most of the text is skipped, never folded.
class PhraseCounter {
 public:
  explicit PhraseCounter(std::string_view phrase) : fold_(FoldTable()) {
    for (char c : phrase) needle_.push_back(fold_[static_cast<unsigned char>(c)]);
    const size_t m = needle_.size();
    shift_.fill(m);
    for (size_t i = 0; i + 1 < m; ++i) shift_[needle_[i]] = m - 1 - i;
  }

  size_t Count(std::string_view text) const {
    const size_t m = needle_.size();
    if (m == 0) return 0;
    const auto* t = reinterpret_cast<const unsigned char*>(text.data());
    const unsigned char last = needle_[m - 1];
    size_t count = 0;
    for (size_t pos = 0; pos + m <= text.size();) {
      const unsigned char c = fold_[t[pos + m - 1]];
      if (c == last && MatchesAt(t + pos)) {
        ++count;
        pos += m;
      } else {
        pos += shift_[c];
      }
    }
    return count;
  }

 private:
  /// The first m - 1 bytes at `t` fold to the needle's.
  bool MatchesAt(const unsigned char* t) const {
    for (size_t k = 0; k + 1 < needle_.size(); ++k) {
      if (fold_[t[k]] != needle_[k]) return false;
    }
    return true;
  }

  const std::array<unsigned char, 256>& fold_;
  std::vector<unsigned char> needle_;
  std::array<size_t, 256> shift_;
};

/// Documents whose text holds `phrase`, in doc-id order, scored by its
/// occurrence count, with owners.
std::vector<Hit> MatchPhrase(const KvStore::ReadView& view, const std::string& phrase) {
  const std::vector<std::string> tokens = TokenizeText(phrase);
  if (tokens.empty()) return {};
  // Speculate: candidates hold every token (the index); validate: count
  // the phrase in each candidate's stored text.
  std::vector<Hit> hits = MatchAllTerms(view, tokens);
  const PhraseCounter counter(phrase);
  DocCursor docs(view);
  size_t kept = 0;
  for (size_t i = 0; i < hits.size(); ++i) {
    const std::string* doc_id = hits[i].doc_id;
    const std::string* text = docs.Read(*doc_id, "doc", "text");
    if (text == nullptr) continue;
    const size_t occurrences = counter.Count(*text);
    if (occurrences == 0) continue;
    hits[kept++] = {doc_id, static_cast<int64_t>(occurrences),
                    docs.Read(*doc_id, "meta", "owner")};
  }
  hits.resize(kept);
  return hits;
}

/// Hits in (score desc, doc_id asc) order as DocMatches. They arrive in
/// doc-id order, so a stable sort on score alone gives that order.
std::vector<DocMatch> Ranked(std::vector<Hit> hits) {
  std::stable_sort(hits.begin(), hits.end(),
                   [](const Hit& a, const Hit& b) { return a.score > b.score; });
  std::vector<DocMatch> out;
  out.reserve(hits.size());
  for (const Hit& h : hits) {
    out.push_back({*h.doc_id, h.owner != nullptr ? *h.owner : std::string(), h.score});
  }
  return out;
}

}  // namespace

std::vector<std::string> TokenizeText(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      cur += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

Status TextStore::AddDocument(const std::string& doc_id, const std::string& owner,
                              const std::string& text) {
  if (doc_id.empty()) return Status::InvalidArgument("empty document id");
  const std::string doc_row = kDocPrefix + doc_id;
  std::vector<Cell> batch;
  batch.push_back({Key(doc_row, "meta", "owner"), owner});
  batch.push_back({Key(doc_row, "doc", "text"), text});
  std::map<std::string, int64_t> freq;
  for (const std::string& term : TokenizeText(text)) ++freq[term];
  for (const auto& [term, count] : freq) {
    batch.push_back({Key(kTermPrefix + term, "idx", doc_id), std::to_string(count)});
  }

  // One exclusive write: no reader sees the document without postings,
  // and the count moves with the document.
  KvStore::WriteView write = store_.Write();
  const std::string* old_text = write.Find(KeyView(doc_row, "doc", "text"));
  const bool replacing = old_text != nullptr;
  if (replacing) {
    // Drop old term postings before re-indexing. Idempotent: repeated
    // terms erase the same posting.
    for (const std::string& term : TokenizeText(*old_text)) {
      write.Erase(KeyView(kTermPrefix + term, "idx", doc_id));
    }
  }
  for (Cell& c : batch) write.Put(std::move(c.key), std::move(c.value));
  if (!replacing) ++num_docs_;
  return Status::OK();
}

size_t TextStore::num_documents() const {
  const KvStore::ReadView view = store_.Read();
  return num_docs_;
}

Result<std::string> TextStore::GetText(const std::string& doc_id) const {
  return store_.Get(Key(kDocPrefix + doc_id, "doc", "text"));
}

Result<std::string> TextStore::GetOwner(const std::string& doc_id) const {
  return store_.Get(Key(kDocPrefix + doc_id, "meta", "owner"));
}

std::vector<std::string> TextStore::ListDocumentIds() const {
  std::vector<std::string> out;
  ScanOptions options;
  options.family = "doc";
  store_.Read().Range(options, [&out](const Key& key, const std::string&) {
    // Rows are "doc:<id>".
    out.push_back(key.row.substr(sizeof(kDocPrefix) - 1));
    return true;
  });
  return out;
}

std::vector<DocMatch> TextStore::SearchAllTerms(
    const std::vector<std::string>& terms) const {
  const KvStore::ReadView view = store_.Read();
  std::vector<Hit> hits = MatchAllTerms(view, terms);
  DocCursor docs(view);
  for (Hit& h : hits) h.owner = docs.Read(*h.doc_id, "meta", "owner");
  return Ranked(std::move(hits));
}

std::vector<DocMatch> TextStore::SearchPhrase(const std::string& phrase) const {
  const KvStore::ReadView view = store_.Read();
  return Ranked(MatchPhrase(view, phrase));
}

std::vector<std::pair<std::string, int64_t>> TextStore::OwnersWithPhraseCount(
    const std::string& phrase, int64_t min_docs) const {
  const KvStore::ReadView view = store_.Read();
  std::unordered_map<std::string_view, int64_t> owner_docs;
  for (const Hit& h : MatchPhrase(view, phrase)) {
    ++owner_docs[h.owner != nullptr ? std::string_view(*h.owner) : std::string_view()];
  }
  std::vector<std::pair<std::string, int64_t>> out;
  for (const auto& [owner, count] : owner_docs) {
    if (count >= min_docs) out.emplace_back(std::string(owner), count);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

}  // namespace bigdawg::kvstore
