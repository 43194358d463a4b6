#ifndef BIGDAWG_KVSTORE_TEXT_STORE_H_
#define BIGDAWG_KVSTORE_TEXT_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "kvstore/kvstore.h"

namespace bigdawg::kvstore {

/// \brief A document match returned by text search.
struct DocMatch {
  std::string doc_id;
  std::string owner;   // e.g. patient id the note belongs to
  int64_t score = 0;   // occurrence count of the query in the document
};

/// \brief Tokenizes text into lowercase alphanumeric terms.
std::vector<std::string> TokenizeText(const std::string& text);

/// \brief Free-text documents stored in the key-value engine using the
/// Accumulo/D4M indexing idiom.
///
/// Key layout inside the backing KvStore:
///   (doc:<id>,  "meta", "owner")          -> owner id
///   (doc:<id>,  "doc",  "text")           -> raw document text
///   (term:<t>,  "idx",  <doc id>)         -> term frequency (decimal string)
///
/// A search runs tablet-side under one KvStore::ReadView, reading cells in
/// place: a term's postings are its "term:<t>" row, already in doc-id
/// order, so an AND is a linear merge; owners and texts come from the
/// "doc:" rows, visited in that same order by one forward cursor.
/// AddDocument is one KvStore::WriteView, so a search sees every
/// document whole, in one version.
class TextStore {
 public:
  TextStore() = default;

  TextStore(const TextStore&) = delete;
  TextStore& operator=(const TextStore&) = delete;

  /// Adds (or replaces) a document and indexes its terms.
  Status AddDocument(const std::string& doc_id, const std::string& owner,
                     const std::string& text);

  Result<std::string> GetText(const std::string& doc_id) const;
  Result<std::string> GetOwner(const std::string& doc_id) const;

  /// Documents containing every term (AND semantics). Score = sum of term
  /// frequencies.
  std::vector<DocMatch> SearchAllTerms(const std::vector<std::string>& terms) const;

  /// Documents whose raw text contains `phrase` (exact substring,
  /// case-insensitive). Score = number of non-overlapping occurrences.
  /// Implemented as a candidate term scan (documents holding every
  /// phrase token) + verification read, the speculative-then-validate
  /// pattern.
  std::vector<DocMatch> SearchPhrase(const std::string& phrase) const;

  /// Owners with at least `min_docs` documents matching the phrase — the
  /// demo query shape: "patients with >= 3 notes saying 'very sick'".
  std::vector<std::pair<std::string, int64_t>> OwnersWithPhraseCount(
      const std::string& phrase, int64_t min_docs) const;

  /// All document ids, in sorted order.
  std::vector<std::string> ListDocumentIds() const;

  size_t num_documents() const;
  const KvStore& backing_store() const { return store_; }

 private:
  KvStore store_;
  size_t num_docs_ = 0;  // guarded by store_'s lock
};

}  // namespace bigdawg::kvstore

#endif  // BIGDAWG_KVSTORE_TEXT_STORE_H_
