#ifndef CORROB_DATA_DATASET_H_
#define CORROB_DATA_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/vote.h"

namespace corrob {

/// One row of the vote matrix — a fact's voters or a source's facts —
/// read in place from the Dataset's parallel id and vote arrays.
/// Iterating yields `Entry` ({id, vote}) values; nothing is copied or
/// allocated. ids() / votes() expose the two arrays for SoA loops.
template <typename Entry>
class VoteRow {
 public:
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Entry;

    Iterator(const int32_t* id, const Vote* vote) : id_(id), vote_(vote) {}
    Entry operator*() const { return Entry{*id_, *vote_}; }
    Iterator& operator++() {
      ++id_;
      ++vote_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.id_ == b.id_;
    }

   private:
    const int32_t* id_;
    const Vote* vote_;
  };

  VoteRow(const int32_t* ids, const Vote* votes, size_t size)
      : ids_(ids), votes_(votes), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Entry operator[](size_t k) const { return Entry{ids_[k], votes_[k]}; }
  Iterator begin() const { return {ids_, votes_}; }
  Iterator end() const { return {ids_ + size_, votes_ + size_}; }

  std::span<const int32_t> ids() const { return {ids_, size_}; }
  std::span<const Vote> votes() const { return {votes_, size_}; }

 private:
  const int32_t* ids_;
  const Vote* votes_;
  size_t size_;
};

/// Immutable sparse source × fact vote matrix — the input to every
/// corroboration algorithm. Built via DatasetBuilder; provides both
/// the per-fact view (who voted on f) and the per-source view (what
/// did s vote on), each sorted by id.
///
/// This is the only stored vote layout. Both orientations are kept in
/// structure-of-arrays form: an offsets array, an id array and a
/// parallel Vote array (kTrue = 1, kFalse = 0), so the corroborators'
/// sweeps touch only the bytes they read (see docs/PERFORMANCE.md).
class Dataset {
 public:
  Dataset() = default;

  Dataset(const Dataset&) = default;
  Dataset& operator=(const Dataset&) = default;
  Dataset(Dataset&&) noexcept = default;
  Dataset& operator=(Dataset&&) noexcept = default;

  int32_t num_sources() const { return static_cast<int32_t>(source_names_.size()); }
  int32_t num_facts() const { return static_cast<int32_t>(fact_names_.size()); }
  /// Total number of materialized (non '-') votes.
  int64_t num_votes() const {
    return static_cast<int64_t>(fact_sources_.size());
  }

  const std::string& source_name(SourceId s) const { return source_names_[s]; }
  const std::string& fact_name(FactId f) const { return fact_names_[f]; }

  /// Id lookup by name; NotFound if absent.
  [[nodiscard]] Result<SourceId> FindSource(const std::string& name) const;
  [[nodiscard]] Result<FactId> FindFact(const std::string& name) const;

  /// Votes cast on fact `f`, sorted by source id.
  VoteRow<SourceVote> VotesOnFact(FactId f) const {
    return Row<SourceVote>(fact_offsets_, fact_sources_, fact_votes_, f);
  }

  /// Votes cast by source `s`, sorted by fact id.
  VoteRow<FactVote> VotesBySource(SourceId s) const {
    return Row<FactVote>(source_offsets_, source_facts_, source_votes_, s);
  }

  /// Bytes held by the CSR and CSC arrays: what every corroborator
  /// reads, and what ResourceBudget::max_vote_matrix_bytes caps.
  int64_t VoteBytes() const;

  /// The vote of `s` on `f`, or kNone when `s` did not vote on `f`.
  Vote GetVote(SourceId s, FactId f) const;

  /// Number of T / F votes on fact `f`.
  int32_t CountVotes(FactId f, Vote vote) const;

  /// True if every vote on `f` is affirmative (f ∈ F*, paper §3.3).
  /// Facts with no votes at all are not affirmative-only.
  bool IsAffirmativeOnly(FactId f) const;

  /// Canonical signature of fact `f`: its (source, vote) list rendered
  /// as e.g. "0T|2F|4T". Facts with equal signatures form one fact
  /// group (paper §5.1).
  std::string SignatureKey(FactId f) const;

 private:
  friend class DatasetBuilder;

  template <typename Entry>
  static VoteRow<Entry> Row(const std::vector<size_t>& offsets,
                            const std::vector<int32_t>& ids,
                            const std::vector<Vote>& votes, int32_t i) {
    const size_t begin = offsets[static_cast<size_t>(i)];
    return {ids.data() + begin, votes.data() + begin,
            offsets[static_cast<size_t>(i) + 1] - begin};
  }

  std::vector<std::string> source_names_;
  std::vector<std::string> fact_names_;
  std::unordered_map<std::string, SourceId> source_index_;
  std::unordered_map<std::string, FactId> fact_index_;

  // CSR by fact: row f is [fact_offsets_[f], fact_offsets_[f+1]).
  std::vector<size_t> fact_offsets_;     // size num_facts()+1
  std::vector<SourceId> fact_sources_;   // ascending within a row
  std::vector<Vote> fact_votes_;         // parallel to fact_sources_
  // CSC by source, the transpose of the CSR.
  std::vector<size_t> source_offsets_;   // size num_sources()+1
  std::vector<FactId> source_facts_;     // ascending within a column
  std::vector<Vote> source_votes_;       // parallel to source_facts_
};

/// Accumulates sources, facts and votes, then freezes them into a
/// Dataset. Duplicate (source, fact) votes overwrite the earlier vote
/// (last writer wins), mirroring how a re-crawl updates a listing.
class DatasetBuilder {
 public:
  DatasetBuilder() = default;

  /// Starts from `base`: its names, ids and votes, ready to be edited.
  /// Build() without edits reproduces `base` exactly.
  explicit DatasetBuilder(const Dataset& base);

  /// Id lookup by name that registers nothing; NotFound if absent.
  [[nodiscard]] Result<SourceId> FindSource(const std::string& name) const;
  [[nodiscard]] Result<FactId> FindFact(const std::string& name) const;

  /// Registers a source; returns the existing id if the name is known.
  SourceId AddSource(const std::string& name);

  /// Registers a fact; returns the existing id if the name is known.
  FactId AddFact(const std::string& name);

  /// Records a vote. kNone erases any previous vote for the pair.
  /// Fails on out-of-range ids.
  [[nodiscard]] Status SetVote(SourceId s, FactId f, Vote vote);

  /// Convenience: registers names as needed, then records the vote.
  void SetVoteByName(const std::string& source, const std::string& fact,
                     Vote vote);

  /// The vote currently recorded for (s, f); kNone when unset.
  /// Aborts on out-of-range ids.
  Vote GetVote(SourceId s, FactId f) const;

  int32_t num_sources() const { return static_cast<int32_t>(source_names_.size()); }
  int32_t num_facts() const { return static_cast<int32_t>(fact_names_.size()); }

  /// Freezes into an immutable Dataset. The builder is left empty.
  Dataset Build();

 private:
  std::vector<std::string> source_names_;
  std::vector<std::string> fact_names_;
  std::unordered_map<std::string, SourceId> source_index_;
  std::unordered_map<std::string, FactId> fact_index_;
  // Per fact: source -> vote map kept small and flat.
  std::vector<std::vector<SourceVote>> votes_per_fact_;
};

}  // namespace corrob

#endif  // CORROB_DATA_DATASET_H_
