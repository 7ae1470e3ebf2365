#include "data/dataset.h"

#include <algorithm>

#include "common/logging.h"

namespace corrob {

namespace {

Result<int32_t> Lookup(const std::unordered_map<std::string, int32_t>& index,
                       const char* kind, const std::string& name) {
  auto it = index.find(name);
  if (it == index.end()) {
    return Status::NotFound(std::string("no ") + kind + " named '" + name +
                            "'");
  }
  return it->second;
}

}  // namespace

Result<SourceId> Dataset::FindSource(const std::string& name) const {
  return Lookup(source_index_, "source", name);
}

Result<FactId> Dataset::FindFact(const std::string& name) const {
  return Lookup(fact_index_, "fact", name);
}

int64_t Dataset::VoteBytes() const {
  const size_t offsets = fact_offsets_.size() + source_offsets_.size();
  const size_t entry = sizeof(int32_t) + sizeof(Vote);  // id + vote
  return static_cast<int64_t>(offsets * sizeof(size_t) +
                              2 * fact_sources_.size() * entry);
}

Vote Dataset::GetVote(SourceId s, FactId f) const {
  auto row = VotesOnFact(f);
  auto sources = row.ids();
  auto it = std::lower_bound(sources.begin(), sources.end(), s);
  if (it != sources.end() && *it == s) return row[it - sources.begin()].vote;
  return Vote::kNone;
}

int32_t Dataset::CountVotes(FactId f, Vote vote) const {
  int32_t count = 0;
  for (const SourceVote& sv : VotesOnFact(f)) {
    if (sv.vote == vote) ++count;
  }
  return count;
}

bool Dataset::IsAffirmativeOnly(FactId f) const {
  auto votes = VotesOnFact(f);
  if (votes.empty()) return false;
  for (const SourceVote& sv : votes) {
    if (sv.vote != Vote::kTrue) return false;
  }
  return true;
}

std::string Dataset::SignatureKey(FactId f) const {
  std::string key;
  auto votes = VotesOnFact(f);
  key.reserve(votes.size() * 4);
  for (const SourceVote& sv : votes) {
    if (!key.empty()) key += '|';
    key += std::to_string(sv.source);
    key += VoteToChar(sv.vote);
  }
  return key;
}

DatasetBuilder::DatasetBuilder(const Dataset& base)
    : source_names_(base.source_names_),
      fact_names_(base.fact_names_),
      source_index_(base.source_index_),
      fact_index_(base.fact_index_) {
  votes_per_fact_.reserve(fact_names_.size());
  for (FactId f = 0; f < base.num_facts(); ++f) {
    auto row = base.VotesOnFact(f);
    votes_per_fact_.emplace_back(row.begin(), row.end());
  }
}

Result<SourceId> DatasetBuilder::FindSource(const std::string& name) const {
  return Lookup(source_index_, "source", name);
}

Result<FactId> DatasetBuilder::FindFact(const std::string& name) const {
  return Lookup(fact_index_, "fact", name);
}

SourceId DatasetBuilder::AddSource(const std::string& name) {
  auto it = source_index_.find(name);
  if (it != source_index_.end()) return it->second;
  SourceId id = static_cast<SourceId>(source_names_.size());
  source_names_.push_back(name);
  source_index_.emplace(name, id);
  return id;
}

FactId DatasetBuilder::AddFact(const std::string& name) {
  auto it = fact_index_.find(name);
  if (it != fact_index_.end()) return it->second;
  FactId id = static_cast<FactId>(fact_names_.size());
  fact_names_.push_back(name);
  fact_index_.emplace(name, id);
  votes_per_fact_.emplace_back();
  return id;
}

Status DatasetBuilder::SetVote(SourceId s, FactId f, Vote vote) {
  if (s < 0 || s >= num_sources()) {
    return Status::OutOfRange("source id " + std::to_string(s) +
                              " out of range [0, " +
                              std::to_string(num_sources()) + ")");
  }
  if (f < 0 || f >= num_facts()) {
    return Status::OutOfRange("fact id " + std::to_string(f) +
                              " out of range [0, " +
                              std::to_string(num_facts()) + ")");
  }
  auto& row = votes_per_fact_[f];
  auto it = std::find_if(row.begin(), row.end(),
                         [s](const SourceVote& sv) { return sv.source == s; });
  if (vote == Vote::kNone) {
    if (it != row.end()) row.erase(it);
    return Status::OK();
  }
  if (it != row.end()) {
    it->vote = vote;  // Last writer wins.
  } else {
    row.push_back(SourceVote{s, vote});
  }
  return Status::OK();
}

Vote DatasetBuilder::GetVote(SourceId s, FactId f) const {
  CORROB_CHECK(s >= 0 && s < num_sources()) << "source id out of range";
  CORROB_CHECK(f >= 0 && f < num_facts()) << "fact id out of range";
  for (const SourceVote& sv : votes_per_fact_[static_cast<size_t>(f)]) {
    if (sv.source == s) return sv.vote;
  }
  return Vote::kNone;
}

void DatasetBuilder::SetVoteByName(const std::string& source,
                                   const std::string& fact, Vote vote) {
  SourceId s = AddSource(source);
  FactId f = AddFact(fact);
  CORROB_CHECK_OK(SetVote(s, f, vote));
}

Dataset DatasetBuilder::Build() {
  Dataset out;
  out.source_names_ = std::move(source_names_);
  out.fact_names_ = std::move(fact_names_);
  out.source_index_ = std::move(source_index_);
  out.fact_index_ = std::move(fact_index_);

  const size_t facts = static_cast<size_t>(out.num_facts());
  const size_t sources = static_cast<size_t>(out.num_sources());

  // CSR by fact, each row sorted by source id; count each column too.
  out.fact_offsets_.assign(facts + 1, 0);
  out.source_offsets_.assign(sources + 1, 0);
  for (size_t f = 0; f < facts; ++f) {
    auto& row = votes_per_fact_[f];
    std::sort(row.begin(), row.end(),
              [](const SourceVote& a, const SourceVote& b) {
                return a.source < b.source;
              });
    out.fact_offsets_[f + 1] = out.fact_offsets_[f] + row.size();
    for (const SourceVote& sv : row) {
      ++out.source_offsets_[static_cast<size_t>(sv.source) + 1];
    }
  }
  const size_t total = out.fact_offsets_[facts];
  out.fact_sources_.reserve(total);
  out.fact_votes_.reserve(total);
  for (const auto& row : votes_per_fact_) {
    for (const SourceVote& sv : row) {
      out.fact_sources_.push_back(sv.source);
      out.fact_votes_.push_back(sv.vote);
    }
  }

  // CSC by source: scattering the rows in fact order leaves every
  // column in ascending fact id.
  for (size_t s = 0; s < sources; ++s) {
    out.source_offsets_[s + 1] += out.source_offsets_[s];
  }
  out.source_facts_.resize(total);
  out.source_votes_.resize(total);
  std::vector<size_t> cursor(out.source_offsets_.begin(),
                             out.source_offsets_.end() - 1);
  for (size_t f = 0; f < facts; ++f) {
    for (const SourceVote& sv : votes_per_fact_[f]) {
      const size_t at = cursor[static_cast<size_t>(sv.source)]++;
      out.source_facts_[at] = static_cast<FactId>(f);
      out.source_votes_[at] = sv.vote;
    }
  }

  votes_per_fact_.clear();
  return out;
}

}  // namespace corrob
