#include "data/question_dataset.h"

#include "common/logging.h"

namespace corrob {

QuestionDataset::QuestionDataset(Dataset dataset,
                                 std::vector<QuestionId> question_of_fact,
                                 GroundTruth truth)
    : dataset_(std::move(dataset)),
      question_of_fact_(std::move(question_of_fact)),
      truth_(std::move(truth)) {
  CORROB_CHECK(static_cast<int32_t>(question_of_fact_.size()) ==
               dataset_.num_facts());
  for (QuestionId q : question_of_fact_) {
    num_questions_ = std::max(num_questions_, q + 1);
  }
  answers_.assign(static_cast<size_t>(num_questions_), {});
  for (FactId f = 0; f < dataset_.num_facts(); ++f) {
    answers_[static_cast<size_t>(question_of_fact_[f])].push_back(f);
  }
}

Dataset QuestionDataset::WithNegativeClosure() const {
  // Seeded with every explicit vote. An implicit F only fills a pair
  // the source said nothing about, so explicit votes always stand (a
  // source may legitimately endorse two answers).
  DatasetBuilder builder(dataset_);
  for (SourceId s = 0; s < dataset_.num_sources(); ++s) {
    for (const FactVote& fv : dataset_.VotesBySource(s)) {
      if (fv.vote != Vote::kTrue) continue;
      QuestionId q = question_of(fv.fact);
      for (FactId sibling : answers(q)) {
        if (sibling == fv.fact) continue;
        if (dataset_.GetVote(s, sibling) == Vote::kNone) {
          CORROB_CHECK_OK(builder.SetVote(s, sibling, Vote::kFalse));
        }
      }
    }
  }
  return builder.Build();
}

QuestionId QuestionDatasetBuilder::AddQuestion(const std::string& name) {
  QuestionId id = static_cast<QuestionId>(question_names_.size());
  question_names_.push_back(name);
  correct_answers_per_question_.push_back(0);
  return id;
}

FactId QuestionDatasetBuilder::AddAnswer(QuestionId q, const std::string& name,
                                         bool is_correct) {
  CORROB_CHECK(q >= 0 &&
               q < static_cast<QuestionId>(question_names_.size()))
      << "unknown question id " << q;
  FactId f = builder_.AddFact(name);
  CORROB_CHECK(static_cast<size_t>(f) == question_of_fact_.size())
      << "duplicate answer name '" << name << "'";
  question_of_fact_.push_back(q);
  fact_truth_.push_back(is_correct);
  if (is_correct) ++correct_answers_per_question_[static_cast<size_t>(q)];
  return f;
}

SourceId QuestionDatasetBuilder::AddSource(const std::string& name) {
  return builder_.AddSource(name);
}

Status QuestionDatasetBuilder::SetVote(SourceId s, FactId f, Vote vote) {
  return builder_.SetVote(s, f, vote);
}

Result<QuestionDataset> QuestionDatasetBuilder::Build() {
  for (size_t q = 0; q < question_names_.size(); ++q) {
    if (correct_answers_per_question_[q] != 1) {
      return Status::FailedPrecondition(
          "question '" + question_names_[q] + "' has " +
          std::to_string(correct_answers_per_question_[q]) +
          " correct answers; expected exactly 1");
    }
  }
  Dataset dataset = builder_.Build();
  GroundTruth truth(std::vector<bool>(fact_truth_.begin(), fact_truth_.end()));
  QuestionDataset out(std::move(dataset), std::move(question_of_fact_),
                      std::move(truth));
  fact_truth_.clear();
  question_names_.clear();
  correct_answers_per_question_.clear();
  return out;
}

}  // namespace corrob
