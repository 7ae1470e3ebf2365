#include "core/delta_apply.h"

#include <string>
#include <utility>

#include "data/dataset_io.h"

namespace corrob {

Result<Dataset> ApplyDeltasToDataset(const Dataset& base,
                                     std::span<const WalRecord> deltas) {
  DatasetBuilder builder(base);
  for (size_t i = 0; i < deltas.size(); ++i) {
    const WalRecord& record = deltas[i];
    switch (record.type) {
      case WalRecordType::kAddSource:
        builder.AddSource(record.source);
        break;
      case WalRecordType::kAddVote: {
        if (record.vote == Vote::kNone) {
          return Status::InvalidArgument(
              "delta " + std::to_string(i) +
              ": add-vote carries '-'; use retract-vote to erase");
        }
        const SourceId s = builder.AddSource(record.source);
        const FactId f = builder.AddFact(record.fact);
        CORROB_RETURN_NOT_OK(builder.SetVote(s, f, record.vote));
        break;
      }
      case WalRecordType::kRetractVote: {
        // Looked up, not registered: retracting a vote that never
        // existed is a no-op.
        auto s = builder.FindSource(record.source);
        auto f = builder.FindFact(record.fact);
        if (!s.ok() || !f.ok()) break;
        CORROB_RETURN_NOT_OK(
            builder.SetVote(s.ValueOrDie(), f.ValueOrDie(), Vote::kNone));
        break;
      }
      case WalRecordType::kSnapshotMarker:
        return Status::InvalidArgument(
            "delta " + std::to_string(i) +
            ": snapshot markers are log metadata, not mutations; filter "
            "them out (WalRecovery::Mutations)");
    }
  }
  return builder.Build();
}

Result<Dataset> DatasetFromWalRecovery(const WalRecovery& recovery) {
  Dataset base;
  if (recovery.has_snapshot) {
    CORROB_ASSIGN_OR_RETURN(LabeledDataset labeled,
                            ParseDatasetCsv(recovery.snapshot_csv));
    base = std::move(labeled.dataset);
  }
  return ApplyDeltasToDataset(base, recovery.Mutations());
}

}  // namespace corrob
