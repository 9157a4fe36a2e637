// Write-ahead result journal for fault campaigns.
//
// A campaign over thousands of mutants can run for hours; a crash, OOM
// kill, or power loss mid-run used to throw away every classification made
// so far. The journal makes classifications durable the moment they exist:
// RunFaultCampaign appends one record per classified mutant — keyed by the
// stable (op, node, seed) MutantKey — and fsyncs it before the report is
// merged into the result, so a resumed campaign replays the journal, skips
// every already-classified mutant, and re-verifies only the remainder. The
// order-independent classification digest (campaign.h) then proves the
// resumed run identical to an uninterrupted one.
//
// Format: one CRC-guarded record line per mutant (support/record.h), its
// payload a JSON object {"attempts":1,...,"design":"memctrl-fifo",...}.
// Replay skips corrupt mid-file records with a counted warning and treats
// an undecodable unterminated tail as torn: the campaign truncates it and
// continues appending — exactly the posture a kill -9 mid-append demands.
// A successful campaign finally rewrites the journal compacted via
// tmp+fsync+rename (support/io.h), so the artifact a finished run leaves
// behind is always complete and clean.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fault/campaign.h"
#include "support/record.h"
#include "support/status.h"
#include "telemetry/json.h"

namespace aqed::fault {

// Reverse lookups for the fault-local enums the journal stores by name
// (MutationOpName / ClassificationName / BugKindName are the forward maps).
// Shared with the service solve cache so the wire spelling of a
// classification exists in exactly one place. nullopt on unknown names.
std::optional<MutationOp> MutationOpFromName(std::string_view name);
std::optional<Classification> ClassificationFromName(std::string_view name);
std::optional<core::BugKind> BugKindFromName(std::string_view name);

// The four EntryVerdict columns the journal and the solve cache both persist
// (classification, kind, cex_cycles and attempts, by name), added to a JSON
// object's members and read back range-checked: nullopt on any missing or
// bad column. unknown_reason is the journal's own column, since the cache
// holds decided verdicts only.
void AddVerdictColumns(const EntryVerdict& verdict,
                       std::map<std::string, telemetry::Json>& members);
std::optional<EntryVerdict> ReadVerdictColumns(const telemetry::Json& json);

// One report as its CRC-guarded journal line (trailing '\n' included).
std::string EncodeJournalRecord(const MutantReport& report);

// Decodes one line (no trailing newline). nullopt on any format, parse, or
// CRC failure.
std::optional<MutantReport> DecodeJournalRecord(std::string_view line);

// The records in file order, plus what replay dropped: complete lines that
// failed their CRC or decode (warned and skipped), a torn tail, and
// valid_bytes, the decodable prefix ResultJournal::Open keeps when it
// re-opens the journal for append.
using JournalReplay = support::RecordScan<MutantReport>;

// Replays the journal. A missing file is not an error — it yields an empty
// replay (resuming a campaign that never started is a fresh campaign).
StatusOr<JournalReplay> ReplayJournal(const std::string& path);

// Append half: an open journal file with record-granular durability (each
// Append is flushed and fsynced before it returns).
class ResultJournal {
 public:
  ResultJournal() = default;
  ~ResultJournal() { Close(); }

  ResultJournal(const ResultJournal&) = delete;
  ResultJournal& operator=(const ResultJournal&) = delete;

  // Opens `path` for appending, first truncating it to `keep_bytes` (the
  // replay's valid_bytes — this is what drops a torn tail). keep_bytes == 0
  // starts the journal fresh.
  Status Open(const std::string& path, uint64_t keep_bytes);
  bool is_open() const { return file_ != nullptr; }

  // Appends one record, durably. Chaos site "fault.journal.append".
  Status Append(const MutantReport& report);
  size_t appended() const { return appended_; }

  void Close();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  size_t appended_ = 0;
};

// Atomically replaces `path` with exactly `reports` (tmp + fsync + rename):
// the compaction step a finishing campaign runs so skipped records, torn
// tails, and stale baselines never outlive the run that found them.
Status WriteJournalFile(const std::string& path,
                        std::span<const MutantReport> reports);

}  // namespace aqed::fault
