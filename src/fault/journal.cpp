#include "fault/journal.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <system_error>

#include <unistd.h>

#include "aqed/checker.h"
#include "support/failpoint.h"
#include "support/io.h"
#include "support/record.h"
#include "support/verdict.h"
#include "telemetry/json.h"

namespace aqed::fault {

namespace {

std::string EncodePayload(const MutantReport& report) {
  using telemetry::Json;
  // The uint64 seed and cycle count go as their int64 bit patterns, which
  // Dump prints exactly; DecodePayload casts them back.
  std::map<std::string, Json> members = {
      {"design", Json(report.design)},
      {"op", Json(MutationOpName(report.key.op))},
      {"node", Json(int64_t{report.key.node})},
      {"seed", Json(static_cast<int64_t>(report.key.seed))},
      // Provenance; 0 = untraced. Written unconditionally so records
      // round-trip field for field, read leniently so pre-trace journals
      // still replay.
      {"trace_id", Json(support::Hex64(report.trace_id))},
      {"unknown_reason", Json(ToString(report.unknown_reason))},
      {"wall_seconds", Json(report.wall_seconds)},
      {"golden_ran", Json(report.golden_ran)},
      {"golden_detected", Json(report.golden_detected)},
      {"golden_cycles", Json(static_cast<int64_t>(report.golden_cycles))},
      {"golden_seconds", Json(report.golden_seconds)},
  };
  AddVerdictColumns(report, members);
  return telemetry::Dump(Json::Object(std::move(members)));
}

std::optional<MutantReport> DecodePayload(std::string_view payload) {
  const std::optional<telemetry::Json> json = telemetry::ParseJson(payload);
  if (!json) return std::nullopt;
  const auto design = json->GetString("design");
  const auto op = MutationOpFromName(json->GetString("op").value_or(""));
  const auto node = json->GetInt("node", 0, UINT32_MAX);
  const auto seed = json->GetInt("seed", INT64_MIN, INT64_MAX);
  const auto verdict = ReadVerdictColumns(*json);
  // support/verdict.h maps the outcome enums; its EnumFromName also serves
  // the fault-local ones below.
  const auto unknown =
      UnknownReasonFromString(json->GetString("unknown_reason").value_or(""));
  const auto wall_seconds = json->GetDouble("wall_seconds");
  const auto golden_ran = json->GetBool("golden_ran");
  const auto golden_detected = json->GetBool("golden_detected");
  const auto golden_cycles =
      json->GetInt("golden_cycles", INT64_MIN, INT64_MAX);
  const auto golden_seconds = json->GetDouble("golden_seconds");
  if (!design || !op || !node || !seed || !verdict || !unknown ||
      !wall_seconds || !golden_ran || !golden_detected || !golden_cycles ||
      !golden_seconds) {
    return std::nullopt;
  }

  MutantReport report;
  static_cast<EntryVerdict&>(report) = *verdict;
  report.unknown_reason = *unknown;
  report.design = *design;
  report.key.op = *op;
  report.key.node = static_cast<ir::NodeRef>(*node);
  report.key.seed = static_cast<uint64_t>(*seed);
  // trace_id is optional (journals written before it existed lack the
  // field) and deliberately lax: a malformed value degrades to "untraced",
  // never poisons an otherwise-valid classification record.
  report.trace_id = json->GetHex64("trace_id").value_or(0);
  report.wall_seconds = *wall_seconds;
  report.golden_ran = *golden_ran;
  report.golden_detected = *golden_detected;
  report.golden_cycles = static_cast<uint64_t>(*golden_cycles);
  report.golden_seconds = *golden_seconds;
  return report;
}

}  // namespace

std::optional<MutationOp> MutationOpFromName(std::string_view name) {
  return EnumFromName(name, MutationOp::kOffByOne, MutationOpName);
}

std::optional<Classification> ClassificationFromName(std::string_view name) {
  return EnumFromName(name, Classification::kUnknown, ClassificationName);
}

std::optional<core::BugKind> BugKindFromName(std::string_view name) {
  return EnumFromName(name, core::BugKind::kSingleActionCorrectness,
                      core::BugKindName);
}

void AddVerdictColumns(const EntryVerdict& verdict,
                       std::map<std::string, telemetry::Json>& members) {
  using telemetry::Json;
  members.emplace("classification",
                  Json(ClassificationName(verdict.classification)));
  members.emplace("kind", Json(core::BugKindName(verdict.kind)));
  members.emplace("cex_cycles", Json(int64_t{verdict.cex_cycles}));
  members.emplace("attempts", Json(int64_t{verdict.attempts}));
}

std::optional<EntryVerdict> ReadVerdictColumns(const telemetry::Json& json) {
  const auto classification =
      ClassificationFromName(json.GetString("classification").value_or(""));
  const auto kind = BugKindFromName(json.GetString("kind").value_or(""));
  const auto cex_cycles = json.GetInt("cex_cycles", 0, UINT32_MAX);
  const auto attempts = json.GetInt("attempts", 0, UINT32_MAX);
  if (!classification || !kind || !cex_cycles || !attempts) {
    return std::nullopt;
  }
  EntryVerdict verdict;
  verdict.classification = *classification;
  verdict.kind = *kind;
  verdict.cex_cycles = static_cast<uint32_t>(*cex_cycles);
  verdict.attempts = static_cast<uint32_t>(*attempts);
  return verdict;
}

std::string EncodeJournalRecord(const MutantReport& report) {
  return support::SealRecord(EncodePayload(report));
}

std::optional<MutantReport> DecodeJournalRecord(std::string_view line) {
  const std::optional<std::string_view> payload = support::OpenRecord(line);
  if (!payload) return std::nullopt;
  return DecodePayload(*payload);
}

StatusOr<JournalReplay> ReplayJournal(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return JournalReplay{};
  StatusOr<std::string> contents = support::ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  JournalReplay replay = support::ScanRecords(contents.value(), DecodePayload);
  if (replay.skipped_records > 0) {
    std::fprintf(stderr, "[journal] %s: skipped %zu corrupt record(s)\n",
                 path.c_str(), replay.skipped_records);
  }
  return replay;
}

Status ResultJournal::Open(const std::string& path, uint64_t keep_bytes) {
  Close();
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (!ec && size > keep_bytes) {
    // Drop the torn tail (and any trailing corrupt records) before the
    // first new append lands, so a resumed journal never interleaves a new
    // record with half of an old one.
    std::filesystem::resize_file(path, keep_bytes, ec);
    if (ec) {
      return Status::Error("journal truncate failed on '" + path +
                           "': " + ec.message());
    }
  }
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::Error("cannot open journal '" + path + "' for append");
  }
  path_ = path;
  appended_ = 0;
  return Status::Ok();
}

Status ResultJournal::Append(const MutantReport& report) {
  AQED_CHECK(file_ != nullptr, "Append on a closed journal");
  // Chaos site: simulates a crash (throw) or an I/O error (error) at the
  // exact moment a kill -9 mid-append would hit.
  if (AQED_FAILPOINT("fault.journal.append")) {
    return Status::Error("journal append failed (failpoint)");
  }
  const std::string line = EncodeJournalRecord(report);
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    return Status::Error("journal write failed on '" + path_ + "'");
  }
  // Record-granular durability: the whole point of a write-ahead journal is
  // that a classification survives the very next instruction's crash.
  if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    return Status::Error("journal flush failed on '" + path_ + "'");
  }
  ++appended_;
  return Status::Ok();
}

void ResultJournal::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status WriteJournalFile(const std::string& path,
                        std::span<const MutantReport> reports) {
  std::string contents;
  for (const MutantReport& report : reports) {
    contents += EncodeJournalRecord(report);
  }
  return support::WriteFileDurable(path, contents);
}

}  // namespace aqed::fault
