// Seeded mutation fuzzing of every decoder that reads bytes from outside the
// process: CRC-guarded journal records and solve-cache lines (one line at a
// time and as whole files), bare JSON, the service protocol's request and
// response payloads, the service's length-prefixed frames as read from a
// socket, a live server's request handling, DIMACS CNF and BTOR2 models.
//
// Each case starts from valid encoder output and applies a few random byte
// flips, truncations, splices and token insertions. Record payloads are
// mutated under the CRC and then re-sealed most of the time, so the field
// decoders behind the checksum see the damage too. The properties: nothing
// crashes, aborts or trips a sanitizer (the asan-ubsan build runs this file
// like any other test), every rejection is a nullopt or a Status with a
// message, and whatever a decoder accepts survives its own encoder (or, for
// the model formats, is well formed: a CNF's literals lie within its
// variable count, an imported system passes Validate()).
//
// No libFuzzer: a fixed seed and bounded iteration counts keep it a
// deterministic, few-second unit test.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "accel/dataflow.h"
#include "accel/multi_action.h"
#include "fault/journal.h"
#include "ir/btor2.h"
#include "sat/dimacs.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "support/io.h"
#include "support/record.h"
#include "support/rng.h"
#include "telemetry/json.h"

namespace aqed {
namespace {

constexpr uint64_t kSeed = 0xC0DECF022;
constexpr int kIterations = 10000;

// Bytes and tokens that sit on decoder boundaries: JSON structure, number
// grammar, escapes, and integers just past the uint32/int64/uint64 limits.
constexpr std::string_view kTokens[] = {
    "\"", "\\", "{", "}", "[", "]", ":", ",", "-", ".", "e", "0", "9",
    "\n", std::string_view("\0", 1), "\xff", "1e300", "1e999", "-1", "2.5",
    "4294967295", "4294967296", "9223372036854775808",
    "18446744073709551616", "\\u0000", "\\ud800", "\\ud83d\\ude00", "null",
    "true", "[]", "{}", "\"0000000000000000\"", "\"zzzzzzzzzzzzzzzz\"",
};

// DIMACS and BTOR2 grammar: keywords, separators and numbers on the
// uint32/int64 and 2^31 variable-count limits.
constexpr std::string_view kModelTokens[] = {
    " ", "\n", "\t", "\r", "-", "0", "1", "-0", "+1", ";", "p", "cnf", "c",
    "2147483647", "2147483648", "-2147483648", "4294967295", "4294967296",
    "9223372036854775808", "-9223372036854775809", "sort", "bitvec",
    "array", "const", "constd", "consth", "input", "state", "init", "next",
    "bad", "constraint", "output", "add", "mul", "udiv", "ite", "slice",
    "uext", "sext", "concat", "read", "write", "eq", "not", "65", "64",
};

std::string Mutate(Rng& rng, std::string text,
                   const std::vector<std::string>& corpus,
                   std::span<const std::string_view> tokens = kTokens) {
  const uint64_t steps = 1 + rng.NextBelow(3);
  for (uint64_t step = 0; step < steps; ++step) {
    const size_t at = text.empty() ? 0 : rng.NextBelow(text.size() + 1);
    switch (rng.NextBelow(5)) {
      case 0:  // flip one bit
        if (!text.empty()) {
          text[at % text.size()] ^= static_cast<char>(1 << rng.NextBelow(8));
        }
        break;
      case 1:  // truncate
        text.resize(at);
        break;
      case 2: {  // splice: this prefix, another entry's suffix
        const std::string& other = corpus[rng.NextBelow(corpus.size())];
        text = text.substr(0, at) + other.substr(rng.NextBelow(other.size()));
        break;
      }
      case 3: {  // insert a boundary token
        const std::string_view token = tokens[rng.NextBelow(tokens.size())];
        text.insert(at, token);
        break;
      }
      default:  // overwrite one byte with a token's first byte
        if (!text.empty()) {
          text[at % text.size()] = tokens[rng.NextBelow(tokens.size())][0];
        }
        break;
    }
  }
  return text;
}

// A mutated record line: mostly the payload re-sealed under a valid CRC
// (reaching the field decoders), sometimes raw damage to the whole line.
std::string MutateRecord(Rng& rng, const std::string& line,
                         const std::vector<std::string>& payloads) {
  if (rng.Chance(1, 4)) return Mutate(rng, line, payloads);
  const std::optional<std::string_view> payload = support::OpenRecord(line);
  std::string sealed = support::SealRecord(
      Mutate(rng, std::string(payload.value_or(line)), payloads));
  sealed.pop_back();
  return sealed;
}

std::string TempPath(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("aqed_fuzz_" + std::string(tag) + "_" + std::to_string(::getpid())))
      .string();
}

// Lines without their trailing newline.
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t end = text.find('\n', start);
    lines.push_back(text.substr(start, end - start));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return lines;
}

// Upper bound on the records a file can hold (mutations may add newlines).
size_t LineCount(const std::string& text) {
  return static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
}

std::vector<std::string> PayloadsOf(const std::vector<std::string>& lines) {
  std::vector<std::string> payloads;
  for (const std::string& line : lines) {
    payloads.emplace_back(support::OpenRecord(line).value());
  }
  return payloads;
}

std::vector<std::string> JournalCorpus() {
  std::vector<std::string> lines;
  fault::MutantReport report;
  report.design = "memctrl-\"fifo\"\n\x01";
  report.key = {fault::MutationOp::kOperatorSwap, 42, 0xFFFF'FFFF'FFFF'FFF7};
  report.classification = fault::Classification::kDetectedRb;
  report.kind = core::BugKind::kResponseBound;
  report.cex_cycles = 9;
  report.attempts = 3;
  report.trace_id = 0xFEEDFACECAFEF00D;
  report.wall_seconds = 0.125;
  report.golden_ran = true;
  report.golden_cycles = 77;
  report.golden_seconds = 2.5;
  for (int variant = 0; variant < 3; ++variant) {
    std::string line = fault::EncodeJournalRecord(report);
    line.pop_back();
    lines.push_back(std::move(line));
    report.key.op = fault::MutationOp::kConstPerturb;
    report.classification = fault::Classification::kUnknown;
    report.unknown_reason = UnknownReason::kDeadline;
    report.trace_id = 0;
  }
  return lines;
}

std::vector<std::string> CacheCorpus() {
  service::SolveCache cache;
  service::CacheKey key{0xD16E57D16E57D16E, 0xC0F1C0F1C0F1C0F1,
                        "op-swap@n42#seed=0xa9ed", 16};
  service::CachedVerdict verdict;
  verdict.classification = fault::Classification::kDetectedFc;
  verdict.kind = core::BugKind::kFunctionalConsistency;
  verdict.cex_cycles = 5;
  verdict.attempts = 2;
  verdict.trace_id = 0x00C0FFEE12345678;
  cache.Store(key, verdict);
  // Assigned from a std::string: g++ 12 at -O3 reports a false -Wrestrict
  // overlap for a short literal assigned over a longer string.
  key.mutant_key = std::string("-");
  verdict.classification = fault::Classification::kSurvived;
  verdict.trace_id = 0;
  cache.Store(key, verdict);
  const std::string path = TempPath("cache_corpus");
  EXPECT_TRUE(cache.Save(path).ok());
  const std::string text = support::ReadFileToString(path).value();
  std::remove(path.c_str());
  return Lines(text);
}

std::vector<std::string> ProtocolCorpus() {
  service::CampaignRequest request;
  request.tenant = "ci";
  request.trace_id = 0xFEEDFACECAFEF00D;
  request.designs = {"alu", "memctrl-fifo"};
  request.deadline_ms = 1500;
  service::CampaignResponse campaign;
  campaign.ok = true;
  campaign.digest = 0xFEDCBA9876543210;
  campaign.mutants = 60;
  campaign.wall_seconds = 12.5;
  campaign.table = "design  mutants\ntoy  60\n";
  service::StatusResponse status;
  status.ok = true;
  status.tenants = {{"ci", 2}, {"nightly", 1}};
  status.governor_pressure = -1;
  status.request_p99_ms = 4.5;
  service::HealthResponse health;
  health.ok = true;
  health.state = "ok";
  service::MetricsResponse metrics;
  metrics.ok = true;
  metrics.prometheus = "# TYPE x counter\nx 1\n";
  return {service::EncodeCampaignRequest(request),
          service::EncodeCampaignResponse(campaign),
          service::EncodeStatusResponse(status),
          service::EncodeHealthResponse(health),
          service::EncodeMetricsResponse(metrics),
          service::EncodeError("busy"),
          service::EncodePong(),
          service::EncodePing()};
}

// Field-wise equality; doubles by value, so -0 and 0 (which the JSON number
// grammar does not keep apart) compare equal.
bool SameReport(const fault::MutantReport& a, const fault::MutantReport& b) {
  return a.design == b.design && a.key == b.key &&
         a.classification == b.classification && a.kind == b.kind &&
         a.cex_cycles == b.cex_cycles && a.attempts == b.attempts &&
         a.unknown_reason == b.unknown_reason &&
         a.wall_seconds == b.wall_seconds && a.trace_id == b.trace_id &&
         a.golden_ran == b.golden_ran &&
         a.golden_detected == b.golden_detected &&
         a.golden_cycles == b.golden_cycles &&
         a.golden_seconds == b.golden_seconds;
}

// Test inputs go to disk without the fsync of WriteFileDurable: the files
// only have to outlive the next call.
void WriteFile(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr) << path;
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), file), text.size());
  ASSERT_EQ(std::fclose(file), 0);
}

template <typename T>
void ExpectDecodedOrStatus(const StatusOr<T>& result) {
  if (!result.ok()) {
    EXPECT_FALSE(result.status().message().empty());
  }
}

TEST(CodecFuzzTest, JournalRecordsNeverCrashAndSurviveReencoding) {
  const std::vector<std::string> corpus = JournalCorpus();
  const std::vector<std::string> payloads = PayloadsOf(corpus);
  Rng rng(kSeed);
  const std::string path = TempPath("journal");
  size_t accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string line =
        MutateRecord(rng, corpus[rng.NextBelow(corpus.size())], payloads);
    const std::optional<fault::MutantReport> decoded =
        fault::DecodeJournalRecord(line);
    if (decoded) {
      ++accepted;
      std::string again = fault::EncodeJournalRecord(*decoded);
      again.pop_back();
      const std::optional<fault::MutantReport> redecoded =
          fault::DecodeJournalRecord(again);
      ASSERT_TRUE(redecoded.has_value()) << line;
      EXPECT_TRUE(SameReport(*redecoded, *decoded)) << line;
    }
    if (i % 16 == 0) {
      // A whole file: a few damaged lines, maybe without the last newline.
      std::string text;
      const uint64_t lines = 1 + rng.NextBelow(4);
      for (uint64_t n = 0; n < lines; ++n) {
        text += MutateRecord(rng, corpus[rng.NextBelow(corpus.size())],
                             payloads);
        if (n + 1 < lines || rng.Chance(1, 2)) text += '\n';
      }
      WriteFile(path, text);
      const StatusOr<fault::JournalReplay> replay = fault::ReplayJournal(path);
      ExpectDecodedOrStatus(replay);
      if (replay.ok()) {
        EXPECT_LE(replay.value().records.size() +
                      replay.value().skipped_records,
                  LineCount(text));
        EXPECT_LE(replay.value().valid_bytes, text.size());
      }
    }
  }
  std::remove(path.c_str());
  // The mutations must not be so heavy that nothing gets past the decoder.
  EXPECT_GT(accepted, 0u);
}

TEST(CodecFuzzTest, CacheLinesNeverCrashTheLoader) {
  const std::vector<std::string> corpus = CacheCorpus();
  ASSERT_EQ(corpus.size(), 2u);
  const std::vector<std::string> payloads = PayloadsOf(corpus);
  Rng rng(kSeed + 1);
  const std::string path = TempPath("cache");
  for (int i = 0; i < kIterations / 20; ++i) {
    std::string text;
    const uint64_t lines = 1 + rng.NextBelow(4);
    for (uint64_t n = 0; n < lines; ++n) {
      text += MutateRecord(rng, corpus[rng.NextBelow(corpus.size())],
                           payloads);
      if (n + 1 < lines || rng.Chance(1, 2)) text += '\n';
    }
    WriteFile(path, text);
    service::SolveCache cache;
    ASSERT_TRUE(cache.Load(path).ok());
    EXPECT_LE(cache.size() + cache.poisoned(), LineCount(text));
    // Whatever loaded saves and reloads to the same entries.
    ASSERT_TRUE(cache.Save(path).ok());
    service::SolveCache reloaded;
    ASSERT_TRUE(reloaded.Load(path).ok());
    EXPECT_EQ(reloaded.size(), cache.size());
    EXPECT_EQ(reloaded.poisoned(), 0u);
  }
  std::remove(path.c_str());
}

TEST(CodecFuzzTest, JsonAndProtocolPayloadsNeverCrashTheDecoders) {
  const std::vector<std::string> corpus = ProtocolCorpus();
  Rng rng(kSeed + 2);
  for (int i = 0; i < kIterations; ++i) {
    const std::string payload =
        Mutate(rng, corpus[rng.NextBelow(corpus.size())], corpus);
    if (const std::optional<telemetry::Json> json =
            telemetry::ParseJson(payload)) {
      (void)telemetry::Dump(*json);
      (void)service::RequestType(*json);
      ExpectDecodedOrStatus(service::DecodeCampaignRequest(*json));
    }
    ExpectDecodedOrStatus(service::DecodeCampaignResponse(payload));
    ExpectDecodedOrStatus(service::DecodeStatusResponse(payload));
    ExpectDecodedOrStatus(service::DecodeHealthResponse(payload));
    ExpectDecodedOrStatus(service::DecodeMetricsResponse(payload));
    (void)service::IsOkResponse(payload);
  }
}

// Streams of one to three frames in the wire form WriteFrame emits (a
// decimal length line, the payload, a newline), mutated and fed through a
// socketpair whose write end is then closed. ReadFrame is called until it
// fails, as the server does: the closed end guarantees that it does. Each
// frame it accepts is a run of the stream's bytes within the payload limit,
// and each consumes at least three bytes ("0\n\n").
TEST(CodecFuzzTest, FramedStreamsNeverCrashReadFrame) {
  const std::vector<std::string> payloads = ProtocolCorpus();
  std::vector<std::string> corpus;
  for (const std::string& payload : payloads) {
    corpus.push_back(std::to_string(payload.size()) + "\n" + payload + "\n");
  }
  Rng rng(kSeed + 5);
  size_t accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::string stream;
    for (uint64_t f = 1 + rng.NextBelow(3); f > 0; --f) {
      stream += corpus[rng.NextBelow(corpus.size())];
    }
    stream = Mutate(rng, stream, corpus);
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(::write(fds[1], stream.data(), stream.size()),
              static_cast<ssize_t>(stream.size()));
    ::close(fds[1]);
    size_t frames = 0;
    for (;;) {
      const StatusOr<std::string> frame = service::ReadFrame(fds[0]);
      if (!frame.ok()) {
        EXPECT_FALSE(frame.status().message().empty());
        break;
      }
      ++frames;
      EXPECT_LE(frame.value().size(), service::kMaxFramePayload);
      EXPECT_NE(stream.find(frame.value()), std::string::npos) << stream;
      ASSERT_LE(3 * frames, stream.size()) << stream;
    }
    ::close(fds[0]);
    accepted += frames;
  }
  EXPECT_GT(accepted, 0u);
}

// Whether a request payload costs the server no more than the corpus's
// tiny campaign: anything that is not a well-formed campaign request, or a
// campaign of at most two alu mutants on one worker with no extras. The
// server caps neither `mutants` nor, at the default max_session_jobs 0, a
// request's `jobs` (and jobs 0 means one worker per core), so a mutant
// that asks for more could run for minutes or start many threads.
bool NoBiggerThanTheTinyCampaign(const std::string& payload) {
  const std::optional<telemetry::Json> json = telemetry::ParseJson(payload);
  if (!json || service::RequestType(*json) != "campaign") return true;
  const StatusOr<service::CampaignRequest> request =
      service::DecodeCampaignRequest(*json);
  if (!request.ok()) return true;
  const service::CampaignRequest& r = request.value();
  return r.designs == std::vector<std::string>{"alu"} &&
         r.num_mutants <= 2 && r.jobs == 1 && r.retries <= 4 &&
         !r.baseline && !r.with_aes;
}

// Mutated ping, status, health, metrics and tiny-campaign payloads, framed
// correctly and sent to a live server over one connection. Every reply is
// a frame whose JSON says ok:true, or ok:false with an error, and the
// server still answers a ping at the end.
TEST(CodecFuzzTest, ServerAnswersEveryMutatedRequest) {
  service::CampaignRequest tiny;
  tiny.tenant = "fuzz";
  tiny.trace_id = 0xFEEDFACECAFEF00D;
  tiny.designs = {"alu"};
  tiny.num_mutants = 2;
  tiny.seed = 7;
  const std::vector<std::string> corpus = {
      service::EncodePing(), service::EncodeStatusRequest(),
      service::EncodeHealthRequest(), service::EncodeMetricsRequest(),
      service::EncodeCampaignRequest(tiny)};
  service::ServerOptions options;
  options.socket_path = TempPath("server") + ".sock";
  service::AqedServer server(options);
  ASSERT_TRUE(server.Start().ok());
  service::Client client(options.socket_path);
  Rng rng(kSeed + 6);
  size_t answered = 0, campaigns = 0;
  for (int i = 0; i < kIterations / 5; ++i) {
    const std::string payload =
        Mutate(rng, corpus[rng.NextBelow(corpus.size())], corpus);
    if (!NoBiggerThanTheTinyCampaign(payload)) continue;
    const StatusOr<std::string> reply = client.Roundtrip(payload);
    ASSERT_TRUE(reply.ok()) << payload << ": " << reply.status().message();
    const std::optional<telemetry::Json> json =
        telemetry::ParseJson(reply.value());
    ASSERT_TRUE(json.has_value()) << payload << " -> " << reply.value();
    const std::optional<bool> ok = json->GetBool("ok");
    ASSERT_TRUE(ok.has_value()) << payload << " -> " << reply.value();
    if (!*ok) {
      EXPECT_FALSE(json->GetString("error").value_or("").empty())
          << payload << " -> " << reply.value();
    } else if (json->Find("digest") != nullptr) {
      ++campaigns;
    }
    ++answered;
  }
  EXPECT_TRUE(client.Ping().ok());
  server.Stop();
  EXPECT_GT(answered, 0u);
  EXPECT_GT(campaigns, 0u);  // some mutated campaigns still ran
}

TEST(CodecFuzzTest, DimacsNeverCrashesAndAcceptsOnlyDeclaredVariables) {
  sat::Cnf cnf;
  cnf.num_vars = 5;
  cnf.clauses = {{sat::Lit(0, false), sat::Lit(4, true)},
                 {sat::Lit(1, true), sat::Lit(2, false), sat::Lit(3, false)},
                 {sat::Lit(2, true)},
                 {}};
  const std::vector<std::string> corpus = {
      sat::ToDimacs(cnf), "c comment\np cnf 3 2\n1 -2 0\n-3 0\n"};
  Rng rng(kSeed + 3);
  size_t accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string text = Mutate(rng, corpus[rng.NextBelow(corpus.size())],
                                    corpus, kModelTokens);
    const StatusOr<sat::Cnf> parsed = sat::ParseDimacsString(text);
    ExpectDecodedOrStatus(parsed);
    if (!parsed.ok()) continue;
    ++accepted;
    for (const std::vector<sat::Lit>& clause : parsed.value().clauses) {
      for (const sat::Lit lit : clause) {
        ASSERT_LT(lit.var(), parsed.value().num_vars) << text;
      }
    }
  }
  EXPECT_GT(accepted, 0u);
}

TEST(CodecFuzzTest, Btor2ImportNeverCrashesAndAcceptsOnlyValidSystems) {
  std::vector<std::string> corpus;
  {
    ir::TransitionSystem ts;
    accel::BuildAlu(ts, {});
    corpus.push_back(ir::ToBtor2(ts));
  }
  {
    ir::TransitionSystem ts;
    accel::BuildDataflow(ts, {});
    corpus.push_back(ir::ToBtor2(ts));
  }
  Rng rng(kSeed + 4);
  size_t accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string text = Mutate(rng, corpus[rng.NextBelow(corpus.size())],
                                    corpus, kModelTokens);
    const StatusOr<std::unique_ptr<ir::TransitionSystem>> imported =
        ir::ImportBtor2String(text);
    ExpectDecodedOrStatus(imported);
    if (!imported.ok()) continue;
    ++accepted;
    const Status valid = imported.value()->Validate();
    EXPECT_TRUE(valid.ok()) << valid.message();
  }
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace aqed
