// Client side of the aqed-server protocol: connect, frame, decode.
//
// One Client is one connection; requests on it are answered in order.
// Batch clients (aqed-client --batch, the stress generator, the tests)
// open several Clients to exercise the server's admission ladder.
#pragma once

#include <string>
#include <string_view>

#include "service/protocol.h"
#include "support/status.h"

namespace aqed::service {

class Client {
 public:
  explicit Client(std::string socket_path)
      : socket_path_(std::move(socket_path)) {}
  ~Client() { Close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status Connect();
  bool connected() const { return fd_ >= 0; }
  void Close();

  // One framed request, one framed response (payload returned verbatim).
  StatusOr<std::string> Roundtrip(std::string_view request);

  // Typed helpers over Roundtrip. RunCampaign mints a trace id when the
  // request carries none, so every campaign a typed client sends is
  // traceable; the response echoes the id the campaign ran under.
  Status Ping();
  StatusOr<CampaignResponse> RunCampaign(const CampaignRequest& request);
  // Named ServerStatus (not Status) to keep clear of support::Status.
  StatusOr<StatusResponse> ServerStatus();
  StatusOr<HealthResponse> Health();
  StatusOr<MetricsResponse> Metrics();

 private:
  std::string socket_path_;
  int fd_ = -1;
};

}  // namespace aqed::service
