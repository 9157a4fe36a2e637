#include "service/client.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace aqed::service {

Status Client::Connect() {
  if (fd_ >= 0) return Status::Ok();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    return Status::Error("socket path too long: " + socket_path_);
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Error(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::Error("connect '" + socket_path_ + "': " + error);
  }
  fd_ = fd;
  return Status::Ok();
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<std::string> Client::Roundtrip(std::string_view request) {
  const Status connected = Connect();
  if (!connected.ok()) return connected;
  const Status sent = WriteFrame(fd_, request);
  if (!sent.ok()) {
    Close();  // a half-written frame poisons the stream
    return sent;
  }
  StatusOr<std::string> response = ReadFrame(fd_);
  if (!response.ok()) Close();
  return response;
}

Status Client::Ping() {
  StatusOr<std::string> response = Roundtrip(EncodePing());
  if (!response.ok()) return response.status();
  if (!IsOkResponse(response.value())) {
    return Status::Error("ping rejected: " + response.value());
  }
  return Status::Ok();
}

StatusOr<CampaignResponse> Client::RunCampaign(const CampaignRequest& request) {
  CampaignRequest traced = request;
  if (traced.trace_id == 0) traced.trace_id = MintTraceId();
  StatusOr<std::string> response = Roundtrip(EncodeCampaignRequest(traced));
  if (!response.ok()) return response.status();
  return DecodeCampaignResponse(response.value());
}

StatusOr<StatusResponse> Client::ServerStatus() {
  StatusOr<std::string> response = Roundtrip(EncodeStatusRequest());
  if (!response.ok()) return response.status();
  return DecodeStatusResponse(response.value());
}

StatusOr<HealthResponse> Client::Health() {
  StatusOr<std::string> response = Roundtrip(EncodeHealthRequest());
  if (!response.ok()) return response.status();
  return DecodeHealthResponse(response.value());
}

StatusOr<MetricsResponse> Client::Metrics() {
  StatusOr<std::string> response = Roundtrip(EncodeMetricsRequest());
  if (!response.ok()) return response.status();
  return DecodeMetricsResponse(response.value());
}

}  // namespace aqed::service
