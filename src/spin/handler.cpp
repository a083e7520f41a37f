#include "spin/handler.hpp"

namespace nadfs::spin {

const char* handler_type_name(HandlerType t) {
  switch (t) {
    case HandlerType::kHeader: return "HH";
    case HandlerType::kPayload: return "PH";
    case HandlerType::kCompletion: return "CH";
  }
  return "?";
}

HandlerCtx::Cmd& HandlerCtx::record(Cmd::Kind kind) {
  Cmd& cmd = cmds_.emplace_back();
  cmd.kind = kind;
  cmd.cycle_offset = cycles_;
  return cmd;
}

void HandlerCtx::send(net::Packet pkt) { record(Cmd::Kind::kSend).pkt = std::move(pkt); }

void HandlerCtx::dma_to_storage(std::uint64_t addr, ByteSpan data) {
  Cmd& cmd = record(Cmd::Kind::kDma);
  cmd.addr = addr;
  cmd.data = data;
}

void HandlerCtx::dma_to_storage(std::uint64_t addr, Bytes&& data) {
  Cmd& cmd = record(Cmd::Kind::kDma);
  cmd.addr = addr;
  cmd.owned = std::move(data);
  cmd.data = cmd.owned;  // the heap buffer stays put when the command moves
}

void HandlerCtx::storage_fence() { record(Cmd::Kind::kFence); }

void HandlerCtx::send_from_storage(net::Packet pkt, std::uint64_t addr, std::size_t len) {
  Cmd& cmd = record(Cmd::Kind::kSendFromStorage);
  cmd.pkt = std::move(pkt);
  cmd.addr = addr;
  cmd.len = len;
}

void HandlerCtx::trim_storage(std::uint64_t addr, std::uint64_t len) {
  Cmd& cmd = record(Cmd::Kind::kTrim);
  cmd.addr = addr;
  cmd.len = static_cast<std::size_t>(len);
}

bool HandlerCtx::storage_trimmed(std::uint64_t addr, std::uint64_t len) {
  return storage_prober_ ? storage_prober_(addr, len) : false;
}

void HandlerCtx::notify_host(std::uint64_t code, std::uint64_t arg) {
  Cmd& cmd = record(Cmd::Kind::kNotify);
  cmd.code = code;
  cmd.arg = arg;
}

}  // namespace nadfs::spin
