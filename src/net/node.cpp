#include "net/node.hpp"

#include <stdexcept>
#include <utility>

#include "net/link.hpp"
#include "net/switch_buffer.hpp"

namespace mrmtp::net {

Node::Node(SimContext& ctx, std::string name, std::uint32_t tier)
    : ctx_(ctx), name_(std::move(name)), tier_(tier) {}

Node::~Node() = default;

Port* Port::peer() const {
  if (link_ == nullptr) return nullptr;
  return &link_->other(*this);
}

std::string Port::str() const {
  return owner_->name() + ":" + std::to_string(number_);
}

Port& Node::add_port() {
  auto number = static_cast<std::uint32_t>(ports_.size() + 1);
  ports_.push_back(std::make_unique<Port>(*this, number));
  return *ports_.back();
}

void Node::throw_no_port(std::uint32_t number) const {
  throw std::out_of_range("Node " + name_ + ": no port " +
                          std::to_string(number));
}

void Node::transmit(Port& out, Frame&& frame) {
  if (&out.owner() != this) {
    throw std::logic_error("Node::transmit via foreign port");
  }
  if (!out.connected() || !out.admin_up()) return;
  out.link()->transmit(out, std::move(frame));
}

SwitchBuffer& Node::enable_switch_buffer(const SwitchBufferParams& params) {
  switch_buffer_ = std::make_unique<SwitchBuffer>(*this, params);
  return *switch_buffer_;
}

void Node::enable_path_select(util::PathSelect mode,
                              sim::Duration flowlet_gap) {
  path_select_ = mode;
  if (flowlet_gap.ns() > 0) flowlet_gap_ns_ = flowlet_gap.ns();
  if (mode == util::PathSelect::kWcmpFlowlet && flowlets_ == nullptr) {
    flowlets_ = std::make_unique<FlowletTable>();
  }
}

double Node::congestion_factor(std::uint32_t port_number) const {
  const Port& out = port(port_number);
  const Link* l = out.link();
  if (l == nullptr) return 1.0;
  const auto dir = l->direction_from(out);
  if (l->data_paused(dir)) return 0.05;
  // A zero threshold means the buffer marks no data frames; judge backlog
  // against the default ECN threshold then, as without a SwitchBuffer.
  std::uint64_t threshold = 64 * 1024;
  if (switch_buffer_ != nullptr &&
      switch_buffer_->params().ecn_data_threshold != 0) {
    threshold = switch_buffer_->params().ecn_data_threshold;
  }
  if (l->queued_data_bytes(dir) > threshold) return 0.25;
  return 1.0;
}

void Node::note_flowlet_reroute(std::uint32_t port_number) const {
  const Port& out = port(port_number);
  if (out.connected()) out.link()->note_flowlet_reroute(out);
}

void Node::set_interface_down(std::uint32_t port_number) {
  Port& p = port(port_number);
  if (!p.admin_up_) return;
  p.admin_up_ = false;
  on_port_down(p);
}

void Node::set_interface_up(std::uint32_t port_number) {
  Port& p = port(port_number);
  if (p.admin_up_) return;
  p.admin_up_ = true;
  on_port_up(p);
}

}  // namespace mrmtp::net
