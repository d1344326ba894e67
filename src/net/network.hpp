// Network: owns all nodes and links of one simulated DCN.
#pragma once

#include <memory>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"

namespace mrmtp::net {

class Network {
 public:
  explicit Network(SimContext& ctx) : ctx_(ctx) {}

  /// Constructs a node of type T (forwarding `args` after the SimContext)
  /// and registers it. T must derive from Node.
  template <typename T, typename... Args>
  T& add_node(Args&&... args) {
    return add_node_on<T>(ctx_, std::forward<Args>(args)...);
  }

  /// Same, but the node lives on an explicit context — the sharded harness
  /// hands each device its owning shard's SimContext here. Node ids follow
  /// registration order regardless of placement, so a blueprint deploys to
  /// identical ids no matter how it is sharded.
  template <typename T, typename... Args>
  T& add_node_on(SimContext& ctx, Args&&... args) {
    auto node = std::make_unique<T>(ctx, std::forward<Args>(args)...);
    node->id_ = static_cast<std::uint32_t>(nodes_.size() + 1);
    T& ref = *node;
    nodes_.push_back(std::move(node));
    return ref;
  }

  /// Wires a new port on `a` to a new port on `b`; returns the link.
  Link& connect(Node& a, Node& b, Link::Params params = {}) {
    Port& pa = a.add_port();
    Port& pb = b.add_port();
    links_.push_back(std::make_unique<Link>(pa, pb, params));
    return *links_.back();
  }

  /// Calls start() on every node (after the whole topology is wired).
  void start_all() {
    for (auto& n : nodes_) n->start();
  }

  [[nodiscard]] Node& find(std::string_view name) const {
    for (auto& n : nodes_) {
      if (n->name() == name) return *n;
    }
    throw std::out_of_range("Network: no node named " + std::string(name));
  }

  [[nodiscard]] Node* find_or_null(std::string_view name) const {
    for (auto& n : nodes_) {
      if (n->name() == name) return n.get();
    }
    return nullptr;
  }

  [[nodiscard]] const std::vector<std::unique_ptr<Node>>& nodes() const {
    return nodes_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Link>>& links() const {
    return links_;
  }
  [[nodiscard]] SimContext& ctx() { return ctx_; }

 private:
  SimContext& ctx_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
};

}  // namespace mrmtp::net
