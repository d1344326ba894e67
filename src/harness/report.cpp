#include "harness/report.hpp"

#include <cstdio>

#include "harness/deploy.hpp"
#include "net/buffer.hpp"
#include "net/network.hpp"
#include "net/switch_buffer.hpp"

namespace mrmtp::harness {

std::string Table::str() const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto render_row = [&](const std::vector<std::string>& cells) {
    std::string line;
    for (std::size_t c = 0; c < widths.size(); ++c) {
      std::string cell = c < cells.size() ? cells[c] : "";
      line += cell;
      if (c + 1 < widths.size()) {
        line.append(widths[c] - cell.size() + 2, ' ');
      }
    }
    line += "\n";
    return line;
  };

  std::string out = render_row(columns_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  out += std::string(total > 2 ? total - 2 : total, '-') + "\n";
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

std::string Table::csv() const {
  auto render = [](const std::vector<std::string>& cells) {
    std::string line;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c != 0) line += ",";
      line += cells[c];
    }
    return line + "\n";
  };
  std::string out = render(columns_);
  for (const auto& row : rows_) out += render(row);
  return out;
}

void Table::print(bool with_csv) const {
  std::fputs(str().c_str(), stdout);
  if (with_csv) {
    std::fputs("\nCSV:\n", stdout);
    std::fputs(csv().c_str(), stdout);
  }
}

std::string fmt(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

Table link_direction_table(const net::Network& network, bool busy_only) {
  Table table({"direction", "delivered", "link_down", "dst_down", "impaired",
               "blackhole", "queue_full", "ctrl_drop", "data_drop",
               "buf_drop", "ecn", "pause_tx", "pause_rx", "pause_ms",
               "ctrl_hw_us", "data_hw_us", "dup"});
  auto row = [&](const net::Port& from, const net::Port& to,
                 const net::Link::DirStats& s) {
    table.add_row({from.str() + " -> " + to.str(), std::to_string(s.delivered),
                   std::to_string(s.dropped_link_down),
                   std::to_string(s.dropped_dst_down),
                   std::to_string(s.dropped_impairment),
                   std::to_string(s.dropped_blackhole),
                   std::to_string(s.dropped_queue_full),
                   std::to_string(s.dropped_queue_control),
                   std::to_string(s.dropped_queue_full -
                                  s.dropped_queue_control),
                   std::to_string(s.dropped_buffer),
                   std::to_string(s.ecn_marked()),
                   std::to_string(s.pause_tx), std::to_string(s.pause_rx),
                   fmt(static_cast<double>(s.pause_ns) / 1e6, 1),
                   fmt(static_cast<double>(s.control_backlog_hw_ns) / 1e3, 1),
                   fmt(static_cast<double>(s.data_backlog_hw_ns) / 1e3, 1),
                   std::to_string(s.duplicated)});
  };
  for (const auto& link : network.links()) {
    const net::Link::Stats& s = link->stats();
    if (busy_only && s.ab.dropped_total() == 0 && s.ba.dropped_total() == 0) {
      continue;
    }
    row(link->a(), link->b(), s.ab);
    row(link->b(), link->a(), s.ba);
  }
  return table;
}

Table hot_path_table(Deployment& dep, bool busy_only) {
  Table table({"node", "forwarded", "allocs_avoided", "cache_hits",
               "cache_misses", "hit_rate"});
  auto rate = [](std::uint64_t hits, std::uint64_t misses) {
    std::uint64_t total = hits + misses;
    return total == 0
               ? std::string("-")
               : fmt(static_cast<double>(hits) / static_cast<double>(total), 3);
  };
  if (dep.proto() == Proto::kMtp) {
    std::uint64_t fwd = 0, avoided = 0, hits = 0, misses = 0;
    for (std::uint32_t d = 0;
         d < static_cast<std::uint32_t>(dep.router_count()); ++d) {
      const auto& s = dep.mtp(d).mtp_stats();
      fwd += s.data_forwarded;
      avoided += s.allocs_avoided;
      hits += s.up_cache_hits;
      misses += s.up_cache_misses;
      if (busy_only && s.data_forwarded == 0) continue;
      table.add_row({dep.router(d).name(), std::to_string(s.data_forwarded),
                     std::to_string(s.allocs_avoided),
                     std::to_string(s.up_cache_hits),
                     std::to_string(s.up_cache_misses),
                     rate(s.up_cache_hits, s.up_cache_misses)});
    }
    table.add_row({"TOTAL", std::to_string(fwd), std::to_string(avoided),
                   std::to_string(hits), std::to_string(misses),
                   rate(hits, misses)});
  } else {
    // BGP speakers run the cached-LPM fast path in their RouteTable, so the
    // same columns apply: avoided candidate-vector walks and epoch-validated
    // cache hits per node. They count transit lookups of the data (probe)
    // stream only: BGP and BFD packets to a link neighbor skip the FIB
    // (transport::L3Node's link-peer table), so the columns track the probe
    // flow, not the fabric size or the control plane.
    std::uint64_t fwd = 0, avoided = 0, hits = 0, misses = 0;
    for (std::uint32_t d = 0;
         d < static_cast<std::uint32_t>(dep.router_count()); ++d) {
      const auto& ss = dep.bgp(d).routes().select_stats();
      const auto& fs = dep.bgp(d).forwarding_stats();
      fwd += fs.forwarded;
      avoided += ss.allocs_avoided;
      hits += ss.cache_hits;
      misses += ss.cache_misses;
      if (busy_only && fs.forwarded == 0) continue;
      table.add_row({dep.router(d).name(), std::to_string(fs.forwarded),
                     std::to_string(ss.allocs_avoided),
                     std::to_string(ss.cache_hits),
                     std::to_string(ss.cache_misses),
                     rate(ss.cache_hits, ss.cache_misses)});
    }
    table.add_row({"TOTAL", std::to_string(fwd), std::to_string(avoided),
                   std::to_string(hits), std::to_string(misses),
                   rate(hits, misses)});
  }
  const sim::Scheduler& sched = dep.ctx().sched;
  table.add_row({"[scheduler]",
                 "events=" + std::to_string(sched.events_fired()),
                 "queue_hw=" + std::to_string(sched.queue_high_water()),
                 "resched=" + std::to_string(sched.reschedules()), "", ""});
  const net::BufferPoolStats& bp = net::BufferPool::instance().stats();
  table.add_row({"[buffer-pool]",
                 "allocs=" + std::to_string(bp.slab_allocs),
                 "reuses=" + std::to_string(bp.slab_reuses),
                 "live_hw=" + std::to_string(bp.live_high_water),
                 "copied=" + std::to_string(bp.bytes_copied),
                 "shared=" + std::to_string(bp.bytes_shared)});
  table.add_row({"[buffer-pool]",
                 "prepend_inplace=" + std::to_string(bp.prepend_inplace),
                 "prepend_copies=" + std::to_string(bp.prepend_copies),
                 "oversize=" + std::to_string(bp.oversize_allocs),
                 "regrows=" + std::to_string(bp.writer_regrows),
                 "import=" + std::to_string(bp.import_bytes)});
  // Finite switch buffers, summed over every router that has one (absent on
  // fabrics deployed without DeployOptions::switch_buffer).
  std::uint64_t admitted = 0, bdrops = 0, marks = 0, pauses = 0;
  std::uint64_t occ_hw = 0;
  bool any_buffered = false;
  for (std::uint32_t d = 0;
       d < static_cast<std::uint32_t>(dep.router_count()); ++d) {
    const net::SwitchBuffer* sb = dep.router(d).switch_buffer();
    if (sb == nullptr) continue;
    any_buffered = true;
    const net::SwitchBufferStats& s = sb->stats();
    admitted += s.data_admitted;
    bdrops += s.dropped;
    marks += s.ecn_marked;
    pauses += s.pause_onsets;
    occ_hw = std::max(occ_hw, s.occupancy_hw);
  }
  if (any_buffered) {
    table.add_row({"[buffers]", "admitted=" + std::to_string(admitted),
                   "drops=" + std::to_string(bdrops),
                   "ecn=" + std::to_string(marks),
                   "pauses=" + std::to_string(pauses),
                   "occ_hw=" + std::to_string(occ_hw)});
  }
  return table;
}

}  // namespace mrmtp::harness
