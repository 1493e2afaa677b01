#include "eccparity/layout.hpp"

#include <algorithm>
#include <stdexcept>

namespace eccsim::eccparity {

ParityLayout::ParityLayout(const dram::MemGeometry& geom, unsigned corr_bytes)
    : geom_(geom),
      map_(geom),
      // 0 physical channels is rejected below, with its own message.
      fd_channels_(std::max(1u, geom.fd_channels())),
      corr_bytes_(corr_bytes) {
  if (geom_.fd_channels() < 2) {
    throw std::invalid_argument("ParityLayout: needs >= 2 physical channels");
  }
  if (corr_bytes_ == 0 || corr_bytes_ > geom_.line_bytes) {
    throw std::invalid_argument("ParityLayout: bad correction size");
  }
  stripes_ = geom_.total_pages() / geom_.channels;
  const double r =
      static_cast<double>(corr_bytes_) / static_cast<double>(geom_.line_bytes);
  const double frac =
      1.125 * r / static_cast<double>(geom_.fd_channels() - 1);
  reserved_rows_ = static_cast<std::uint64_t>(
      static_cast<double>(geom_.rows_per_bank) * frac) + 1;
}

ParityLayout::Loc ParityLayout::locate(std::uint64_t line_index) const {
  const dram::AddressMap::PageSplit s = map_.split(line_index);
  Loc loc;
  loc.slot = s.slot;
  loc.plane = static_cast<std::uint32_t>(fd_channels_.quotient(s.channel));
  loc.channel = s.channel - loc.plane * geom_.fd_channels();
  loc.stripe = s.cpage;
  return loc;
}

std::uint64_t ParityLayout::line_of(std::uint32_t channel, std::uint32_t plane,
                                    std::uint64_t stripe,
                                    std::uint32_t slot) const {
  const std::uint32_t eff = plane * geom_.fd_channels() + channel;
  const std::uint64_t page = stripe * geom_.channels + eff;
  return page * geom_.lines_per_row() + slot;
}

GroupId ParityLayout::group_of(std::uint64_t line_index) const {
  const Loc loc = locate(line_index);
  const std::uint32_t n = geom_.fd_channels();
  GroupId id;
  id.slot = loc.slot;
  id.plane = loc.plane;
  if (loc.channel != loc.stripe % n) {
    id.leftover = false;
    id.index = loc.stripe;
  } else {
    id.leftover = true;
    id.index = loc.stripe / (n - 1);
  }
  return id;
}

std::vector<Member> ParityLayout::members(const GroupId& id) const {
  const std::uint32_t n = geom_.fd_channels();
  std::vector<Member> out;
  if (!id.leftover) {
    const std::uint64_t p = id.index;
    const std::uint32_t c_par = static_cast<std::uint32_t>(p % n);
    for (std::uint32_t c = 0; c < n; ++c) {
      if (c == c_par) continue;
      out.push_back(Member{c, line_of(c, id.plane, p, id.slot)});
    }
  } else {
    const std::uint64_t first = id.index * (n - 1);
    for (std::uint64_t p = first;
         p < first + (n - 1) && p < stripes_; ++p) {
      const auto c = static_cast<std::uint32_t>(p % n);
      out.push_back(Member{c, line_of(c, id.plane, p, id.slot)});
    }
  }
  return out;
}

std::uint32_t ParityLayout::parity_channel(const GroupId& id) const {
  const std::uint32_t n = geom_.fd_channels();
  if (!id.leftover) {
    return static_cast<std::uint32_t>(id.index % n);
  }
  // The leftover block covers stripes [g(N-1), (g+1)(N-1)), whose channels
  // are the N-1 consecutive residues starting at g(N-1) mod N; the missing
  // residue is (g(N-1) + N - 1) mod N.
  return static_cast<std::uint32_t>((id.index * (n - 1) + n - 1) % n);
}

dram::DramAddress ParityLayout::parity_line_address(const GroupId& id) const {
  // Place the parity in the reserved (top) rows of the same bank number the
  // covered data occupies (Fig. 4), in the parity channel.  Within the
  // reserved region, spread parities of different data rows round-robin.
  const std::uint64_t p =
      id.leftover ? id.index * (geom_.fd_channels() - 1) : id.index;
  dram::DramAddress a;
  // DramAddress.channel is the effective channel: the parity stays in the
  // same sub-channel plane as the data it covers.
  a.channel = id.plane * geom_.fd_channels() + parity_channel(id);
  a.bank = static_cast<std::uint32_t>(p % geom_.banks_per_rank);
  const std::uint64_t rb = p / geom_.banks_per_rank;
  a.rank = static_cast<std::uint32_t>(rb % geom_.ranks_per_channel);
  const std::uint64_t data_row = rb / geom_.ranks_per_channel;
  a.row = geom_.rows_per_bank - reserved_rows_ +
          (data_row % reserved_rows_);
  a.col = id.slot % geom_.lines_per_row();
  return a;
}

std::uint64_t ParityLayout::xor_cacheline_key(
    std::uint64_t line_index) const {
  const Loc loc = locate(line_index);
  // One XOR cacheline per (plane, stripe, slot/4); tag the namespace in the
  // top bits so keys never collide with data or ECC line identifiers.  With
  // one plane this is the classic stripe * buckets + bucket enumeration.
  const std::uint64_t buckets = geom_.lines_per_row() / 4;
  return (1ULL << 62) |
         ((loc.stripe * geom_.sub_channels + loc.plane) * buckets +
          loc.slot / 4);
}

GroupId ParityLayout::group_for_xor_key(std::uint64_t key) const {
  const std::uint64_t v = key & ~(1ULL << 62);
  const std::uint64_t buckets = geom_.lines_per_row() / 4;
  GroupId g;
  g.leftover = false;
  g.slot = static_cast<std::uint32_t>(v % buckets) * 4;
  const std::uint64_t q = v / buckets;
  g.plane = static_cast<std::uint32_t>(q % geom_.sub_channels);
  g.index = q / geom_.sub_channels;
  return g;
}

std::vector<std::uint64_t> ParityLayout::co_retired_pages(
    std::uint64_t line_index) const {
  const Loc loc = locate(line_index);
  const std::uint32_t n = geom_.fd_channels();
  const std::uint32_t base = loc.plane * n;  // first effective channel
  std::vector<std::uint64_t> pages;
  // Pages sharing primary groups with this page: the other pages of the
  // stripe (same plane only -- planes never share groups).
  for (std::uint32_t c = 0; c < n; ++c) {
    pages.push_back(loc.stripe * geom_.channels + base + c);
  }
  // Pages sharing its leftover group (if this page is a leftover for any
  // slot -- the leftover role is per-line but constant across the page).
  if (loc.channel == loc.stripe % n) {
    const std::uint64_t g = loc.stripe / (n - 1);
    const std::uint64_t first = g * (n - 1);
    for (std::uint64_t p = first; p < first + (n - 1) && p < stripes_; ++p) {
      if (p == loc.stripe) continue;
      pages.push_back(p * geom_.channels + base + p % n);
    }
  }
  return pages;
}

}  // namespace eccsim::eccparity
