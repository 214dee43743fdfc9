// Topology-shaped exchange: the generic three-phase byte engine behind
// the hierarchical Alltoallv (intra-node coalescing of per-destination-
// node traffic, one network hop per node pair, then local scatter).
//
// A flat sparse exchange ships one message per non-empty (source,
// destination) pair; with p ranks spread over m nodes, almost all of
// them cross the network. The hierarchical engine routes the same bytes
// in three phases so that every inter-node byte travels exactly once,
// in one bundle per ordered node pair. The bundles are spread over all
// members of a node (multi-lane, after Traeff & Hunold, "Decomposing MPI
// Collectives for Exploiting Multi-lane Communication", CLUSTER 2020):
// for every remote vnode u, one member of vnode v -- its *agent*
// VnodeMap::AgentOf(v, u) -- carries all of v's traffic to u and
// receives all of u's traffic for v. The rule deals the remote vnodes
// round-robin over v's members, so no rank sends or receives more than
// ceil((m - 1) / size[v]) inter-node bundles per exchange, and every rank
// derives the same assignment from the VnodeMap alone.
//
//   A (intra): every rank sends each same-node destination its direct
//     payload, and ships its node-crossing pieces for vnode u to the
//     agent of (v, u), bundled into the same message when that agent is
//     also a direct destination. Wire format to rank q:
//       [int64 direct_bytes][direct payload]
//       (iff q is an agent for some of the pieces) [int32 nsections]
//                             [(int32 dest, int32 bytes) x nsections]
//                             [section payloads, dest-ascending]
//   B (inter, agents only): each agent merges the buffered pieces PER
//     DESTINATION -- all same-node sources' payloads for one destination
//     concatenate (source-ascending) into ONE section -- and sends one
//     bundle per destination vnode u to the agent of (u, v):
//       [int32 nsections][(int32 dest, int32 bytes) x nsections]
//       [section payloads, dest-ascending]
//     Source ranks are never transmitted: node blocks are contiguous
//     rank runs and each merged section is internally source-ascending,
//     so the receiver reconstructs the global source order from the
//     source vnode alone. The per-destination merge is what makes the
//     inter-node byte count strictly smaller than the flat exchange's
//     (headers shrink from one per cross pair to one per (node,
//     destination) pair).
//   C (intra): each agent scatters to every local destination the
//     remote bytes that arrived for it, one section per source vnode:
//       [int32 nsections][(int32 source_vnode, int32 bytes) x nsections]
//       [section payloads, source-vnode-ascending]
//     A destination hears from up to min(m - 1, size[v]) agents and
//     orders the sections of all of them by source vnode.
//
// Every rank finishes with exactly the bytes a flat exchange would have
// delivered, concatenated in source-rank-ascending order:
//   result = remote_lower ++ own-node direct block ++ remote_upper.
//
// The engine is parameterized on the sparse collective (SparseFn) so the
// same code serves rbc::SparseAlltoallv (topo::HierAlltoallv) and
// jsort::Transport::IsparseAlltoallv (exchange::Mode::kHierarchical)
// without a layering cycle. All three phases are collective: every rank
// of the group must invoke the SparseFn three times (with empty send
// lists where it has nothing to contribute); they may share one tag --
// the sparse exchange's second barrier fences back-to-back operations on
// the same tag.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "mpisim/error.hpp"
#include "mpisim/nbc.hpp"

namespace topo {

/// Virtual nodes of one communicator/group: maximal runs of group ranks
/// whose world ranks share a node. Ragged sizes, 1-rank nodes and the
/// degenerate single-node case all reduce to runs; a node id appearing in
/// two separate runs (non-contiguous placement) yields two independent
/// vnodes, which keeps every vnode a contiguous rank range -- the
/// property the engine's implicit source ordering relies on.
struct VnodeMap {
  std::vector<int> vnode_of;  // group rank -> vnode index
  std::vector<int> first;     // vnode -> first group rank
  std::vector<int> size;      // vnode -> member count

  int Count() const { return static_cast<int>(first.size()); }
  /// The elected leader of vnode `v` (its smallest group rank): the one
  /// rank per node of the leader-based hierarchical collectives.
  int LeaderOf(int v) const { return first[v]; }
  bool IsLeader(int r) const { return first[vnode_of[r]] == r; }

  /// Group ranks of all vnode leaders, ascending.
  std::vector<int> Leaders() const { return first; }

  /// The exchange engine's agent of vnode `v` for remote vnode `u`
  /// (u != v): the member that carries all of v's traffic to u and
  /// receives all of u's traffic for v. The other vnodes, in vnode order,
  /// are dealt round-robin over v's members, so each member serves at
  /// most ceil((Count() - 1) / size[v]) of them.
  int AgentOf(int v, int u) const {
    return first[v] + (u < v ? u : u - 1) % size[v];
  }
};

/// Builds the vnode map from per-group-rank node ids.
inline VnodeMap VnodesOf(std::span<const int> node_of_rank) {
  VnodeMap vn;
  vn.vnode_of.resize(node_of_rank.size());
  for (std::size_t r = 0; r < node_of_rank.size(); ++r) {
    if (r == 0 || node_of_rank[r] != node_of_rank[r - 1]) {
      vn.first.push_back(static_cast<int>(r));
      vn.size.push_back(0);
    }
    vn.vnode_of[r] = static_cast<int>(vn.first.size()) - 1;
    ++vn.size.back();
  }
  return vn;
}

/// One per-destination coalesced outgoing piece (raw bytes). Pieces must
/// be passed dest-ascending with at most one piece per destination; the
/// self-destined piece is legal and handled locally.
struct BytePiece {
  int dest = 0;
  const std::byte* data = nullptr;
  std::int64_t bytes = 0;
};

/// Payload traffic of one hierarchical exchange at this rank, split by
/// level (phases A+C are intra-node, phase B inter-node). Counts the
/// engine's logical messages; barrier/chunk metadata is the SparseFn's.
struct HierLevelStats {
  std::int64_t intra_messages = 0;
  std::int64_t intra_bytes = 0;
  std::int64_t inter_messages = 0;
  std::int64_t inter_bytes = 0;
};

namespace detail {

inline void PutI64(std::vector<std::byte>& b, std::int64_t v) {
  const std::size_t at = b.size();
  b.resize(at + sizeof(v));
  std::memcpy(b.data() + at, &v, sizeof(v));
}

inline void PutI32(std::vector<std::byte>& b, std::int32_t v) {
  const std::size_t at = b.size();
  b.resize(at + sizeof(v));
  std::memcpy(b.data() + at, &v, sizeof(v));
}

inline std::int64_t GetI64(const std::byte* p) {
  std::int64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::int32_t GetI32(const std::byte* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Append(std::vector<std::byte>& b, const std::byte* data,
                   std::int64_t bytes) {
  b.insert(b.end(), data, data + bytes);
}

/// Appends the (dest, bytes) section table and payloads of `sections`
/// (dest-ascending) to `msg`.
struct Section {
  int dest = 0;
  std::vector<std::byte> payload;
};

inline void PutSections(std::vector<std::byte>& msg,
                        std::span<const Section> sections) {
  PutI32(msg, static_cast<std::int32_t>(sections.size()));
  for (const Section& s : sections) {
    if (s.payload.size() >
        static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
      throw mpisim::UsageError(
          "hier exchange: per-destination section exceeds 2^31 bytes");
    }
    PutI32(msg, s.dest);
    PutI32(msg, static_cast<std::int32_t>(s.payload.size()));
  }
  for (const Section& s : sections) {
    Append(msg, s.payload.data(), static_cast<std::int64_t>(s.payload.size()));
  }
}

/// Parses a section table at `p` (with `avail` bytes); returns consumed
/// bytes.
inline std::size_t GetSections(const std::byte* p, std::size_t avail,
                               std::vector<Section>* out) {
  if (avail < 4) {
    throw mpisim::UsageError("hier exchange: truncated section header");
  }
  const std::int32_t n = GetI32(p);
  std::size_t off = 4;
  if (n < 0 || avail < off + static_cast<std::size_t>(n) * 8) {
    throw mpisim::UsageError("hier exchange: truncated section table");
  }
  std::vector<std::pair<int, std::int32_t>> table(
      static_cast<std::size_t>(n));
  for (auto& [dest, bytes] : table) {
    dest = GetI32(p + off);
    bytes = GetI32(p + off + 4);
    off += 8;
  }
  for (const auto& [dest, bytes] : table) {
    if (bytes < 0 || avail < off + static_cast<std::size_t>(bytes)) {
      throw mpisim::UsageError("hier exchange: truncated section payload");
    }
    Section s;
    s.dest = dest;
    s.payload.assign(p + off, p + off + bytes);
    off += static_cast<std::size_t>(bytes);
    out->push_back(std::move(s));
  }
  return off;
}

}  // namespace detail

/// Runs the three-phase hierarchical exchange. `pieces` is this rank's
/// per-destination coalesced traffic (dest-ascending, self allowed,
/// zero-byte pieces skipped); `sparse` is invoked exactly three times on
/// every rank (collectively) with signature
///   std::vector<mpisim::SparseRecvMessage>(
///       std::span<const mpisim::SparseSendBlock>)
/// over Datatype::kByte, returning deliveries ordered by source rank.
/// Returns the received bytes concatenated in source-rank-ascending
/// order -- byte-identical to a flat exchange of the same pieces.
template <typename SparseFn>
std::vector<std::byte> HierExchangeBytes(const VnodeMap& vn, int my_rank,
                                         std::span<const BytePiece> pieces,
                                         SparseFn&& sparse,
                                         HierLevelStats* stats = nullptr) {
  using detail::Section;
  const int v = vn.vnode_of[my_rank];
  const int base = vn.first[v];
  const int vsize = vn.size[v];
  const auto local = [base](int g) {
    return static_cast<std::size_t>(g - base);
  };
  HierLevelStats unused;
  HierLevelStats& st = stats != nullptr ? *stats : unused;
  // Runs one collective phase: bufs[i] goes to group rank dests[i];
  // counts the phase's payload messages and bytes into the given level.
  const auto ship = [&sparse](const std::vector<std::vector<std::byte>>& bufs,
                              const std::vector<int>& dests,
                              std::int64_t& messages, std::int64_t& bytes) {
    std::vector<mpisim::SparseSendBlock> sends;
    sends.reserve(bufs.size());
    for (std::size_t i = 0; i < bufs.size(); ++i) {
      sends.push_back(mpisim::SparseSendBlock{
          .dest = dests[i], .data = bufs[i].data(),
          .count = static_cast<int>(bufs[i].size())});
      messages += 1;
      bytes += static_cast<std::int64_t>(bufs[i].size());
    }
    return sparse(std::span<const mpisim::SparseSendBlock>(sends));
  };

  // --- Phase A: split pieces into self / intra-direct / per-agent cross --
  std::vector<std::byte> self_piece;
  std::vector<const BytePiece*> direct(static_cast<std::size_t>(vsize),
                                       nullptr);  // by local member index
  // Cross pieces by the local member that relays them (dest-ascending,
  // as the pieces are).
  std::vector<std::vector<Section>> to_agent(static_cast<std::size_t>(vsize));
  for (const BytePiece& piece : pieces) {
    if (piece.bytes <= 0) continue;
    const int u = vn.vnode_of[piece.dest];
    if (u == v) {
      if (piece.dest == my_rank) {
        self_piece.assign(piece.data, piece.data + piece.bytes);
      } else {
        direct[local(piece.dest)] = &piece;
      }
    } else {
      Section s;
      s.dest = piece.dest;
      s.payload.assign(piece.data, piece.data + piece.bytes);
      to_agent[local(vn.AgentOf(v, u))].push_back(std::move(s));
    }
  }

  std::vector<std::vector<std::byte>> bufs_a;
  std::vector<int> dests_a;
  for (int g = base; g < base + vsize; ++g) {
    if (g == my_rank) continue;
    const BytePiece* d = direct[local(g)];
    const std::vector<Section>& relay = to_agent[local(g)];
    if (d == nullptr && relay.empty()) continue;
    std::vector<std::byte> msg;
    detail::PutI64(msg, d != nullptr ? d->bytes : 0);
    if (d != nullptr) detail::Append(msg, d->data, d->bytes);
    if (!relay.empty()) detail::PutSections(msg, relay);
    bufs_a.push_back(std::move(msg));
    dests_a.push_back(g);
  }
  const std::vector<mpisim::SparseRecvMessage> deliv_a =
      ship(bufs_a, dests_a, st.intra_messages, st.intra_bytes);

  // Parse phase-A deliveries: direct payloads and the cross pieces this
  // rank relays, both by local source index (own pieces at its own slot).
  std::vector<std::vector<std::byte>> direct_in(
      static_cast<std::size_t>(vsize));
  std::vector<std::vector<Section>> relays(static_cast<std::size_t>(vsize));
  relays[local(my_rank)] = std::move(to_agent[local(my_rank)]);
  for (const mpisim::SparseRecvMessage& m : deliv_a) {
    const std::byte* p = m.bytes.data();
    const std::size_t avail = m.bytes.size();
    if (avail < 8) {
      throw mpisim::UsageError("hier exchange: truncated phase-A message");
    }
    const std::int64_t db = detail::GetI64(p);
    if (db < 0 || avail < 8 + static_cast<std::size_t>(db)) {
      throw mpisim::UsageError("hier exchange: truncated phase-A payload");
    }
    direct_in[local(m.source)].assign(p + 8, p + 8 + db);
    const std::size_t off = 8 + static_cast<std::size_t>(db);
    if (off < avail) {  // relay bundle: this rank is an agent for it
      detail::GetSections(p + off, avail - off, &relays[local(m.source)]);
    }
  }

  // --- Phase B: agents merge per destination, one bundle per vnode -------
  // Sections of each relay are dest-ascending and relays are visited
  // source-ascending, so appending relay-by-relay into a per-dest
  // accumulator yields source-ascending section payloads.
  std::vector<Section> merged;  // dest-ascending
  for (std::vector<Section>& r : relays) {
    if (r.empty()) continue;
    std::vector<Section> next;
    next.reserve(merged.size() + r.size());
    std::size_t i = 0, j = 0;
    while (i < merged.size() || j < r.size()) {
      if (j >= r.size() ||
          (i < merged.size() && merged[i].dest < r[j].dest)) {
        next.push_back(std::move(merged[i++]));
      } else if (i >= merged.size() || r[j].dest < merged[i].dest) {
        next.push_back(std::move(r[j++]));
      } else {
        merged[i].payload.insert(merged[i].payload.end(),
                                 r[j].payload.begin(), r[j].payload.end());
        next.push_back(std::move(merged[i]));
        ++i;
        ++j;
      }
    }
    merged = std::move(next);
  }
  // One bundle per destination vnode (merged is dest-ascending and vnodes
  // are contiguous rank ranges, so destinations of one vnode are
  // consecutive).
  std::vector<std::vector<std::byte>> bufs_b;
  std::vector<int> dests_b;
  for (std::size_t i = 0; i < merged.size();) {
    const int u = vn.vnode_of[merged[i].dest];
    std::size_t j = i;
    while (j < merged.size() && vn.vnode_of[merged[j].dest] == u) ++j;
    std::vector<std::byte> msg;
    detail::PutSections(msg,
                        std::span<const Section>(merged.data() + i, j - i));
    bufs_b.push_back(std::move(msg));
    dests_b.push_back(vn.AgentOf(u, v));
    i = j;
  }
  const std::vector<mpisim::SparseRecvMessage> deliv_b =
      ship(bufs_b, dests_b, st.inter_messages, st.inter_bytes);

  // Parse phase-B bundles: per local destination, one section per source
  // vnode (Section::dest holds the source vnode from here on).
  std::vector<std::vector<Section>> for_member(
      static_cast<std::size_t>(vsize));
  for (const mpisim::SparseRecvMessage& m : deliv_b) {
    const int u = vn.vnode_of[m.source];
    std::vector<Section> sections;
    detail::GetSections(m.bytes.data(), m.bytes.size(), &sections);
    for (Section& s : sections) {
      const std::size_t q = local(s.dest);
      s.dest = u;
      for_member[q].push_back(std::move(s));
    }
  }

  // --- Phase C: agents scatter remote bytes to local destinations -------
  std::vector<std::vector<std::byte>> bufs_c;
  std::vector<int> dests_c;
  for (int g = base; g < base + vsize; ++g) {
    const std::vector<Section>& sections = for_member[local(g)];
    if (g == my_rank || sections.empty()) continue;
    std::vector<std::byte> msg;
    detail::PutSections(msg, sections);
    bufs_c.push_back(std::move(msg));
    dests_c.push_back(g);
  }
  const std::vector<mpisim::SparseRecvMessage> deliv_c =
      ship(bufs_c, dests_c, st.intra_messages, st.intra_bytes);
  std::vector<Section> remote = std::move(for_member[local(my_rank)]);
  for (const mpisim::SparseRecvMessage& m : deliv_c) {
    detail::GetSections(m.bytes.data(), m.bytes.size(), &remote);
  }
  std::sort(remote.begin(), remote.end(),
            [](const Section& a, const Section& b) { return a.dest < b.dest; });

  // --- Final assembly: lower nodes ++ own-node block ++ upper nodes ------
  std::vector<std::byte> result;
  auto append = [&result](const std::vector<std::byte>& block) {
    result.insert(result.end(), block.begin(), block.end());
  };
  auto upper = std::find_if(remote.begin(), remote.end(),
                            [v](const Section& s) { return s.dest > v; });
  for (auto it = remote.begin(); it != upper; ++it) append(it->payload);
  for (int g = base; g < base + vsize; ++g) {
    append(g == my_rank ? self_piece : direct_in[local(g)]);
  }
  for (auto it = upper; it != remote.end(); ++it) append(it->payload);
  return result;
}

}  // namespace topo
