#include "sort/exchange.hpp"

#include <algorithm>
#include <cstring>

#include "topo/hier_exchange.hpp"

namespace jsort {
namespace exchange {
namespace {

/// Tag of the trailing chunks of a coalesced exchange on `tag`.
int ChunkTag(int tag) { return kChunkTagBase + tag; }

/// Vnode map of the transport's group under the runtime's installed
/// topology: group ranks translate to world ranks, world ranks to nodes,
/// and maximal same-node runs become vnodes (topo/hier_exchange.hpp).
/// Purely local -- every member computes the identical map.
topo::VnodeMap VnodesOfGroup(const Transport& tr) {
  const mpisim::Runtime* rt = mpisim::Ctx().runtime;
  std::vector<int> node_of(static_cast<std::size_t>(tr.Size()));
  for (int r = 0; r < tr.Size(); ++r) {
    node_of[static_cast<std::size_t>(r)] = rt->NodeOf(tr.WorldRankOf(r));
  }
  return topo::VnodesOf(node_of);
}

/// kAuto routes hierarchically exactly when the cost model distinguishes
/// intra- from inter-node traffic AND the group actually spans more than
/// one vnode -- both globally shared facts, so the decision is identical
/// on every rank. On a flat cost model the node-aware detour could only
/// add phases, so the flat resolution below stays bit-for-bit unchanged.
bool AutoHier(const Transport& tr) {
  if (!mpisim::Ctx().runtime->options().cost.Hierarchical()) return false;
  return VnodesOfGroup(tr).Count() > 1;
}

/// Runs the three-phase node-aware exchange over the transport's sparse
/// collective: one blocking sparse call per phase, all on the caller's
/// tag (the sparse termination barriers fence the back-to-back phases).
std::vector<std::byte> RunHier(Transport& tr,
                               std::span<const topo::BytePiece> pieces,
                               int tag, std::int64_t segment_bytes,
                               topo::HierLevelStats* hs) {
  const topo::VnodeMap vn = VnodesOfGroup(tr);
  auto sparse = [&](std::span<const SparseBlock> sends) {
    std::vector<SparseDelivery> deliveries;
    mpisim::WaitUntil(tr.IsparseAlltoallv(sends, Datatype::kByte, &deliveries,
                                          tag, segment_bytes),
                      "jsort::exchange: hierarchical phase");
    return deliveries;
  };
  return topo::HierExchangeBytes(vn, tr.Rank(), pieces, sparse, hs);
}

/// Copies a hierarchical delivery out as doubles. A rank that receives
/// nothing gets an empty buffer, and memcpy with its null data pointer is
/// undefined even for zero bytes, so the copy is skipped then.
std::vector<double> DoublesOf(const std::vector<std::byte>& bytes) {
  std::vector<double> out(bytes.size() / sizeof(double));
  if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

/// Folds one hierarchical run's per-level traffic into the caller stats.
void AddHierStats(ExchangeStats* stats, const topo::HierLevelStats& hs) {
  if (stats == nullptr) return;
  stats->segments += hs.intra_messages + hs.inter_messages;
  stats->intra_messages += hs.intra_messages;
  stats->intra_bytes += hs.intra_bytes;
  stats->inter_messages += hs.inter_messages;
  stats->inter_bytes += hs.inter_bytes;
}

/// Wire chunk size of the coalesced path: each self-describing message
/// ([k int64 counts][payload]) ships as consecutive byte pieces of this
/// size, the last one shorter; 0 = unsegmented. Never below the counts
/// header, so the first chunk always carries the whole header and the
/// receiver can size the rest from it.
std::size_t CoalescedChunkBytes(std::size_t header,
                                std::int64_t segment_bytes) {
  if (segment_bytes <= 0) return 0;
  return std::max(static_cast<std::size_t>(segment_bytes), header);
}

/// Number of wire chunks of one coalesced message of `bytes` bytes.
std::int64_t CoalescedChunksOf(std::size_t bytes, std::size_t chunk) {
  if (chunk == 0) return 1;
  return static_cast<std::int64_t>((bytes + chunk - 1) / chunk);
}

/// Length of the head chunk (bytes [0, head) of the message, sent last on
/// the exchange tag) -- shared by sender and receiver so their chunk walks
/// cannot diverge.
std::size_t CoalescedHeadBytes(std::size_t bytes, std::size_t chunk) {
  return chunk == 0 ? bytes : std::min(chunk, bytes);
}

/// Shared state of one in-flight coalesced segment exchange; the returned
/// Poll holds it alive.
struct SegmentState {
  std::shared_ptr<Transport> tr;
  std::size_t k = 0;
  int tag = 0;
  std::size_t chunk = 0;  // wire chunk bytes, 0 = unsegmented
  std::vector<Segment> segments;
  std::vector<std::int64_t> remaining;  // per segment, elements still owed

  bool DrainCoalesced();
  std::size_t UnpackMessage(const std::byte* msg, std::size_t size);
};

/// Appends the message at the front of [msg, msg + size) -- [int64
/// seg_counts[k]][segment payloads in order] -- to the sinks and returns
/// its length, so a concatenation of messages unpacks front to back.
std::size_t SegmentState::UnpackMessage(const std::byte* msg,
                                        std::size_t size) {
  if (size < k * sizeof(std::int64_t)) {
    throw mpisim::Error("jsort::exchange: malformed exchange message");
  }
  std::size_t off = k * sizeof(std::int64_t);
  for (std::size_t j = 0; j < k; ++j) {
    std::int64_t n = 0;
    std::memcpy(&n, msg + j * sizeof(std::int64_t), sizeof n);
    if (n < 0 ||
        static_cast<std::size_t>(n) > (size - off) / sizeof(double)) {
      throw mpisim::Error(
          "jsort::exchange: exchange message payload disagrees with its "
          "header");
    }
    if (n != 0) {
      std::vector<double>& sink = *segments[j].sink;
      const std::size_t old = sink.size();
      sink.resize(old + static_cast<std::size_t>(n));
      std::memcpy(sink.data() + old, msg + off,
                  static_cast<std::size_t>(n) * sizeof(double));
      off += static_cast<std::size_t>(n) * sizeof(double);
      remaining[j] -= n;
    }
    if (remaining[j] < 0) {
      throw mpisim::Error(
          "jsort::exchange: received more elements than the layout "
          "overlap");
    }
  }
  return off;
}

bool SegmentState::DrainCoalesced() {
  // Each source's message arrives as [head chunk][trailing chunks]: the
  // head (on `tag`) carries the counts header, which fixes the message
  // length and with the shared chunk size every trailing chunk's length.
  // The sender injected the trailing chunks (on the chunk tag) before the
  // head, so once the head is probed they already sit in the mailbox: the
  // specific-source receives below never wait, and a janus rank's other
  // group cannot interleave (one source belongs to one of its groups).
  const std::size_t header = k * sizeof(std::int64_t);
  bool all = true;
  for (std::size_t j = 0; j < k; ++j) all &= remaining[j] == 0;
  std::vector<std::byte> msg;
  while (!all) {
    Status st;
    if (!tr->IprobeAny(tag, &st)) return false;
    if (st.bytes < header) {
      throw mpisim::Error("jsort::exchange: malformed exchange message");
    }
    msg.resize(st.bytes);
    tr->Recv(msg.data(), static_cast<int>(st.bytes), Datatype::kByte,
             st.source, tag);
    std::size_t len = header;
    for (std::size_t j = 0; j < k; ++j) {
      std::int64_t n = 0;
      std::memcpy(&n, msg.data() + j * sizeof(std::int64_t), sizeof n);
      if (n < 0 || n > remaining[j]) {
        throw mpisim::Error(
            "jsort::exchange: exchange message header exceeds the layout "
            "overlap");
      }
      len += static_cast<std::size_t>(n) * sizeof(double);
    }
    if (st.bytes != CoalescedHeadBytes(len, chunk)) {
      throw mpisim::Error(
          "jsort::exchange: exchange message head disagrees with its "
          "header");
    }
    msg.resize(len);
    for (std::size_t at = st.bytes; at < len; at += chunk) {
      const std::size_t piece = std::min(chunk, len - at);
      Status cst;
      tr->Recv(msg.data() + at, static_cast<int>(piece), Datatype::kByte,
               st.source, ChunkTag(tag), &cst);
      if (cst.bytes != piece) {
        throw mpisim::Error(
            "jsort::exchange: exchange message chunk has the wrong length");
      }
    }
    UnpackMessage(msg.data(), msg.size());
    all = true;
    for (std::size_t j = 0; j < k; ++j) all &= remaining[j] == 0;
  }
  return true;
}

}  // namespace

std::int64_t ExscanCount(Transport& tr, std::int64_t mine, int tag) {
  std::int64_t incl = 0;
  Poll s = tr.Iscan(&mine, &incl, 1, Datatype::kInt64, ReduceOp::kSum, tag);
  mpisim::WaitUntil(s, "jsort::exchange: ExscanCount");
  return incl - mine;
}

SendPlan PlanFromInterval(const CapacityLayout& layout,
                          std::int64_t slot_begin, std::int64_t n, int p) {
  SendPlan plan;
  plan.counts.assign(static_cast<std::size_t>(p), 0);
  plan.displs.assign(static_cast<std::size_t>(p), 0);
  if (n > 0) {
    for (const Chunk& c : AssignChunks(layout, slot_begin, slot_begin + n)) {
      plan.counts[static_cast<std::size_t>(c.target)] +=
          static_cast<int>(c.count);
    }
  }
  int off = 0;
  for (int i = 0; i < p; ++i) {
    plan.displs[static_cast<std::size_t>(i)] = off;
    off += plan.counts[static_cast<std::size_t>(i)];
  }
  return plan;
}

std::vector<double> ExchangeBuckets(
    Transport& tr, const std::vector<std::vector<double>>& buckets, int tag,
    ExchangeStats* stats, std::int64_t segment_bytes, Mode mode) {
  const int p = tr.Size();
  if (static_cast<int>(buckets.size()) != p) {
    throw mpisim::UsageError(
        "jsort::exchange::ExchangeBuckets: one bucket per rank required");
  }
  // Flatten into the bucket-major layout of the flat variant and forward.
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(p) + 1, 0);
  for (int i = 0; i < p; ++i) {
    offsets[static_cast<std::size_t>(i) + 1] =
        offsets[static_cast<std::size_t>(i)] +
        static_cast<std::int64_t>(buckets[static_cast<std::size_t>(i)].size());
  }
  std::vector<double> flat(static_cast<std::size_t>(offsets.back()));
  for (int i = 0; i < p; ++i) {
    std::copy(buckets[static_cast<std::size_t>(i)].begin(),
              buckets[static_cast<std::size_t>(i)].end(),
              flat.begin() + offsets[static_cast<std::size_t>(i)]);
  }
  return ExchangeBuckets(tr, flat, offsets, tag, stats, segment_bytes, mode);
}

std::vector<double> ExchangeBuckets(Transport& tr,
                                    std::span<const double> elements,
                                    std::span<const std::int64_t> offsets,
                                    int tag, ExchangeStats* stats,
                                    std::int64_t segment_bytes, Mode mode) {
  const int p = tr.Size();
  const int me = tr.Rank();
  if (static_cast<int>(offsets.size()) != p + 1) {
    throw mpisim::UsageError(
        "jsort::exchange::ExchangeBuckets: offsets must have Size()+1 "
        "entries");
  }

  if (mode == Mode::kHierarchical ||
      (mode == Mode::kAuto && AutoHier(tr))) {
    // Node-aware delivery: the bucket blocks are already contiguous and
    // per-destination, so they feed the engine without any copy -- the
    // self bucket included (the engine keeps it local and splices it into
    // the source-ordered result, exactly where the dense path's local
    // copy lands). No counts round: the engine's messages are
    // self-describing.
    std::vector<topo::BytePiece> pieces;
    std::int64_t nonempty = 0, total_out = 0;
    for (int i = 0; i < p; ++i) {
      const std::int64_t n = offsets[static_cast<std::size_t>(i) + 1] -
                             offsets[static_cast<std::size_t>(i)];
      if (n == 0) continue;
      pieces.push_back(topo::BytePiece{
          i,
          reinterpret_cast<const std::byte*>(
              elements.data() + offsets[static_cast<std::size_t>(i)]),
          n * static_cast<std::int64_t>(sizeof(double))});
      if (i != me) {
        ++nonempty;
        total_out += n;
      }
    }
    topo::HierLevelStats hs;
    const std::vector<std::byte> bytes =
        RunHier(tr, pieces, tag, segment_bytes, &hs);
    if (stats != nullptr) {
      stats->messages_sent += nonempty;
      stats->elements_sent += total_out;
    }
    AddHierStats(stats, hs);
    return DoublesOf(bytes);
  }
  // Bucket-major input needs no send-side copy: the per-peer blocks are
  // already contiguous, and the self bucket rides along as a zero-count
  // gap (copied locally below).
  std::vector<int> sendcounts(static_cast<std::size_t>(p)),
      sdispls(static_cast<std::size_t>(p));
  std::vector<std::int64_t> my_counts(static_cast<std::size_t>(p));
  std::int64_t total_out = 0;
  for (int i = 0; i < p; ++i) {
    const std::int64_t n = offsets[static_cast<std::size_t>(i) + 1] -
                           offsets[static_cast<std::size_t>(i)];
    my_counts[static_cast<std::size_t>(i)] = n;
    sendcounts[static_cast<std::size_t>(i)] = i == me ? 0 : static_cast<int>(n);
    sdispls[static_cast<std::size_t>(i)] =
        static_cast<int>(offsets[static_cast<std::size_t>(i)]);
    if (i != me) total_out += n;
  }

  // Counts round: one int64 per peer.
  std::vector<std::int64_t> in_counts(static_cast<std::size_t>(p), 0);
  std::vector<int> ones(static_cast<std::size_t>(p), 1),
      iota(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) iota[static_cast<std::size_t>(i)] = i;
  mpisim::WaitUntil(
      tr.Ialltoallv(my_counts.data(), ones, iota, Datatype::kInt64,
                    in_counts.data(), ones, iota, tag),
      "jsort::exchange: bucket counts round");

  // Payload round. The self block is a zero-count gap in the exchange
  // (matching sendcounts[me] == 0 above); its slot in `out` is filled
  // directly from the input.
  std::vector<int> recvcounts(static_cast<std::size_t>(p)),
      rdispls(static_cast<std::size_t>(p));
  std::int64_t total_in = 0;
  for (int i = 0; i < p; ++i) {
    recvcounts[static_cast<std::size_t>(i)] =
        i == me ? 0 : static_cast<int>(in_counts[static_cast<std::size_t>(i)]);
    rdispls[static_cast<std::size_t>(i)] = static_cast<int>(total_in);
    total_in += in_counts[static_cast<std::size_t>(i)];
  }
  std::vector<double> out(static_cast<std::size_t>(total_in));
  std::copy(elements.begin() + offsets[static_cast<std::size_t>(me)],
            elements.begin() + offsets[static_cast<std::size_t>(me) + 1],
            out.begin() + rdispls[static_cast<std::size_t>(me)]);
  mpisim::WaitUntil(
      tr.Ialltoallv(elements.data(), sendcounts, sdispls, Datatype::kFloat64,
                    out.data(), recvcounts, rdispls, tag, segment_bytes),
      "jsort::exchange: bucket payload round");
  if (stats != nullptr) {
    stats->messages_sent += p - 1;
    stats->elements_sent += total_out;  // self excluded
    for (int i = 0; i < p; ++i) {
      if (i == me) continue;
      stats->segments += mpisim::AlltoallvSegmentsOf(
          sendcounts[static_cast<std::size_t>(i)], sizeof(double),
          segment_bytes);
    }
  }
  return out;
}

std::vector<double> ExchangeGroupwise(const std::shared_ptr<Transport>& tr,
                                      std::span<const Outgoing> out, int tag,
                                      Mode mode, ExchangeStats* stats,
                                      std::int64_t segment_bytes) {
  if (tr == nullptr) {
    throw mpisim::UsageError("jsort::exchange::ExchangeGroupwise: null "
                             "transport");
  }
  const int p = tr->Size();
  const int me = tr->Rank();

  // Globally consistent resolution from the entry count (identical on
  // every rank by contract): a rank reaches at most out.size() peers, so
  // the estimated non-empty-destination fraction is out.size()/(p-1).
  // Coalesced delivery needs known receive counts, which this entry point
  // exists to avoid -- it degrades to the sparse collective.
  Mode resolved = mode;
  if (resolved == Mode::kAuto) {
    if (AutoHier(*tr)) {
      resolved = Mode::kHierarchical;
    } else {
      const auto max_targets = static_cast<std::int64_t>(out.size());
      resolved = 2 * max_targets >= p - 1 ? Mode::kAlltoallv : Mode::kSparse;
    }
  }
  if (resolved == Mode::kCoalesced) resolved = Mode::kSparse;

  // Per-destination element totals (entries to one destination coalesce,
  // in entry order).
  std::vector<std::int64_t> to(static_cast<std::size_t>(p), 0);
  for (const Outgoing& o : out) {
    if (o.dest < 0 || o.dest >= p) {
      throw mpisim::UsageError(
          "jsort::exchange::ExchangeGroupwise: destination out of range");
    }
    if (o.count < 0) {
      throw mpisim::UsageError(
          "jsort::exchange::ExchangeGroupwise: negative count");
    }
    to[static_cast<std::size_t>(o.dest)] += o.count;
  }
  std::int64_t nonempty = 0, elements = 0;
  for (int d = 0; d < p; ++d) {
    if (d == me || to[static_cast<std::size_t>(d)] == 0) continue;
    ++nonempty;
    elements += to[static_cast<std::size_t>(d)];
  }
  if (stats != nullptr) {
    stats->messages_sent += resolved == Mode::kAlltoallv
                                ? static_cast<std::int64_t>(p - 1)
                                : nonempty;
    stats->elements_sent += elements;
    // The hierarchical path reports its wire traffic per phase after the
    // run (AddHierStats); the flat paths mirror the backend segmentation
    // arithmetic here.
    for (int d = 0; d < p && resolved != Mode::kHierarchical; ++d) {
      if (d == me) continue;
      const std::int64_t to_d = to[static_cast<std::size_t>(d)];
      if (resolved == Mode::kSparse) {
        if (to_d != 0) {
          stats->segments += mpisim::SparseChunksOf(
              to_d * static_cast<std::int64_t>(sizeof(double)),
              segment_bytes);
        }
      } else {
        stats->segments += mpisim::AlltoallvSegmentsOf(
            to_d, sizeof(double), segment_bytes);
      }
    }
  }

  if (resolved == Mode::kHierarchical) {
    // Per-destination byte pieces (entries to one destination coalesce in
    // entry order, exactly as the sparse path ships them), run through the
    // node-aware engine. The self piece rides along: the engine keeps it
    // local and splices it into the source-ordered result, so the output
    // is byte-identical to the flat paths. Blocking; collective over the
    // group like every path of this entry point.
    std::vector<int> entries(static_cast<std::size_t>(p), 0);
    std::vector<const double*> only(static_cast<std::size_t>(p), nullptr);
    for (const Outgoing& o : out) {
      if (o.count == 0) continue;
      ++entries[static_cast<std::size_t>(o.dest)];
      only[static_cast<std::size_t>(o.dest)] = o.data;
    }
    std::vector<std::vector<double>> msgs(static_cast<std::size_t>(p));
    for (const Outgoing& o : out) {
      if (o.count == 0) continue;
      const auto di = static_cast<std::size_t>(o.dest);
      if (entries[di] > 1) msgs[di].insert(msgs[di].end(), o.data,
                                           o.data + o.count);
    }
    std::vector<topo::BytePiece> pieces;
    for (int d = 0; d < p; ++d) {
      const auto di = static_cast<std::size_t>(d);
      if (to[di] == 0) continue;
      const double* src = entries[di] == 1 ? only[di] : msgs[di].data();
      pieces.push_back(topo::BytePiece{
          d, reinterpret_cast<const std::byte*>(src),
          to[di] * static_cast<std::int64_t>(sizeof(double))});
    }
    topo::HierLevelStats hs;
    const std::vector<std::byte> bytes =
        RunHier(*tr, pieces, tag, segment_bytes, &hs);
    AddHierStats(stats, hs);
    return DoublesOf(bytes);
  }

  if (resolved == Mode::kSparse) {
    // One raw-payload message per non-empty destination; the self block
    // joins the sparse call so the collective's source-ordered delivery
    // already interleaves it correctly. A destination fed by one entry
    // (the only case the multilevel sorter produces) ships straight from
    // the caller's buffer -- the collective copies blocks out at call
    // time; only multi-entry destinations need a coalescing buffer.
    std::vector<int> entries(static_cast<std::size_t>(p), 0);
    for (const Outgoing& o : out) {
      if (o.count != 0) ++entries[static_cast<std::size_t>(o.dest)];
    }
    std::vector<std::vector<double>> msgs(static_cast<std::size_t>(p));
    std::vector<SparseBlock> blocks;
    for (const Outgoing& o : out) {
      if (o.count == 0) continue;
      const auto di = static_cast<std::size_t>(o.dest);
      if (entries[di] == 1) {
        blocks.push_back(
            SparseBlock{o.dest, o.data, static_cast<int>(o.count)});
      } else {
        msgs[di].insert(msgs[di].end(), o.data, o.data + o.count);
      }
    }
    for (int d = 0; d < p; ++d) {
      const auto& m = msgs[static_cast<std::size_t>(d)];
      if (m.empty()) continue;
      blocks.push_back(
          SparseBlock{d, m.data(), static_cast<int>(m.size())});
    }
    std::vector<SparseDelivery> deliveries;
    mpisim::WaitUntil(tr->IsparseAlltoallv(blocks, Datatype::kFloat64,
                                           &deliveries, tag, segment_bytes),
                      "jsort::exchange: group-wise sparse exchange");
    std::int64_t total = 0;
    for (const SparseDelivery& d : deliveries) {
      total += static_cast<std::int64_t>(d.bytes.size() / sizeof(double));
    }
    std::vector<double> result(static_cast<std::size_t>(total));
    std::size_t cursor = 0;
    for (const SparseDelivery& d : deliveries) {
      std::memcpy(result.data() + cursor, d.bytes.data(), d.bytes.size());
      cursor += d.bytes.size() / sizeof(double);
    }
    return result;
  }

  // Dense path: group the payload by destination and run the counts +
  // payload rounds; the flat bucket exchange already implements exactly
  // that (self bucket included as a local copy).
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(p) + 1, 0);
  for (int d = 0; d < p; ++d) {
    offsets[static_cast<std::size_t>(d) + 1] =
        offsets[static_cast<std::size_t>(d)] +
        to[static_cast<std::size_t>(d)];
  }
  std::vector<double> flat(static_cast<std::size_t>(offsets.back()));
  std::vector<std::int64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Outgoing& o : out) {
    if (o.count == 0) continue;
    std::copy(o.data, o.data + o.count,
              flat.begin() + cursor[static_cast<std::size_t>(o.dest)]);
    cursor[static_cast<std::size_t>(o.dest)] += o.count;
  }
  return ExchangeBuckets(*tr, flat, offsets, tag, nullptr, segment_bytes);
}

Poll StartSegmentExchange(const std::shared_ptr<Transport>& tr,
                          const CapacityLayout& layout,
                          std::vector<Segment> segments, int tag, Mode mode,
                          ExchangeStats* stats,
                          std::int64_t segment_bytes) {
  if (tr == nullptr) {
    throw mpisim::UsageError("jsort::exchange: null transport");
  }
  if (tag < 0 || tag >= kChunkTagBase) {
    throw mpisim::UsageError(
        "jsort::exchange: segment exchange tags must lie in [0, "
        "kChunkTagBase) (the coalesced chunk-tag band starts there)");
  }
  if (mode == Mode::kAlltoallv || mode == Mode::kSparse) {
    throw mpisim::UsageError(
        "jsort::exchange: segment exchanges deliver coalesced or "
        "hierarchically; kAlltoallv and kSparse are bucket and group-wise "
        "modes");
  }
  const int p = tr->Size();
  const int me = tr->Rank();
  auto st = std::make_shared<SegmentState>();
  st->tr = tr;
  st->k = segments.size();
  st->tag = tag;
  st->segments = std::move(segments);
  st->remaining.reserve(st->k);
  const std::size_t k = st->k;
  std::vector<std::int64_t> counts_matrix(static_cast<std::size_t>(p) * k, 0);

  // Interval computation -> per-destination chunks. Self chunks bypass the
  // transport and land in their sinks right away.
  for (std::size_t j = 0; j < k; ++j) {
    Segment& seg = st->segments[j];
    if (seg.sink == nullptr) {
      throw mpisim::UsageError("jsort::exchange: segment without sink");
    }
    st->remaining.push_back(seg.expect);
    if (seg.count == 0) continue;
    std::int64_t cursor = 0;
    for (const Chunk& c :
         AssignChunks(layout, seg.slot_begin, seg.slot_begin + seg.count)) {
      if (c.target == me) {
        seg.sink->insert(seg.sink->end(), seg.data + cursor,
                         seg.data + cursor + c.count);
        st->remaining[j] -= c.count;
      } else {
        counts_matrix[static_cast<std::size_t>(c.target) * k + j] += c.count;
      }
      cursor += c.count;
    }
  }

  const bool hier =
      mode == Mode::kHierarchical || (mode == Mode::kAuto && AutoHier(*tr));
  const std::size_t header = k * sizeof(std::int64_t);
  st->chunk = CoalescedChunkBytes(header, segment_bytes);

  // One self-describing message per non-empty destination:
  // [int64 seg_counts[k]][segment payloads in order]. Built in a single
  // chunk walk per segment with per-destination write cursors (segments
  // are visited in order, so each message's payload is segment-ordered).
  std::vector<std::vector<std::byte>> msgs(static_cast<std::size_t>(p));
  std::vector<std::size_t> wcursor(static_cast<std::size_t>(p), header);
  std::int64_t nonempty = 0, elements = 0;
  for (int d = 0; d < p; ++d) {
    const auto di = static_cast<std::size_t>(d);
    std::int64_t to_d = 0;
    for (std::size_t j = 0; j < k; ++j) to_d += counts_matrix[di * k + j];
    if (to_d == 0) continue;
    ++nonempty;
    elements += to_d;
    msgs[di].resize(header + static_cast<std::size_t>(to_d) * sizeof(double));
    std::memcpy(msgs[di].data(), counts_matrix.data() + di * k, header);
    // The hierarchical path reports its wire traffic per phase after the
    // run (AddHierStats) instead.
    if (stats != nullptr && !hier) {
      stats->segments += CoalescedChunksOf(msgs[di].size(), st->chunk);
    }
  }
  if (stats != nullptr) {
    stats->messages_sent += nonempty;
    stats->elements_sent += elements;
  }
  for (std::size_t j = 0; j < k; ++j) {
    const Segment& seg = st->segments[j];
    if (seg.count == 0) continue;
    std::int64_t read = 0;
    for (const Chunk& c :
         AssignChunks(layout, seg.slot_begin, seg.slot_begin + seg.count)) {
      if (c.target != me) {
        const auto di = static_cast<std::size_t>(c.target);
        std::memcpy(msgs[di].data() + wcursor[di], seg.data + read,
                    static_cast<std::size_t>(c.count) * sizeof(double));
        wcursor[di] += static_cast<std::size_t>(c.count) * sizeof(double);
      }
      read += c.count;
    }
  }

  if (hier) {
    // Node-aware delivery of the same self-describing messages: the
    // engine merges them per node and per destination on the wire, and
    // hands back the concatenation of the messages addressed to this
    // rank in source-rank order. Each message's extent follows from its
    // own counts header ([k int64s] + payload), so the merged blob
    // unpacks front to back without any extra framing. Blocking at
    // start: the three sparse phases complete before this returns with an
    // already-done Poll (the engine is a collective, so every group
    // member reaches this same call; a janus rank simply finishes one
    // group's exchange before starting the other's -- the waits-for
    // chain over adjacent groups is acyclic and cannot deadlock).
    std::vector<topo::BytePiece> pieces;
    for (int d = 0; d < p; ++d) {
      const auto& msg = msgs[static_cast<std::size_t>(d)];
      if (msg.empty()) continue;
      pieces.push_back(topo::BytePiece{
          d, msg.data(), static_cast<std::int64_t>(msg.size())});
    }
    topo::HierLevelStats hs;
    const std::vector<std::byte> bytes =
        RunHier(*tr, pieces, tag, segment_bytes, &hs);
    AddHierStats(stats, hs);
    for (std::size_t off = 0; off < bytes.size();) {
      off += st->UnpackMessage(bytes.data() + off, bytes.size() - off);
    }
    for (std::size_t j = 0; j < k; ++j) {
      if (st->remaining[j] != 0) {
        throw mpisim::Error(
            "jsort::exchange: hierarchical exchange delivered a "
            "different element count than the layout overlap");
      }
    }
    return [] { return true; };
  }

  // Pieces of at most st->chunk bytes: the trailing ones on the chunk tag
  // first, then the head (counts header included) on `tag` -- eager
  // deposit in program order means a receiver that probes the head finds
  // every trailing chunk already queued (DrainCoalesced).
  for (int d = 0; d < p; ++d) {
    const auto& msg = msgs[static_cast<std::size_t>(d)];
    if (msg.empty()) continue;
    const std::size_t head = CoalescedHeadBytes(msg.size(), st->chunk);
    for (std::size_t at = head; at < msg.size(); at += st->chunk) {
      tr->Send(msg.data() + at,
               static_cast<int>(std::min(st->chunk, msg.size() - at)),
               Datatype::kByte, d, ChunkTag(tag));
    }
    tr->Send(msg.data(), static_cast<int>(head), Datatype::kByte, d, tag);
  }
  return [st] { return st->DrainCoalesced(); };
}

}  // namespace exchange
}  // namespace jsort
