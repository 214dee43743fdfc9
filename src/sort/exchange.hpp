// Data-redistribution layer shared by the sorting algorithms.
//
// Every distributed sorter ends a level the same way: each rank holds runs
// of elements whose destinations are defined by a global slot interval
// (jquick) or by explicit per-destination buckets (sample sort), and the
// data must move so that every rank ends up with exactly its share. This
// layer factors that step out of the sorters and routes it over the
// jsort::Transport abstraction, so the same code runs on RBC, native-MPI
// and Icomm backends.
//
// Two kinds of exchange, with their own delivery paths:
//  * segment exchanges (StartSegmentExchange) -- the receive expectations
//    follow from the layout arithmetic, and jquick's greedy chunk
//    assignment sends each rank's runs to only a few neighbouring ranks.
//    The coalesced path ships all segments destined to one rank as a
//    single self-describing message ([int64 counts[k]][payload]), and
//    receivers drain membership-filtered probes until their expectations
//    are met. Under a segment limit the message ships as byte pieces of at
//    most segment_bytes: trailing pieces on a derived chunk tag
//    (kChunkTagBase + tag), injected before the head piece, which carries
//    the counts header; a receiver that probes the head sizes every
//    trailing piece from the header and pulls them with specific-source
//    receives. One startup per wire chunk of a non-empty destination,
//    zero metadata rounds, no termination messages. On a two-level cost
//    model whose group spans nodes, the same messages travel the
//    node-aware hierarchical engine instead (topo/hier_exchange.hpp);
//  * bucket and group-wise exchanges (ExchangeBuckets, ExchangeGroupwise)
//    -- the dense Alltoallv path (a counts exchange followed by a payload
//    Transport::Ialltoallv: predictable p-1 message rounds, right when
//    most destinations receive something), the sparse path (one message
//    per non-empty destination over the transport's sparse collective,
//    Transport::IsparseAlltoallv, whose two-lightweight-barrier
//    termination needs no receive counts -- the only option when they are
//    unknown) and the hierarchical engine.
//
// kAuto resolves from globally shared quantities only (the decision must
// be identical on every rank): the cost model and the group's node span
// pick the hierarchical path; otherwise a segment exchange is coalesced,
// a bucket exchange dense, and a group-wise exchange dense when its
// estimated non-empty-destination fraction out.size() / (p-1) reaches 1/2
// and sparse below it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sort/assignment.hpp"
#include "sort/transport.hpp"

namespace jsort {
namespace exchange {

/// Default large-message segment limit (bytes) of the sorter configs
/// (JQuickConfig / SampleSortConfig / MultilevelConfig). Measured with
/// bench_sensitivity's segment_crossover sweep on the virtual cost model
/// (p=16, n/p=2^15): 64 KiB is where segmentation stops costing the dense
/// Alltoallv path (its per-peer blocks pipeline across the rbc rounds, so
/// vtime stays within 0.5% of unsegmented), and smaller limits (4..16 KiB)
/// tax every path with per-chunk startups. Messages below the limit are
/// unaffected; above it, memory per in-flight message stays bounded, and
/// a coalesced (jquick) message pays (chunks - 1) extra startups (alpha)
/// for its trailing chunks -- nothing else, no barriers or extra rounds.
inline constexpr std::int64_t kDefaultSegmentBytes = 65536;

/// First tag of the coalesced path's chunk-tag band: the trailing chunks
/// of a segment exchange on `tag` travel on kChunkTagBase + tag, so
/// StartSegmentExchange accepts only tags in [0, kChunkTagBase) and the
/// band [kChunkTagBase, 2 * kChunkTagBase) -- just below RBC's reserved
/// tags -- must stay free of other traffic of the group (see the tag map
/// in rbc/collectives.hpp).
inline constexpr int kChunkTagBase = 1 << 23;

/// Per-rank traffic accounting of one redistribution. Counts payload
/// messages only; the dense path's metadata (counts) round is excluded so
/// the numbers stay comparable across paths.
struct ExchangeStats {
  /// Logical payload messages: one per (destination, exchange) the path
  /// transmits, regardless of segmentation.
  std::int64_t messages_sent = 0;
  std::int64_t elements_sent = 0;
  /// Wire-level payload messages after large-message segmentation: every
  /// logical message counts its segments/chunks (== messages_sent when no
  /// segment limit applies). Matches the path arithmetic
  /// (mpisim::AlltoallvSegmentsOf / SparseChunksOf, and ceil(bytes /
  /// segment_bytes) for a coalesced message) exactly, so tests can
  /// reconcile this against the substrate's measured message counters.
  /// The hierarchical path reports its phase messages here (chunking
  /// excluded; see the per-level counters below).
  std::int64_t segments = 0;
  /// Per-level traffic of the hierarchical path (Mode::kHierarchical /
  /// kAuto on a two-level cost model): payload messages and bytes of the
  /// intra-node phases (coalescing to the agents + local scatter) and of
  /// the agent-to-agent inter-node phase (one bundle per ordered node
  /// pair, at most ceil((nodes - 1) / node_size) per rank). Zero on every
  /// flat path.
  std::int64_t intra_messages = 0;
  std::int64_t intra_bytes = 0;
  std::int64_t inter_messages = 0;
  std::int64_t inter_bytes = 0;
};

/// Delivery path selection.
enum class Mode {
  kAlltoallv,  // dense: counts exchange + Transport::Ialltoallv (bucket
               // and group-wise exchanges)
  kCoalesced,  // skewed: one self-describing message per destination,
               // chunked under a segment limit, expectation-terminated
               // probe drain (segment exchanges; group-wise exchanges
               // degrade it to kSparse)
  kSparse,     // skewed: one message per destination over the transport's
               // sparse collective (barrier-terminated, no expectations;
               // group-wise exchanges)
  kHierarchical,  // node-aware: per-destination traffic coalesces on each
                  // node at one agent per destination node, crosses the
                  // network once agent-to-agent (the bundles spread over
                  // all members of a node), and is scattered locally
                  // (topo/hier_exchange.hpp); byte-
                  // identical results to the flat paths. Collective and
                  // blocking at start. Degrades gracefully on a flat or
                  // single-node topology (the phases collapse to the
                  // intra case).
  kAuto,       // On a two-level cost model (CostModel::Hierarchical())
               // with more than one node in the group: kHierarchical --
               // matching the exchange structure to the machine beats
               // every flat path on inter-node traffic. Otherwise the
               // flat path of the exchange kind (see the header comment).
               // The segment limit never changes the choice: every path
               // bounds its own wire messages
};

/// Exclusive prefix sum of per-rank element counts over the transport --
/// the interval computation that turns "I hold n elements" into "my
/// elements occupy global slots [result, result + n)". Blocking.
std::int64_t ExscanCount(Transport& tr, std::int64_t mine, int tag);

/// Sender-side plan of a slot-interval redistribution: per-destination
/// counts and displacements (elements) for the caller's run occupying
/// slots [slot_begin, slot_begin + n) of `layout`. Purely local O(spanned
/// ranks) arithmetic over the greedy chunk assignment.
struct SendPlan {
  std::vector<int> counts;  // per destination rank
  std::vector<int> displs;  // prefix sums of counts
};
SendPlan PlanFromInterval(const CapacityLayout& layout,
                          std::int64_t slot_begin, std::int64_t n, int p);

/// Blocking bucket redistribution (single-level sample sort): bucket[i]
/// goes to rank i, every rank returns the concatenation of what it
/// received, ordered by source rank. `stats`, if non-null, is incremented
/// by this call's payload traffic (p-1 messages on the dense path).
/// `segment_bytes` > 0 pipelines each per-peer payload block in segments
/// of at most that many bytes (the large-message regime). Every bucket is
/// non-empty-or-not per rank, so only two deliveries make sense here:
/// kHierarchical runs the node-aware engine (skipping the dense counts
/// round entirely -- its messages are self-describing), kAuto picks it
/// exactly when the cost model is two-level and the group spans nodes,
/// and every other mode delivers densely.
std::vector<double> ExchangeBuckets(
    Transport& tr, const std::vector<std::vector<double>>& buckets, int tag,
    ExchangeStats* stats = nullptr, std::int64_t segment_bytes = 0,
    Mode mode = Mode::kAuto);

/// Flat-bucket variant: bucket i occupies elements [offsets[i],
/// offsets[i+1]) of `elements` (offsets has Size()+1 entries) -- the
/// layout PartitionKWay produces, exchanged without per-bucket copies.
std::vector<double> ExchangeBuckets(Transport& tr,
                                    std::span<const double> elements,
                                    std::span<const std::int64_t> offsets,
                                    int tag, ExchangeStats* stats = nullptr,
                                    std::int64_t segment_bytes = 0,
                                    Mode mode = Mode::kAuto);

/// One outgoing payload of a group-wise (AMS-style) exchange: `count`
/// elements to group rank `dest`. Entries may be empty; they are not
/// transmitted.
struct Outgoing {
  int dest = 0;
  const double* data = nullptr;
  std::int64_t count = 0;
};

/// Blocking group-wise redistribution for exchanges whose receive counts
/// are *not* known in advance -- the multilevel sorter routes each local
/// piece to one deterministically assigned member of its destination
/// group, and a receiver cannot predict how many elements (or which
/// non-empty pieces) will arrive. Ships one message per non-empty non-self
/// destination and returns everything received, concatenated in source-
/// rank order (self-destined entries bypass the transport).
///
/// kSparse (and kAuto below the dense threshold) delivers over the
/// transport's sparse collective; kAlltoallv runs the dense counts +
/// payload rounds. kCoalesced degrades to kSparse: its expectation-driven
/// termination requires known receive counts, which this entry point is
/// for exchanges without. The kAuto decision uses `out.size()` and the
/// group size, so every rank must pass the same number of entries (include
/// the empty ones). `stats`, if non-null, is incremented by the payload
/// traffic (barrier/counts metadata excluded, as everywhere in this
/// layer). `segment_bytes` > 0 bounds every payload message of the
/// sparse and dense paths (chunked / pipelined by the transport).
std::vector<double> ExchangeGroupwise(const std::shared_ptr<Transport>& tr,
                                      std::span<const Outgoing> out, int tag,
                                      Mode mode = Mode::kAuto,
                                      ExchangeStats* stats = nullptr,
                                      std::int64_t segment_bytes = 0);

/// One logically-contiguous run of elements to redistribute, plus where
/// its incoming counterpart accumulates.
struct Segment {
  const double* data = nullptr;   // contiguous elements (may be null if 0)
  std::int64_t count = 0;         // number of elements
  std::int64_t slot_begin = 0;    // absolute slot of data[0] in the layout
  std::vector<double>* sink = nullptr;  // received elements are appended
  std::int64_t expect = 0;        // elements this rank receives (overlap)
};

/// Starts a nonblocking redistribution of `segments` onto `layout` over
/// the transport. All segments coalesce into one exchange regardless of
/// how many there are: one combined message per non-empty destination.
/// Self-destined elements bypass the transport.
///
/// The segment data is copied out before this returns, so callers may
/// free their buffers immediately; sinks must stay alive (and must not be
/// resized by the caller) until the returned Poll reports completion.
/// `stats`, if non-null, is incremented synchronously at start time.
///
/// `segment_bytes` > 0 enables the large-message regime: each
/// per-destination message ships as pieces of at most
/// max(segment_bytes, 8k) bytes (trailing pieces first, on tag
/// kChunkTagBase + tag). kAuto ignores the limit.
///
/// `mode` is kCoalesced, kHierarchical or kAuto (kHierarchical when the
/// cost model is two-level and the group spans nodes, else kCoalesced);
/// kAlltoallv and kSparse raise UsageError. `tag` must lie in
/// [0, kChunkTagBase) (UsageError otherwise), so the chunk tags of
/// simultaneous exchanges never collide with exchange tags.
///
/// The hierarchical path completes the whole exchange before returning
/// (an already-done Poll): its three node-aware phases are collective
/// sparse calls. Safe -- every group member reaches this call -- but a
/// janus rank serializes its two groups' exchanges instead of
/// interleaving them.
Poll StartSegmentExchange(const std::shared_ptr<Transport>& tr,
                          const CapacityLayout& layout,
                          std::vector<Segment> segments, int tag,
                          Mode mode = Mode::kAuto,
                          ExchangeStats* stats = nullptr,
                          std::int64_t segment_bytes = 0);

}  // namespace exchange
}  // namespace jsort
