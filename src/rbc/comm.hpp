// RBC -- RangeBasedComm (Axtmann, Wiebigke, Sanders; IPDPS 2018).
//
// An RBC communicator is a *view* onto a range of ranks of an underlying
// MPI communicator: it stores the MPI communicator handle, the MPI rank
// `f` of its first process, the MPI rank of its last process, and an
// optional stride (footnote 2 of the paper). Creating or splitting an RBC
// communicator is therefore a purely local, constant-time operation with
// zero communication -- the headline property of the library.
//
// Because RBC cannot allocate MPI context ids, all of its traffic flows
// over the underlying MPI communicator: when two RBC communicators over
// the same MPI communicator overlap in *more than one* process,
// simultaneously executed operations must use unique tags (Section V-A).
// If they overlap in at most one process, RBC's membership-filtered probes
// guarantee non-interference without any tag discipline: the membership
// filter is part of the substrate's envelope match, so a wildcard probe or
// receive finds the first *member* message even when a message of the
// overlapping range is queued ahead of it.
#pragma once

#include "mpisim/mpisim.hpp"

namespace rbc {

/// RBC reuses the substrate's status/datatype vocabulary.
using Status = mpisim::Status;
using Datatype = mpisim::Datatype;
using ReduceOp = mpisim::ReduceOp;
inline constexpr int kAnySource = mpisim::kAnySource;
inline constexpr int kAnyTag = mpisim::kAnyTag;

/// Range-based communicator (Table I: class rbc::Comm). Value semantics;
/// a default-constructed Comm is null.
class Comm {
 public:
  Comm() = default;

  bool IsNull() const { return mpi_.IsNull(); }

  /// Rank of the calling process within this RBC communicator, or -1 when
  /// the caller holds a handle to a range it is not part of.
  int Rank() const { return rank_; }

  /// Number of processes in the range.
  int Size() const { return size_; }

  /// The underlying MPI communicator.
  const mpisim::Comm& Mpi() const { return mpi_; }

  /// MPI rank of the first process of the range.
  int First() const { return first_; }
  /// MPI rank of the last process of the range.
  int Last() const { return first_ + (size_ - 1) * stride_; }
  /// Stride between member MPI ranks (1 for continuous ranges).
  int Stride() const { return stride_; }

  /// Translates an RBC rank to the underlying MPI rank.
  int ToMpi(int rbc_rank) const;

  /// Translates an MPI rank to the RBC rank, or -1 if not a member.
  int FromMpi(int mpi_rank) const;

  /// The range as a substrate source filter -- the membership test of
  /// wildcard probes and receives (Section V-C): they match only messages
  /// from members, even behind foreign ones queued first.
  mpisim::SourceRange Members() const {
    return mpisim::SourceRange{first_, Last(), stride_};
  }

  /// Internal factory used by the creation routines.
  static Comm Raw(mpisim::Comm mpi, int first, int size, int stride);

 private:
  mpisim::Comm mpi_;
  int first_ = 0;
  int size_ = 0;
  int stride_ = 1;
  int rank_ = -1;
};

/// Creates an RBC communicator containing all processes of an MPI
/// communicator. Local operation, O(1), no communication.
void Create_RBC_Comm(const mpisim::Comm& mpi, Comm* out);

/// Creates an RBC communicator containing the processes with RBC ranks
/// first..last of an existing RBC communicator (paper Fig. 1 usage:
/// Split_RBC_Comm(parent, f, l, &out)). Local operation, O(1), no
/// communication; any process may construct any range.
void Split_RBC_Comm(const Comm& parent, int first, int last, Comm* out);

/// Strided variant (footnote 2): contains parent ranks first,
/// first+stride, ..., up to at most last.
void Split_RBC_Comm_Strided(const Comm& parent, int first, int last,
                            int stride, Comm* out);

/// MPI-style accessors (Table I).
int Comm_rank(const Comm& comm, int* rank);
int Comm_size(const Comm& comm, int* size);

}  // namespace rbc
