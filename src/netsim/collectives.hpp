#pragma once

/// \file collectives.hpp
/// Analytic cost models for the MPI collectives heterolab uses, matched to
/// the classic algorithms (binomial trees, recursive doubling, ring). The
/// simulated MPI runtime charges these costs to rank clocks; the weak-scaling
/// projector uses the same formulas so direct and modeled runs agree.

#include <cstdint>

#include "netsim/topology.hpp"

namespace hetero::netsim {

/// Cost of a barrier among `ranks` processes (dissemination algorithm).
double barrier_time(const Topology& topo);

/// Recursive-doubling allreduce of `bytes` (latency-dominated regime used by
/// the solvers' dot products: bytes is typically 8).
double allreduce_time(const Topology& topo, std::uint64_t bytes);

/// Allgather (ring) of `bytes` per rank.
double allgather_time(const Topology& topo, std::uint64_t bytes_per_rank);

/// Personalized all-to-all of `bytes` per pair (pairwise exchange).
double alltoall_time(const Topology& topo, std::uint64_t bytes_per_pair);

}  // namespace hetero::netsim
