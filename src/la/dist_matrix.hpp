#pragma once

/// \file dist_matrix.hpp
/// Row-distributed sparse matrix: each rank stores the CSR block of its
/// owned rows over all local columns (owned + ghost). A matvec imports
/// ghost x-values, then runs the local spmv — exactly the communication
/// pattern whose cost the paper's weak-scaling figures track.

#include "la/csr_matrix.hpp"
#include "la/dist_vector.hpp"
#include "la/halo.hpp"
#include "la/index_map.hpp"

namespace hetero::la {

class DistCsrMatrix {
 public:
  /// `map` and `halo` must outlive the matrix. `local` must have
  /// map.owned_count() rows and map.local_count() columns.
  DistCsrMatrix(const IndexMap& map, const HaloExchange& halo,
                CsrMatrix local);

  const IndexMap& map() const { return *map_; }
  const HaloExchange& halo() const { return *halo_; }
  const CsrMatrix& local() const { return local_; }
  CsrMatrix& local_mut() { return local_; }

  /// y = A x; refreshes x's ghosts first. Collective.
  void multiply(simmpi::Comm& comm, DistVector& x, DistVector& y) const;

 private:
  const IndexMap* map_;
  const HaloExchange* halo_;
  CsrMatrix local_;
};

}  // namespace hetero::la
