#include "la/dist_matrix.hpp"

#include "support/error.hpp"

namespace hetero::la {

DistCsrMatrix::DistCsrMatrix(const IndexMap& map, const HaloExchange& halo,
                             CsrMatrix local)
    : map_(&map), halo_(&halo), local_(std::move(local)) {
  HETERO_REQUIRE(local_.rows() == map.owned_count() &&
                     local_.cols() == map.local_count(),
                 "local block shape must be owned x local");
}

void DistCsrMatrix::multiply(simmpi::Comm& comm, DistVector& x,
                             DistVector& y) const {
  x.update_ghosts(comm, *halo_);
  local_.multiply(x.values(), y.owned());
}

}  // namespace hetero::la
