#include "txallo/alloc/params.h"

#include <cmath>

namespace txallo::alloc {

AllocationParams AllocationParams::ForExperiment(uint64_t num_transactions,
                                                 uint32_t num_shards,
                                                 double eta) {
  AllocationParams params;
  params.num_shards = num_shards;
  params.eta = eta;
  params.capacity = num_shards > 0
                        ? static_cast<double>(num_transactions) / num_shards
                        : 0.0;
  params.epsilon = 1e-5 * static_cast<double>(num_transactions);
  return params;
}

// Each check is written so that NaN fails it too: every comparison with NaN
// is false.
Status AllocationParams::ValidateEta(double eta) {
  if (!(eta >= 1.0 && std::isfinite(eta))) {
    return Status::InvalidArgument(
        "'eta' must be finite and >= 1 (cross-shard work cannot be cheaper "
        "than intra-shard)");
  }
  return Status::OK();
}

Status AllocationParams::Validate() const {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  TXALLO_RETURN_NOT_OK(ValidateEta(eta));
  if (!(capacity > 0.0 && std::isfinite(capacity))) {
    return Status::InvalidArgument("capacity must be finite and positive");
  }
  if (!(epsilon >= 0.0 && std::isfinite(epsilon))) {
    return Status::InvalidArgument("epsilon must be finite and non-negative");
  }
  return Status::OK();
}

}  // namespace txallo::alloc
