#include "txallo/mempool/submit_router.h"

#include <vector>

namespace txallo::mempool {

SubmitRouter::SubmitRouter(Mempool* pool, uint32_t num_producers)
    : pool_(pool), lanes_(num_producers) {}

size_t SubmitRouter::SubmitBatch(const chain::Transaction* transactions,
                                 const uint64_t* fees, size_t count,
                                 uint64_t submit_tick, uint64_t seq_base) {
  const size_t producers = lanes_.lanes();
  std::vector<size_t> accepted(producers, 0);
  // A batch below the pool's inline threshold is offered on the caller,
  // lane by lane.
  lanes_.Run(count * kItemsPerRoutedTx, [&](uint32_t p) {
    // Contiguous slice [begin, end); its sequence tags are its positions
    // in the batch offset by the batch's base.
    const size_t end = count * (p + 1) / producers;
    size_t n = 0;
    for (size_t i = count * p / producers; i < end; ++i) {
      if (pool_->TrySubmit(transactions[i], fees[i], submit_tick,
                           seq_base + i)) {
        ++n;
      }
    }
    accepted[p] = n;
  });
  size_t total_accepted = 0;
  for (size_t n : accepted) total_accepted += n;
  return total_accepted;
}

}  // namespace txallo::mempool
