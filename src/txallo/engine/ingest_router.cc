#include "txallo/engine/ingest_router.h"

namespace txallo::engine {

IngestRouter::IngestRouter(ParallelEngine* engine, uint32_t num_producers)
    : engine_(engine), pool_(num_producers) {}

Status IngestRouter::SubmitBlock(
    const std::vector<chain::Transaction>& transactions) {
  const size_t n = transactions.size();
  const size_t producers = pool_.lanes();
  const uint64_t seq_base = engine_->ReserveSequenceRange(n);
  std::vector<Status> statuses(producers, Status::OK());
  pool_.Run([&](uint32_t p) {
    // Contiguous slice [begin, end); its sequence tags are its positions
    // in the block offset by the block's base.
    const size_t begin = n * p / producers;
    const size_t end = n * (p + 1) / producers;
    if (end > begin) {
      statuses[p] = engine_->SubmitTransactions(
          transactions.data() + begin, end - begin, seq_base + begin);
    }
  });
  for (const Status& status : statuses) {
    TXALLO_RETURN_NOT_OK(status);
  }
  return Status::OK();
}

}  // namespace txallo::engine
