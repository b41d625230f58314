#include "stream/operator.h"

#include "stream/batch.h"

namespace usp {
namespace stream {

class Operator::CountingCollector final : public Collector {
 public:
  CountingCollector(Collector* inner, OperatorMetrics* metrics)
      : inner_(inner), metrics_(metrics) {}
  void Emit(Tuple tuple) override {
    ++metrics_->tuples_out;
    inner_->Emit(std::move(tuple));
  }

 private:
  Collector* inner_;
  OperatorMetrics* metrics_;
};

common::Status Operator::PushBatch(const TupleBatch& batch, Collector* out) {
  metrics_.tuples_in += batch.size();
  ++metrics_.batches_in;
  CountingCollector counting(out, &metrics_);
  common::Stopwatch sw;
  const common::Status st = ProcessBatch(batch, &counting);
  metrics_.processing_seconds += sw.ElapsedSeconds();
  return st;
}

common::Status Operator::AdvanceWatermark(int64_t watermark, Collector* out) {
  metrics_.low_watermark = watermark;
  CountingCollector counting(out, &metrics_);
  common::Stopwatch sw;
  const common::Status st = OnWatermark(watermark, &counting);
  metrics_.processing_seconds += sw.ElapsedSeconds();
  return st;
}

common::Status Operator::Close(Collector* out) {
  CountingCollector counting(out, &metrics_);
  common::Stopwatch sw;
  const common::Status st = Finish(&counting);
  metrics_.processing_seconds += sw.ElapsedSeconds();
  return st;
}

}  // namespace stream
}  // namespace usp
