// Timing decorators the traced serving run hands to FleetBuilder through
// its MakeSource / MakeModel callbacks.  They sit on the replica's own
// dispatcher thread around the two calls that make up the "compute" stage
// (feature gather, then the model's eval-mode forward), count calls, rows
// and busy time, and record one span per call while recording is on.
// Everything else is forwarded untouched — TimedModel forwards
// collect_linears, so int8 quantization and weight sharing reach the
// wrapped model's layers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/pp_model.h"
#include "serve/feature_source.h"
#include "span_trace.h"

namespace perfbench {

// Counters of one layer, shared by every replica's decorator.
struct LayerProbe {
  explicit LayerProbe(const char* span_name) : name(span_name) {}

  const char* name;
  std::atomic<bool> recording{false};
  SpanBuffer* spans = nullptr;  // set before recording starts
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> rows{0};
  std::atomic<std::int64_t> busy_ns{0};
  // Sum over calls of rows * duration: divided by rows, the call time a
  // row sees on average (the row-weighted mean).
  std::atomic<std::int64_t> row_ns{0};

  struct Totals {
    std::uint64_t calls = 0, rows = 0;
    std::int64_t busy_ns = 0, row_ns = 0;
  };
  Totals totals() const {
    return {calls.load(), rows.load(), busy_ns.load(), row_ns.load()};
  }
  // Adds one call; a no-op while not recording.
  void add(std::int64_t t0, std::int64_t t1, std::size_t n_rows);
};

class TimedSource : public ppgnn::serve::FeatureSource {
 public:
  TimedSource(std::unique_ptr<ppgnn::serve::FeatureSource> inner,
              LayerProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::size_t num_rows() const override { return inner_->num_rows(); }
  std::size_t row_dim() const override { return inner_->row_dim(); }
  void gather(const std::vector<std::int64_t>& rows,
              ppgnn::Tensor& out) override;
  const char* kind() const override { return inner_->kind(); }
  std::size_t encoded_row_bytes() const override {
    return inner_->encoded_row_bytes();
  }
  void gather_encoded(const std::vector<std::int64_t>& rows,
                      std::uint8_t* out) override {
    inner_->gather_encoded(rows, out);
  }
  void decode_row(const std::uint8_t* enc, float* out) const override {
    inner_->decode_row(enc, out);
  }

 private:
  std::unique_ptr<ppgnn::serve::FeatureSource> inner_;
  LayerProbe* probe_;
};

class TimedModel : public ppgnn::core::PpModel {
 public:
  TimedModel(std::unique_ptr<ppgnn::core::PpModel> inner, LayerProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  ppgnn::Tensor forward(const ppgnn::Tensor& batch, bool train) override {
    return inner_->forward(batch, train);
  }
  void backward(const ppgnn::Tensor& grad_logits) override {
    inner_->backward(grad_logits);
  }
  void collect_params(std::vector<ppgnn::nn::ParamSlot>& out) override {
    inner_->collect_params(out);
  }
  void collect_linears(std::vector<ppgnn::nn::Linear*>& out) override {
    inner_->collect_linears(out);
  }
  std::string name() const override { return inner_->name(); }
  std::size_t hops() const override { return inner_->hops(); }
  ppgnn::Tensor infer(const ppgnn::Tensor& batch) override;

 private:
  std::unique_ptr<ppgnn::core::PpModel> inner_;
  LayerProbe* probe_;
};

// Multiply-add work of one row through every Linear, counted as
// 2 * sum(in * out) operations — computed from the layer shapes, not
// measured.
double ops_per_row(ppgnn::core::PpModel& model);

}  // namespace perfbench
