#include "decorators.h"

#include "nn/linear.h"

namespace perfbench {

void LayerProbe::add(std::int64_t t0, std::int64_t t1, std::size_t n_rows) {
  if (!recording.load(std::memory_order_relaxed)) return;
  calls.fetch_add(1, std::memory_order_relaxed);
  rows.fetch_add(n_rows, std::memory_order_relaxed);
  busy_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
  row_ns.fetch_add(static_cast<std::int64_t>(n_rows) * (t1 - t0),
                   std::memory_order_relaxed);
  if (spans) {
    Span s;
    s.name = name;
    s.id = spans->next_id();
    s.start_ns = t0;
    s.end_ns = t1;
    s.tid = thread_number();
    spans->record(s);
  }
}

void TimedSource::gather(const std::vector<std::int64_t>& rows,
                         ppgnn::Tensor& out) {
  const std::int64_t t0 = now_ns();
  inner_->gather(rows, out);
  probe_->add(t0, now_ns(), rows.size());
}

ppgnn::Tensor TimedModel::infer(const ppgnn::Tensor& batch) {
  const std::int64_t t0 = now_ns();
  ppgnn::Tensor out = inner_->infer(batch);
  probe_->add(t0, now_ns(), batch.rows());
  return out;
}

double ops_per_row(ppgnn::core::PpModel& model) {
  std::vector<ppgnn::nn::Linear*> linears;
  model.collect_linears(linears);
  double ops = 0;
  for (const auto* l : linears) {
    ops += 2.0 * static_cast<double>(l->in_features()) *
           static_cast<double>(l->out_features());
  }
  return ops;
}

}  // namespace perfbench
