#include "serve/inference_session.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "nn/linear.h"
#include "nn/serialize.h"
#include "tensor/quant.h"

namespace ppgnn::serve {

const char* precision_name(Precision p) {
  return p == Precision::kInt8 ? "int8" : "fp32";
}

bool parse_precision(const std::string& s, Precision* out) {
  if (s == "fp32") {
    *out = Precision::kFp32;
    return true;
  }
  if (s == "int8") {
    *out = Precision::kInt8;
    return true;
  }
  return false;
}

InferenceSession::InferenceSession(std::unique_ptr<core::PpModel> model,
                                   std::unique_ptr<FeatureSource> features,
                                   Precision precision)
    : model_(std::move(model)),
      features_(std::move(features)),
      precision_(precision) {
  if (!model_ || !features_) {
    throw std::invalid_argument("InferenceSession: null model or features");
  }
  // The label must match the model's real state (Linear keys its int8
  // path on the quantized block alone), otherwise a fleet could serve
  // fp32 while reporting int8 — or the reverse — and downstream checks
  // like FleetManager's would be validating a fiction.
  std::vector<nn::Linear*> linears;
  model_->collect_linears(linears);
  bool any_quantized = false, all_quantized = !linears.empty();
  for (const auto* l : linears) {
    any_quantized = any_quantized || l->is_quantized();
    all_quantized = all_quantized && l->is_quantized();
  }
  if (precision_ == Precision::kInt8 && !all_quantized) {
    throw std::invalid_argument(
        "InferenceSession: precision=int8 but the model is not (fully) "
        "quantized — run core::quantize_int8 first");
  }
  if (precision_ == Precision::kFp32 && any_quantized) {
    throw std::invalid_argument(
        "InferenceSession: precision=fp32 but the model holds quantized "
        "weights and would serve the int8 path");
  }
}

Isa InferenceSession::kernel_isa() {
  if (precision_ == Precision::kInt8) {
    std::vector<nn::Linear*> linears;
    model_->collect_linears(linears);
    for (const auto* l : linears) {
      if (l->is_quantized()) return gemm_dispatch_arm(*l->quantized_weight());
    }
  }
  return active_isa();
}

Tensor InferenceSession::infer_nodes(const std::vector<std::int64_t>& nodes) {
  if (nodes.empty()) {
    throw std::invalid_argument("infer_nodes: empty request batch");
  }
  Tensor batch;
  features_->gather(nodes, batch);
  std::lock_guard<std::mutex> lk(mu_);
  return model_->infer(batch);
}

std::vector<float> InferenceSession::infer_one(std::int64_t node) {
  const Tensor logits = infer_nodes({node});
  return std::vector<float>(logits.row(0), logits.row(0) + logits.cols());
}

PrecisionDrift compare_precision(InferenceSession& reference,
                                 InferenceSession& quantized,
                                 const std::vector<std::int64_t>& sample) {
  PrecisionDrift drift;
  drift.sampled = sample.size();
  if (sample.empty()) return drift;
  const Tensor lf = reference.infer_nodes(sample);
  const Tensor lq = quantized.infer_nodes(sample);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    std::size_t top_f = 0, top_q = 0;
    for (std::size_t j = 0; j < lf.cols(); ++j) {
      if (lf.at(i, j) > lf.at(i, top_f)) top_f = j;
      if (lq.at(i, j) > lq.at(i, top_q)) top_q = j;
      drift.max_logit_err = std::max(
          drift.max_logit_err,
          static_cast<double>(std::fabs(lf.at(i, j) - lq.at(i, j))));
    }
    if (top_f == top_q) ++agree;
  }
  drift.top1_agreement =
      static_cast<double>(agree) / static_cast<double>(sample.size());
  return drift;
}

void save_deployed_model(core::PpModel& model, const std::string& path,
                         Precision precision) {
  std::vector<nn::ParamSlot> slots;
  model.collect_params(slots);
  if (precision == Precision::kInt8) {
    nn::save_parameters_quantized(slots, path);
  } else {
    nn::save_parameters(slots, path);
  }
}

void load_deployed_model(core::PpModel& model, const std::string& path) {
  std::vector<nn::ParamSlot> slots;
  model.collect_params(slots);
  nn::load_parameters(slots, path);
}

FleetBuilder::FleetBuilder(std::string checkpoint_path, MakeModel make_model,
                           MakeSource make_source, Precision precision)
    : checkpoint_path_(std::move(checkpoint_path)),
      make_model_(std::move(make_model)),
      make_source_(std::move(make_source)),
      precision_(precision) {
  if (!make_model_ || !make_source_) {
    throw std::invalid_argument("FleetBuilder: null model or source factory");
  }
}

std::unique_ptr<InferenceSession> FleetBuilder::build(std::size_t ordinal) {
  auto model = make_model_(ordinal);
  if (!model) {
    throw std::invalid_argument("FleetBuilder: make_model returned null");
  }
  load_deployed_model(*model, checkpoint_path_);
  if (precision_ == Precision::kInt8) {
    if (!donor_) {
      // First build pays the quantization once; the donor stays alive so
      // every later spawn — possibly seconds into the serving run — shares
      // the same immutable blocks instead of re-quantizing (which would be
      // bit-identical anyway, but why redo it per spawn).
      donor_ = make_model_(ordinal);
      if (!donor_) {
        throw std::invalid_argument("FleetBuilder: make_model returned null");
      }
      load_deployed_model(*donor_, checkpoint_path_);
      core::quantize_int8(*donor_);
      // One line per fleet, not per replica: which rung of the SIMD
      // ladder every session built from this donor will run on (the
      // packed layout is chosen here, at quantize time, and shared).
      std::vector<nn::Linear*> linears;
      donor_->collect_linears(linears);
      Isa arm = active_isa();
      for (const auto* l : linears) {
        if (l->is_quantized()) {
          arm = gemm_dispatch_arm(*l->quantized_weight());
          break;
        }
      }
      std::fprintf(stderr, "[fleet] int8 kernel ladder: %s\n", isa_name(arm));
    }
    core::share_quantized_weights(*model, *donor_);
  }
  auto source = make_source_(ordinal);
  if (!source) {
    throw std::invalid_argument("FleetBuilder: make_source returned null");
  }
  return std::make_unique<InferenceSession>(std::move(model),
                                            std::move(source), precision_);
}

std::vector<std::unique_ptr<InferenceSession>> FleetBuilder::build_n(
    std::size_t n) {
  if (n == 0) {
    throw std::invalid_argument("FleetBuilder: zero replicas");
  }
  std::vector<std::unique_ptr<InferenceSession>> sessions;
  sessions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) sessions.push_back(build(i));
  return sessions;
}

}  // namespace ppgnn::serve
