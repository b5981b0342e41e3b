// Answer oracle: reference logits for every node, computed once at set-up
// through one in-process InferenceSession over the same checkpoint,
// precision and feature encoding the fleet serves.  Inference is
// row-independent with a fixed accumulation order, so every correct
// answer is bit-identical to the reference row (the serving tests prove
// this for batching, replication and the socket hop); anything else —
// one flipped bit included — counts as a failed operation.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/inference_session.h"
#include "serve/serve_api.h"
#include "tensor/tensor.h"

namespace perfbench {

class AnswerOracle {
 public:
  // Reference rows for nodes [0, session.num_nodes()).
  static AnswerOracle compute(ppgnn::serve::InferenceSession& session);
  explicit AnswerOracle(ppgnn::Tensor logits) : logits_(std::move(logits)) {}

  std::size_t classes() const { return logits_.cols(); }
  std::size_t nodes() const { return logits_.rows(); }

  // True when `resp` answers `req` exactly: status kOk, one result per
  // node, and each full-logit row memcmp-equal to the reference (top-k:
  // equal to topk_of_row of the reference row, scores bit-for-bit).
  bool check(const ppgnn::serve::ServeRequest& req,
             const ppgnn::serve::ServeResponse& resp) const;

 private:
  ppgnn::Tensor logits_;
};

}  // namespace perfbench
