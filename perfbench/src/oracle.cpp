#include "oracle.h"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace perfbench {

using ppgnn::serve::ResultMode;
using ppgnn::serve::ServeStatus;

namespace {
// Rows inferred per call while building the reference.
constexpr std::size_t kBatch = 1024;
}  // namespace

AnswerOracle AnswerOracle::compute(ppgnn::serve::InferenceSession& session) {
  const std::size_t n = session.num_nodes();
  ppgnn::Tensor all;
  for (std::size_t lo = 0; lo < n; lo += kBatch) {
    std::vector<std::int64_t> ids(std::min(kBatch, n - lo));
    std::iota(ids.begin(), ids.end(), static_cast<std::int64_t>(lo));
    const ppgnn::Tensor part = session.infer_nodes(ids);
    if (lo == 0) all = ppgnn::Tensor({n, part.cols()});
    std::memcpy(all.row(lo), part.data(), part.bytes());
  }
  return AnswerOracle(std::move(all));
}

bool AnswerOracle::check(const ppgnn::serve::ServeRequest& req,
                         const ppgnn::serve::ServeResponse& resp) const {
  if (resp.status != ServeStatus::kOk || resp.id != req.id) return false;
  const std::size_t c = classes();
  for (std::size_t i = 0; i < req.nodes.size(); ++i) {
    const std::int64_t node = req.nodes[i];
    if (node < 0 || static_cast<std::size_t>(node) >= nodes()) return false;
    const float* ref = logits_.row(static_cast<std::size_t>(node));
    if (req.mode == ResultMode::kFullLogits) {
      if (resp.logits.size() != req.nodes.size()) return false;
      const auto& row = resp.logits[i];
      if (row.size() != c ||
          std::memcmp(row.data(), ref, c * sizeof(float)) != 0) {
        return false;
      }
    } else {
      if (resp.topk.size() != req.nodes.size()) return false;
      const auto want = ppgnn::serve::topk_of_row(ref, c, req.topk);
      const auto& got = resp.topk[i];
      if (got.size() != want.size()) return false;
      for (std::size_t k = 0; k < want.size(); ++k) {
        if (got[k].cls != want[k].cls ||
            std::memcmp(&got[k].score, &want[k].score, sizeof(float)) != 0) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace perfbench
