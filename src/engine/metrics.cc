#include "engine/metrics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/loss.h"

namespace fae {

void RunningMetric::Observe(double loss, size_t correct, size_t batch_size) {
  loss_sum_ += loss * static_cast<double>(batch_size);
  correct_ += correct;
  samples_ += batch_size;
  ++batches_;
}

double RunningMetric::mean_loss() const {
  return samples_ == 0 ? 0.0 : loss_sum_ / static_cast<double>(samples_);
}

double RunningMetric::accuracy() const {
  return samples_ == 0
             ? 0.0
             : static_cast<double>(correct_) / static_cast<double>(samples_);
}

CurvePoint RunningMetric::Flush(size_t iteration) {
  CurvePoint p;
  p.iteration = iteration;
  p.train_loss = mean_loss();
  p.train_acc = accuracy();
  loss_sum_ = 0.0;
  correct_ = 0;
  samples_ = 0;
  batches_ = 0;
  return p;
}

double RocAuc(const std::vector<float>& scores,
              const std::vector<float>& labels) {
  const size_t n = scores.size();
  if (n == 0 || labels.size() != n) return 0.0;
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] < scores[b]; });
  // Midranks over tied scores, then the Mann-Whitney U statistic.
  double positive_rank_sum = 0.0;
  size_t positives = 0;
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;
    const double midrank = 0.5 * static_cast<double>(i + j) + 1.0;
    for (size_t k = i; k <= j; ++k) {
      if (labels[order[k]] >= 0.5f) {
        positive_rank_sum += midrank;
        ++positives;
      }
    }
    i = j + 1;
  }
  const size_t negatives = n - positives;
  if (positives == 0 || negatives == 0) return 0.0;
  const double u = positive_rank_sum -
                   static_cast<double>(positives) * (positives + 1) / 2.0;
  return u / (static_cast<double>(positives) * static_cast<double>(negatives));
}

EvalResult Evaluate(const RecModel& model,
                    const std::vector<BatchView>& batches) {
  EvalResult r;
  double loss_sum = 0.0;
  size_t correct = 0;
  std::vector<float> scores;
  std::vector<float> labels;
  for (const BatchView& batch : batches) {
    Tensor logits = model.EvalLogits(batch);
    loss_sum += BceLossOnly(logits, batch.labels) *
                static_cast<double>(batch.batch_size());
    for (size_t i = 0; i < batch.batch_size(); ++i) {
      const bool pred = logits(i, 0) >= 0.0f;  // sigmoid(z) >= 0.5
      const bool truth = batch.labels[i] >= 0.5f;
      if (pred == truth) ++correct;
      scores.push_back(logits(i, 0));
      labels.push_back(batch.labels[i]);
    }
    r.samples += batch.batch_size();
  }
  if (r.samples > 0) {
    r.loss = loss_sum / static_cast<double>(r.samples);
    r.accuracy = static_cast<double>(correct) / static_cast<double>(r.samples);
    r.auc = RocAuc(scores, labels);
  }
  return r;
}

}  // namespace fae
