// A deliberately naive oracle for a classification view (paper Section 2):
// the view's answers are a pure function of the entity set and the model
// trained on the committed examples, so an engine that maintains anything
// incrementally must agree with this from-scratch model of it. The oracle
// keeps the tables in memory, drives its own feature function with the
// calls the engine's triggers make (ComputeStats at CREATE VIEW,
// ComputeStatsInc + ComputeFeature per entity insert, ComputeFeature per
// example insert and per entity at a retrain), trains its own SGD trainer
// in commit order, retrains from scratch on every example DELETE/UPDATE and
// entity UPDATE/DELETE (paper footnote 2), and labels every entity
// sign(w·f − b).

#ifndef HAZY_TESTS_NAIVE_ORACLE_H_
#define HAZY_TESTS_NAIVE_ORACLE_H_

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "features/feature_function.h"
#include "ml/sgd.h"

namespace hazy::engine {

/// The naive oracle: in-memory tables plus a from-scratch model of what the
/// view must answer.
class NaiveOracle {
 public:
  NaiveOracle(const std::string& feature_function, ml::LossKind loss)
      : feature_function_(feature_function) {
    options_.loss = loss;
    trainer_ = ml::SgdTrainer(options_);
  }

  // Tables before the view exists.
  void LoadPaper(int64_t id, const std::string& title) { papers_[id] = title; }
  void LoadExample(int64_t id, int sign) { examples_.emplace_back(id, sign); }

  /// CREATE VIEW: ComputeStats over the entity table in scan order (the
  /// papers were loaded in ascending id order), then one trigger per
  /// pre-existing example.
  void CreateView() {
    fn_ = features::MakeFeatureFunction(feature_function_).ValueOrDie();
    std::vector<std::string> corpus;
    for (const auto& [id, title] : papers_) corpus.push_back(title);
    ASSERT_TRUE(fn_->ComputeStats(corpus).ok());
    for (const auto& [id, title] : papers_) features_[id] = Featurize(title);
    for (const auto& [id, sign] : examples_) Train(id, sign);
  }

  void InsertPaper(int64_t id, const std::string& title) {
    papers_[id] = title;
    ASSERT_TRUE(fn_->ComputeStatsInc(title).ok());
    features_[id] = Featurize(title);
  }
  void UpdatePaper(int64_t id, const std::string& title) {
    papers_[id] = title;
    Retrain();
  }
  void DeletePaper(int64_t id) {
    papers_.erase(id);
    Retrain();
  }

  void InsertExample(int64_t id, int sign) {
    examples_.emplace_back(id, sign);
    Train(id, sign);
  }
  void UpdateExample(int64_t id, int sign) {
    for (auto& entry : examples_) {
      if (entry.first != id) continue;
      if (entry.second == sign) return;  // label unchanged: no retrain
      entry.second = sign;
    }
    Retrain();
  }
  void DeleteExample(int64_t id) {
    for (auto it = examples_.begin(); it != examples_.end(); ++it) {
      if (it->first == id) {
        examples_.erase(it);
        break;
      }
    }
    Retrain();
  }

  /// Every entity's label under the current model.
  std::map<int64_t, int> Labels() const {
    std::map<int64_t, int> out;
    for (const auto& [id, f] : features_) out[id] = model_.Classify(f);
    return out;
  }

  /// The ids labeled `sign` under the current model.
  std::set<int64_t> Members(int sign) const {
    std::set<int64_t> out;
    for (const auto& [id, label] : Labels()) {
      if (label == sign) out.insert(id);
    }
    return out;
  }

  const std::map<int64_t, std::string>& papers() const { return papers_; }
  bool HasExample(int64_t id) const {
    for (const auto& entry : examples_) {
      if (entry.first == id) return true;
    }
    return false;
  }
  const std::vector<std::pair<int64_t, int>>& examples() const { return examples_; }

 private:
  ml::FeatureVector Featurize(const std::string& doc) {
    return fn_->ComputeFeature(doc).ValueOrDie();
  }

  void Train(int64_t id, int sign) {
    ml::FeatureVector f = Featurize(papers_.at(id));
    trainer_.AddExample(&model_, ml::LabeledExample{id, std::move(f), sign});
  }

  /// Paper footnote 2: a fresh model, every entity re-featurized, and the
  /// examples replayed in commit order (an example whose entity is gone
  /// is skipped).
  void Retrain() {
    model_ = ml::LinearModel{};
    trainer_ = ml::SgdTrainer(options_);
    features_.clear();
    for (const auto& [id, title] : papers_) features_[id] = Featurize(title);
    for (const auto& [id, sign] : examples_) {
      auto it = features_.find(id);
      if (it == features_.end()) continue;
      trainer_.AddExample(&model_, ml::LabeledExample{id, it->second, sign});
    }
  }

  std::string feature_function_;
  ml::SgdOptions options_;
  std::map<int64_t, std::string> papers_;
  std::vector<std::pair<int64_t, int>> examples_;  // commit order
  std::unique_ptr<features::FeatureFunction> fn_;
  std::map<int64_t, ml::FeatureVector> features_;
  ml::LinearModel model_;
  ml::SgdTrainer trainer_;
};

}  // namespace hazy::engine

#endif  // HAZY_TESTS_NAIVE_ORACLE_H_
