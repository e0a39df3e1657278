#include "src/lite/qp_manager.h"

#include <algorithm>
#include <functional>
#include <thread>

#include "src/common/timing.h"

namespace lite {

void QpManager::Setup(const std::vector<bool>& connect, lt::Cq* recv_cq) {
  const int k = std::max(1, node_->params().lite_qp_sharing_factor);
  pool_.resize(connect.size());
  mu_.resize(connect.size());
  for (NodeId dst = 0; dst < connect.size(); ++dst) {
    if (!connect[dst]) {
      continue;
    }
    for (int i = 0; i < k; ++i) {
      lt::Cq* send_cq = node_->rnic().CreateCq();
      pool_[dst].push_back(node_->rnic().CreateQp(lt::QpType::kRc, send_cq, recv_cq));
      mu_[dst].push_back(std::make_unique<std::mutex>());
    }
  }
}

std::pair<int, int> QpManager::Band(NodeId dst, Priority pri) const {
  if (dst >= pool_.size() || pool_[dst].empty()) {
    return {0, 0};
  }
  const int k = static_cast<int>(pool_[dst].size());
  auto [lo, hi] = qos_->QpRange(pri, k);
  if (hi <= lo) {
    return {0, k};
  }
  return {lo, hi};
}

int QpManager::PickQpIndex(NodeId dst, Priority pri) {
  const auto [lo, hi] = Band(dst, pri);
  if (hi == lo) {
    return -1;
  }
  // Cheap per-thread spreading across the allowed slots.
  static thread_local uint32_t t_counter = 0;
  return lo + static_cast<int>(t_counter++ % static_cast<uint32_t>(hi - lo));
}

int QpManager::PickQpIndexSticky(NodeId dst, Priority pri) {
  const auto [lo, hi] = Band(dst, pri);
  if (hi == lo) {
    return -1;
  }
  static thread_local const uint32_t t_base = static_cast<uint32_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()));
  return lo + static_cast<int>(t_base % static_cast<uint32_t>(hi - lo));
}

lt::Qp* QpManager::PoolQp(NodeId dst, int k) const {
  if (dst >= pool_.size() || static_cast<size_t>(k) >= pool_[dst].size()) {
    return nullptr;
  }
  return pool_[dst][k];
}

size_t QpManager::TotalQps() const {
  size_t n = 0;
  for (const auto& per_dst : pool_) {
    n += per_dst.size();
  }
  return n;
}

}  // namespace lite
