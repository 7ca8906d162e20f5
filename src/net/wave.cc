#include "net/wave.h"

#include <cstddef>

namespace wsnq {
namespace {

/// How much larger than the balance target a subtree must be before it is
/// split at its own children instead of forming one oversized part.
constexpr int64_t kSplitFactor = 2;
/// Bound on recursive splitting: below the root, at most this many nested
/// fold vertices (keeps the expansion stack small on path-like trees).
constexpr size_t kMaxSplitDepth = 16;

}  // namespace

namespace wave_internal {

WaveLane& SerialLane() {
  thread_local WaveLane lane;
  return lane;
}

}  // namespace wave_internal

SubtreeCut ComputeSubtreeCut(const SpanningTree& tree, int target_parts) {
  SubtreeCut cut;
  const size_t order = tree.post_order.size();
  if (order == 0) return cut;
  target_parts = std::max(1, target_parts);

  // Subtree sizes over the attached vertices. post_order lists children
  // before parents, so size[v] is final when v's parent accumulates it.
  std::vector<int64_t> size(tree.parent.size(), 0);
  for (int v : tree.post_order) {
    size[static_cast<size_t>(v)] += 1;
    const int parent = tree.parent[static_cast<size_t>(v)];
    if (parent >= 0) {
      size[static_cast<size_t>(parent)] += size[static_cast<size_t>(v)];
    }
  }
  const int64_t target = std::max<int64_t>(
      1, (static_cast<int64_t>(order) + target_parts - 1) / target_parts);

  // Expand the tree into serial post order as a sequence of whole subtrees
  // and fold vertices: the root always folds; a child subtree folds too
  // when it dwarfs the balance target (recursively, depth-capped).
  struct Item {
    int vertex;
    bool fold;
  };
  std::vector<Item> seq;
  const auto splittable = [&](int v) {
    return size[static_cast<size_t>(v)] > kSplitFactor * target &&
           !tree.children[static_cast<size_t>(v)].empty();
  };
  // (vertex, index of the next child to expand) — children in ascending
  // order, exactly as FinalizeTree laid out post_order.
  std::vector<std::pair<int, size_t>> stack;
  stack.reserve(kMaxSplitDepth + 1);
  stack.emplace_back(tree.root, 0);
  while (!stack.empty()) {
    auto& frame = stack.back();
    const auto& kids = tree.children[static_cast<size_t>(frame.first)];
    if (frame.second < kids.size()) {
      const int child = kids[frame.second++];
      if (stack.size() <= kMaxSplitDepth && splittable(child)) {
        stack.emplace_back(child, 0);
      } else {
        seq.push_back({child, false});
      }
    } else {
      seq.push_back({frame.first, true});
      stack.pop_back();
    }
  }

  // Group consecutive whole subtrees into parts of ~target positions; fold
  // vertices are barriers (their children's parts must be folded first).
  size_t pos = 0;
  size_t part_begin = 0;
  int64_t acc = 0;
  bool open = false;
  const auto close_part = [&] {
    if (!open) return;
    cut.parts.push_back({part_begin, pos});
    SubtreeCut::Step step;
    step.part = static_cast<int>(cut.parts.size()) - 1;
    cut.steps.push_back(step);
    open = false;
    acc = 0;
  };
  cut.fold.assign(tree.parent.size(), 0);
  for (const Item& item : seq) {
    if (item.fold) {
      cut.fold[static_cast<size_t>(item.vertex)] = 1;
      close_part();
      SubtreeCut::Step step;
      step.vertex = item.vertex;
      cut.steps.push_back(step);
      ++pos;
    } else {
      if (!open) {
        open = true;
        part_begin = pos;
      }
      pos += static_cast<size_t>(size[static_cast<size_t>(item.vertex)]);
      acc += size[static_cast<size_t>(item.vertex)];
      if (acc >= target) close_part();
    }
  }
  close_part();
  WSNQ_CHECK_EQ(pos, order);
  return cut;
}

}  // namespace wsnq
