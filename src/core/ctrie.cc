#include "core/ctrie.h"

#include "text/symbol_table.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace emd {

CTrie::CTrie(SymbolTable* symbols) : symbols_(symbols) {
  EMD_CHECK(symbols != nullptr);
  nodes_.emplace_back();
}

int CTrie::AllocNode() {
  if (!free_nodes_.empty()) {
    const int slot = free_nodes_.back();
    free_nodes_.pop_back();
    return slot;
  }
  nodes_.emplace_back();
  return static_cast<int>(nodes_.size()) - 1;
}

int CTrie::Insert(const std::vector<std::string>& tokens) {
  std::vector<std::string> folded;
  folded.reserve(tokens.size());
  std::string key;
  for (const auto& tok : tokens) {
    folded.push_back(ToLowerAscii(tok));
    if (!key.empty()) key += ' ';
    key += folded.back();
  }
  return InsertFolded(folded, std::move(key));
}

int CTrie::InsertFolded(const std::vector<std::string>& folded,
                        std::string key) {
  EMD_CHECK(!folded.empty());
  int node = root();
  for (const std::string& tok : folded) {
    int child = StepSymbol(node, symbols_->Lookup(tok));
    if (child == kNoNode) {
      child = AllocNode();
      auto& edges = nodes_[node].sym_edges;
      const size_t capacity = edges.capacity();
      const int32_t sym = symbols_->Acquire(tok);
      edges.insert(LowerBound(edges, sym), {sym, child});
      tallied_bytes_ += (edges.capacity() - capacity) * sizeof(Edge);
    }
    node = child;
  }
  if (nodes_[node].candidate_id != kNoCandidate) return nodes_[node].candidate_id;
  const int id = static_cast<int>(candidate_keys_.size());
  nodes_[node].candidate_id = id;
  candidate_keys_.push_back(std::move(key));
  tallied_bytes_ += candidate_keys_.back().capacity();
  candidate_lengths_.push_back(static_cast<int>(folded.size()));
  tombstoned_.push_back(0);
  max_len_ = std::max(max_len_, static_cast<int>(folded.size()));
  return id;
}

int CTrie::Step(int node, std::string_view token) const {
  EMD_CHECK_GE(node, 0);
  EMD_CHECK_LT(node, static_cast<int>(nodes_.size()));
  std::string fold_scratch;
  return StepSymbol(node,
                    symbols_->Lookup(ToLowerAsciiView(token, &fold_scratch)));
}

int CTrie::CandidateAt(int node) const {
  EMD_CHECK_GE(node, 0);
  EMD_CHECK_LT(node, static_cast<int>(nodes_.size()));
  return nodes_[node].candidate_id;
}

const std::string& CTrie::CandidateKey(int candidate_id) const {
  EMD_CHECK_GE(candidate_id, 0);
  EMD_CHECK_LT(candidate_id, num_candidates());
  return candidate_keys_[candidate_id];
}

int CTrie::CandidateLength(int candidate_id) const {
  EMD_CHECK_GE(candidate_id, 0);
  EMD_CHECK_LT(candidate_id, num_candidates());
  return candidate_lengths_[candidate_id];
}

int CTrie::Find(const std::vector<std::string>& tokens) const {
  int node = root();
  for (const auto& tok : tokens) {
    node = Step(node, tok);
    if (node == kNoNode) return kNoCandidate;
  }
  return CandidateAt(node);
}

bool CTrie::IsTombstone(int candidate_id) const {
  EMD_CHECK_GE(candidate_id, 0);
  EMD_CHECK_LT(candidate_id, num_candidates());
  return tombstoned_[candidate_id] != 0;
}

int CTrie::Prune(int candidate_id) {
  EMD_CHECK_GE(candidate_id, 0);
  EMD_CHECK_LT(candidate_id, num_candidates());
  if (tombstoned_[candidate_id]) return 0;

  // Re-walk the candidate's (already case-folded) key from the root by
  // symbol, remembering the path so empty suffix nodes can be unlinked
  // bottom-up.
  const std::string_view key = candidate_keys_[candidate_id];
  struct PathEdge {
    int parent;
    int32_t sym;
  };
  std::vector<PathEdge> path;
  path.reserve(static_cast<size_t>(candidate_lengths_[candidate_id]));
  int node = root();
  size_t begin = 0;
  while (begin <= key.size()) {
    size_t end = key.find(' ', begin);
    if (end == std::string_view::npos) end = key.size();
    const int32_t sym = symbols_->Lookup(key.substr(begin, end - begin));
    const int child = StepSymbol(node, sym);
    EMD_CHECK(child != kNoNode)
        << "pruning candidate " << candidate_id << " ('" << key
        << "'): trie path missing";
    path.push_back({node, sym});
    node = child;
    begin = end + 1;
  }

  EMD_CHECK_EQ(nodes_[node].candidate_id, candidate_id);
  nodes_[node].candidate_id = kNoCandidate;
  tombstoned_[candidate_id] = 1;
  tallied_bytes_ -= candidate_keys_[candidate_id].capacity();
  candidate_keys_[candidate_id].clear();
  candidate_keys_[candidate_id].shrink_to_fit();
  tallied_bytes_ += candidate_keys_[candidate_id].capacity();
  candidate_lengths_[candidate_id] = 0;
  ++num_tombstones_;

  // Unlink nodes that no longer terminate a candidate and have no children.
  // Stops at the first node still in use (shared prefix) or at the root.
  // Erasing an edge keeps its parent's array capacity, so only the freed
  // node's own array leaves the tally.
  int pruned = 0;
  for (size_t i = path.size(); i-- > 0;) {
    if (nodes_[node].candidate_id != kNoCandidate ||
        !nodes_[node].sym_edges.empty()) {
      break;
    }
    auto& edges = nodes_[path[i].parent].sym_edges;
    edges.erase(LowerBound(edges, path[i].sym));
    symbols_->Release(path[i].sym);
    tallied_bytes_ -= NodeBytes(nodes_[node]);
    nodes_[node] = Node();
    free_nodes_.push_back(node);
    ++pruned;
    node = path[i].parent;
  }
  return pruned;
}

int CTrie::AppendTombstone() {
  const int id = static_cast<int>(candidate_keys_.size());
  candidate_keys_.emplace_back();
  tallied_bytes_ += candidate_keys_.back().capacity();
  candidate_lengths_.push_back(0);
  tombstoned_.push_back(1);
  ++num_tombstones_;
  return id;
}

size_t CTrie::RecountApproxBytes() const {
  size_t bytes = FixedBytes();
  for (const auto& key : candidate_keys_) bytes += key.capacity();
  for (const auto& node : nodes_) bytes += NodeBytes(node);
  return bytes;
}

}  // namespace emd
