#include "core/ctrie.h"

#include "text/symbol_table.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace emd {

CTrie::CTrie() {
  nodes_.emplace_back();
  tallied_bytes_ = NodeBytes(nodes_[0]);
}

void CTrie::BindSymbolTable(SymbolTable* symbols) {
  EMD_CHECK(nodes_.size() == 1 && nodes_[0].children.empty())
      << "BindSymbolTable requires an empty trie";
  symbols_ = symbols;
}

void CTrie::AddSymEdge(int node, std::string_view folded, int child) {
  const int32_t sym = symbols_->Acquire(folded);
  auto& edges = nodes_[node].sym_edges;
  auto it = std::lower_bound(
      edges.begin(), edges.end(), sym,
      [](const std::pair<int32_t, int32_t>& e, int32_t s) {
        return e.first < s;
      });
  edges.insert(it, {sym, child});
}

void CTrie::RemoveSymEdge(int node, std::string_view folded) {
  const int32_t sym = symbols_->Lookup(folded);
  EMD_CHECK_GE(sym, 0) << "removing edge '" << std::string(folded)
                       << "': symbol not interned";
  auto& edges = nodes_[node].sym_edges;
  auto it = std::lower_bound(
      edges.begin(), edges.end(), sym,
      [](const std::pair<int32_t, int32_t>& e, int32_t s) {
        return e.first < s;
      });
  EMD_CHECK(it != edges.end() && it->first == sym);
  edges.erase(it);
  symbols_->Release(sym);
}

int CTrie::AllocNode() {
  if (!free_nodes_.empty()) {
    const int slot = free_nodes_.back();
    free_nodes_.pop_back();
    tallied_bytes_ -= NodeBytes(nodes_[slot]);
    nodes_[slot] = Node();
    tallied_bytes_ += NodeBytes(nodes_[slot]);
    return slot;
  }
  const int slot = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  tallied_bytes_ += NodeBytes(nodes_.back());
  return slot;
}

int CTrie::Insert(const std::vector<std::string>& tokens) {
  EMD_CHECK(!tokens.empty());
  int node = root();
  std::string key;
  for (const auto& tok : tokens) {
    const std::string folded = ToLowerAscii(tok);
    if (!key.empty()) key += ' ';
    key += folded;
    auto it = nodes_[node].children.find(folded);
    if (it == nodes_[node].children.end()) {
      const int child = AllocNode();
      tallied_bytes_ -= NodeBytes(nodes_[node]);
      const auto edge = nodes_[node].children.emplace(folded, child).first;
      tallied_bytes_ += EdgeBytes(edge->first);
      if (symbols_ != nullptr) AddSymEdge(node, folded, child);
      tallied_bytes_ += NodeBytes(nodes_[node]);
      node = child;
    } else {
      node = it->second;
    }
  }
  if (nodes_[node].candidate_id != kNoCandidate) return nodes_[node].candidate_id;
  const int id = static_cast<int>(candidate_keys_.size());
  nodes_[node].candidate_id = id;
  candidate_keys_.push_back(std::move(key));
  tallied_bytes_ += candidate_keys_.back().capacity();
  candidate_lengths_.push_back(static_cast<int>(tokens.size()));
  tombstoned_.push_back(0);
  max_len_ = std::max(max_len_, static_cast<int>(tokens.size()));
  return id;
}

int CTrie::Insert(const std::vector<Token>& tokens, const TokenSpan& span) {
  EMD_CHECK_LE(span.end, tokens.size());
  EMD_CHECK_LT(span.begin, span.end);
  std::vector<std::string> words;
  words.reserve(span.length());
  for (size_t t = span.begin; t < span.end; ++t) words.push_back(tokens[t].text);
  return Insert(words);
}

int CTrie::Step(int node, std::string_view token) const {
  std::string fold_scratch;
  return Step(node, token, &fold_scratch);
}

int CTrie::Step(int node, std::string_view token,
                std::string* fold_scratch) const {
  EMD_CHECK_GE(node, 0);
  EMD_CHECK_LT(node, static_cast<int>(nodes_.size()));
  const std::string_view folded = ToLowerAsciiView(token, fold_scratch);
  auto it = nodes_[node].children.find(folded);
  return it == nodes_[node].children.end() ? kNoNode : it->second;
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
  std::string fold_scratch;
  for (const auto& tok : tokens) {
    node = Step(node, tok, &fold_scratch);
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

  // Re-walk the candidate's (already case-folded) key from the root,
  // remembering the path so empty suffix nodes can be unlinked bottom-up.
  const std::string& key = candidate_keys_[candidate_id];
  struct PathEdge {
    int parent;
    std::string token;
  };
  std::vector<PathEdge> path;
  path.reserve(static_cast<size_t>(candidate_lengths_[candidate_id]));
  int node = root();
  size_t begin = 0;
  while (begin <= key.size()) {
    size_t end = key.find(' ', begin);
    if (end == std::string::npos) end = key.size();
    std::string token = key.substr(begin, end - begin);
    auto it = nodes_[node].children.find(std::string_view(token));
    EMD_CHECK(it != nodes_[node].children.end())
        << "pruning candidate " << candidate_id << " ('" << key
        << "'): trie path missing";
    path.push_back({node, std::move(token)});
    node = it->second;
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
  int pruned = 0;
  for (size_t i = path.size(); i-- > 0;) {
    if (nodes_[node].candidate_id != kNoCandidate ||
        !nodes_[node].children.empty()) {
      break;
    }
    Node& parent = nodes_[path[i].parent];
    tallied_bytes_ -= NodeBytes(parent);
    if (symbols_ != nullptr) RemoveSymEdge(path[i].parent, path[i].token);
    const auto edge = parent.children.find(std::string_view(path[i].token));
    tallied_bytes_ -= EdgeBytes(edge->first);
    parent.children.erase(edge);
    tallied_bytes_ += NodeBytes(parent);
    tallied_bytes_ -= NodeBytes(nodes_[node]);
    nodes_[node] = Node();
    tallied_bytes_ += NodeBytes(nodes_[node]);
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
  // Flat vectors plus, per node, the hash map's bucket array and one heap
  // node per edge (key string + child id + bookkeeping pointer).
  size_t bytes = FixedBytes();
  for (const auto& key : candidate_keys_) bytes += key.capacity();
  for (const auto& node : nodes_) {
    bytes += NodeBytes(node);
    for (const auto& [token, child] : node.children) {
      (void)child;
      bytes += EdgeBytes(token);
    }
  }
  return bytes;
}

}  // namespace emd
