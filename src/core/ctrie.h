// CTrie — the CandidatePrefixTrie of §IV: a token-level, case-insensitive
// prefix-trie forest indexing the seed entity candidates suggested by Local
// EMD, and supporting the longest-match lookups of the Candidate Mention
// Extraction step (§V-A).
//
// Nodes correspond to (case-folded) tokens; candidates sharing prefixes share
// subtrees. A node may mark the end of a registered candidate.
//
// Memory governance (unbounded streams): Prune() evicts a registered
// candidate — it unmarks the terminal node, deletes the now-empty suffix
// chain (freed node slots go on a free list and are recycled by later
// Inserts), and tombstones the candidate id. Ids are dense and NEVER reused:
// a pruned candidate that reappears in the stream is re-inserted under a
// fresh id, so accumulated evidence restarts from zero — exactly the
// semantics eviction wants. Pruning requires the same external
// synchronization as Insert (single writer, no concurrent Step): the
// Globalizer only prunes at its batch merge barrier.

#ifndef EMD_CORE_CTRIE_H_
#define EMD_CORE_CTRIE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "text/token.h"
#include "util/string_util.h"

namespace emd {

class SymbolTable;

/// Token-level prefix trie over candidate strings.
class CTrie {
 public:
  static constexpr int kNoNode = -1;
  static constexpr int kNoCandidate = -1;

  CTrie();

  // Move-only: a copied vector or string gets a fresh capacity, which would
  // silently invalidate the running byte tally behind ApproxBytes().
  CTrie(const CTrie&) = delete;
  CTrie& operator=(const CTrie&) = delete;
  CTrie(CTrie&&) = default;
  CTrie& operator=(CTrie&&) = default;

  /// Registers a candidate (sequence of tokens; case-folded internally).
  /// Returns its stable candidate id; re-inserting returns the existing id.
  int Insert(const std::vector<std::string>& tokens);

  /// Convenience: registers the tokens covered by `span`.
  int Insert(const std::vector<Token>& tokens, const TokenSpan& span);

  /// Root handle for traversals.
  int root() const { return 0; }

  /// Follows the edge labelled by the case-folded `token` from `node`;
  /// returns kNoNode when no such path exists.
  int Step(int node, std::string_view token) const;

  /// Allocation-free Step for scan loops: folds `token` through the caller's
  /// reusable `fold_scratch` (only touched when the token has uppercase
  /// ASCII) and looks the edge up heterogeneously — zero heap allocations in
  /// steady state once the scratch capacity covers the longest token.
  int Step(int node, std::string_view token, std::string* fold_scratch) const;

  /// Pre-folded Step: `folded` must already be case-folded (the scan folds
  /// each token once per tweet, not once per window start). Skips the
  /// redundant uppercase re-check inside Step; zero allocations.
  int StepFolded(int node, std::string_view folded) const {
    const auto& children = nodes_[node].children;
    auto it = children.find(folded);
    return it == children.end() ? kNoNode : it->second;
  }

  // --- Interned-symbol edges (EMD_MATCHER=interned fast path) ------------

  /// Attaches a shared symbol table. Every edge of every node is then also
  /// indexed by its token's dense int32 symbol (one table reference per
  /// edge, taken on Insert and dropped on Prune), enabling StepSymbol. Must
  /// be called while the trie is still empty — edges inserted earlier would
  /// be invisible to the symbol index.
  void BindSymbolTable(SymbolTable* symbols);

  /// Integer-keyed Step: follows the edge whose token interned to `sym`;
  /// kNoNode when absent. Requires a bound symbol table. A binary search
  /// over the node's sorted (symbol, child) array — no hashing, no string
  /// compare, no allocation.
  int StepSymbol(int node, int32_t sym) const {
    const auto& edges = nodes_[node].sym_edges;
    auto it = std::lower_bound(
        edges.begin(), edges.end(), sym,
        [](const std::pair<int32_t, int32_t>& e, int32_t s) {
          return e.first < s;
        });
    return (it != edges.end() && it->first == sym) ? it->second : kNoNode;
  }

  /// Child of the root reached by `sym`, or kNoNode. Used by the sharded
  /// state to maintain its service-wide first-token dispatch table.
  int RootChildForSymbol(int32_t sym) const { return StepSymbol(root(), sym); }

  /// Candidate id terminating at `node`, or kNoCandidate.
  int CandidateAt(int node) const;

  /// Case-folded surface string of a candidate ("andy beshear"). Empty for a
  /// pruned (tombstoned) id.
  const std::string& CandidateKey(int candidate_id) const;

  /// Number of tokens of a candidate (0 for a pruned id).
  int CandidateLength(int candidate_id) const;

  /// Looks up a full phrase; returns its candidate id or kNoCandidate.
  int Find(const std::vector<std::string>& tokens) const;

  /// Evicts `candidate_id`: the terminal node is unmarked, nodes on its path
  /// that now carry no candidate and no children are unlinked and recycled,
  /// and the id is tombstoned (CandidateKey/CandidateLength become
  /// empty / 0; lookups of the phrase miss). Returns the number of trie
  /// nodes freed. Safe on shared prefixes: a node that still serves another
  /// candidate or subtree survives. No-op (returns 0) for an already-pruned
  /// id. Caller must hold the single-writer contract (no concurrent Step).
  int Prune(int candidate_id);

  /// True when `candidate_id` was pruned. Ids stay dense; tombstoned slots
  /// are never reassigned.
  bool IsTombstone(int candidate_id) const;

  /// Restore-path only: appends a tombstoned id slot (no trie nodes) so a
  /// checkpointed id space including holes rebuilds exactly. Returns the id.
  int AppendTombstone();

  /// Total ids ever assigned, including tombstones (dense id space bound).
  int num_candidates() const { return static_cast<int>(candidate_keys_.size()); }

  /// Live (non-tombstoned) candidates.
  int num_live_candidates() const {
    return num_candidates() - num_tombstones_;
  }

  /// Trie nodes currently linked (excludes free-listed slots).
  int num_live_nodes() const {
    return static_cast<int>(nodes_.size() - free_nodes_.size());
  }

  /// Approximate heap bytes held by the trie: node slots, edge map entries,
  /// and candidate key strings — an estimate for the memory governor's
  /// budget accounting, not an allocator-exact figure. O(1): the per-node,
  /// per-edge and per-key terms are a running tally kept by every mutation
  /// (AllocNode, Insert, Prune, AppendTombstone); vector capacities are read
  /// at query time. Always equal to RecountApproxBytes().
  size_t ApproxBytes() const { return FixedBytes() + tallied_bytes_; }

  /// Reference implementation of ApproxBytes(): walks every node, edge and
  /// key, O(nodes). Tests check the running tally against it; no cycle path
  /// calls it.
  size_t RecountApproxBytes() const;

  /// Longest depth of any registered candidate (scan window bound k of
  /// §V-A). Monotonic: pruning does not shrink it — a stale upper bound only
  /// costs a slightly longer scan window, never correctness.
  int max_candidate_length() const { return max_len_; }

 private:
  struct Node {
    // Transparent hash/eq: Step() probes edges with a string_view key, so
    // the scan hot path never materialises a temporary std::string.
    std::unordered_map<std::string, int, TransparentStringHash,
                       TransparentStringEq>
        children;
    // Mirror of `children` keyed by interned symbol, sorted ascending; empty
    // unless a symbol table is bound. StepSymbol's integer fast path.
    std::vector<std::pair<int32_t, int32_t>> sym_edges;
    int candidate_id = kNoCandidate;
  };
  // Growing nodes_ must move nodes (keeping every bucket array and edge-array
  // capacity the byte tally counted), never copy them.
  static_assert(std::is_nothrow_move_constructible_v<Node>);

  /// Heap bytes of one node slot outside its edge entries: the edge map's
  /// bucket array and the symbol-edge array.
  static size_t NodeBytes(const Node& node) {
    return node.children.bucket_count() * sizeof(void*) +
           node.sym_edges.capacity() * sizeof(std::pair<int32_t, int32_t>);
  }
  /// Heap bytes of one edge map entry (key string + child id + bookkeeping).
  static size_t EdgeBytes(const std::string& token) {
    return 2 * sizeof(void*) + sizeof(int) + sizeof(std::string) +
           token.capacity();
  }
  /// The O(1) part of the byte figure: capacities of the flat vectors.
  size_t FixedBytes() const {
    return nodes_.capacity() * sizeof(Node) +
           free_nodes_.capacity() * sizeof(int) +
           candidate_keys_.capacity() * sizeof(std::string) +
           candidate_lengths_.capacity() * sizeof(int) +
           tombstoned_.capacity() * sizeof(uint8_t);
  }

  int AllocNode();
  void AddSymEdge(int node, std::string_view folded, int child);
  void RemoveSymEdge(int node, std::string_view folded);

  std::vector<Node> nodes_;
  std::vector<int> free_nodes_;  // recycled slots from Prune
  std::vector<std::string> candidate_keys_;
  std::vector<int> candidate_lengths_;
  std::vector<uint8_t> tombstoned_;
  int num_tombstones_ = 0;
  int max_len_ = 0;
  SymbolTable* symbols_ = nullptr;  // not owned; null = no symbol index
  // Running sum of NodeBytes over every slot (free-listed ones included),
  // EdgeBytes over every edge and the capacity of every candidate key.
  size_t tallied_bytes_ = 0;
};

}  // namespace emd

#endif  // EMD_CORE_CTRIE_H_
