// CTrie — the CandidatePrefixTrie of §IV: a token-level, case-insensitive
// prefix-trie forest indexing the seed entity candidates suggested by Local
// EMD, and supporting the longest-match lookups of the Candidate Mention
// Extraction step (§V-A).
//
// Nodes correspond to (case-folded) tokens; candidates sharing prefixes share
// subtrees. A node may mark the end of a registered candidate. Edges are
// labelled by the tokens' dense int32 symbols in a SymbolTable (possibly
// shared by several tries): each node keeps one sorted (symbol, child)
// array, and each edge holds one reference on its symbol.
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
#include <utility>
#include <vector>

namespace emd {

class SymbolTable;

/// Token-level prefix trie over candidate strings.
class CTrie {
 public:
  static constexpr int kNoNode = -1;
  static constexpr int kNoCandidate = -1;

  /// `symbols` labels the edges; not owned, must be non-null and outlive the
  /// trie.
  explicit CTrie(SymbolTable* symbols);

  // Move-only: a copied vector or string gets a fresh capacity, which would
  // silently invalidate the running byte tally behind ApproxBytes().
  CTrie(const CTrie&) = delete;
  CTrie& operator=(const CTrie&) = delete;
  CTrie(CTrie&&) = default;
  CTrie& operator=(CTrie&&) = default;

  /// Registers a candidate (sequence of tokens; case-folded internally).
  /// Returns its stable candidate id; re-inserting returns the existing id.
  int Insert(const std::vector<std::string>& tokens);

  /// Insert for tokens that are already case-folded, with `key` their
  /// space-joined form (the sharded state folds once to route the phrase and
  /// hands both over).
  int InsertFolded(const std::vector<std::string>& folded, std::string key);

  /// Root handle for traversals.
  int root() const { return 0; }

  /// Follows the edge labelled by the case-folded `token` from `node`;
  /// returns kNoNode when no such path exists (a token that is not interned
  /// labels no edge). Cold path: scan loops intern each token once and call
  /// StepSymbol.
  int Step(int node, std::string_view token) const;

  /// Follows the edge whose token interned to `sym`; kNoNode when absent
  /// (always for SymbolTable::kNoSymbol). A binary search over the node's
  /// sorted (symbol, child) array — no hashing, no string compare, no
  /// allocation.
  int StepSymbol(int node, int32_t sym) const {
    const auto& edges = nodes_[node].sym_edges;
    auto it = LowerBound(edges, sym);
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
  /// that now carry no candidate and no children are unlinked and recycled
  /// (releasing their edges' symbols), and the id is tombstoned
  /// (CandidateKey/CandidateLength become empty / 0; lookups of the phrase
  /// miss). Returns the number of trie nodes freed. Safe on shared prefixes:
  /// a node that still serves another candidate or subtree survives. No-op
  /// (returns 0) for an already-pruned id. Caller must hold the
  /// single-writer contract (no concurrent Step).
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

  /// Approximate heap bytes held by the trie: node slots, edge arrays and
  /// candidate key strings (a token's text is counted once, in the
  /// SymbolTable) — an estimate for the memory governor's budget accounting,
  /// not an allocator-exact figure. O(1): the edge-array and key terms are a
  /// running tally kept by every mutation (Insert, Prune, AppendTombstone);
  /// vector capacities are read at query time. Always equal to
  /// RecountApproxBytes().
  size_t ApproxBytes() const { return FixedBytes() + tallied_bytes_; }

  /// Reference implementation of ApproxBytes(): walks every node and key,
  /// O(nodes). Tests check the running tally against it; no cycle path calls
  /// it.
  size_t RecountApproxBytes() const;

  /// Longest depth of any registered candidate (scan window bound k of
  /// §V-A). Monotonic: pruning does not shrink it — a stale upper bound only
  /// costs a slightly longer scan window, never correctness.
  int max_candidate_length() const { return max_len_; }

 private:
  using Edge = std::pair<int32_t, int32_t>;  // (symbol, child)

  struct Node {
    std::vector<Edge> sym_edges;  // sorted ascending by symbol
    int candidate_id = kNoCandidate;
  };
  // Growing nodes_ must move nodes (keeping every edge-array capacity the
  // byte tally counted), never copy them.
  static_assert(std::is_nothrow_move_constructible_v<Node>);

  static std::vector<Edge>::const_iterator LowerBound(
      const std::vector<Edge>& edges, int32_t sym) {
    return std::lower_bound(
        edges.begin(), edges.end(), sym,
        [](const Edge& e, int32_t s) { return e.first < s; });
  }

  /// Heap bytes of one node slot: its edge array.
  static size_t NodeBytes(const Node& node) {
    return node.sym_edges.capacity() * sizeof(Edge);
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

  SymbolTable* symbols_;  // not owned
  std::vector<Node> nodes_;
  std::vector<int> free_nodes_;  // recycled slots from Prune (empty nodes)
  std::vector<std::string> candidate_keys_;
  std::vector<int> candidate_lengths_;
  std::vector<uint8_t> tombstoned_;
  int num_tombstones_ = 0;
  int max_len_ = 0;
  // Running sum of NodeBytes over every slot and the capacity of every
  // candidate key.
  size_t tallied_bytes_ = 0;
};

}  // namespace emd

#endif  // EMD_CORE_CTRIE_H_
