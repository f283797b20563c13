// Exactness oracle for the global state's byte accounting: the running
// tallies behind ShardedGlobalState::ApproxBytes() / ShardApproxBytes() must
// equal the reference walks (RecountApproxBytes / RecountShardApproxBytes)
// after every mutation, so the memory governor and the emd_shard_bytes
// gauges see the same figure the walks would compute.

#ifndef EMD_TESTS_ACCOUNTING_CHECK_H_
#define EMD_TESTS_ACCOUNTING_CHECK_H_

#include <gtest/gtest.h>

#include <string>

#include "core/global_state.h"

namespace emd {

inline void ExpectExactAccounting(const ShardedGlobalState& state,
                                  const std::string& where) {
  EXPECT_EQ(state.ApproxBytes(), state.RecountApproxBytes()) << where;
  for (int s = 0; s < state.shard_count(); ++s) {
    EXPECT_EQ(state.ShardApproxBytes(s), state.RecountShardApproxBytes(s))
        << where << ", shard " << s;
  }
}

}  // namespace emd

#endif  // EMD_TESTS_ACCOUNTING_CHECK_H_
