// Zero-tolerance golden files shared by the golden suites.
//
// ExpectMatchesGolden compares a rendering with a checked-in golden byte
// for byte. With MALISIM_UPDATE_GOLDEN=1 in the environment it rewrites
// the golden instead and skips the test; re-run without the variable to
// confirm, then commit the file with the change that moved it.
#pragma once

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace malisim::golden {

inline void ExpectMatchesGolden(const std::string& actual,
                                const std::string& path) {
  if (std::getenv("MALISIM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    out.close();
    GTEST_SKIP() << "golden regenerated at " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — run with MALISIM_UPDATE_GOLDEN=1 to create it";
  std::ostringstream golden;
  golden << in.rdbuf();
  // Modelled numbers are deterministic, so the strings must match byte for
  // byte.
  EXPECT_EQ(golden.str(), actual)
      << "output drifted from golden " << path
      << "; if the change is intentional, regenerate with "
         "MALISIM_UPDATE_GOLDEN=1";
}

}  // namespace malisim::golden
