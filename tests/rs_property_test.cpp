// Property tests for the Reed-Solomon codec, parameterized over (n, k).
//
// The most load-bearing property for this repository is LINEARITY: the
// parity of a sum is the sum of parities.  ECC Parity's entire mechanism
// -- XORing correction bits across channels, the Eq. 1 incremental parity
// update, reconstruction by cancellation -- is sound only because every
// codec's correction bits are linear over GF(2).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "gf/rs.hpp"

namespace eccsim::gf {
namespace {

using Params = std::tuple<unsigned, unsigned>;  // (n, k)

class RsPropertyTest : public ::testing::TestWithParam<Params> {
 protected:
  unsigned n() const { return std::get<0>(GetParam()); }
  unsigned k() const { return std::get<1>(GetParam()); }
  unsigned two_t() const { return n() - k(); }

  std::vector<std::uint8_t> random_data(Rng& rng) const {
    std::vector<std::uint8_t> d(k());
    for (auto& b : d) b = static_cast<std::uint8_t>(rng.next_below(256));
    return d;
  }
};

TEST_P(RsPropertyTest, EncodeCheckRoundTrip) {
  Rs8 rs(n(), k());
  Rng rng(100 + n());
  for (int i = 0; i < 50; ++i) {
    const auto cw = rs.encode(random_data(rng));
    EXPECT_TRUE(rs.check(cw));
  }
}

TEST_P(RsPropertyTest, ParityIsLinear) {
  // parity(a ^ b) == parity(a) ^ parity(b): the property Eq. 1 and the
  // cross-channel XOR rely on.
  Rs8 rs(n(), k());
  Rng rng(200 + n());
  for (int i = 0; i < 100; ++i) {
    const auto a = random_data(rng);
    const auto b = random_data(rng);
    std::vector<std::uint8_t> ab(k());
    for (unsigned j = 0; j < k(); ++j) {
      ab[j] = static_cast<std::uint8_t>(a[j] ^ b[j]);
    }
    const auto pa = rs.parity(a);
    const auto pb = rs.parity(b);
    const auto pab = rs.parity(ab);
    for (unsigned j = 0; j < two_t(); ++j) {
      EXPECT_EQ(pab[j], pa[j] ^ pb[j]) << "n=" << n() << " k=" << k();
    }
  }
}

TEST_P(RsPropertyTest, CorrectsUpToTErrors) {
  Rs8 rs(n(), k());
  Rng rng(300 + n());
  const unsigned t_max = two_t() / 2;
  for (unsigned errs = 1; errs <= t_max; ++errs) {
    for (int trial = 0; trial < 40; ++trial) {
      auto cw = rs.encode(random_data(rng));
      const auto orig = cw;
      std::vector<unsigned> pos(n());
      std::iota(pos.begin(), pos.end(), 0);
      std::shuffle(pos.begin(), pos.end(), rng);
      for (unsigned e = 0; e < errs; ++e) {
        cw[pos[e]] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
      const auto res = rs.decode(cw);
      ASSERT_TRUE(res.ok) << "errs=" << errs;
      EXPECT_EQ(cw, orig);
    }
  }
}

TEST_P(RsPropertyTest, CorrectsMixedErrorsAndErasuresAtCapability) {
  // Every (nu, e) with 2*nu + e == 2t must decode.
  Rs8 rs(n(), k());
  Rng rng(400 + n());
  for (unsigned nu = 0; 2 * nu <= two_t(); ++nu) {
    const unsigned e = two_t() - 2 * nu;
    if (nu + e > n()) continue;
    for (int trial = 0; trial < 25; ++trial) {
      auto cw = rs.encode(random_data(rng));
      const auto orig = cw;
      std::vector<unsigned> pos(n());
      std::iota(pos.begin(), pos.end(), 0);
      std::shuffle(pos.begin(), pos.end(), rng);
      std::vector<unsigned> erasures(pos.begin(), pos.begin() + e);
      for (unsigned i = 0; i < e + nu; ++i) {
        cw[pos[i]] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
      const auto res = rs.decode(cw, erasures);
      ASSERT_TRUE(res.ok) << "nu=" << nu << " e=" << e;
      EXPECT_EQ(cw, orig);
    }
  }
}

TEST_P(RsPropertyTest, DetectsUpTo2TErasureWorthOfKnownDamage) {
  // Any corruption confined to <= 2t known positions is always repaired;
  // syndromes of a corrupted word are never all-zero when damage stays
  // within the code's minimum distance (2t+1 positions).
  Rs8 rs(n(), k());
  Rng rng(500 + n());
  for (int trial = 0; trial < 60; ++trial) {
    auto cw = rs.encode(random_data(rng));
    const unsigned damage = 1 + static_cast<unsigned>(
        rng.next_below(two_t()));
    std::vector<unsigned> pos(n());
    std::iota(pos.begin(), pos.end(), 0);
    std::shuffle(pos.begin(), pos.end(), rng);
    for (unsigned i = 0; i < damage; ++i) {
      cw[pos[i]] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    EXPECT_FALSE(rs.check(cw)) << "damage=" << damage;
  }
}

TEST_P(RsPropertyTest, CleanCodewordDecodesDespiteOverdeclaredErasures) {
  // Regression: decode used to apply the capability bound before looking
  // at the syndromes, so a clean codeword arriving with more than 2t
  // declared erasures was reported uncorrectable.  A zero syndrome means
  // nothing needs fixing no matter what the caller suspected.
  Rs8 rs(n(), k());
  Rng rng(600 + n());
  for (int trial = 0; trial < 25; ++trial) {
    auto cw = rs.encode(random_data(rng));
    const auto orig = cw;
    std::vector<unsigned> erasures(std::min(n(), two_t() + 1));
    std::iota(erasures.begin(), erasures.end(), 0);
    const auto res = rs.decode(cw, erasures);
    EXPECT_TRUE(res.ok) << "declared=" << erasures.size()
                        << " capability=" << two_t();
    EXPECT_FALSE(res.detected_error);
    EXPECT_EQ(cw, orig);
  }
}

TEST_P(RsPropertyTest, DuplicateErasurePositionsCountOnce) {
  // Regression: duplicated positions used to square the corresponding
  // Gamma factor, inflating the locator degree.  A duplicated list must
  // decode exactly like its deduplicated form -- including at full
  // erasure capability, where one phantom extra erasure would push the
  // decoder past its bound.
  Rs8 rs(n(), k());
  Rng rng(700 + n());
  const unsigned e = std::min(two_t(), n() - 1);
  if (e == 0) return;
  for (int trial = 0; trial < 25; ++trial) {
    auto cw = rs.encode(random_data(rng));
    const auto orig = cw;
    std::vector<unsigned> pos(n());
    std::iota(pos.begin(), pos.end(), 0);
    std::shuffle(pos.begin(), pos.end(), rng);
    std::vector<unsigned> erasures(pos.begin(), pos.begin() + e);
    for (unsigned i = 0; i < e; ++i) {
      cw[pos[i]] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    // Duplicate every erasure (and repeat the first one twice more).
    std::vector<unsigned> duplicated = erasures;
    duplicated.insert(duplicated.end(), erasures.begin(), erasures.end());
    duplicated.push_back(erasures[0]);
    const auto res = rs.decode(cw, duplicated);
    ASSERT_TRUE(res.ok) << "e=" << e;
    EXPECT_EQ(res.corrected_erasures + res.corrected_errors, e);
    EXPECT_EQ(cw, orig);
  }
}

TEST_P(RsPropertyTest, FailedDecodeRestoresInput) {
  // Regression: a failed decode used to leave whatever partial correction
  // the Chien/Forney pass had applied.  Overwhelm the code (2t+1 unknown
  // errors, which at minimum distance 2t+1 can also miscorrect -- both
  // outcomes are exercised across trials) and require that every !ok
  // return hands back the exact input bytes.
  Rs8 rs(n(), k());
  Rng rng(800 + n());
  const unsigned damage = two_t() + 1;
  if (damage > n()) return;
  unsigned failures = 0;
  for (int trial = 0; trial < 200; ++trial) {
    auto cw = rs.encode(random_data(rng));
    std::vector<unsigned> pos(n());
    std::iota(pos.begin(), pos.end(), 0);
    std::shuffle(pos.begin(), pos.end(), rng);
    for (unsigned i = 0; i < damage; ++i) {
      cw[pos[i]] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    const auto before = cw;
    const auto res = rs.decode(cw);
    if (res.ok) continue;  // miscorrection to a nearby codeword: legal
    ++failures;
    EXPECT_TRUE(res.detected_error);
    EXPECT_EQ(cw, before) << "failed decode must restore its input";
  }
  // With 2t+1 random errors most trials must fail outright; if this ever
  // trips, the damage model above stopped exercising the failure path.
  EXPECT_GT(failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    CodeShapes, RsPropertyTest,
    ::testing::Values(Params{36, 32},   // chipkill36's correction geometry
                      Params{34, 32},   // chipkill36's detection geometry
                      Params{18, 16},   // chipkill18
                      Params{10, 8},    // Sec. VI-D (byte-symbol analogue)
                      Params{255, 223}, // classic RS-255
                      Params{15, 11},   // small odd shape
                      Params{8, 4},     // high-redundancy
                      Params{5, 1}),    // degenerate repetition-like
    [](const ::testing::TestParamInfo<Params>& info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(info.param));
      name += 'k';
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

}  // namespace
}  // namespace eccsim::gf
