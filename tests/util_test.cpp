// Unit tests for the util module: RNG, MD5, hex, strings, sim-time,
// byte I/O and text rendering.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "util/byteio.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"
#include "util/histogram.hpp"
#include "util/md5.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/simtime.hpp"
#include "util/sorted.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace repro {
namespace {

// ------------------------------------------------------------------- parse

TEST(Parse, AcceptsWholeStringNumbersAtTheirBounds) {
  EXPECT_EQ(parse_u8("0", "octet"), 0);
  EXPECT_EQ(parse_u8("255", "octet"), 255);
  EXPECT_EQ(parse_u16("65535", "port"), 65535);
  EXPECT_EQ(parse_u32("4294967295", "value"), 4294967295u);
  EXPECT_EQ(parse_u64("18446744073709551615", "value"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_i32("-2147483648", "value"),
            std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(parse_i64("-9223372036854775808", "value"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_DOUBLE_EQ(parse_f64("0.25", "scale"), 0.25);
  EXPECT_DOUBLE_EQ(parse_f64("1e-3", "scale"), 0.001);
}

TEST(Parse, RejectsGarbagePrefixesAndPadding) {
  // The from_chars wrappers must never accept what std::stoi accepts:
  // numeric prefixes ("12abc" -> 12), leading whitespace, or '+'.
  for (const char* bad : {"", "abc", "12abc", " 12", "12 ", "+12", "1.5"}) {
    EXPECT_THROW((void)parse_i32(bad, "value"), ParseError) << bad;
  }
}

TEST(Parse, RejectsOverflowPerWidth) {
  EXPECT_THROW((void)parse_u8("256", "octet"), ParseError);
  EXPECT_THROW((void)parse_u16("65536", "port"), ParseError);
  EXPECT_THROW((void)parse_u16("99999", "port"), ParseError);
  EXPECT_THROW((void)parse_u16("-1", "port"), ParseError);
  EXPECT_THROW((void)parse_u32("4294967296", "value"), ParseError);
  EXPECT_THROW((void)parse_u64("99999999999999999999", "value"), ParseError);
  EXPECT_THROW((void)parse_i32("2147483648", "value"), ParseError);
}

TEST(Parse, ErrorMessagesCarryCallerContext) {
  try {
    (void)parse_u16("xx", "subnet prefix");
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("subnet prefix"), std::string::npos) << what;
    EXPECT_NE(what.find("xx"), std::string::npos) << what;
  }
}

// ------------------------------------------------------------------ sorted

TEST(Sorted, KeysOfMapsAndSetsComeBackOrdered) {
  const std::unordered_map<std::string, int> counts{
      {"beta", 2}, {"alpha", 1}, {"gamma", 3}};
  EXPECT_EQ(sorted_keys(counts),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
  const std::unordered_set<int> ids{3, 1, 2};
  EXPECT_EQ(sorted_keys(ids), (std::vector<int>{1, 2, 3}));
}

TEST(Sorted, ItemsPreserveValuesAndOrderByKey) {
  const std::unordered_map<std::string, int> counts{
      {"beta", 2}, {"alpha", 1}, {"gamma", 3}};
  const auto items = sorted_items(counts);
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0], (std::pair<std::string, int>{"alpha", 1}));
  EXPECT_EQ(items[1], (std::pair<std::string, int>{"beta", 2}));
  EXPECT_EQ(items[2], (std::pair<std::string, int>{"gamma", 3}));
}

TEST(Sorted, UniqueSortsAndCollapsesDuplicates) {
  // Regression shape for feature-id hash collisions: two distinct
  // feature strings hashing to the same 64-bit id must contribute ONE
  // set element, or Jaccard denominators drift between the merge-walk
  // (set semantics) and signature (multiset) paths.
  std::vector<std::uint64_t> ids{42, 7, 42, 42, 7, 1};
  sorted_unique(ids);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 7, 42}));
}

TEST(Sorted, UniqueOnEmptyAndSingleton) {
  std::vector<int> empty;
  sorted_unique(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{5};
  sorted_unique(one);
  EXPECT_EQ(one, (std::vector<int>{5}));
}

TEST(Sorted, UniqueAlreadySortedIsIdentity) {
  std::vector<std::string> names{"a", "b", "c"};
  sorted_unique(names);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c"}));
}

// --------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformCoversFullRange) {
  Rng rng{7};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, IndexBound) {
  Rng rng{3};
  for (int i = 0; i < 200; ++i) EXPECT_LT(rng.index(17), 17u);
}

TEST(Rng, RealInUnitInterval) {
  Rng rng{9};
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng{5};
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng{11};
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, PoissonMeanSmall) {
  Rng rng{13};
  double sum = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(rng.poisson(3.5));
  }
  EXPECT_NEAR(sum / trials, 3.5, 0.1);
}

TEST(Rng, PoissonMeanLarge) {
  Rng rng{17};
  double sum = 0.0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(rng.poisson(80.0));
  }
  EXPECT_NEAR(sum / trials, 80.0, 1.5);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng{19};
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(Rng, WeightedrespectsZeroWeights) {
  Rng rng{23};
  const double weights[] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.weighted(weights), 1u);
  }
}

TEST(Rng, WeightedProportions) {
  Rng rng{29};
  const double weights[] = {1.0, 3.0};
  int high = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) high += rng.weighted(weights) == 1 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(high) / trials, 0.75, 0.02);
}

TEST(Rng, ForkIsIndependentAndLabelled) {
  Rng parent1{42};
  Rng parent2{42};
  Rng child_a = parent1.fork("a");
  Rng child_b = parent2.fork("b");
  // Different labels from the same parent state yield different streams.
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += child_a.next() == child_b.next();
  EXPECT_LT(equal, 4);
}

TEST(Rng, ForkSameLabelSameStream) {
  Rng parent1{42};
  Rng parent2{42};
  Rng child1 = parent1.fork("x");
  Rng child2 = parent2.fork("x");
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child1.next(), child2.next());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng{31};
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = items;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, items);
}

TEST(Rng, FillCoversBuffer) {
  Rng rng{37};
  std::vector<std::uint8_t> buffer(1000, 0);
  rng.fill(buffer);
  std::set<std::uint8_t> seen{buffer.begin(), buffer.end()};
  EXPECT_GT(seen.size(), 100u);
}

TEST(Rng, AlnumLengthAndAlphabet) {
  Rng rng{41};
  const std::string s = rng.alnum(64);
  EXPECT_EQ(s.size(), 64u);
  for (const char c : s) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) << c;
  }
}

TEST(Rng, Fnv1aKnownValues) {
  // FNV-1a 64 reference values.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(Rng, BurstLengthAtLeastOne) {
  Rng rng{43};
  for (int i = 0; i < 100; ++i) EXPECT_GE(rng.burst_length(0.0), 1u);
}

// --------------------------------------------------------------------- Md5

struct Md5Vector {
  const char* input;
  const char* digest;
};

// Names each case by its digest; without this the test name would hold
// the raw pointer bytes, which change from build to build.
void PrintTo(const Md5Vector& v, std::ostream* os) { *os << v.digest; }

class Md5Rfc : public ::testing::TestWithParam<Md5Vector> {};

TEST_P(Md5Rfc, MatchesReferenceDigest) {
  const auto& [input, digest] = GetParam();
  const std::string text{input};
  const std::vector<std::uint8_t> bytes{text.begin(), text.end()};
  EXPECT_EQ(Md5::hex_digest(bytes), digest);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1321, Md5Rfc,
    ::testing::Values(
        Md5Vector{"", "d41d8cd98f00b204e9800998ecf8427e"},
        Md5Vector{"a", "0cc175b9c0f1b6a831c399e269772661"},
        Md5Vector{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        Md5Vector{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        Md5Vector{"abcdefghijklmnopqrstuvwxyz",
                  "c3fcd3d76192e4007dfb496cca67e13b"},
        Md5Vector{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz01234"
                  "56789",
                  "d174ab98d277d9f5a5611c2c9f419d9f"},
        Md5Vector{"1234567890123456789012345678901234567890123456789012345678"
                  "9012345678901234567890",
                  "57edf4a22be3c955ac49da2e2107b67a"}));

TEST(Md5, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  Md5 ctx;
  // Feed in awkward chunk sizes spanning block boundaries.
  std::size_t offset = 0;
  const std::size_t chunks[] = {1, 63, 64, 65, 127, 300, 380};
  for (const std::size_t chunk : chunks) {
    ctx.update(std::span<const std::uint8_t>{data.data() + offset, chunk});
    offset += chunk;
  }
  ASSERT_EQ(offset, data.size());
  EXPECT_EQ(ctx.finish(), Md5::digest(data));
}

/// Bytes (131 i + 7) mod 256: every byte value, no period of 64.
std::vector<std::uint8_t> md5_pattern(std::size_t n) {
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>((i * 131 + 7) & 0xff);
  }
  return data;
}

// The pinned digests below were cross-checked with coreutils md5sum
// over the same bytes (the digest-of-digests as md5sum of the
// concatenated binary digests).

TEST(Md5, LengthSweepCoversEveryPaddingCase) {
  // Lengths 0..299 put the tail at every offset of a block and need
  // one or two padding blocks, across four full blocks.
  std::vector<std::uint8_t> digests;
  for (std::size_t n = 0; n < 300; ++n) {
    const Md5Digest d = Md5::digest(md5_pattern(n));
    digests.insert(digests.end(), d.begin(), d.end());
  }
  EXPECT_EQ(Md5::hex_digest(digests), "ba083e8a2084665b60ddd38cc96887ac");
}

TEST(Md5, EverySplitPointMatchesOneShot) {
  const std::vector<std::uint8_t> data = md5_pattern(200);
  const std::span<const std::uint8_t> bytes{data};
  std::vector<std::uint8_t> digests;
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Md5 ctx;
    ctx.update(bytes.first(split));
    ctx.update(bytes.subspan(split));
    const Md5Digest d = ctx.finish();
    EXPECT_EQ(d, Md5::digest(data)) << "split at " << split;
    digests.insert(digests.end(), d.begin(), d.end());
  }
  EXPECT_EQ(Md5::hex_digest(digests), "8affb555c4660eb2dcfae8a29fb498b9");
}

TEST(Md5, OneMillionBytes) {
  EXPECT_EQ(Md5::hex_digest(std::vector<std::uint8_t>(1'000'000, 'a')),
            "7707d6ae4e027c70eea2a935c2296f21");
  EXPECT_EQ(Md5::hex_digest(md5_pattern(1'000'000)),
            "83faff2a3cfa2ebee58eaa8e170cd7f0");
}

TEST(Md5, DifferentInputsDifferentDigests) {
  const std::vector<std::uint8_t> a{1, 2, 3};
  const std::vector<std::uint8_t> b{1, 2, 4};
  EXPECT_NE(Md5::digest(a), Md5::digest(b));
}

// --------------------------------------------------------------------- hex

TEST(Hex, EncodeKnown) {
  const std::vector<std::uint8_t> data{0x00, 0xff, 0x10, 0xab};
  EXPECT_EQ(hex_encode(data), "00ff10ab");
}

TEST(Hex, RoundTrip) {
  Rng rng{47};
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint8_t> data(rng.index(100));
    rng.fill(data);
    EXPECT_EQ(hex_decode(hex_encode(data)), data);
  }
}

TEST(Hex, DecodeRejectsOddLength) {
  EXPECT_THROW(hex_decode("abc"), ParseError);
}

TEST(Hex, DecodeRejectsNonHex) {
  EXPECT_THROW(hex_decode("zz"), ParseError);
}

TEST(Hex, DecodeAcceptsUppercase) {
  EXPECT_EQ(hex_decode("AB"), (std::vector<std::uint8_t>{0xab}));
}

// ----------------------------------------------------------------- strings

TEST(Strings, SplitBasic) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, JoinInvertsSplit) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(split(join(parts, ","), ','), parts);
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("KeRnEl32.DLL"), "kernel32.dll"); }

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
}

TEST(Strings, Fixed) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(Strings, JsonDoubleFiniteMatchesFixed) {
  EXPECT_EQ(json_double(3.14159, 2), "3.14");
  EXPECT_EQ(json_double(0.0, 4), "0.0000");
  EXPECT_EQ(json_double(-1.5, 1), "-1.5");
}

TEST(Strings, JsonDoubleNonFiniteUsesSentinels) {
  // Regression: `fixed` renders non-finite doubles as bare nan/inf,
  // which no JSON parser accepts; quality metrics divide by zero on
  // degenerate landscapes, so bench emission must use the quoted
  // sentinels instead.
  EXPECT_EQ(json_double(std::numeric_limits<double>::quiet_NaN(), 4),
            "\"NaN\"");
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity(), 4),
            "\"Infinity\"");
  EXPECT_EQ(json_double(-std::numeric_limits<double>::infinity(), 4),
            "\"-Infinity\"");
  EXPECT_EQ(json_double(0.0 / 0.0 * 0.0, 2), "\"NaN\"");
}

TEST(Strings, EscapeBytes) {
  EXPECT_EQ(escape_bytes(std::string_view{".text\x00\x00\x00", 8}),
            ".text\\x00\\x00\\x00");
  EXPECT_EQ(escape_bytes("plain"), "plain");
}

// ----------------------------------------------------------------- simtime

TEST(SimTime, EpochIsZero) {
  EXPECT_EQ(from_date(Date{1970, 1, 1}).seconds, 0);
}

TEST(SimTime, KnownDates) {
  EXPECT_EQ(format_date(parse_date("2008-01-01")), "2008-01-01");
  EXPECT_EQ(parse_date("2008-01-01").seconds, 1199145600);
  EXPECT_EQ(format_date(parse_date("2009-05-31")), "2009-05-31");
}

TEST(SimTime, LeapYearHandling) {
  const SimTime feb29 = parse_date("2008-02-29");
  EXPECT_EQ(format_date(feb29), "2008-02-29");
  EXPECT_EQ(format_date(add_days(feb29, 1)), "2008-03-01");
}

TEST(SimTime, RoundTripProperty) {
  Rng rng{53};
  for (int trial = 0; trial < 200; ++trial) {
    const SimTime t{static_cast<std::int64_t>(rng.uniform(0, 2'000'000'000))};
    const Date d = to_date(t);
    const SimTime midnight = from_date(d);
    EXPECT_LE(midnight.seconds, t.seconds);
    EXPECT_LT(t.seconds - midnight.seconds, kSecondsPerDay);
    EXPECT_EQ(to_date(midnight), d);
  }
}

TEST(SimTime, ParseRejectsGarbage) {
  EXPECT_THROW((void)parse_date("not-a-date"), ParseError);
  EXPECT_THROW((void)parse_date("2008-13-01"), ParseError);
  EXPECT_THROW((void)parse_date("2008-00-10"), ParseError);
}

TEST(SimTime, WeekIndex) {
  const SimTime origin = parse_date("2008-01-01");
  EXPECT_EQ(week_index(origin, origin), 0);
  EXPECT_EQ(week_index(add_days(origin, 6), origin), 0);
  EXPECT_EQ(week_index(add_days(origin, 7), origin), 1);
  EXPECT_EQ(week_index(add_days(origin, -1), origin), -1);
}

TEST(SimTime, FormatDayMonth) {
  EXPECT_EQ(format_day_month(parse_date("2008-07-15")), "15/7");
}

// ------------------------------------------------------------------ byteio

TEST(ByteIo, ScalarRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  ByteReader r{w.data()};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteIo, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  EXPECT_EQ(w.data(), (std::vector<std::uint8_t>{4, 3, 2, 1}));
}

TEST(ByteIo, FixedTextPadsAndTruncates) {
  ByteWriter w;
  w.fixed_text("ab", 4);
  w.fixed_text("abcdef", 4);
  ByteReader r{w.data()};
  EXPECT_EQ(r.fixed_text(4), (std::string{"ab\0\0", 4}));
  EXPECT_EQ(r.fixed_text(4), "abcd");
}

TEST(ByteIo, AlignPads) {
  ByteWriter w;
  w.u8(1);
  w.align(8);
  EXPECT_EQ(w.size(), 8u);
  w.align(8);
  EXPECT_EQ(w.size(), 8u);  // already aligned: no-op
}

TEST(ByteIo, ReadPastEndThrows) {
  const std::vector<std::uint8_t> data{1, 2};
  ByteReader r{data};
  EXPECT_THROW((void)r.u32(), ParseError);
}

TEST(ByteIo, SeekAndCstring) {
  ByteWriter w;
  w.text("hi");
  w.u8(0);
  w.text("there");
  w.u8(0);
  ByteReader r{w.data()};
  EXPECT_EQ(r.cstring_at(0), "hi");
  EXPECT_EQ(r.cstring_at(3), "there");
  EXPECT_THROW(r.cstring_at(100), ParseError);
}

TEST(ByteIo, PatchU32) {
  ByteWriter w;
  w.u32(0);
  w.u32(7);
  w.patch_u32(0, 0xcafebabe);
  ByteReader r{w.data()};
  EXPECT_EQ(r.u32(), 0xcafebabeu);
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW(w.patch_u32(5, 1), ParseError);
}

TEST(ByteIo, HugeCountsThrowInsteadOfWrapping) {
  // Regression: `offset_ + count` overflows std::size_t for counts near
  // SIZE_MAX, which used to make the bounds check pass and hand out a
  // wild span. Every access path must reject such counts cleanly.
  const std::vector<std::uint8_t> data{1, 2, 3, 4};
  ByteReader r{data};
  (void)r.u8();  // non-zero offset makes the additive form wrap
  EXPECT_THROW((void)r.bytes(SIZE_MAX), ParseError);
  EXPECT_THROW((void)r.bytes(SIZE_MAX - 1), ParseError);
  EXPECT_THROW((void)r.fixed_text(SIZE_MAX), ParseError);
  EXPECT_THROW(r.skip(SIZE_MAX), ParseError);
  EXPECT_EQ(r.remaining(), 3u);  // reader unchanged after rejections
  EXPECT_EQ(r.u8(), 2);
}

TEST(ByteIo, PatchU32OverflowOffsetsThrow) {
  ByteWriter empty;
  EXPECT_THROW(empty.patch_u32(0, 1), ParseError);

  ByteWriter w;
  w.u32(0);
  // `offset + 4` wraps to a small value for offsets near SIZE_MAX; the
  // check must reject them rather than scribble out of bounds.
  EXPECT_THROW(w.patch_u32(SIZE_MAX, 1), ParseError);
  EXPECT_THROW(w.patch_u32(SIZE_MAX - 3, 1), ParseError);
  w.patch_u32(0, 5);  // in-range patch still works
  ByteReader r{w.data()};
  EXPECT_EQ(r.u32(), 5u);
}

// ------------------------------------------------------------------- table

TEST(Table, RendersAlignedColumns) {
  TextTable table{{"a", "long-header"}};
  table.add_row({"x", "1"});
  table.add_row({"yyyy", "22"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| a    | long-header |"), std::string::npos);
  EXPECT_NE(out.find("| yyyy | 22          |"), std::string::npos);
}

TEST(Table, HandlesRaggedRows) {
  TextTable table{{"a", "b", "c"}};
  table.add_row({"1"});
  EXPECT_NE(table.render().find("| 1 |"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  EXPECT_EQ(to_csv_row({"a", "b,c", "d\"e"}), "a,\"b,c\",\"d\"\"e\"");
}

TEST(Table, CsvQuotesEveryRfc4180SpecialCharacter) {
  // Regression: '\r' was missing from the quote set, so a cell holding
  // a carriage return leaked it bare into the row and corrupted the
  // record framing for CRLF-aware readers.
  EXPECT_EQ(to_csv_row({"a\rb"}), "\"a\rb\"");
  EXPECT_EQ(to_csv_row({"a\nb"}), "\"a\nb\"");
  EXPECT_EQ(to_csv_row({"a\r\nb"}), "\"a\r\nb\"");
}

// --------------------------------------------------------------- histogram

TEST(Histogram, BarChartSortAndTruncate) {
  BarChart chart;
  chart.add("small", 1);
  chart.add("big", 10);
  chart.add("mid", 5);
  chart.sort_desc();
  chart.truncate(2);
  ASSERT_EQ(chart.size(), 2u);
  EXPECT_EQ(chart.rows()[0].first, "big");
  EXPECT_EQ(chart.rows()[1].first, "mid");
}

TEST(Histogram, SparklineShape) {
  const std::string line = sparkline({0.0, 1.0, 10.0});
  EXPECT_EQ(line.size(), 3u);
  EXPECT_EQ(line[0], '_');
  EXPECT_EQ(line[2], '#');
}

TEST(Histogram, SparklineBucketsArePartitionedEvenly) {
  // Regression: the top glyph '#' used to own only the exact maximum
  // (its "bucket" was a single point), so 8572 vs 10000 rendered as
  // "*#" even though both sit in the top seventh of the range.
  EXPECT_EQ(sparkline({8572.0, 10000.0}), "##");
  // With max 7, value v maps to glyph ceil(v * 7 / max) — each of the
  // seven glyphs covers exactly one unit of this range.
  EXPECT_EQ(sparkline({1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}), ".:-=+*#");
}

TEST(Histogram, SparklineEdgeCases) {
  EXPECT_EQ(sparkline({}), "");
  EXPECT_EQ(sparkline({0.0, 0.0, 0.0}), "___");
  EXPECT_EQ(sparkline({42.0}), "#");  // the lone maximum is full height
}

TEST(Histogram, EmptyChart) {
  BarChart chart;
  EXPECT_EQ(chart.render(), "(empty)\n");
}

}  // namespace
}  // namespace repro
