// Seeded mutation fuzzing of the checkpoint loader and the JSON reader
// under it.  `fcma cluster --resume FILE` reads a file that a crashed or
// foreign run may have left half-written, so every byte of it is untrusted:
// each mutant of a valid fcma.ckpt.v1 sidecar must either be rejected with
// fcma::Error or load into a scoreboard of the expected size — never crash,
// read out of bounds, or escape as another exception type.  Mutants are
// drawn from a fixed seed, so a failure reproduces exactly.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "cluster/checkpoint.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "fcma/scoreboard.hpp"
#include "fcma/task.hpp"

namespace fcma::cluster {
namespace {

constexpr std::size_t kVoxels = 40;

// Bytes that steer a mutant toward the parser's interesting paths: number
// syntax, structure, string escapes, and raw control/high bytes.
constexpr char kAlphabet[] = "0123456789-+.eE[]{}\",:\\ntu \x01\x7f\xff";

// Fragments spliced into mutants: out-of-range and non-integral counts and
// ids, structural openers, and keys of the checkpoint schema.
const char* const kTokens[] = {
    "-1",         "1e300",      "4294967295", "4294967296", "-0",
    "0.5",        "1e-320",     "1e999",      "[",          "{",
    "]",          "}",          "null",       "true",       "\"\"",
    "\"first\": ", "\"accuracy\": [", "\"runs\": [", "\"scored\": ",
    "\"total_voxels\": ", "\\u00", "[[[[[[[[", ",",
};

core::TaskResult run_of(std::uint32_t first, std::uint32_t count,
                        double base) {
  core::TaskResult r;
  r.task.first = first;
  r.task.count = count;
  for (std::uint32_t i = 0; i < count; ++i) {
    r.accuracy.push_back(base + 0.01 * i);
  }
  return r;
}

class CheckpointFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("fcma_ckpt_fuzz_" + std::to_string(::getpid()) + ".json"))
                .string();
    // Three scored runs with gaps, so the document has several "first" /
    // "accuracy" members and non-terminating decimals.
    core::Scoreboard board(kVoxels);
    board.add(run_of(0, 9, 1.0 / 3.0));
    board.add(run_of(13, 6, 0.625));
    board.add(run_of(30, 10, 0.1));
    write_checkpoint(path_, board);
    std::ifstream f(path_, std::ios::binary);
    valid_.assign(std::istreambuf_iterator<char>(f),
                  std::istreambuf_iterator<char>());
    ASSERT_FALSE(valid_.empty());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Feeds one mutant to json::parse and, through a file, to
  // load_checkpoint.  Returns true when the loader accepted it.
  bool feed(const std::string& text, const std::string& what) {
    try {
      (void)json::parse(text);
    } catch (const Error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": json::parse threw a non-fcma exception: "
                    << e.what();
    }
    {
      std::ofstream f(path_, std::ios::binary | std::ios::trunc);
      f.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
    try {
      const core::Scoreboard board = load_checkpoint(path_, kVoxels);
      EXPECT_EQ(board.total_voxels(), kVoxels) << what;
      return true;
    } catch (const Error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": load_checkpoint threw a non-fcma "
                    << "exception: " << e.what();
    }
    return false;
  }

  std::string path_;
  std::string valid_;
};

TEST_F(CheckpointFuzz, UnmutatedFileLoads) {
  EXPECT_TRUE(feed(valid_, "unmutated"));
}

TEST_F(CheckpointFuzz, TruncationAtEveryLengthIsRejected) {
  // The document only closes with its final '}', so every proper prefix
  // must be refused (trailing whitespace aside).
  std::size_t end = valid_.size();
  while (end > 0 && std::isspace(static_cast<unsigned char>(valid_[end - 1]))) {
    --end;
  }
  for (std::size_t len = 0; len < valid_.size(); ++len) {
    const bool loaded =
        feed(valid_.substr(0, len), "truncated to " + std::to_string(len));
    EXPECT_EQ(loaded, len >= end) << "truncated to " << len;
  }
}

TEST_F(CheckpointFuzz, ByteFlipsAreRejectedOrLoadCleanly) {
  Rng rng(0xC4EC7u);
  for (int trial = 0; trial < 4000; ++trial) {
    std::string m = valid_;
    const auto flips = 1 + rng.uniform_index(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const auto at = rng.uniform_index(m.size());
      if (rng.uniform() < 0.5) {
        m[at] = static_cast<char>(m[at] ^ (1u << rng.uniform_index(8)));
      } else {
        m[at] = kAlphabet[rng.uniform_index(sizeof(kAlphabet) - 1)];
      }
    }
    feed(m, "byte-flip trial " + std::to_string(trial));
  }
}

TEST_F(CheckpointFuzz, SplicedGarbageIsRejectedOrLoadsCleanly) {
  Rng rng(0x5911CEu);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string m = valid_;
    const auto splices = 1 + rng.uniform_index(3);
    for (std::uint64_t s = 0; s < splices; ++s) {
      std::string garbage;
      if (rng.uniform() < 0.6) {
        garbage = kTokens[rng.uniform_index(std::size(kTokens))];
      } else {
        const auto len = 1 + rng.uniform_index(32);
        for (std::uint64_t i = 0; i < len; ++i) {
          garbage += static_cast<char>(rng.uniform_index(256));
        }
      }
      // Overwrite 0-7 bytes at the splice point (0 = pure insertion).
      const auto at = rng.uniform_index(m.size() + 1);
      const auto cut = std::min<std::uint64_t>(rng.uniform_index(8),
                                               m.size() - at);
      m.replace(at, cut, garbage);
    }
    feed(m, "splice trial " + std::to_string(trial));
  }
}

TEST_F(CheckpointFuzz, OutOfRangeNumbersAreRejected) {
  // Directed mutants for each integer the loader reads: values a double
  // carries but the voxel index types do not must be refused, not cast.
  auto doc = [&](const std::string& total, const std::string& scored,
                 const std::string& first) {
    return "{\"schema\": \"fcma.ckpt.v1\", \"total_voxels\": " + total +
           ", \"scored\": " + scored + ", \"runs\": [{\"first\": " + first +
           ", \"accuracy\": [0.5]}]}";
  };
  EXPECT_TRUE(feed(doc("40", "1", "0"), "well-formed"));
  EXPECT_TRUE(feed(doc("40", "1", "39"), "last voxel"));
  for (const char* bad : {"-1", "0.5", "1e300", "-1e300", "1e999",
                          "4294967295", "4294967296", "40", "\"3\"", "null"}) {
    EXPECT_FALSE(feed(doc("40", "1", bad), std::string("first=") + bad));
  }
  for (const char* bad : {"-40", "40.5", "1e300", "1e999", "\"40\"", "0"}) {
    EXPECT_FALSE(feed(doc(bad, "1", "0"), std::string("total=") + bad));
  }
  for (const char* bad : {"-1", "1.5", "1e300", "2", "\"1\""}) {
    EXPECT_FALSE(feed(doc("40", bad, "0"), std::string("scored=") + bad));
  }
}

TEST_F(CheckpointFuzz, DeepNestingIsRejectedNotAStackOverflow) {
  EXPECT_FALSE(feed(std::string(200000, '['), "deep array"));
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_FALSE(feed(objects, "deep object"));
}

}  // namespace
}  // namespace fcma::cluster
