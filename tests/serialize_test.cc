#include "src/io/serialize.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/datasets/synthetic.h"
#include "src/io/bytes.h"
#include "tests/testing/fault_injection.h"
#include "tests/testing/fifo.h"

namespace rotind {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

Dataset SampleDataset() {
  SyntheticDatasetSpec spec;
  spec.name = "io";
  spec.num_classes = 3;
  spec.instances_per_class = 4;
  spec.length = 24;
  spec.seed = 7;
  return MakeSyntheticShapeDataset(spec);
}

TEST(BinarySerializeTest, RoundTripPreservesEverything) {
  const Dataset original = SampleDataset();
  const std::string path = TempPath("rotind_roundtrip.bin");
  ASSERT_TRUE(SaveDatasetBinary(original, path));

  Dataset loaded;
  ASSERT_TRUE(LoadDatasetBinary(path, &loaded));
  ASSERT_EQ(loaded.size(), original.size());
  ASSERT_EQ(loaded.length(), original.length());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.items[i], original.items[i]) << i;  // bit-exact
  }
  EXPECT_EQ(loaded.labels, original.labels);
  EXPECT_EQ(loaded.names, original.names);
  std::remove(path.c_str());
}

TEST(BinarySerializeTest, UnlabelledDataset) {
  Dataset ds;
  ds.items = {{1.0, 2.0}, {3.0, 4.0}};
  const std::string path = TempPath("rotind_unlabelled.bin");
  ASSERT_TRUE(SaveDatasetBinary(ds, path));
  Dataset loaded;
  ASSERT_TRUE(LoadDatasetBinary(path, &loaded));
  EXPECT_TRUE(loaded.labels.empty());
  EXPECT_TRUE(loaded.names.empty());
  EXPECT_EQ(loaded.items, ds.items);
  std::remove(path.c_str());
}

TEST(BinarySerializeTest, MissingFileFails) {
  Dataset out;
  EXPECT_FALSE(LoadDatasetBinary("/nonexistent/rotind.bin", &out));
  EXPECT_FALSE(LoadDatasetBinary(TempPath("rotind_missing.bin"), nullptr));
}

TEST(BinarySerializeTest, CorruptMagicFails) {
  const std::string path = TempPath("rotind_corrupt.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOT A ROTIND FILE", f);
    std::fclose(f);
  }
  Dataset out;
  EXPECT_FALSE(LoadDatasetBinary(path, &out));
  std::remove(path.c_str());
}

TEST(BinarySerializeTest, TruncatedFileFails) {
  const Dataset original = SampleDataset();
  const std::string path = TempPath("rotind_trunc.bin");
  ASSERT_TRUE(SaveDatasetBinary(original, path));
  std::filesystem::resize_file(path, 40);  // chop mid-payload
  Dataset out;
  EXPECT_FALSE(LoadDatasetBinary(path, &out));
  std::remove(path.c_str());
}

TEST(UcrSerializeTest, RoundTripValuesAndLabels) {
  const Dataset original = SampleDataset();
  const std::string path = TempPath("rotind_ucr.csv");
  ASSERT_TRUE(SaveDatasetUcr(original, path));

  Dataset loaded;
  ASSERT_TRUE(LoadDatasetUcr(path, &loaded));
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.labels, original.labels);
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(loaded.items[i].size(), original.items[i].size());
    for (std::size_t j = 0; j < original.length(); ++j) {
      EXPECT_NEAR(loaded.items[i][j], original.items[i][j], 1e-12);
    }
  }
  std::remove(path.c_str());
}

TEST(UcrSerializeTest, ParsesWhitespaceAndTabSeparated) {
  const std::string path = TempPath("rotind_ucr_ws.txt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("1 0.5 -0.25 3.0\n", f);
    std::fputs("2\t1.0\t2.0\t3.0\n", f);
    std::fputs("\n", f);  // blank lines are skipped
    std::fclose(f);
  }
  Dataset loaded;
  ASSERT_TRUE(LoadDatasetUcr(path, &loaded));
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.labels, (std::vector<int>{1, 2}));
  EXPECT_EQ(loaded.items[0], (Series{0.5, -0.25, 3.0}));
  std::remove(path.c_str());
}

TEST(UcrSerializeTest, RejectsRaggedRows) {
  const std::string path = TempPath("rotind_ucr_ragged.txt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("1,0.5,1.5\n", f);
    std::fputs("2,0.5\n", f);  // different length
    std::fclose(f);
  }
  Dataset loaded;
  EXPECT_FALSE(LoadDatasetUcr(path, &loaded));
  std::remove(path.c_str());
}

TEST(UcrSerializeTest, RejectsEmptyAndMissing) {
  Dataset loaded;
  EXPECT_FALSE(LoadDatasetUcr("/nonexistent/rotind.csv", &loaded));
  const std::string path = TempPath("rotind_ucr_empty.txt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadDatasetUcr(path, &loaded));
  std::remove(path.c_str());
}

// --- Status-returning API --------------------------------------------------

TEST(UcrSerializeStatusTest, DistinguishesMissingFromEmpty) {
  StatusOr<Dataset> missing = LoadDatasetUcrStatus("/nonexistent/rotind.csv");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  StatusOr<Dataset> empty = ParseDatasetUcr("");
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kEmptyDataset);
}

TEST(UcrSerializeStatusTest, TrailingNewlineAndBlankLinesAreFine) {
  StatusOr<Dataset> one = ParseDatasetUcr("1,0.5,1.5\n");
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->size(), 1u);

  // Missing final newline, CRLF endings, and interior blank lines all load.
  StatusOr<Dataset> messy =
      ParseDatasetUcr("1,0.5,1.5\r\n\n   \n2,2.5,3.5");
  ASSERT_TRUE(messy.ok()) << messy.status().ToString();
  ASSERT_EQ(messy->size(), 2u);
  EXPECT_EQ(messy->labels, (std::vector<int>{1, 2}));
  EXPECT_EQ(messy->items[1], (Series{2.5, 3.5}));
}

TEST(UcrSerializeStatusTest, MixedDelimitersWithinOneLine) {
  StatusOr<Dataset> ds = ParseDatasetUcr("3 0.5,1.5\t2.5\n");
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->labels, (std::vector<int>{3}));
  EXPECT_EQ(ds->items[0], (Series{0.5, 1.5, 2.5}));
}

TEST(UcrSerializeStatusTest, RaggedRowsGetRaggedRowCode) {
  StatusOr<Dataset> ds = ParseDatasetUcr("1,0.5,1.5\n2,0.5\n");
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kRaggedRow);
  // The message pinpoints the offending line.
  EXPECT_NE(ds.status().message().find("line 2"), std::string::npos)
      << ds.status().message();
}

TEST(UcrSerializeStatusTest, NonNumericFieldsGetParseErrorCode) {
  StatusOr<Dataset> bad_label = ParseDatasetUcr("abc,0.5,1.5\n");
  ASSERT_FALSE(bad_label.ok());
  EXPECT_EQ(bad_label.status().code(), StatusCode::kParseError);

  StatusOr<Dataset> bad_field = ParseDatasetUcr("1,0.5,oops\n");
  ASSERT_FALSE(bad_field.ok());
  EXPECT_EQ(bad_field.status().code(), StatusCode::kParseError);

  StatusOr<Dataset> label_only = ParseDatasetUcr("1\n");
  ASSERT_FALSE(label_only.ok());
  EXPECT_EQ(label_only.status().code(), StatusCode::kParseError);
}

TEST(UcrSerializeStatusTest, NonFiniteValuesGetBadValueCode) {
  for (const char* text : {"1,nan,1.0\n", "1,inf,1.0\n", "1,-inf,1.0\n",
                           "nan,1.0,2.0\n"}) {
    StatusOr<Dataset> ds = ParseDatasetUcr(text);
    ASSERT_FALSE(ds.ok()) << text;
    EXPECT_EQ(ds.status().code(), StatusCode::kBadValue) << text;
  }
}

TEST(BinarySerializeStatusTest, LengthZeroHeaderRejected) {
  // Hand-build a header claiming count=3, length=0.
  std::string image = "RIND";
  const auto append_pod = [&image](auto v) {
    image.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  append_pod(std::uint32_t{1});   // version
  append_pod(std::uint64_t{3});   // count
  append_pod(std::uint64_t{0});   // length
  append_pod(std::uint8_t{0});    // has_labels
  append_pod(std::uint8_t{0});    // has_names
  StatusOr<Dataset> ds = ParseDatasetBinary(image.data(), image.size());
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kCorruptHeader);
}

TEST(BinarySerializeStatusTest, SaveRejectsRaggedAndNonFinite) {
  Dataset ragged;
  ragged.items = {{1.0, 2.0}, {3.0}};
  const std::string path = TempPath("rotind_bad_save.bin");
  Status s = SaveDatasetBinaryStatus(ragged, path);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  Dataset nan_ds;
  nan_ds.items = {{1.0, std::nan("")}};
  s = SaveDatasetBinaryStatus(nan_ds, path);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kBadValue);
  EXPECT_FALSE(std::filesystem::exists(path));  // rejected before any write
}

// --- One loader for both formats -------------------------------------------

void ExpectSameDataset(const Dataset& got, const Dataset& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.labels, want.labels);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.items[i].size(), want.items[i].size()) << i;
    for (std::size_t j = 0; j < want.length(); ++j) {
      EXPECT_NEAR(got.items[i][j], want.items[i][j], 1e-12) << i << "," << j;
    }
  }
}

/// LoadDatasetStatus picks the format from the bytes it read: the binary
/// container by its magic, UCR text otherwise.
TEST(LoadDatasetStatusTest, SniffsEachFormatFromItsBytes) {
  const Dataset original = SampleDataset();
  const std::string bin = TempPath("rotind_sniff.bin");
  const std::string csv = TempPath("rotind_sniff.csv");
  ASSERT_TRUE(SaveDatasetBinaryStatus(original, bin).ok());
  ASSERT_TRUE(SaveDatasetUcrStatus(original, csv).ok());
  const StatusOr<Dataset> from_bin = LoadDatasetStatus(bin);
  ASSERT_TRUE(from_bin.ok()) << from_bin.status().ToString();
  EXPECT_EQ(from_bin->items, original.items);  // bit-exact
  EXPECT_EQ(from_bin->names, original.names);
  ExpectSameDataset(*from_bin, original);
  const StatusOr<Dataset> from_csv = LoadDatasetStatus(csv);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
  ExpectSameDataset(*from_csv, original);
  std::remove(bin.c_str());
  std::remove(csv.c_str());
}

/// A container cut short gets the binary loader's verdict, not a UCR parse
/// error about its header bytes.
TEST(LoadDatasetStatusTest, TruncatedContainerReportsTruncation) {
  const std::string path = TempPath("rotind_sniff_trunc.bin");
  ASSERT_TRUE(SaveDatasetBinaryStatus(SampleDataset(), path).ok());
  // Chop mid-payload: the header still fits the file, the rows do not.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  const StatusOr<Dataset> loaded = LoadDatasetStatus(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kTruncated);
  std::remove(path.c_str());
}

TEST(LoadDatasetStatusTest, MissingFileIsNotFound) {
  const StatusOr<Dataset> loaded = LoadDatasetStatus("/nonexistent/rotind.csv");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

/// Both formats load through a FIFO, as `--db <(cat db.csv)` hands them
/// over: the file is read once, never reopened or sought.
TEST(LoadDatasetStatusTest, LoadsEitherFormatThroughAFifo) {
  const Dataset original = SampleDataset();
  const std::string csv = TempPath("rotind_fifo_source.csv");
  ASSERT_TRUE(SaveDatasetUcrStatus(original, csv).ok());
  const StatusOr<std::string> text = ReadFileToString(csv);
  std::remove(csv.c_str());
  ASSERT_TRUE(text.ok());
  const std::string image = testing::BinaryImageOf(original);
  ASSERT_FALSE(image.empty());

  const StatusOr<Dataset> from_bin =
      testing::ReadThroughFifo(image, LoadDatasetStatus);
  ASSERT_TRUE(from_bin.ok()) << from_bin.status().ToString();
  EXPECT_EQ(from_bin->items, original.items);  // bit-exact
  ExpectSameDataset(*from_bin, original);
  const StatusOr<Dataset> from_csv =
      testing::ReadThroughFifo(*text, LoadDatasetStatus);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
  ExpectSameDataset(*from_csv, original);
}

}  // namespace
}  // namespace rotind
