// Tests for the CRC-guarded campaign journal: round-trip, kill-at-any-byte
// recovery, corruption rejection, duplicate folding, resume-append, and the
// --checkpoint/--resume opener.
#include "campaign/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace rbs::campaign {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

JournalHeader demo_header() { return {42, 5, "unit-test|tag"}; }

std::vector<JournalRecord> demo_records() {
  return {
      {0, 1, JournalRecord::Kind::kOk, "0,1.5,200"},
      {1, 1, JournalRecord::Kind::kFailed, "boom: \"quoted\",\nnewline\tand\x01control"},
      {1, 2, JournalRecord::Kind::kOk, "1,2.25,315"},
      {2, 3, JournalRecord::Kind::kQuarantined, "gave up after 3 attempts"},
  };
}

std::string make_journal(const std::string& path) {
  auto writer = JournalWriter::create(path, demo_header());
  EXPECT_TRUE(writer.is_ok()) << writer.status().message();
  for (const JournalRecord& r : demo_records()) {
    const Status s = writer.value().append(r);
    EXPECT_TRUE(s.is_ok()) << s.message();
  }
  return read_file(path);  // writer closed at scope exit; contents are synced per append
}

TEST(JournalTest, RoundTripsHeaderAndRecords) {
  const std::string path = temp_path("journal_roundtrip.jsonl");
  make_journal(path);

  const Expected<LoadedJournal> loaded = load_journal(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  const LoadedJournal& j = loaded.value();
  EXPECT_EQ(j.header.seed, 42u);
  EXPECT_EQ(j.header.items, 5u);
  EXPECT_EQ(j.header.tag, "unit-test|tag");
  EXPECT_EQ(j.dropped_tail_bytes, 0u);
  EXPECT_EQ(j.duplicate_records, 0u);

  const std::vector<JournalRecord> want = demo_records();
  ASSERT_EQ(j.records.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(j.records[i].index, want[i].index);
    EXPECT_EQ(j.records[i].attempt, want[i].attempt);
    EXPECT_EQ(j.records[i].kind, want[i].kind);
    EXPECT_EQ(j.records[i].payload, want[i].payload) << "record " << i;
  }

  ASSERT_NE(j.final_record(1), nullptr);
  EXPECT_EQ(j.final_record(1)->payload, "1,2.25,315");
  EXPECT_EQ(j.failed_attempts(1), 1u);
  EXPECT_EQ(j.final_record(3), nullptr);
  std::remove(path.c_str());
}

// The tentpole property: a process killed at ANY byte offset after the
// header landed leaves a journal that still loads, recovering some prefix
// of the appended records.
TEST(JournalTest, LoadsEveryKillPrefix) {
  const std::string path = temp_path("journal_prefix.jsonl");
  const std::string full = make_journal(path);
  const std::size_t header_len = full.find('\n') + 1;

  for (std::size_t cut = header_len; cut <= full.size(); ++cut) {
    write_file(path, full.substr(0, cut));
    const Expected<LoadedJournal> loaded = load_journal(path);
    ASSERT_TRUE(loaded.is_ok()) << "cut at byte " << cut << ": " << loaded.status().message();
    // Only whole records survive, and recovery reports exactly the bytes
    // it had to drop.
    EXPECT_EQ(loaded.value().valid_bytes + loaded.value().dropped_tail_bytes, cut);
    EXPECT_LE(loaded.value().records.size(), demo_records().size());
  }
  std::remove(path.c_str());
}

TEST(JournalTest, RecoversTornTailAndResumeTruncatesIt) {
  const std::string path = temp_path("journal_torn.jsonl");
  const std::string full = make_journal(path);
  write_file(path, full + "{\"i\":3,\"a\":1,\"k\":\"ok\",\"p\":\"half-writ");

  Expected<LoadedJournal> loaded = load_journal(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  EXPECT_GT(loaded.value().dropped_tail_bytes, 0u);
  EXPECT_EQ(loaded.value().records.size(), demo_records().size());

  // Resuming truncates the torn bytes and appends after the last good line.
  {
    auto writer = JournalWriter::resume(path, loaded.value());
    ASSERT_TRUE(writer.is_ok()) << writer.status().message();
    const Status s =
        writer.value().append({3, 1, JournalRecord::Kind::kOk, "3,9.5,77"});
    ASSERT_TRUE(s.is_ok()) << s.message();
  }
  const Expected<LoadedJournal> reloaded = load_journal(path);
  ASSERT_TRUE(reloaded.is_ok()) << reloaded.status().message();
  EXPECT_EQ(reloaded.value().dropped_tail_bytes, 0u);
  ASSERT_EQ(reloaded.value().records.size(), demo_records().size() + 1);
  EXPECT_EQ(reloaded.value().records.back().payload, "3,9.5,77");
  std::remove(path.c_str());
}

TEST(JournalTest, RejectsFlippedByteBeforeTheTail) {
  const std::string path = temp_path("journal_flip.jsonl");
  std::string full = make_journal(path);
  // Flip one payload byte in the SECOND line (a record followed by more
  // records): not a torn tail, must be a hard, descriptive error.
  const std::size_t line2 = full.find('\n') + 1;
  const std::size_t target = full.find("\"p\":\"", line2) + 5;
  ASSERT_LT(target, full.size());
  full[target] = full[target] == 'X' ? 'Y' : 'X';
  write_file(path, full);

  const Expected<LoadedJournal> loaded = load_journal(path);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos)
      << loaded.status().message();
  EXPECT_NE(loaded.status().message().find("CRC"), std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST(JournalTest, CorruptFinalLineIsRecoveredAsTornTail) {
  // A flipped byte in the very last line is indistinguishable from a torn
  // write of that line: recovery drops it instead of failing the load.
  const std::string path = temp_path("journal_flip_tail.jsonl");
  std::string full = make_journal(path);
  const std::size_t last_line = full.rfind("{\"i\"");
  std::string corrupted = full;
  corrupted[last_line + 10] ^= 0x20;
  write_file(path, corrupted);

  const Expected<LoadedJournal> loaded = load_journal(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  EXPECT_GT(loaded.value().dropped_tail_bytes, 0u);
  EXPECT_EQ(loaded.value().records.size(), demo_records().size() - 1);
  std::remove(path.c_str());
}

TEST(JournalTest, ExactDuplicateRecordsAreBenign) {
  const std::string path = temp_path("journal_dup.jsonl");
  const std::string full = make_journal(path);
  // Replay the first record verbatim (a crash between append and
  // bookkeeping makes the resumed run re-append it).
  const JournalRecord first = demo_records()[0];
  write_file(path, full + serialize_record(first));

  const Expected<LoadedJournal> loaded = load_journal(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().duplicate_records, 1u);
  EXPECT_EQ(loaded.value().records.size(), demo_records().size());
  std::remove(path.c_str());
}

TEST(JournalTest, FailureReplayedWithBumpedAttemptIsBenign) {
  // A resume that re-executes a failed item re-logs the same deterministic
  // failure under a bumped attempt counter. Such a record differs from the
  // one on file ONLY in the retry count, so it folds as a duplicate instead
  // of inflating failed_attempts() across crash/resume cycles.
  const std::string path = temp_path("journal_retry_dup.jsonl");
  auto writer = JournalWriter::create(path, demo_header());
  ASSERT_TRUE(writer.is_ok()) << writer.status().message();
  ASSERT_TRUE(writer.value().append({1, 1, JournalRecord::Kind::kFailed, "boom: X"}).is_ok());
  ASSERT_TRUE(writer.value().append({1, 2, JournalRecord::Kind::kFailed, "boom: X"}).is_ok());
  ASSERT_TRUE(writer.value().append({1, 2, JournalRecord::Kind::kOk, "1,2.25,315"}).is_ok());

  const Expected<LoadedJournal> loaded = load_journal(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().duplicate_records, 1u);
  EXPECT_EQ(loaded.value().records.size(), 2u);
  EXPECT_EQ(loaded.value().failed_attempts(1), 1u);
  ASSERT_NE(loaded.value().final_record(1), nullptr);
  EXPECT_EQ(loaded.value().final_record(1)->payload, "1,2.25,315");
  std::remove(path.c_str());
}

TEST(JournalTest, DistinctFailurePayloadsStillCountAsRetries) {
  // A genuinely different failure at a new attempt is NOT a replay: both
  // records stay live and the retry budget sees two attempts.
  const std::string path = temp_path("journal_retry_distinct.jsonl");
  auto writer = JournalWriter::create(path, demo_header());
  ASSERT_TRUE(writer.is_ok()) << writer.status().message();
  ASSERT_TRUE(writer.value().append({1, 1, JournalRecord::Kind::kFailed, "timeout"}).is_ok());
  ASSERT_TRUE(writer.value().append({1, 2, JournalRecord::Kind::kFailed, "crashed"}).is_ok());

  const Expected<LoadedJournal> loaded = load_journal(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().duplicate_records, 0u);
  EXPECT_EQ(loaded.value().failed_attempts(1), 2u);
  std::remove(path.c_str());
}

TEST(JournalTest, RejectsConflictingDuplicateVerdicts) {
  const std::string path = temp_path("journal_conflict.jsonl");
  const std::string full = make_journal(path);
  // Same item 0, different payload, followed by one more valid record so the
  // conflict is not on the final line.
  write_file(path, full + serialize_record({0, 1, JournalRecord::Kind::kOk, "different"}) +
                       serialize_record({3, 1, JournalRecord::Kind::kOk, "x"}));

  const Expected<LoadedJournal> loaded = load_journal(path);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_NE(loaded.status().message().find("conflicting"), std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST(JournalTest, RejectsFailedAttemptAfterFinalVerdict) {
  const std::string path = temp_path("journal_late_fail.jsonl");
  const std::string full = make_journal(path);
  write_file(path, full + serialize_record({0, 2, JournalRecord::Kind::kFailed, "late"}) +
                       serialize_record({3, 1, JournalRecord::Kind::kOk, "x"}));
  const Expected<LoadedJournal> loaded = load_journal(path);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_NE(loaded.status().message().find("final verdict"), std::string::npos);
  std::remove(path.c_str());
}

TEST(JournalTest, RejectsOutOfRangeItemIndex) {
  const std::string path = temp_path("journal_range.jsonl");
  const std::string full = make_journal(path);
  // Index 99 with 5 items in the header, followed by a valid record.
  write_file(path, full + serialize_record({99, 1, JournalRecord::Kind::kOk, "x"}) +
                       serialize_record({3, 1, JournalRecord::Kind::kOk, "x"}));
  const Expected<LoadedJournal> loaded = load_journal(path);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_NE(loaded.status().message().find("out of range"), std::string::npos);
  std::remove(path.c_str());
}

TEST(JournalTest, RejectsMissingOrForeignHeader) {
  const std::string path = temp_path("journal_header.jsonl");
  write_file(path, "not json at all\n");
  EXPECT_FALSE(load_journal(path).is_ok());
  write_file(path, "{\"some\":\"other format\"}\n");
  const Expected<LoadedJournal> foreign = load_journal(path);
  ASSERT_FALSE(foreign.is_ok());
  EXPECT_NE(foreign.status().message().find("not an rbs journal"), std::string::npos);
  write_file(path, "");
  EXPECT_FALSE(load_journal(path).is_ok());
  std::remove(path.c_str());
  EXPECT_FALSE(load_journal(path).is_ok());  // missing file
}

TEST(JournalTest, CreateReplacesExistingJournal) {
  const std::string path = temp_path("journal_replace.jsonl");
  make_journal(path);
  {
    auto writer = JournalWriter::create(path, {7, 2, "fresh"});
    ASSERT_TRUE(writer.is_ok());
  }
  const Expected<LoadedJournal> loaded = load_journal(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().header.seed, 7u);
  EXPECT_EQ(loaded.value().records.size(), 0u);
  std::remove(path.c_str());
}

// open_journal is the one path every --checkpoint/--resume caller takes: a
// resume with no journal on disk, a torn tail, a journal of another
// campaign, corruption before the tail, and a fresh start over an old file.
TEST(JournalTest, OpenJournalCoversEveryResumeOutcome) {
  const std::string path = temp_path("journal_open.jsonl");
  std::remove(path.c_str());
  {
    const Expected<OpenedJournal> opened = open_journal(path, demo_header(), true);
    ASSERT_TRUE(opened.is_ok()) << opened.status().message();
    EXPECT_FALSE(opened.value().loaded.has_value());
    EXPECT_NE(opened.value().note.find("starting fresh"), std::string::npos);
  }

  const std::string full = make_journal(path);
  write_file(path, full + "{\"i\":3,\"a\":1");
  {
    const Expected<OpenedJournal> opened = open_journal(path, demo_header(), true);
    ASSERT_TRUE(opened.is_ok()) << opened.status().message();
    ASSERT_TRUE(opened.value().loaded.has_value());
    EXPECT_EQ(opened.value().loaded->records.size(), demo_records().size());
    EXPECT_NE(opened.value().note.find("torn-tail"), std::string::npos);
  }
  EXPECT_EQ(read_file(path), full);  // the torn tail was truncated away

  const Expected<OpenedJournal> foreign = open_journal(path, {43, 5, "unit-test|tag"}, true);
  ASSERT_FALSE(foreign.is_ok());
  EXPECT_NE(foreign.status().message().find("different campaign"), std::string::npos);

  std::string flipped = full;
  flipped[full.find('\n') + 5] ^= 0x01;
  write_file(path, flipped);
  const Expected<OpenedJournal> corrupt = open_journal(path, demo_header(), true);
  ASSERT_FALSE(corrupt.is_ok());
  EXPECT_NE(corrupt.status().message().find("cannot resume"), std::string::npos);
  EXPECT_NE(corrupt.status().message().find("line 2"), std::string::npos);

  {
    const Expected<OpenedJournal> opened = open_journal(path, demo_header(), false);
    ASSERT_TRUE(opened.is_ok()) << opened.status().message();
    EXPECT_FALSE(opened.value().loaded.has_value());
    EXPECT_TRUE(opened.value().note.empty());
  }
  const Expected<LoadedJournal> replaced = load_journal(path);
  ASSERT_TRUE(replaced.is_ok()) << replaced.status().message();
  EXPECT_EQ(replaced.value().records.size(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rbs::campaign
